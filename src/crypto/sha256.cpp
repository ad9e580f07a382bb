#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lo::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() noexcept {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  length_ = 0;
  buf_len_ = 0;
}

void detail::sha256_compress_portable(std::uint32_t* state,
                                      const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
namespace {

// Four rounds per step on SHA256RNDS2, which keeps the state as the lane
// pairs ABEF and CDGH and takes two message-plus-constant words per call;
// SHA256MSG1/MSG2 extend the schedule four words at a time. w[j % 4] holds
// schedule words 4j..4j+3.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* block) noexcept {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w[4];
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    __m128i& wj = w[j & 3];
    if (j < 4) {
      wj = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * j)),
          byteswap);
    } else {
      const __m128i& w1 = w[(j + 3) & 3];  // words 4j-4..4j-1
      const __m128i& w2 = w[(j + 2) & 3];  // words 4j-8..4j-5
      wj = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(wj, w[(j + 1) & 3]),
                        _mm_alignr_epi8(w1, w2, 4)),
          w1);
    }
    const __m128i wk = _mm_add_epi32(
        wj, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace
#endif

detail::Sha256Compress detail::sha256_compress_picked() noexcept {
#if defined(__x86_64__)
  // Decided once, on first use. That use may be a hash in a static
  // initializer that runs before libgcc's own CPU detection, hence the
  // explicit __builtin_cpu_init().
  static const Sha256Compress picked =
      (__builtin_cpu_init(), __builtin_cpu_supports("sha"))
          ? &compress_shani
          : &sha256_compress_portable;
  return picked;
#else
  return &sha256_compress_portable;
#endif
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return *this;  // empty span may carry a null data()
  length_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t need = 64 - buf_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress(buf_);
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    compress(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Digest256 Sha256::finalize() noexcept {
  // Padding: 0x80, zeros up to byte 56 of a block, then the bit length as
  // 8 big-endian bytes. It spills into a second block when fewer than 9
  // bytes of the buffered one are free.
  const std::uint64_t bit_len = length_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    compress(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buf_);

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest256 sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest256 sha256(std::string_view s) noexcept {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

Digest256 detail::sha256_with(Sha256Compress body,
                              std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.body_ = body;
  h.update(data);
  return h.finalize();
}

}  // namespace lo::crypto
