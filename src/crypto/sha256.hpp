// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction ids, commitment chain hashes, block hashes and the
// seeded intra-bundle shuffle (Sec. 4.3 of the paper: "order seed value is
// based on the hash of the last created block"). The hottest caller is the
// verify memo key, SHA-256("lo-vmemo" || key || sig || msg), which every
// node computes for each tx, commitment, bundle and block it checks.
//
// Kernel tier: Sha256 compresses on the CPU's SHA-NI instructions when
// CPUID says it has them (decided once per process, on first use) and on
// the portable body otherwise; nothing else selects the tier. Both bodies
// compute the same function, so no digest depends on the host (DESIGN.md
// §3c).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace lo::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

// The two compress bodies, for the differential test and the benchmarks.
// Callers hash through Sha256 or sha256(), which run the picked body.
namespace detail {

// Folds one 64-byte block into the eight state words a..h.
using Sha256Compress = void (*)(std::uint32_t* state,
                                const std::uint8_t* block) noexcept;

// The FIPS 180-4 reference body: the only one off x86-64 or without
// SHA-NI, and the one the SHA-NI body is tested against.
void sha256_compress_portable(std::uint32_t* state,
                              const std::uint8_t* block) noexcept;

// The body every Sha256 runs: the SHA-NI one where the CPU has the
// instructions, sha256_compress_portable otherwise.
Sha256Compress sha256_compress_picked() noexcept;

// The digest of `data` through `body` instead of the picked one.
Digest256 sha256_with(Sha256Compress body,
                      std::span<const std::uint8_t> data) noexcept;

}  // namespace detail

class Sha256 {
 public:
  Sha256() noexcept : body_(detail::sha256_compress_picked()) { reset(); }

  void reset() noexcept;
  Sha256& update(std::span<const std::uint8_t> data) noexcept;
  Sha256& update(std::string_view s) noexcept {
    return update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  // Finalizes and returns the digest. The object must be reset() before reuse.
  Digest256 finalize() noexcept;

 private:
  friend Digest256 detail::sha256_with(
      detail::Sha256Compress body,
      std::span<const std::uint8_t> data) noexcept;

  void compress(const std::uint8_t* block) noexcept { body_(h_, block); }

  detail::Sha256Compress body_;
  std::uint32_t h_[8];
  std::uint64_t length_ = 0;       // total bytes absorbed
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
};

Digest256 sha256(std::span<const std::uint8_t> data) noexcept;
Digest256 sha256(std::string_view s) noexcept;

}  // namespace lo::crypto
