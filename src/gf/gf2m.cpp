#include "gf/gf2m.hpp"

#include <stdexcept>

#if defined(__x86_64__)
#include <wmmintrin.h>
#endif

namespace lo::gf {

namespace {

// Seroussi low-weight irreducible polynomials: entry m lists the middle
// exponents; the polynomial is x^m + x^a (+ x^b + x^c) + 1.
// Only the sizes used by the library are included.
std::uint64_t default_modulus(unsigned m) {
  auto tri = [m](unsigned a) {
    return (1ULL << m) | (1ULL << a) | 1ULL;
  };
  auto pent = [m](unsigned a, unsigned b, unsigned c) {
    return (1ULL << m) | (1ULL << a) | (1ULL << b) | (1ULL << c) | 1ULL;
  };
  switch (m) {
    case 8:  return pent(4, 3, 1);
    case 16: return pent(5, 3, 1);
    case 24: return pent(4, 3, 1);
    case 32: return pent(7, 3, 2);
    case 48: return pent(5, 3, 2);
    case 63: return tri(1);
    default:
      throw std::invalid_argument("unsupported GF(2^m) size");
  }
}

#if defined(__x86_64__)
__attribute__((target("pclmul"))) std::uint64_t clmul64(std::uint64_t a,
                                                        std::uint64_t b) {
  const __m128i va = _mm_set_epi64x(0, static_cast<long long>(a));
  const __m128i vb = _mm_set_epi64x(0, static_cast<long long>(b));
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_clmulepi64_si128(va, vb, 0)));
}

bool cpu_has_pclmul() { return __builtin_cpu_supports("pclmul"); }

// r mod f for deg r <= 2m-1 (see Field::mul_clmul for why one quotient
// estimate is exact).
__attribute__((target("pclmul"))) inline std::uint64_t barrett(
    std::uint64_t r, std::uint64_t mu, std::uint64_t mod, unsigned m,
    std::uint64_t mask) {
  const std::uint64_t q = clmul64(r >> m, mu) >> m;
  return (r ^ clmul64(q, mod)) & mask;
}

// Bulk-kernel bodies live in target("pclmul") functions of their own so the
// carry-less multiplies inline and pipeline across loop iterations instead of
// paying a call per element (the whole point of the row-shaped API).
__attribute__((target("pclmul"))) void fma_row_clmul(
    std::uint64_t factor, const std::uint64_t* src, std::uint64_t* dst,
    std::size_t n, std::uint64_t mu, std::uint64_t mod, unsigned m,
    std::uint64_t mask) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] ^= barrett(clmul64(factor, src[i]), mu, mod, m, mask);
  }
}

// Reduction is GF(2)-linear, so unreduced products can be XOR-folded and
// Barrett-reduced once at the end: every product of reduced operands, and so
// every XOR of them, stays below 2m bits.
__attribute__((target("pclmul"))) void fma_row_lazy_clmul(
    std::uint64_t factor, const std::uint64_t* src, std::uint64_t* dst,
    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= clmul64(factor, src[i]);
}

__attribute__((target("pclmul"))) void reduce_row_clmul(
    std::uint64_t* v, std::size_t n, std::uint64_t mu, std::uint64_t mod,
    unsigned m, std::uint64_t mask) {
  for (std::size_t i = 0; i < n; ++i) v[i] = barrett(v[i], mu, mod, m, mask);
}

__attribute__((target("pclmul"))) std::uint64_t dot_rev_clmul(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
    std::uint64_t mu, std::uint64_t mod, unsigned m, std::uint64_t mask) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc ^= clmul64(a[i], *(b - static_cast<std::ptrdiff_t>(i)));
  }
  return barrett(acc, mu, mod, m, mask);
}

__attribute__((target("pclmul"))) void mul_many_clmul(
    std::uint64_t* p, const std::uint64_t* q, std::size_t n, std::uint64_t mu,
    std::uint64_t mod, unsigned m, std::uint64_t mask) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = barrett(clmul64(p[i], q[i]), mu, mod, m, mask);
  }
}
#else
std::uint64_t clmul64(std::uint64_t, std::uint64_t) { return 0; }
bool cpu_has_pclmul() { return false; }
#endif

// floor(x^(2m) / f) over GF(2)[x] by long division; deg f == m, so the
// quotient has degree exactly m and fits a uint64 for m <= 32.
std::uint64_t compute_barrett_mu(unsigned m, std::uint64_t f) {
  unsigned __int128 num = static_cast<unsigned __int128>(1) << (2 * m);
  std::uint64_t q = 0;
  for (int i = static_cast<int>(m); i >= 0; --i) {
    if ((num >> (static_cast<unsigned>(i) + m)) & 1) {
      q |= 1ULL << i;
      num ^= static_cast<unsigned __int128>(f) << i;
    }
  }
  return q;
}

// GF(2)[x] helpers on bitmask polynomials (bit i = coeff of x^i).
int deg(std::uint64_t f) {
  if (f == 0) return -1;
  return 63 - __builtin_clzll(f);
}

// a * b mod f in GF(2)[x], deg f <= 63.
std::uint64_t gf2x_mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t f) {
  const int df = deg(f);
  std::uint64_t r = 0;
  while (b != 0) {
    if (b & 1) r ^= a;
    b >>= 1;
    a <<= 1;
    if (deg(a) == df) a ^= f;
  }
  return r;
}

std::uint64_t gf2x_gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    int da = deg(a), db = deg(b);
    while (da >= db && a != 0) {
      a ^= b << (da - db);
      da = deg(a);
    }
    std::uint64_t t = a;
    a = b;
    b = t;
  }
  return a;
}

// x^(2^k) mod f via repeated squaring of polynomials mod f.
std::uint64_t gf2x_x_pow_pow2(unsigned k, std::uint64_t f) {
  std::uint64_t r = 2;  // the polynomial x
  for (unsigned i = 0; i < k; ++i) r = gf2x_mulmod(r, r, f);
  return r;
}

}  // namespace

Field::Field(unsigned m, Kernel kernel)
    : m_(m), modulus_(default_modulus(m)), kernel_(kernel) {
  max_element_ = (m == 64) ? ~0ULL : ((1ULL << m) - 1);
  clmul_ = kernel_ == Kernel::kAuto && m <= 32 && cpu_has_pclmul();
  if (clmul_) barrett_mu_ = compute_barrett_mu(m, modulus_);
  if (kernel_ != Kernel::kReference) build_sqr_tables();
}

const Field& Field::get(unsigned m) {
  switch (m) {
    case 8:  { static const Field f(8);  return f; }
    case 16: { static const Field f(16); return f; }
    case 24: { static const Field f(24); return f; }
    case 32: { static const Field f(32); return f; }
    case 48: { static const Field f(48); return f; }
    case 63: { static const Field f(63); return f; }
    default:
      throw std::invalid_argument("unsupported GF(2^m) size");
  }
}

const Field& Field::get_reference(unsigned m) {
  switch (m) {
    case 8:  { static const Field f(8, Kernel::kReference);  return f; }
    case 16: { static const Field f(16, Kernel::kReference); return f; }
    case 24: { static const Field f(24, Kernel::kReference); return f; }
    case 32: { static const Field f(32, Kernel::kReference); return f; }
    case 48: { static const Field f(48, Kernel::kReference); return f; }
    case 63: { static const Field f(63, Kernel::kReference); return f; }
    default:
      throw std::invalid_argument("unsupported GF(2^m) size");
  }
}

void Field::build_sqr_tables() {
  // Squaring is linear over GF(2): (sum_i a_i x^i)^2 = sum_i a_i x^(2i), so
  // sqr(a) is the XOR of x^(2i) mod f over the set bits of a. Precompute the
  // per-bit squares, then fold them into byte-indexed tables.
  std::array<std::uint64_t, 64> bit_sq{};
  std::uint64_t cur = 1;  // x^(2*0)
  const std::uint64_t x2 = mul_portable(2, 2);  // x^2 mod f (== 4 for m > 2)
  for (unsigned j = 0; j < m_; ++j) {
    bit_sq[j] = cur;
    cur = mul_portable(cur, x2);
  }
  nsqr_tabs_ = (m_ + 7) / 8;
  for (unsigned t = 0; t < nsqr_tabs_; ++t) {
    sqr_tab_[t][0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      const unsigned bit = 8 * t + static_cast<unsigned>(__builtin_ctz(v));
      const std::uint64_t contrib = bit < m_ ? bit_sq[bit] : 0;
      sqr_tab_[t][v] = sqr_tab_[t][v & (v - 1)] ^ contrib;
    }
  }
}

std::uint64_t Field::mul_portable(std::uint64_t a, std::uint64_t b) const noexcept {
  // Russian-peasant carry-less multiplication with on-the-fly reduction.
  std::uint64_t r = 0;
  const std::uint64_t top = 1ULL << m_;
  while (b != 0) {
    if (b & 1) r ^= a;
    b >>= 1;
    a <<= 1;
    if (a & top) a ^= modulus_;
  }
  return r;
}

std::uint64_t Field::mul_clmul(std::uint64_t a, std::uint64_t b) const noexcept {
  // Product has at most 2m-1 <= 63 bits for m <= 32, so one clmul suffices.
  // Single-pass Barrett reduction (Intel CLMUL-CRC construction): with
  // mu = floor(x^(2m)/f), the GF(2) quotient floor(r/f) equals
  // floor(floor(r/x^m) * mu / x^m) exactly for deg r <= 2m-1, so one
  // quotient estimate and one fold-back replace the data-dependent
  // `while (hi)` loop of the seed kernel.
  const std::uint64_t r = clmul64(a, b);
  const std::uint64_t q = clmul64(r >> m_, barrett_mu_) >> m_;
  return (r ^ clmul64(q, modulus_)) & max_element_;
}

void Field::fma_row(std::uint64_t factor, const std::uint64_t* src,
                    std::uint64_t* dst, std::size_t n) const noexcept {
  if (factor == 0 || n == 0) return;
#if defined(__x86_64__)
  if (clmul_) {
    fma_row_clmul(factor, src, dst, n, barrett_mu_, modulus_, m_, max_element_);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    if (src[i] != 0) dst[i] ^= mul_portable(factor, src[i]);
  }
}

void Field::fma_row_lazy(std::uint64_t factor, const std::uint64_t* src,
                         std::uint64_t* dst, std::size_t n) const noexcept {
#if defined(__x86_64__)
  if (clmul_) {
    fma_row_lazy_clmul(factor, src, dst, n);
    return;
  }
#endif
  fma_row(factor, src, dst, n);
}

std::uint64_t Field::reduce(std::uint64_t acc) const noexcept {
#if defined(__x86_64__)
  if (clmul_) return barrett(acc, barrett_mu_, modulus_, m_, max_element_);
#endif
  return acc;
}

void Field::reduce_row(std::uint64_t* v, std::size_t n) const noexcept {
#if defined(__x86_64__)
  if (clmul_) reduce_row_clmul(v, n, barrett_mu_, modulus_, m_, max_element_);
#else
  (void)v;
  (void)n;
#endif
}

std::uint64_t Field::dot_rev(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) const noexcept {
  if (n == 0) return 0;
#if defined(__x86_64__)
  if (clmul_) return dot_rev_clmul(a, b, n, barrett_mu_, modulus_, m_, max_element_);
#endif
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc ^= mul_portable(a[i], *(b - static_cast<std::ptrdiff_t>(i)));
  }
  return acc;
}

void Field::mul_many(std::uint64_t* p, const std::uint64_t* q,
                     std::size_t n) const noexcept {
#if defined(__x86_64__)
  if (clmul_) {
    mul_many_clmul(p, q, n, barrett_mu_, modulus_, m_, max_element_);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) p[i] = mul_portable(p[i], q[i]);
}

std::uint64_t Field::pow(std::uint64_t a, std::uint64_t e) const noexcept {
  std::uint64_t r = 1;
  while (e != 0) {
    if (e & 1) r = mul(r, a);
    a = sqr(a);
    e >>= 1;
  }
  return r;
}

std::uint64_t Field::pow_reference(std::uint64_t a, std::uint64_t e) const noexcept {
  std::uint64_t r = 1;
  while (e != 0) {
    if (e & 1) r = mul_portable(r, a);
    a = mul_portable(a, a);
    e >>= 1;
  }
  return r;
}

std::uint64_t Field::inv(std::uint64_t a) const noexcept {
  if (kernel_ == Kernel::kReference) return inv_reference(a);
  return inv_itoh_tsujii(a);
}

std::uint64_t Field::inv_itoh_tsujii(std::uint64_t a) const noexcept {
  // a^(2^m - 2) = (a^(2^(m-1) - 1))^2. Build b = a^(2^n - 1) for n = m-1 by
  // an addition chain on the bits of n: maintaining b = a^(2^k - 1),
  //   doubling:  b <- b^(2^k) * b      (k <- 2k, k squarings + 1 multiply)
  //   add-one:   b <- b^2 * a          (k <- k+1, 1 squaring + 1 multiply)
  // Total floor(log2 n) + popcount(n) - 1 multiplies; squarings are table
  // lookups. The seed ladder (inv_reference) costs ~2m full multiplies.
  const unsigned n = m_ - 1;
  std::uint64_t b = a;
  unsigned k = 1;
  for (int i = 62 - __builtin_clzll(n); i >= 0; --i) {
    std::uint64_t t = b;
    for (unsigned j = 0; j < k; ++j) t = sqr(t);
    b = mul(t, b);
    k *= 2;
    if ((n >> i) & 1) {
      b = mul(sqr(b), a);
      ++k;
    }
  }
  return sqr(b);
}

bool gf2_poly_is_irreducible(std::uint64_t f) {
  const int m = deg(f);
  if (m <= 0) return false;
  // Condition 1: x^(2^m) == x mod f.
  if (gf2x_x_pow_pow2(static_cast<unsigned>(m), f) != 2) return false;
  // Condition 2: gcd(x^(2^(m/p)) - x, f) == 1 for every prime p | m.
  int n = m;
  for (int p = 2; p * p <= n; ++p) {
    if (n % p != 0) continue;
    const std::uint64_t xq = gf2x_x_pow_pow2(static_cast<unsigned>(m / p), f);
    if (gf2x_gcd(xq ^ 2ULL, f) != 1) return false;
    while (n % p == 0) n /= p;
  }
  if (n > 1 && n < m) {
    const std::uint64_t xq = gf2x_x_pow_pow2(static_cast<unsigned>(m / n), f);
    if (gf2x_gcd(xq ^ 2ULL, f) != 1) return false;
  }
  if (n == m && m > 1) {  // m itself prime
    const std::uint64_t xq = gf2x_x_pow_pow2(1, f);
    if (gf2x_gcd(xq ^ 2ULL, f) != 1) return false;
  }
  return true;
}

}  // namespace lo::gf
