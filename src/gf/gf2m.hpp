// Arithmetic in GF(2^m), 2 <= m <= 63.
//
// This is the algebraic substrate of the Minisketch/PinSketch codec
// (Sec. 4.2 of the paper): set sketches are power sums of field elements and
// decoding runs Berlekamp–Massey and root finding over this field.
//
// Field moduli are the low-weight irreducible polynomials from Seroussi,
// "Table of Low-Weight Binary Irreducible Polynomials" (HP Labs HPL-98-135).
// Irreducibility is re-verified by unit tests via gf2_poly_is_irreducible.
//
// Kernel tiers (see DESIGN.md §3d):
//  - mul: PCLMULQDQ carry-less multiply + single-pass Barrett reduction with
//    a precomputed folding constant mu = floor(x^(2m)/f) for m <= 32 on CPUs
//    with PCLMUL; portable shift-and-xor loop otherwise.
//  - sqr: squaring is GF(2)-linear, so it is a precomputed byte-sliced table
//    lookup (ceil(m/8) x 256 entries) instead of a general multiply.
//  - inv: Itoh–Tsujii addition chain on m-1 (a handful of multiplies plus
//    cheap table squarings) instead of a 2m-multiply pow ladder.
//  - lazy rows: fma_row_lazy leaves PCLMUL products unreduced, so polynomial
//    elimination pays one Barrett fold per coefficient, not one per product.
// The seed kernels are retained as *_reference on every instance and serve
// as the differential oracle for the fast paths (tests/test_gf_kernels.cpp).
//
// Precomputed tables make a Field ~17 KB, so protocol code shares immutable
// per-m instances via Field::get(m) instead of constructing its own.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace lo::gf {

class Field {
 public:
  enum class Kernel : std::uint8_t {
    kAuto,       // fastest available (PCLMUL when the CPU has it)
    kPortable,   // fast portable kernels, PCLMUL forced off (test coverage)
    kReference,  // the seed kernels: loop mul, sqr = mul, inv = pow ladder
  };

  // Constructs GF(2^m) with the default low-weight modulus for m.
  explicit Field(unsigned m, Kernel kernel = Kernel::kAuto);

  // Shared immutable instance registry: tables are built once per (m, tier)
  // and reused by every sketch. Throws std::invalid_argument for unsupported
  // m, like the constructor. The returned reference lives forever.
  static const Field& get(unsigned m);
  static const Field& get_reference(unsigned m);

  unsigned bits() const noexcept { return m_; }
  // Reduction polynomial including the x^m term.
  std::uint64_t modulus() const noexcept { return modulus_; }
  // Number of nonzero field elements, 2^m - 1.
  std::uint64_t order() const noexcept { return max_element_; }
  Kernel kernel() const noexcept { return kernel_; }
  // True when mul() runs on the PCLMUL + Barrett path.
  bool uses_clmul() const noexcept { return clmul_; }

  std::uint64_t add(std::uint64_t a, std::uint64_t b) const noexcept { return a ^ b; }

  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    return clmul_ ? mul_clmul(a, b) : mul_portable(a, b);
  }

  std::uint64_t sqr(std::uint64_t a) const noexcept {
    if (kernel_ == Kernel::kReference) return mul(a, a);
    std::uint64_t r = sqr_tab_[0][a & 0xff];
    for (unsigned t = 1; t < nsqr_tabs_; ++t) {
      r ^= sqr_tab_[t][(a >> (8 * t)) & 0xff];
    }
    return r;
  }

  // a^e by square-and-multiply; 0^0 == 1 by convention.
  std::uint64_t pow(std::uint64_t a, std::uint64_t e) const noexcept;

  // Multiplicative inverse; precondition a != 0 (0 maps to 0).
  std::uint64_t inv(std::uint64_t a) const noexcept;

  // Maps an arbitrary 64-bit value into a nonzero field element
  // (uniform over [1, 2^m - 1]; used to map transaction ids into sketches).
  std::uint64_t map_nonzero(std::uint64_t raw) const noexcept {
    return raw % max_element_ + 1;
  }

  // ---- bulk kernels ----
  // The polynomial hot loops (mod/div elimination rows, Berlekamp–Massey
  // discrepancies, syndrome power chains) are constant-times-vector shapes.
  // Routing them through one call per row instead of one call per element
  // lets the PCLMUL path inline into a pipelined loop and amortizes the
  // kernel dispatch; values are identical to elementwise mul().

  // dst[i] ^= factor * src[i] for i < n. dst and src must not overlap.
  void fma_row(std::uint64_t factor, const std::uint64_t* src,
               std::uint64_t* dst, std::size_t n) const noexcept;

  // fma_row without the reduction, for rows that XOR-accumulate into one
  // buffer: factor and src must be reduced; dst then holds accumulators that
  // reduce() / reduce_row() turn back into field elements. On the PCLMUL
  // path (m <= 32) a product of reduced operands has at most 2m-1 bits, so
  // the accumulators stay below 2m bits, the Barrett fold's input range. The
  // other tiers keep the accumulators reduced, and reduce is the identity.
  void fma_row_lazy(std::uint64_t factor, const std::uint64_t* src,
                    std::uint64_t* dst, std::size_t n) const noexcept;
  std::uint64_t reduce(std::uint64_t acc) const noexcept;
  // v[i] = reduce(v[i]) for i < n.
  void reduce_row(std::uint64_t* v, std::size_t n) const noexcept;

  // XOR_{i<n} a[i] * b[-i] (b walks backward; pass b = &s[k] to fold
  // a[0..n) against s[k], s[k-1], ...). The BM discrepancy kernel.
  std::uint64_t dot_rev(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) const noexcept;

  // p[j] = p[j] * q[j] for j < n: advances n independent power chains one
  // step (the batched sketch add / syndrome check kernel).
  void mul_many(std::uint64_t* p, const std::uint64_t* q,
                std::size_t n) const noexcept;

  // ---- seed kernels, kept verbatim as the differential oracle ----
  std::uint64_t mul_reference(std::uint64_t a, std::uint64_t b) const noexcept {
    return mul_portable(a, b);
  }
  std::uint64_t sqr_reference(std::uint64_t a) const noexcept {
    return mul_portable(a, a);
  }
  std::uint64_t pow_reference(std::uint64_t a, std::uint64_t e) const noexcept;
  std::uint64_t inv_reference(std::uint64_t a) const noexcept {
    // a^(2^m - 2); order of the multiplicative group is 2^m - 1.
    return pow_reference(a, max_element_ - 1);
  }

 private:
  std::uint64_t mul_portable(std::uint64_t a, std::uint64_t b) const noexcept;
  std::uint64_t mul_clmul(std::uint64_t a, std::uint64_t b) const noexcept;
  std::uint64_t inv_itoh_tsujii(std::uint64_t a) const noexcept;
  void build_sqr_tables();

  unsigned m_;
  std::uint64_t modulus_;
  std::uint64_t max_element_;
  // Barrett folding constant floor(x^(2m) / modulus), degree exactly m.
  std::uint64_t barrett_mu_ = 0;
  Kernel kernel_;
  bool clmul_ = false;
  // Byte-sliced GF(2)-linear squaring map: sqr(a) is the XOR of
  // sqr_tab_[t][byte t of a] over the ceil(m/8) populated tables.
  unsigned nsqr_tabs_ = 0;
  std::array<std::array<std::uint64_t, 256>, 8> sqr_tab_{};
};

// Irreducibility test for a GF(2)[x] polynomial given as a bitmask
// (bit i = coefficient of x^i). Used by tests to validate the modulus table:
// f of degree m is irreducible iff x^(2^m) == x (mod f) and
// gcd(x^(2^(m/p)) - x, f) == 1 for every prime p dividing m.
bool gf2_poly_is_irreducible(std::uint64_t f);

}  // namespace lo::gf
