// Dense univariate polynomials over GF(2^m).
//
// Coefficients are stored in ascending degree order (coeffs[i] is the
// coefficient of x^i). The zero polynomial is an empty vector. All operations
// take the Field explicitly; a Poly does not own its field.
//
// Two API tiers:
//  - value-returning helpers (poly_add, poly_mul, ...) allocate their result;
//    convenient for tests and cold paths.
//  - in-place / *_into variants write into caller-provided buffers and are
//    the substrate of the allocation-free sketch decode path: a reused
//    buffer's capacity survives between calls, so steady-state decoding does
//    not touch the allocator.
// PolyPool hands out stable, reusable scratch buffers for recursive
// algorithms (the root-finder splitter) that need per-level storage.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gf/gf2m.hpp"

namespace lo::gf {

using Poly = std::vector<std::uint64_t>;

// Removes leading zero coefficients.
void poly_trim(Poly& p);

int poly_deg(const Poly& p);  // -1 for the zero polynomial

Poly poly_add(const Poly& a, const Poly& b);  // == subtraction in char 2

Poly poly_mul(const Field& f, const Poly& a, const Poly& b);

// (a mod b); precondition: b != 0.
Poly poly_mod(const Field& f, Poly a, const Poly& b);

// Quotient of a / b; precondition: b != 0.
Poly poly_div(const Field& f, Poly a, const Poly& b);

Poly poly_gcd(const Field& f, Poly a, Poly b);

// Scales so the leading coefficient is 1; zero polynomial unchanged.
void poly_make_monic(const Field& f, Poly& p);

std::uint64_t poly_eval(const Field& f, const Poly& p, std::uint64_t x);

// p(x)^2 using the Frobenius identity (sum a_i x^i)^2 = sum a_i^2 x^(2i).
Poly poly_sqr(const Field& f, const Poly& p);

// ---- workspace variants (no allocation beyond buffer growth) ----

// a ^= b (polynomial addition in char 2); trims the result.
void poly_add_inplace(Poly& a, const Poly& b);

// out = a * b; out must not alias a or b.
void poly_mul_into(const Field& f, const Poly& a, const Poly& b, Poly& out);

// a = a mod b; precondition: b != 0. Single top-down elimination pass with
// degree tracking (no repeated trim scans).
void poly_mod_inplace(const Field& f, Poly& a, const Poly& b);

// a = a mod b, q = a div b; q must not alias a or b.
void poly_divmod_inplace(const Field& f, Poly& a, const Poly& b, Poly& q);

// a = gcd(a, b) made monic; clobbers b (used as the division scratch).
void poly_gcd_inplace(const Field& f, Poly& a, Poly& b);

// Pool of reusable Poly buffers with stable references: recursive algorithms
// acquire() per-level scratch and roll back to a mark() on scope exit. The
// buffers (and their capacity) persist across uses, so a pool embedded in a
// long-lived workspace makes repeated decodes allocation-free.
class PolyPool {
 public:
  Poly& acquire() {
    if (used_ == pool_.size()) pool_.push_back(std::make_unique<Poly>());
    Poly& p = *pool_[used_++];
    p.clear();
    return p;
  }
  std::size_t mark() const noexcept { return used_; }
  void release_to(std::size_t mark) noexcept { used_ = mark; }

 private:
  std::vector<std::unique_ptr<Poly>> pool_;
  std::size_t used_ = 0;
};

}  // namespace lo::gf
