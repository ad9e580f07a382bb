#include "gf/poly.hpp"

namespace lo::gf {

void poly_trim(Poly& p) {
  while (!p.empty() && p.back() == 0) p.pop_back();
}

int poly_deg(const Poly& p) { return static_cast<int>(p.size()) - 1; }

Poly poly_add(const Poly& a, const Poly& b) {
  Poly r = a.size() >= b.size() ? a : b;
  const Poly& s = a.size() >= b.size() ? b : a;
  for (std::size_t i = 0; i < s.size(); ++i) r[i] ^= s[i];
  poly_trim(r);
  return r;
}

void poly_add_inplace(Poly& a, const Poly& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] ^= b[i];
  poly_trim(a);
}

Poly poly_mul(const Field& f, const Poly& a, const Poly& b) {
  Poly r;
  poly_mul_into(f, a, b, r);
  return r;
}

void poly_mul_into(const Field& f, const Poly& a, const Poly& b, Poly& out) {
  if (a.empty() || b.empty()) {
    out.clear();
    return;
  }
  out.assign(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    f.fma_row(a[i], b.data(), out.data() + i, b.size());
  }
  poly_trim(out);
}

namespace {

// The inverse of b's leading coefficient. The root finder divides by monic
// polynomials (split() makes each one monic first), so 1 skips the
// inversion.
std::uint64_t lead_inverse(const Field& f, const Poly& b) {
  const std::uint64_t lead = b.back();
  return lead == 1 ? 1 : f.inv(lead);
}

// a = a mod b, one top-down pass; records the quotient in q when given (q
// sized to deg a - deg b + 1 by the caller). The rows XOR-accumulate
// unreduced (Field::fma_row_lazy): a lead is reduced once, when it becomes
// the row factor, and the remainder once, at the end.
void eliminate(const Field& f, Poly& a, const Poly& b, Poly* q) {
  const int db = poly_deg(b);
  int da = poly_deg(a);
  if (da < db) return;
  const std::uint64_t lead_inv = lead_inverse(f, b);
  for (; da >= db; --da) {
    const std::uint64_t lead = f.reduce(a[static_cast<std::size_t>(da)]);
    if (lead == 0) continue;
    const std::uint64_t factor = lead_inv == 1 ? lead : f.mul(lead, lead_inv);
    const auto shift = static_cast<std::size_t>(da - db);
    if (q != nullptr) (*q)[shift] = factor;
    f.fma_row_lazy(factor, b.data(), a.data() + shift,
                   static_cast<std::size_t>(db));
  }
  a.resize(static_cast<std::size_t>(db > 0 ? db : 0));
  f.reduce_row(a.data(), a.size());
  poly_trim(a);
}

}  // namespace

void poly_mod_inplace(const Field& f, Poly& a, const Poly& b) {
  eliminate(f, a, b, nullptr);
}

void poly_divmod_inplace(const Field& f, Poly& a, const Poly& b, Poly& q) {
  const int db = poly_deg(b);
  const int da = poly_deg(a);
  if (da < db) {
    q.clear();
    return;
  }
  q.assign(static_cast<std::size_t>(da - db) + 1, 0);
  eliminate(f, a, b, &q);
  poly_trim(q);
}

Poly poly_mod(const Field& f, Poly a, const Poly& b) {
  poly_mod_inplace(f, a, b);
  return a;
}

Poly poly_div(const Field& f, Poly a, const Poly& b) {
  Poly q;
  poly_divmod_inplace(f, a, b, q);
  return q;
}

void poly_gcd_inplace(const Field& f, Poly& a, Poly& b) {
  while (!b.empty()) {
    poly_mod_inplace(f, a, b);
    std::swap(a, b);
  }
  poly_make_monic(f, a);
}

Poly poly_gcd(const Field& f, Poly a, Poly b) {
  poly_gcd_inplace(f, a, b);
  return a;
}

void poly_make_monic(const Field& f, Poly& p) {
  if (p.empty()) return;
  const std::uint64_t lead = p.back();
  if (lead == 1) return;
  const std::uint64_t li = f.inv(lead);
  for (auto& c : p) c = f.mul(c, li);
}

std::uint64_t poly_eval(const Field& f, const Poly& p, std::uint64_t x) {
  std::uint64_t r = 0;
  for (std::size_t i = p.size(); i-- > 0;) {
    r = f.mul(r, x) ^ p[i];
  }
  return r;
}

Poly poly_sqr(const Field& f, const Poly& p) {
  if (p.empty()) return {};
  Poly r(2 * p.size() - 1, 0);
  for (std::size_t i = 0; i < p.size(); ++i) r[2 * i] = f.sqr(p[i]);
  poly_trim(r);
  return r;
}

}  // namespace lo::gf
