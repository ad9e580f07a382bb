#include "gf/root_find.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace lo::gf {

namespace {

// ws.sqr_mod row r = x^(2(h + r)) mod f for h = ceil(d/2), d = deg f >= 2, f
// monic: the reductions of the squared terms that reach degree d. About d^2
// lazy products, by stepping x^k mod f from k = d (x^d mod f is f's low
// part, in characteristic 2) to k = 2d - 2.
void build_sqr_mod_ws(const Field& fld, const Poly& f, RootWorkspace& ws) {
  const std::size_t d = f.size() - 1;
  const std::size_t h = (d + 1) / 2;
  ws.sqr_mod.assign((d - h) * d, 0);
  Poly& cur = ws.sqr_tmp;
  cur.assign(f.begin(), f.end() - 1);
  for (std::size_t k = d;; ++k) {
    if (k % 2 == 0) {
      fld.reduce_row(cur.data(), d);
      std::copy(cur.begin(), cur.end(),
                ws.sqr_mod.begin() + static_cast<std::ptrdiff_t>((k / 2 - h) * d));
      if (k / 2 + 1 == d) return;
    }
    const std::uint64_t top = fld.reduce(cur[d - 1]);
    std::copy_backward(cur.begin(), cur.end() - 1, cur.end());
    cur[0] = 0;
    fld.fma_row_lazy(top, f.data(), cur.data(), d);
  }
}

// out = g^2 mod f for g of degree < d = deg f, from the ws.sqr_mod table:
// g^2 = sum_j g_j^2 x^(2j), and only the terms with 2j >= d need reducing.
// That is d^2/2 lazy products instead of a d-row elimination.
void sqr_mod_ws(const Field& fld, const Poly& g, std::size_t d,
                const RootWorkspace& ws, Poly& out) {
  const std::size_t h = (d + 1) / 2;
  out.assign(d, 0);
  for (std::size_t j = 0; j < g.size() && j < h; ++j) out[2 * j] = fld.sqr(g[j]);
  for (std::size_t j = h; j < g.size(); ++j) {
    fld.fma_row_lazy(fld.sqr(g[j]), &ws.sqr_mod[(j - h) * d], out.data(), d);
  }
  fld.reduce_row(out.data(), d);
  poly_trim(out);
}

// T_beta(x) mod f into ws.trace, by repeated squaring of beta x (already
// reduced, since deg f >= 2) through the ws.sqr_mod table.
void trace_poly_ws(const Field& fld, std::uint64_t beta, const Poly& f,
                   RootWorkspace& ws) {
  const std::size_t d = f.size() - 1;
  ws.frob.assign(2, 0);
  ws.frob[1] = beta;  // beta * x
  ws.trace = ws.frob;
  for (unsigned i = 1; i < fld.bits(); ++i) {
    sqr_mod_ws(fld, ws.frob, d, ws, ws.sqr_tmp);
    std::swap(ws.frob, ws.sqr_tmp);
    poly_add_inplace(ws.trace, ws.frob);
  }
}

// Recursive splitter. `out` accumulates roots; returns false on any evidence
// that p does not split into distinct linear factors. p is clobbered; the
// per-level g / q factors live in the workspace pool so repeated decodes
// reuse their storage.
bool split(const Field& fld, Poly& p, util::Rng& rng, int depth,
           RootWorkspace& ws, std::vector<std::uint64_t>& out) {
  poly_make_monic(fld, p);
  const int d = poly_deg(p);
  if (d <= 0) return d == 0 || p.empty();
  if (d == 1) {
    out.push_back(p[0]);  // x + r => root r (char 2)
    return true;
  }
  if (d == 2 && p[1] == 0) {
    // x^2 + c: double root sqrt(c) — not squarefree, cannot be a valid locator.
    return false;
  }
  // A polynomial splitting into distinct linear factors has degree <= |field|;
  // also guard the recursion depth against adversarial non-splitting inputs.
  if (depth > 200) return false;

  build_sqr_mod_ws(fld, p, ws);
  const std::size_t mk = ws.pool.mark();
  Poly& g = ws.pool.acquire();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t beta = fld.map_nonzero(rng.next());
    trace_poly_ws(fld, beta, p, ws);
    if (depth == 0 && attempt == 0) {
      // T^2 + T = (beta x)^(2^m) + beta x = beta (x^(2^m) + x), as beta^(2^m)
      // = beta. So T^2 == T (mod p) iff p divides x^(2^m) - x, i.e. iff p
      // splits into distinct linear factors: one squaring rejects an invalid
      // locator (the usual outcome of an overflowed sketch) for certain. The
      // factors split off below divide p, so deeper levels skip the check.
      sqr_mod_ws(fld, ws.trace, static_cast<std::size_t>(d), ws, ws.sqr_tmp);
      if (ws.sqr_tmp != ws.trace) {
        ws.pool.release_to(mk);
        return false;
      }
    }
    g = p;
    ws.gcd_tmp = ws.trace;
    poly_gcd_inplace(fld, g, ws.gcd_tmp);
    if (poly_deg(g) <= 0) {
      // All roots might have trace 1 for this beta: try gcd(p, T + 1).
      ws.trace1 = ws.trace;
      if (ws.trace1.empty()) ws.trace1.push_back(0);
      ws.trace1[0] ^= 1;
      poly_trim(ws.trace1);
      g = p;
      poly_gcd_inplace(fld, g, ws.trace1);
    }
    const int dg = poly_deg(g);
    if (dg > 0 && dg < d) {
      Poly& q = ws.pool.acquire();
      ws.gcd_tmp = p;
      poly_divmod_inplace(fld, ws.gcd_tmp, g, q);
      const bool ok = split(fld, g, rng, depth + 1, ws, out) &&
                      split(fld, q, rng, depth + 1, ws, out);
      ws.pool.release_to(mk);
      return ok;
    }
  }
  ws.pool.release_to(mk);
  return false;  // no split found: p almost surely has irreducible factors
}

}  // namespace

bool find_roots_ws(const Field& f, Poly& p, std::uint64_t seed,
                   RootWorkspace& ws, std::vector<std::uint64_t>& out) {
  out.clear();
  poly_trim(p);
  if (p.empty()) return false;  // zero polynomial: undefined
  const int d = poly_deg(p);
  out.reserve(static_cast<std::size_t>(d));
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  if (!split(f, p, rng, 0, ws, out)) return false;
  if (static_cast<int>(out.size()) != d) return false;
  // Distinctness check (duplicates mean the input was not squarefree).
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      if (out[i] == out[j]) return false;
    }
  }
  return true;
}

std::optional<std::vector<std::uint64_t>> find_roots(const Field& f, Poly p,
                                                     std::uint64_t seed) {
  RootWorkspace ws;
  std::vector<std::uint64_t> roots;
  if (!find_roots_ws(f, p, seed, ws, roots)) return std::nullopt;
  return roots;
}

}  // namespace lo::gf
