// Root finding for polynomials over GF(2^m) that split into distinct linear
// factors — the case that arises when decoding a valid PinSketch locator.
//
// Uses the Berlekamp trace algorithm: for a random beta, the trace polynomial
//   T_beta(x) = sum_{i=0..m-1} (beta x)^(2^i)
// maps every field element to GF(2), so gcd(f, T_beta) splits f by trace
// value. Recursing with fresh betas separates all roots in expected
// O(deg^2 log) field operations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/poly.hpp"

namespace lo::gf {

// Reusable scratch for the workspace overload: shared buffers for the
// trace chains plus a PolyPool for the splitter's per-level factors. A
// decoder that owns a RootWorkspace finds roots allocation-free in steady
// state (only the pool grows, up to the deepest split seen).
struct RootWorkspace {
  Poly frob;      // running (beta x)^(2^i) mod f chain
  Poly sqr_tmp;   // squaring scratch for the chain
  // x^(2j) mod f for j in [ceil(d/2), d), d coefficients per row, for the
  // divisor f of degree d being split: floor(d/2) * d elements, 64 KiB at
  // d = 128.
  std::vector<std::uint64_t> sqr_mod;
  Poly trace;     // accumulated trace polynomial
  Poly trace1;    // trace + 1 (the complementary gcd argument)
  Poly gcd_tmp;   // clobber copy for gcd's second argument
  PolyPool pool;  // per-recursion-level g / q factors
};

// Returns all roots of p if p splits into deg(p) distinct linear factors over
// the field; std::nullopt otherwise (the PinSketch "decode failure" signal).
// `seed` makes the beta sequence deterministic.
std::optional<std::vector<std::uint64_t>> find_roots(const Field& f, Poly p,
                                                     std::uint64_t seed = 1);

// Workspace variant: clobbers p, appends the roots to out (cleared first),
// and returns whether p split completely. Identical results to find_roots
// (same beta sequence, same root order).
bool find_roots_ws(const Field& f, Poly& p, std::uint64_t seed,
                   RootWorkspace& ws, std::vector<std::uint64_t>& out);

}  // namespace lo::gf
