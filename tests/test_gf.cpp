// GF(2^m) algebra tests: field axioms (parameterized across field sizes),
// modulus irreducibility, polynomial arithmetic, Berlekamp–Massey and the
// trace-based root finder.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "gf/berlekamp_massey.hpp"
#include "gf/gf2m.hpp"
#include "gf/poly.hpp"
#include "gf/root_find.hpp"
#include "util/rng.hpp"

namespace lo::gf {
namespace {

class FieldTest : public ::testing::TestWithParam<unsigned> {
 protected:
  Field field() const { return Field(GetParam()); }
};

TEST_P(FieldTest, ModulusIsIrreducible) {
  EXPECT_TRUE(gf2_poly_is_irreducible(field().modulus()));
}

TEST_P(FieldTest, AdditionIsXor) {
  const Field f = field();
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto a = f.map_nonzero(rng.next());
    const auto b = f.map_nonzero(rng.next());
    EXPECT_EQ(f.add(a, b), a ^ b);
    EXPECT_EQ(f.add(a, a), 0u);  // char 2
  }
}

TEST_P(FieldTest, MultiplicationAxioms) {
  const Field f = field();
  util::Rng rng(GetParam() * 31);
  for (int i = 0; i < 50; ++i) {
    const auto a = f.map_nonzero(rng.next());
    const auto b = f.map_nonzero(rng.next());
    const auto c = f.map_nonzero(rng.next());
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));                      // commutative
    EXPECT_EQ(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c));  // associative
    EXPECT_EQ(f.mul(a, f.add(b, c)),
              f.add(f.mul(a, b), f.mul(a, c)));               // distributive
    EXPECT_EQ(f.mul(a, 1), a);                                // identity
    EXPECT_EQ(f.mul(a, 0), 0u);                               // annihilator
  }
}

TEST_P(FieldTest, ElementsStayInRange) {
  const Field f = field();
  util::Rng rng(GetParam() * 7);
  for (int i = 0; i < 100; ++i) {
    const auto a = f.map_nonzero(rng.next());
    const auto b = f.map_nonzero(rng.next());
    EXPECT_LE(f.mul(a, b), f.order());
    EXPECT_GE(a, 1u);
    EXPECT_LE(a, f.order());
  }
}

TEST_P(FieldTest, InverseIsCorrect) {
  const Field f = field();
  util::Rng rng(GetParam() * 13);
  for (int i = 0; i < 30; ++i) {
    const auto a = f.map_nonzero(rng.next());
    EXPECT_EQ(f.mul(a, f.inv(a)), 1u);
  }
}

TEST_P(FieldTest, FrobeniusFixedField) {
  // a^(2^m) == a for all a (Frobenius is the identity after m squarings).
  const Field f = field();
  util::Rng rng(GetParam() * 17);
  for (int i = 0; i < 10; ++i) {
    auto a = f.map_nonzero(rng.next());
    auto x = a;
    for (unsigned k = 0; k < f.bits(); ++k) x = f.sqr(x);
    EXPECT_EQ(x, a);
  }
}

TEST_P(FieldTest, PowMatchesRepeatedMul) {
  const Field f = field();
  const auto a = f.map_nonzero(0x1234567890abcdefULL);
  std::uint64_t acc = 1;
  for (unsigned e = 0; e < 16; ++e) {
    EXPECT_EQ(f.pow(a, e), acc);
    acc = f.mul(acc, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FieldTest,
                         ::testing::Values(8u, 16u, 24u, 32u, 48u, 63u));

TEST(Field, UnsupportedSizeThrows) {
  EXPECT_THROW(Field(7), std::invalid_argument);
  EXPECT_THROW(Field(64), std::invalid_argument);
}

TEST(Field, ClmulAndPortableAgree) {
  // The clmul fast path is only active for m <= 32; cross-check it against a
  // hand-rolled schoolbook reference on GF(2^32).
  const Field f(32);
  auto reference = [&f](std::uint64_t a, std::uint64_t b) {
    std::uint64_t r = 0;
    const std::uint64_t top = 1ULL << 32;
    while (b != 0) {
      if (b & 1) r ^= a;
      b >>= 1;
      a <<= 1;
      if (a & top) a ^= f.modulus();
    }
    return r;
  };
  util::Rng rng(404);
  for (int i = 0; i < 1000; ++i) {
    const auto a = f.map_nonzero(rng.next());
    const auto b = f.map_nonzero(rng.next());
    EXPECT_EQ(f.mul(a, b), reference(a, b));
  }
}

TEST(Irreducibility, KnownReducibleRejected) {
  // x^2 (reducible), x^2+1 = (x+1)^2, x^4+x^2+1 = (x^2+x+1)^2.
  EXPECT_FALSE(gf2_poly_is_irreducible(0b100));
  EXPECT_FALSE(gf2_poly_is_irreducible(0b101));
  EXPECT_FALSE(gf2_poly_is_irreducible(0b10101));
}

TEST(Irreducibility, KnownIrreducibleAccepted) {
  // x^2+x+1, x^3+x+1, x^8+x^4+x^3+x+1 (AES).
  EXPECT_TRUE(gf2_poly_is_irreducible(0b111));
  EXPECT_TRUE(gf2_poly_is_irreducible(0b1011));
  EXPECT_TRUE(gf2_poly_is_irreducible(0x11b));
}

// ---------------------------------------------------------- polynomials ----

TEST(Poly, DegreeAndTrim) {
  Poly p{1, 2, 0, 0};
  poly_trim(p);
  EXPECT_EQ(poly_deg(p), 1);
  Poly zero{0, 0};
  poly_trim(zero);
  EXPECT_EQ(poly_deg(zero), -1);
}

TEST(Poly, AddIsSubtract) {
  Poly a{1, 2, 3};
  EXPECT_TRUE(poly_add(a, a).empty());
}

TEST(Poly, MulDivRoundTrip) {
  const Field f(32);
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Poly a, b;
    for (int i = 0; i < 5; ++i) a.push_back(f.map_nonzero(rng.next()));
    for (int i = 0; i < 3; ++i) b.push_back(f.map_nonzero(rng.next()));
    // A random lead, then a monic divisor (the root finder's case, which
    // skips inverting the lead).
    for (const bool monic : {false, true}) {
      if (monic) b.back() = 1;
      const Poly prod = poly_mul(f, a, b);
      EXPECT_EQ(poly_deg(prod), poly_deg(a) + poly_deg(b));
      // prod / b == a and prod mod b == 0.
      EXPECT_EQ(poly_div(f, prod, b), a) << "monic " << monic;
      EXPECT_TRUE(poly_mod(f, prod, b).empty()) << "monic " << monic;
    }
  }
}

TEST(Poly, ModIsRemainder) {
  const Field f(16);
  util::Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    Poly a, b;
    for (int i = 0; i < 7; ++i) a.push_back(rng.next() & 0xffff);
    for (int i = 0; i < 4; ++i) b.push_back(f.map_nonzero(rng.next()));
    poly_trim(a);
    if (a.empty()) continue;
    for (const bool monic : {false, true}) {
      if (monic) b.back() = 1;
      const Poly q = poly_div(f, a, b);
      const Poly r = poly_mod(f, a, b);
      EXPECT_LT(poly_deg(r), poly_deg(b));
      // a = qb + r
      EXPECT_EQ(poly_add(poly_mul(f, q, b), r), a) << "monic " << monic;
    }
  }
}

TEST(Poly, EvalHorner) {
  const Field f(32);
  // p(x) = x^2 + 3x + 2 evaluated via field ops.
  const Poly p{2, 3, 1};
  const std::uint64_t x = 7;
  const std::uint64_t want = f.add(f.add(f.mul(x, x), f.mul(3, x)), 2);
  EXPECT_EQ(poly_eval(f, p, x), want);
}

TEST(Poly, SqrMatchesMul) {
  const Field f(32);
  util::Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    Poly a;
    for (int i = 0; i < 6; ++i) a.push_back(rng.next() & 0xffffffff);
    poly_trim(a);
    EXPECT_EQ(poly_sqr(f, a), poly_mul(f, a, a));
  }
}

TEST(Poly, GcdOfMultiples) {
  const Field f(32);
  // g = (x + 3)(x + 5); a = g*(x+7); b = g*(x+11). gcd(a,b) == monic g.
  const Poly g = poly_mul(f, Poly{3, 1}, Poly{5, 1});
  const Poly a = poly_mul(f, g, Poly{7, 1});
  const Poly b = poly_mul(f, g, Poly{11, 1});
  EXPECT_EQ(poly_gcd(f, a, b), g);  // g is already monic
}

// ----------------------------------------------------- Berlekamp–Massey ----

TEST(BerlekampMassey, RecoverKnownLfsr) {
  const Field f(32);
  // Sequence from connection poly C(x) = 1 + c1 x + c2 x^2:
  // s_n = c1*s_{n-1} + c2*s_{n-2}.
  const std::uint64_t c1 = 7, c2 = 11;
  std::vector<std::uint64_t> s{1, 2};
  for (int i = 2; i < 12; ++i) {
    s.push_back(f.add(f.mul(c1, s[i - 1]), f.mul(c2, s[i - 2])));
  }
  const Poly c = berlekamp_massey(f, s);
  ASSERT_EQ(poly_deg(c), 2);
  EXPECT_EQ(c[0], 1u);
  EXPECT_EQ(c[1], c1);
  EXPECT_EQ(c[2], c2);
}

TEST(BerlekampMassey, ZeroSequenceGivesTrivialPoly) {
  const Field f(32);
  const Poly c = berlekamp_massey(f, std::vector<std::uint64_t>(8, 0));
  EXPECT_EQ(poly_deg(c), 0);
  EXPECT_EQ(c[0], 1u);
}

TEST(BerlekampMassey, PowerSumsYieldLocator) {
  const Field f(32);
  // Syndromes s_j = sum_i x_i^j for j = 1..2t decode to the locator whose
  // reciprocal has exactly the x_i as roots.
  const std::vector<std::uint64_t> xs{5, 9, 1234567};
  std::vector<std::uint64_t> s;
  for (int j = 1; j <= 8; ++j) {
    std::uint64_t acc = 0;
    for (auto x : xs) acc ^= f.pow(x, static_cast<std::uint64_t>(j));
    s.push_back(acc);
  }
  const Poly loc = berlekamp_massey(f, s);
  ASSERT_EQ(poly_deg(loc), 3);
  Poly recip(loc.rbegin(), loc.rend());
  poly_trim(recip);
  for (auto x : xs) {
    EXPECT_EQ(poly_eval(f, recip, x), 0u) << "x=" << x;
  }
}

// ---------------------------------------------------------- root finding ----

TEST(RootFind, FindsAllRootsOfSplitPoly) {
  const Field f(32);
  util::Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::set<std::uint64_t> roots;
    while (roots.size() < 8) roots.insert(f.map_nonzero(rng.next()));
    Poly p{1};
    for (auto r : roots) p = poly_mul(f, p, Poly{r, 1});
    auto found = find_roots(f, p, trial);
    ASSERT_TRUE(found.has_value());
    std::set<std::uint64_t> got(found->begin(), found->end());
    EXPECT_EQ(got, roots);
  }
}

TEST(RootFind, SingleLinearFactor) {
  const Field f(32);
  auto found = find_roots(f, Poly{42, 1}, 1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0], 42u);
}

TEST(RootFind, RejectsIrreducibleQuadratic) {
  const Field f(8);
  // Find an irreducible quadratic by scanning: x^2 + bx + c with no roots.
  for (std::uint64_t b = 1; b < 20; ++b) {
    for (std::uint64_t c = 1; c < 20; ++c) {
      Poly p{c, b, 1};
      bool has_root = false;
      for (std::uint64_t x = 0; x < 256; ++x) {
        if (poly_eval(f, p, x) == 0) {
          has_root = true;
          break;
        }
      }
      if (!has_root) {
        EXPECT_FALSE(find_roots(f, p, 3).has_value());
        return;
      }
    }
  }
  FAIL() << "no irreducible quadratic found in scan";
}

TEST(RootFind, RejectsRepeatedRoots) {
  const Field f(32);
  // (x + 5)^2 is not squarefree.
  const Poly p = poly_mul(f, Poly{5, 1}, Poly{5, 1});
  EXPECT_FALSE(find_roots(f, p, 4).has_value());
}

TEST(RootFind, DeterministicForSeed) {
  const Field f(32);
  Poly p{1};
  for (std::uint64_t r : {3u, 99u, 1000003u}) p = poly_mul(f, p, Poly{r, 1});
  auto a = find_roots(f, p, 11);
  auto b = find_roots(f, p, 11);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(RootFind, LargeSplitPoly) {
  const Field f(32);
  util::Rng rng(404);
  std::set<std::uint64_t> roots;
  while (roots.size() < 64) roots.insert(f.map_nonzero(rng.next()));
  Poly p{1};
  for (auto r : roots) p = poly_mul(f, p, Poly{r, 1});
  auto found = find_roots(f, p, 5);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), 64u);
}

// The root finder rejects a locator that does not split when T^2 != T for
// its first trace T. The oracle below is the definition instead: p splits
// into distinct linear factors iff x^(2^m) == x (mod p), by m explicit
// squarings with poly_sqr and poly_mod.
bool frobenius_fixes_x(const Field& f, const Poly& p) {
  const Poly x = poly_mod(f, Poly{0, 1}, p);
  Poly r = x;
  for (unsigned i = 0; i < f.bits(); ++i) r = poly_mod(f, poly_sqr(f, r), p);
  return r == x;
}

std::vector<std::uint64_t> distinct_elements(const Field& f, util::Rng& rng,
                                             std::size_t n) {
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> out;
  while (out.size() < n) {
    const std::uint64_t v = rng.next() & f.order();
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Poly from_roots(const Field& f, const std::vector<std::uint64_t>& roots) {
  Poly p{1};
  for (auto r : roots) p = poly_mul(f, p, Poly{r, 1});
  return p;
}

// x^2 + x + c is irreducible over GF(2^m) iff the absolute trace of c is 1.
Poly irreducible_quadratic(const Field& f, util::Rng& rng) {
  for (;;) {
    const std::uint64_t c = rng.next() & f.order();
    std::uint64_t trace = 0;
    for (std::uint64_t t = c, i = 0; i < f.bits(); ++i, t = f.sqr(t)) trace ^= t;
    if (trace == 1) return Poly{c, 1, 1};
  }
}

class RootFindSplitCheck : public ::testing::TestWithParam<unsigned> {};

TEST_P(RootFindSplitCheck, RejectsExactlyWhereFrobeniusMovesX) {
  const unsigned m = GetParam();
  for (const Field* f : {&Field::get(m), &Field::get_reference(m)}) {
    util::Rng rng(0x5717 ^ m);
    for (std::size_t d : {2u, 3u, 4u, 7u, 33u, 64u, 130u}) {
      const auto roots = distinct_elements(*f, rng, d);
      const Poly head = from_roots(
          *f, std::vector<std::uint64_t>(roots.begin(), roots.end() - 2));
      const std::uint64_t twice = roots[d - 2];
      Poly random_monic(d + 1);
      for (auto& c : random_monic) c = rng.next() & f->order();
      random_monic.back() = 1;
      struct Case {
        const char* name;
        Poly p;
        int want;  // 1 splits, 0 does not, -1 whatever the oracle says
      };
      const std::array<Case, 4> cases = {{
          {"random monic", random_monic, -1},
          {"distinct linears", from_roots(*f, roots), 1},
          {"repeated root",
           poly_mul(*f, head, Poly{f->sqr(twice), 0, 1}), 0},
          {"irreducible quadratic factor",
           poly_mul(*f, head, irreducible_quadratic(*f, rng)), 0},
      }};
      for (const auto& c : cases) {
        ASSERT_EQ(poly_deg(c.p), static_cast<int>(d)) << c.name;
        const bool oracle = frobenius_fixes_x(*f, c.p);
        if (c.want >= 0) {
          EXPECT_EQ(oracle, c.want == 1) << c.name << " m=" << m << " d=" << d;
        }
        const auto found = find_roots(*f, c.p, d);
        EXPECT_EQ(found.has_value(), oracle)
            << c.name << " m=" << m << " d=" << d
            << (f->kernel() == Field::Kernel::kReference ? " reference" : "");
        if (c.want == 1 && found) {
          EXPECT_EQ(std::set<std::uint64_t>(found->begin(), found->end()),
                    std::set<std::uint64_t>(roots.begin(), roots.end()));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, RootFindSplitCheck,
                         ::testing::Values(8u, 16u, 24u, 32u, 48u, 63u));

}  // namespace
}  // namespace lo::gf
