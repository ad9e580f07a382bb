// Differential tests for the fast GF(2^m) kernels (DESIGN.md §3d).
//
// The seed kernels are retained on every Field instance as *_reference and
// act as the oracle: for every supported field size the fast mul/sqr/inv/pow
// paths — and the bulk row kernels built from them — must agree with the
// reference on random inputs and on the algebraic edge cases. A
// Kernel::kPortable instance is tested alongside Kernel::kAuto so the
// portable fast path is exercised even on machines where kAuto selects
// PCLMUL, and vice versa the clmul+Barrett path is covered wherever the CPU
// has it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "gf/gf2m.hpp"
#include "util/rng.hpp"

namespace {

using lo::gf::Field;

constexpr std::array<unsigned, 6> kSizes = {8, 16, 24, 32, 48, 63};

// Draws a (possibly zero) field element.
std::uint64_t draw(lo::util::Rng& rng, const Field& f) {
  return rng.next() & f.order();
}

class GfKernelDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(GfKernelDifferential, MulMatchesReferenceOnRandomVectors) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  ASSERT_FALSE(portable.uses_clmul());
  lo::util::Rng rng(0x31 ^ m);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t b = draw(rng, fast);
    const std::uint64_t want = fast.mul_reference(a, b);
    EXPECT_EQ(fast.mul(a, b), want) << "m=" << m << " a=" << a << " b=" << b;
    EXPECT_EQ(portable.mul(a, b), want);
  }
}

TEST_P(GfKernelDifferential, SqrMatchesReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0x5c5c ^ m);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t want = fast.sqr_reference(a);
    EXPECT_EQ(fast.sqr(a), want) << "m=" << m << " a=" << a;
    EXPECT_EQ(portable.sqr(a), want);
  }
}

TEST_P(GfKernelDifferential, InvMatchesReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0x1417 ^ m);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t want = fast.inv_reference(a);
    EXPECT_EQ(fast.inv(a), want) << "m=" << m << " a=" << a;
    EXPECT_EQ(portable.inv(a), want);
    if (a != 0) {
      EXPECT_EQ(fast.mul(a, fast.inv(a)), 1u);
    }
  }
  // inv(0) == 0 by convention on every tier.
  EXPECT_EQ(fast.inv(0), 0u);
  EXPECT_EQ(portable.inv(0), 0u);
  EXPECT_EQ(fast.inv_reference(0), 0u);
}

TEST_P(GfKernelDifferential, PowMatchesReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0xb00 ^ m);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t e = rng.next();
    const std::uint64_t want = fast.pow_reference(a, e);
    EXPECT_EQ(fast.pow(a, e), want) << "m=" << m << " a=" << a << " e=" << e;
    EXPECT_EQ(portable.pow(a, e), want);
  }
  EXPECT_EQ(fast.pow(0, 0), 1u);  // 0^0 == 1 convention preserved
  EXPECT_EQ(fast.pow_reference(0, 0), 1u);
}

TEST_P(GfKernelDifferential, EdgeCasesMatchReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  const std::uint64_t cases[] = {0, 1, 2, 3, fast.order() - 1, fast.order()};
  for (auto a : cases) {
    for (auto b : cases) {
      EXPECT_EQ(fast.mul(a, b), fast.mul_reference(a, b));
      EXPECT_EQ(portable.mul(a, b), fast.mul_reference(a, b));
    }
    EXPECT_EQ(fast.sqr(a), fast.sqr_reference(a));
    EXPECT_EQ(fast.inv(a), fast.inv_reference(a));
  }
}

TEST_P(GfKernelDifferential, BulkKernelsMatchElementwiseReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0xfa ^ m);
  for (const Field* f : {&fast, &portable}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      std::vector<std::uint64_t> src(n), dst(n), q(n);
      for (auto& v : src) v = draw(rng, *f);
      for (auto& v : dst) v = draw(rng, *f);
      for (auto& v : q) v = draw(rng, *f);
      const std::uint64_t factor = draw(rng, *f);

      // fma_row: dst[i] ^= factor * src[i].
      std::vector<std::uint64_t> want = dst;
      for (std::size_t i = 0; i < n; ++i) {
        want[i] ^= f->mul_reference(factor, src[i]);
      }
      f->fma_row(factor, src.data(), dst.data(), n);
      EXPECT_EQ(dst, want) << "m=" << m << " n=" << n;

      // dot_rev: XOR src[i] * q[n-1-i].
      std::uint64_t dot_want = 0;
      for (std::size_t i = 0; i < n; ++i) {
        dot_want ^= f->mul_reference(src[i], q[n - 1 - i]);
      }
      EXPECT_EQ(f->dot_rev(src.data(), &q[n - 1], n), dot_want);

      // fma_row_lazy rows XOR-accumulated into one buffer, then reduce_row
      // (and reduce, element by element): the reduced sum of the products.
      std::vector<std::uint64_t> lazy = dst;
      std::vector<std::uint64_t> lazy_want = dst;
      for (int row = 0; row < 9; ++row) {
        const std::uint64_t fac = draw(rng, *f);
        for (std::size_t i = 0; i < n; ++i) {
          lazy_want[i] ^= f->mul_reference(fac, src[i]);
        }
        f->fma_row_lazy(fac, src.data(), lazy.data(), n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(f->reduce(lazy[i]), lazy_want[i]) << "m=" << m << " i=" << i;
      }
      f->reduce_row(lazy.data(), n);
      EXPECT_EQ(lazy, lazy_want) << "m=" << m << " n=" << n;

      // mul_many: q[i] *= src[i].
      std::vector<std::uint64_t> prod_want(n);
      for (std::size_t i = 0; i < n; ++i) {
        prod_want[i] = f->mul_reference(q[i], src[i]);
      }
      f->mul_many(q.data(), src.data(), n);
      EXPECT_EQ(q, prod_want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, GfKernelDifferential,
                         ::testing::ValuesIn(kSizes));

// m=8 is small enough to check the full multiplication table.
TEST(GfKernelExhaustive, Gf8MulMatchesReferenceExhaustively) {
  const Field& f = Field::get(8);
  const Field portable(8, Field::Kernel::kPortable);
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const std::uint64_t want = f.mul_reference(a, b);
      ASSERT_EQ(f.mul(a, b), want) << "a=" << a << " b=" << b;
      ASSERT_EQ(portable.mul(a, b), want);
    }
  }
  for (std::uint64_t a = 0; a < 256; ++a) {
    ASSERT_EQ(f.sqr(a), f.sqr_reference(a));
    ASSERT_EQ(f.inv(a), f.inv_reference(a));
  }
}

TEST(GfRegistry, SharedInstancesAreStableAndTierTagged) {
  for (unsigned m : kSizes) {
    const Field& a = Field::get(m);
    const Field& b = Field::get(m);
    EXPECT_EQ(&a, &b) << "registry must return one shared instance";
    EXPECT_EQ(a.kernel(), Field::Kernel::kAuto);
    const Field& r = Field::get_reference(m);
    EXPECT_EQ(&r, &Field::get_reference(m));
    EXPECT_EQ(r.kernel(), Field::Kernel::kReference);
    EXPECT_FALSE(r.uses_clmul());
    EXPECT_NE(&a, &r);
    EXPECT_EQ(a.modulus(), r.modulus());
  }
  EXPECT_THROW(Field::get(17), std::invalid_argument);
  EXPECT_THROW(Field::get_reference(17), std::invalid_argument);
}

TEST(GfRegistry, ClmulOnlySelectedUpTo32Bits) {
  for (unsigned m : kSizes) {
    const Field& f = Field::get(m);
    if (m > 32) {
      EXPECT_FALSE(f.uses_clmul()) << "m=" << m;
    }
    EXPECT_FALSE(Field(m, Field::Kernel::kPortable).uses_clmul());
    EXPECT_FALSE(Field(m, Field::Kernel::kReference).uses_clmul());
  }
}

}  // namespace
