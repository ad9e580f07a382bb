// PinSketch/Minisketch tests: roundtrips across sizes and capacities
// (parameterized), overflow detection, XOR-merge semantics, serialization,
// and the hash-partitioned reconciler of Sec. 6.5.
#include <gtest/gtest.h>

#include <set>

#include "minisketch/partitioned.hpp"
#include "minisketch/sketch.hpp"
#include "util/rng.hpp"

namespace lo::sketch {
namespace {

std::set<std::uint64_t> mapped(const gf::Field& f,
                               const std::vector<std::uint64_t>& raw) {
  std::set<std::uint64_t> out;
  for (auto r : raw) out.insert(f.map_nonzero(r));
  return out;
}

TEST(Sketch, EmptyDecodesToEmpty) {
  Sketch s(32, 8);
  auto d = s.decode();
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->empty());
  EXPECT_TRUE(s.is_zero());
}

TEST(Sketch, SingleElementRoundTrip) {
  Sketch s(32, 8);
  s.add(0xfeedface);
  auto d = s.decode();
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->size(), 1u);
  EXPECT_EQ((*d)[0], s.field().map_nonzero(0xfeedface));
}

TEST(Sketch, AddTwiceCancels) {
  Sketch s(32, 8);
  s.add(123);
  s.add(123);
  EXPECT_TRUE(s.is_zero());
}

struct SketchParam {
  unsigned bits;
  std::size_t capacity;
  std::size_t diff;
};

// Names each case by its fields; gtest's default byte dump would include the
// padding after `bits`, which differs from build to build.
void PrintTo(const SketchParam& p, std::ostream* os) {
  *os << "bits" << p.bits << "_cap" << p.capacity << "_diff" << p.diff;
}

class SketchRoundTrip : public ::testing::TestWithParam<SketchParam> {};

TEST_P(SketchRoundTrip, MergeDecodesSymmetricDifference) {
  const auto p = GetParam();
  Sketch a(p.bits, p.capacity);
  Sketch b(p.bits, p.capacity);
  util::Rng rng(p.bits * 1000 + p.diff);

  std::vector<std::uint64_t> only_a, only_b, shared;
  for (std::size_t i = 0; i < p.diff / 2; ++i) only_a.push_back(rng.next());
  for (std::size_t i = 0; i < p.diff - p.diff / 2; ++i) only_b.push_back(rng.next());
  for (std::size_t i = 0; i < 100; ++i) shared.push_back(rng.next());

  for (auto v : only_a) a.add(v);
  for (auto v : shared) a.add(v);
  for (auto v : only_b) b.add(v);
  for (auto v : shared) b.add(v);

  a.merge(b);
  auto d = a.decode();
  ASSERT_TRUE(d.has_value());
  std::set<std::uint64_t> got(d->begin(), d->end());
  std::set<std::uint64_t> want = mapped(a.field(), only_a);
  for (auto e : mapped(a.field(), only_b)) want.insert(e);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SketchRoundTrip,
    ::testing::Values(SketchParam{16, 8, 4}, SketchParam{16, 8, 8},
                      SketchParam{32, 8, 1}, SketchParam{32, 8, 8},
                      SketchParam{32, 32, 20}, SketchParam{32, 64, 64},
                      SketchParam{32, 128, 100}, SketchParam{48, 16, 10},
                      SketchParam{63, 8, 5}));

TEST(Sketch, OverflowDetected) {
  // More differences than capacity: decode must fail, not hallucinate.
  for (std::size_t over : {1u, 2u, 10u, 100u}) {
    Sketch s(32, 8);
    util::Rng rng(over);
    for (std::size_t i = 0; i < 8 + over; ++i) s.add(rng.next());
    EXPECT_FALSE(s.decode().has_value()) << "capacity 8, items " << 8 + over;
  }
}

TEST(Sketch, CapacityExactlyFull) {
  Sketch s(32, 16);
  util::Rng rng(3);
  std::set<std::uint64_t> want;
  for (int i = 0; i < 16; ++i) {
    const auto v = rng.next();
    s.add(v);
    want.insert(s.field().map_nonzero(v));
  }
  auto d = s.decode();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(std::set<std::uint64_t>(d->begin(), d->end()), want);
}

TEST(Sketch, SerializeRoundTrip) {
  Sketch s(32, 16);
  util::Rng rng(9);
  for (int i = 0; i < 10; ++i) s.add(rng.next());
  const auto bytes = s.serialize();
  EXPECT_EQ(bytes.size(), s.serialized_size());
  EXPECT_EQ(bytes.size(), 16u * 4u);  // capacity * 4 bytes for 32-bit field
  const Sketch back = Sketch::deserialize(32, 16, bytes);
  EXPECT_EQ(back.syndromes(), s.syndromes());
}

TEST(Sketch, DeserializeRejectsWrongLength) {
  std::vector<std::uint8_t> bytes(63);
  EXPECT_THROW(Sketch::deserialize(32, 16, bytes), std::invalid_argument);
}

TEST(Sketch, MergeParameterMismatchThrows) {
  Sketch a(32, 8), b(32, 16), c(16, 8);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Sketch, ZeroCapacityThrows) {
  EXPECT_THROW(Sketch(32, 0), std::invalid_argument);
}

TEST(Sketch, TruncatedToZeroThrows) {
  // Regression: truncated(0) used to silently produce an undecodable
  // zero-syndrome sketch; it must reject like the constructor does.
  Sketch s(32, 8);
  s.add(42);
  EXPECT_THROW(s.truncated(0), std::invalid_argument);
  // Valid truncations still work and keep the prefix property.
  const Sketch t = s.truncated(4);
  EXPECT_EQ(t.capacity(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.syndromes()[i], s.syndromes()[i]);
  }
}

TEST(Sketch, AddReturnsMappedElement) {
  Sketch s(32, 8);
  const std::uint64_t raw = 0x123456789abcdef0ULL;
  EXPECT_EQ(s.add(raw), s.field().map_nonzero(raw));
}

TEST(Sketch, AddAllMatchesRepeatedAdd) {
  // The blocked batch path must produce bit-identical syndromes to the
  // one-at-a-time path, including a tail that doesn't fill a block.
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u, 100u}) {
    util::Rng rng(n);
    std::vector<std::uint64_t> items(n);
    for (auto& v : items) v = rng.next();
    Sketch one(32, 32), batch(32, 32);
    for (auto v : items) one.add(v);
    batch.add_all(items);
    EXPECT_EQ(batch.syndromes(), one.syndromes()) << "n=" << n;
  }
}

TEST(Sketch, DecodeAtExactCapacityAndOneOver) {
  // Round-trip property at the capacity boundary: a difference of exactly c
  // decodes to the exact set; c+1 must return nullopt — never a wrong set.
  for (std::size_t cap : {4u, 8u, 16u, 33u}) {
    util::Rng rng(1000 + cap);
    Sketch full(32, cap);
    std::set<std::uint64_t> want;
    for (std::size_t i = 0; i < cap; ++i) {
      const auto v = rng.next();
      want.insert(full.add(v));
    }
    auto at = full.decode();
    ASSERT_TRUE(at.has_value()) << "cap=" << cap;
    EXPECT_EQ(std::set<std::uint64_t>(at->begin(), at->end()), want);

    Sketch over = full;
    over.add(rng.next());  // one element past capacity
    EXPECT_FALSE(over.decode().has_value()) << "cap=" << cap;
  }
}

TEST(Sketch, ExplicitDecoderMatchesSketchDecode) {
  // An owned Decoder workspace reused across decodes of different sketches
  // must match the shared Sketch::decode path byte for byte, run after run.
  Decoder dec;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Sketch s(32, 16);
    util::Rng rng(seed);
    for (int i = 0; i < 12; ++i) s.add(rng.next());
    const auto via_sketch = s.decode();
    const auto via_decoder = dec.decode(s);
    const auto again = dec.decode(s);
    ASSERT_EQ(via_decoder.has_value(), via_sketch.has_value());
    EXPECT_EQ(*via_decoder, *via_sketch);
    EXPECT_EQ(*again, *via_sketch);
  }
}

TEST(Sketch, FastAndReferenceFieldsDecodeIdentically) {
  // End-to-end differential: the same items sketched over the fast field and
  // over the retained reference-kernel field must yield identical syndromes
  // (the wire format) and identical decode output.
  for (unsigned bits : {16u, 32u, 63u}) {
    Sketch fast(gf::Field::get(bits), 12);
    Sketch ref(gf::Field::get_reference(bits), 12);
    util::Rng rng(bits);
    for (int i = 0; i < 10; ++i) {
      const auto v = rng.next();
      fast.add(v);
      ref.add(v);
    }
    EXPECT_EQ(fast.syndromes(), ref.syndromes()) << "bits=" << bits;
    const auto df = fast.decode();
    const auto dr = ref.decode();
    ASSERT_TRUE(df.has_value());
    ASSERT_TRUE(dr.has_value());
    EXPECT_EQ(*df, *dr);
  }
  // An overflowed capacity-128 sketch (200 items: both fields must reject,
  // the rejection path of the root finder), and a 100-element difference
  // (a deep split: both fields must return the same roots in the same
  // order).
  struct Case {
    std::size_t capacity;
    int items;
    bool decodes;
  };
  for (const Case c : {Case{128, 200, false}, Case{128, 100, true}}) {
    for (unsigned bits : {16u, 32u, 63u}) {
      Sketch fast(gf::Field::get(bits), c.capacity);
      Sketch ref(gf::Field::get_reference(bits), c.capacity);
      util::Rng rng(bits + 1000 * static_cast<unsigned>(c.items));
      for (int i = 0; i < c.items; ++i) {
        const auto v = rng.next();
        fast.add(v);
        ref.add(v);
      }
      ASSERT_EQ(fast.syndromes(), ref.syndromes()) << "bits=" << bits;
      const auto df = fast.decode();
      const auto dr = ref.decode();
      ASSERT_EQ(df.has_value(), c.decodes) << "bits=" << bits;
      ASSERT_EQ(dr.has_value(), c.decodes) << "bits=" << bits;
      if (c.decodes) {
        EXPECT_EQ(df->size(), static_cast<std::size_t>(c.items));
        EXPECT_EQ(*df, *dr) << "bits=" << bits;
      }
    }
  }
}

TEST(Sketch, SeededDecodeKeepsItsRootOrder) {
  // Nodes walk a decoded difference in the order the root finder returns it,
  // so the order is part of every simulation's output. This pins the order
  // of one seeded capacity-64 decode over the shared GF(2^32) field: faster
  // arithmetic must find the same roots in the same beta-driven order.
  Sketch s(32, 64);
  util::Rng rng(64);
  for (int i = 0; i < 64; ++i) s.add(rng.next());
  const std::vector<std::uint64_t> want = {
      0xcdf11bce, 0x56cd86a7, 0xdfa01c5f, 0x7a839378, 0x6307a163, 0xd6eea6aa,
      0x6e3e38c5, 0xaa1e6ad1, 0x25369185, 0xdbe6f681, 0xac4263d0, 0x79ced651,
      0xba664fc6, 0xcf0aa277, 0x437e5fb2, 0xdf712c17, 0xa6ce4f51, 0x29b76a6a,
      0xf4de685b, 0x3a63c27a, 0x8e8afd5c, 0xb92c9b9e, 0x2c33a58b, 0x8336e72c,
      0xc7e9bce6, 0xeeba3215, 0x8bd3a9a6, 0x014068a8, 0x1bee97cd, 0x26c9cc2b,
      0x8e1c0ae9, 0x7eb88ca0, 0xf73db5d0, 0x21012ccb, 0xaee7c9f1, 0xb80a1b20,
      0x59429f37, 0x5946e1ba, 0x752e631a, 0x8f11f3a7, 0x8f458170, 0x2ab3bf21,
      0x5528f10e, 0x4c88dfff, 0x8bb24e46, 0x07c4841b, 0x26d248e3, 0x48222e94,
      0x41e8f773, 0x014f04e3, 0x30369274, 0xd20cb198, 0xb3b4647a, 0x458c3a3a,
      0xe61653d6, 0x6d6ff4d1, 0x1956f386, 0x5da78e25, 0x6926d5ba, 0x357e7ea4,
      0x15e311ae, 0xc41af07f, 0x0244d954, 0xc510af4f,
  };
  const auto got = s.decode();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
}

TEST(Sketch, WireSizeMatchesPaperScale) {
  // The paper uses a 1,000-byte sketch for up to ~100 differences of 32-bit
  // elements; 128 * 4 = 512 bytes is the same order.
  Sketch s(32, 128);
  EXPECT_EQ(s.serialized_size(), 512u);
}

TEST(Sketch, SupersetDecodesAsGrowth) {
  // B = A + extras: merged sketch contains exactly the extras — this is the
  // append-only consistency check of Sec. 5.2.
  Sketch a(32, 32);
  Sketch b(32, 32);
  util::Rng rng(21);
  std::vector<std::uint64_t> base, extras;
  for (int i = 0; i < 500; ++i) base.push_back(rng.next());
  for (int i = 0; i < 20; ++i) extras.push_back(rng.next());
  for (auto v : base) {
    a.add(v);
    b.add(v);
  }
  for (auto v : extras) b.add(v);
  a.merge(b);
  auto d = a.decode();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), extras.size());
}

TEST(Decoder, WorkspaceClampsAfterOversizedDecode) {
  // Regression: the shared Decoder workspace used to retain the capacity of
  // the largest decode it ever served. One full-capacity partitioned
  // escalation would pin ~2 * 512 syndrome slots for the life of the
  // process even when every later request needed 16. The high-water clamp
  // releases the buffers once a full observation window of decodes stays
  // well below the retained size.
  Decoder d;
  Sketch big(16, 512);
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) big.add(rng.next());
  ASSERT_TRUE(d.decode(big).has_value());
  const std::size_t inflated = d.workspace_capacity();
  ASSERT_GE(inflated, 2 * 512u);  // before: peak buffer pinned

  Sketch small(16, 8);
  const std::uint64_t elem = small.add(42);
  for (int i = 0; i < 200; ++i) {
    const auto out = d.decode(small);
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->size(), 1u);
  }
  const std::size_t clamped = d.workspace_capacity();
  EXPECT_LT(clamped, inflated);  // after: released to the window high-water
  EXPECT_LE(clamped, 64u);       // 2 * max recent capacity, not the old peak

  // Decodes remain correct (and allocation-sized sanely) after the clamp.
  const auto out = d.decode(small);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front(), elem);
}

// ----------------------------------------------------------- partitioned ----

TEST(Partitioned, SmallDiffNeedsOneRound) {
  std::vector<std::uint64_t> a, b;
  util::Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.next();
    a.push_back(v);
    b.push_back(v);
  }
  for (int i = 0; i < 5; ++i) a.push_back(rng.next());
  PartitionedReconciler pr(32, 16);
  ReconcileStats st;
  auto d = pr.reconcile(a, b, &st);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), 5u);
  EXPECT_EQ(st.rounds, 0u);
  EXPECT_EQ(st.decode_failures, 0u);
  EXPECT_EQ(st.sketches_used, 2u);
}

TEST(Partitioned, LargeDiffSplitsAndSucceeds) {
  std::vector<std::uint64_t> a, b;
  util::Rng rng(32);
  std::set<std::uint64_t> expect;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next();
    a.push_back(v);
    b.push_back(v);
  }
  for (int i = 0; i < 300; ++i) {
    const auto v = rng.next();
    a.push_back(v);
    expect.insert(v);
  }
  PartitionedReconciler pr(32, 16);
  ReconcileStats st;
  auto d = pr.reconcile(a, b, &st);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(std::set<std::uint64_t>(d->begin(), d->end()), expect);
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.decode_failures, 0u);
}

TEST(Partitioned, IdenticalSetsAreFree) {
  std::vector<std::uint64_t> a;
  util::Rng rng(33);
  for (int i = 0; i < 1000; ++i) a.push_back(rng.next());
  PartitionedReconciler pr(32, 16);
  ReconcileStats st;
  auto d = pr.reconcile(a, a, &st);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->empty());
  EXPECT_EQ(st.sketches_used, 2u);
}

TEST(Partitioned, DisjointSetsFullDifference) {
  std::vector<std::uint64_t> a, b;
  util::Rng rng(34);
  for (int i = 0; i < 200; ++i) a.push_back(rng.next());
  for (int i = 0; i < 200; ++i) b.push_back(rng.next());
  PartitionedReconciler pr(32, 32);
  auto d = pr.reconcile(a, b, nullptr);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), 400u);
}

TEST(Partitioned, PartitionBitIsDeterministicAndBalanced) {
  util::Rng rng(35);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next();
    EXPECT_EQ(partition_bit(v, 3), partition_bit(v, 3));
    if (partition_bit(v, 0)) ++ones;
  }
  EXPECT_NEAR(ones, 5000, 300);
}

TEST(Partitioned, DepthsAreIndependent) {
  // The same item must not always land on the same side at every depth,
  // otherwise splitting would never separate a clustered difference.
  int same_side = 0;
  util::Rng rng(36);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next();
    if (partition_bit(v, 0) == partition_bit(v, 1)) ++same_side;
  }
  EXPECT_GT(same_side, 300);
  EXPECT_LT(same_side, 700);
}

}  // namespace
}  // namespace lo::sketch
