// Property-style sweeps over the core invariants, using parameterized gtest:
//  * consistency predicate vs randomly generated honest histories and forks,
//  * canonical shuffle determinism across seeds,
//  * sketch prefix-truncation identity (the wire-format cornerstone),
//  * commitment serialization roundtrips across parameter combinations.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/block.hpp"
#include "core/commitment.hpp"
#include "core/commitment_log.hpp"
#include "core/messages.hpp"
#include "minisketch/sketch.hpp"
#include "util/rng.hpp"

namespace lo::core {
namespace {

constexpr auto kMode = crypto::SignatureMode::kSimFast;

crypto::Signer signer(std::uint64_t id) {
  return crypto::Signer(crypto::derive_keypair(id, kMode), kMode);
}

std::vector<TxId> random_txids(util::Rng& rng, std::size_t n) {
  std::vector<TxId> out(n);
  for (auto& id : out) {
    for (auto& b : id) b = static_cast<std::uint8_t>(rng.next());
  }
  return out;
}

// ---- Property: any two snapshots of one honest history are consistent ----

class HonestHistoryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HonestHistoryProperty, AllSnapshotPairsConsistent) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  CommitmentLog log(1, CommitmentParams{});
  const auto s = signer(1);

  std::vector<CommitmentHeader> snapshots;
  snapshots.push_back(log.make_header(s));
  for (int round = 0; round < 8; ++round) {
    log.append(random_txids(rng, 1 + rng.next_below(12)),
               static_cast<NodeId>(rng.next_below(5)));
    // Random wire truncation, like real sync messages use.
    const std::size_t cap = 8 + rng.next_below(120);
    snapshots.push_back(log.make_header(s, cap));
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    for (std::size_t j = 0; j < snapshots.size(); ++j) {
      const auto& a = snapshots[i];
      const auto& b = snapshots[j];
      const auto verdict = check_consistency(a, b);
      // No honest pair may ever be *provably* inconsistent (accuracy).
      EXPECT_NE(verdict, Consistency::kEquivocation)
          << "snapshots " << i << " and " << j << " (seed " << seed << ")";
      // When the difference fits the common sketch prefix the verdict must
      // be decisive; kInconclusive is only legitimate for larger gaps.
      const std::uint64_t delta =
          a.count > b.count ? a.count - b.count : b.count - a.count;
      const std::size_t common =
          std::min(a.sketch.capacity(), b.sketch.capacity());
      if (delta <= common) {
        EXPECT_EQ(verdict, Consistency::kConsistent)
            << "snapshots " << i << " and " << j << " delta " << delta
            << " common " << common << " (seed " << seed << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HonestHistoryProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Property: any censoring fork is eventually provable ----

class ForkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForkProperty, CensoredForkIsEquivocationOnceComparable) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 977);
  CommitmentLog real(2, CommitmentParams{});
  CommitmentLog fork(2, CommitmentParams{});
  const auto s = signer(2);

  // Shared prefix.
  const auto prefix = random_txids(rng, 1 + rng.next_below(10));
  real.append(prefix, 1);
  fork.append(prefix, 1);
  // The fork drops one victim tx from the next batch.
  auto batch = random_txids(rng, 2 + rng.next_below(8));
  real.append(batch, 3);
  auto censored = batch;
  censored.erase(censored.begin() +
                 static_cast<std::ptrdiff_t>(rng.next_below(censored.size())));
  fork.append(censored, 3);
  // Both continue growing with common traffic.
  const auto tail = random_txids(rng, rng.next_below(6));
  real.append(tail, 4);
  fork.append(tail, 4);

  const auto h_real = real.make_header(s);
  const auto h_fork = fork.make_header(s);
  const auto verdict = check_consistency(h_real, h_fork);
  EXPECT_EQ(verdict, Consistency::kEquivocation)
      << "seed " << seed << ": fork with a censored tx must be provable";

  // And the evidence is transferable.
  EquivocationEvidence ev;
  ev.accused = 2;
  ev.first = h_real;
  ev.second = h_fork;
  EXPECT_TRUE(ev.verify(kMode));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Property: canonical segments are invariant across observers ----

class CanonicalOrderProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CanonicalOrderProperty, SegmentsReproducibleFromBundles) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 31);
  CommitmentLog log(3, CommitmentParams{});
  for (int b = 0; b < 5; ++b) {
    log.append(random_txids(rng, 1 + rng.next_below(9)), 1);
  }
  crypto::Digest256 prev;
  for (auto& byte : prev) byte = static_cast<std::uint8_t>(rng.next());

  const auto block = build_block(log, signer(3), 1, prev, nullptr);
  // An independent observer holding only the bundles reproduces the exact
  // segment contents via the public canonical_shuffle.
  for (const auto& seg : block.segments) {
    const auto* bundle = log.bundle_by_seqno(seg.seqno);
    ASSERT_NE(bundle, nullptr);
    EXPECT_EQ(seg.txids, canonical_shuffle(bundle->txids, prev, seg.seqno));
  }
  // And a different previous-block hash yields a different overall order
  // (probabilistically certain for >1 multi-tx bundle).
  crypto::Digest256 other = prev;
  other[0] ^= 1;
  const auto block2 = build_block(log, signer(3), 1, other, nullptr);
  EXPECT_NE(block.flat_txids(), block2.flat_txids());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalOrderProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- Property: sketch prefix truncation equals direct construction ----

struct TruncParam {
  unsigned bits;
  std::size_t full;
  std::size_t trunc;
  std::size_t items;
};

// Names each case by its fields; gtest's default byte dump would include the
// padding after `bits`, which differs from build to build.
void PrintTo(const TruncParam& p, std::ostream* os) {
  *os << "bits" << p.bits << "_full" << p.full << "_trunc" << p.trunc
      << "_items" << p.items;
}

class SketchTruncationProperty : public ::testing::TestWithParam<TruncParam> {};

TEST_P(SketchTruncationProperty, PrefixIsSmallerSketch) {
  const auto p = GetParam();
  util::Rng rng(p.bits * 131 + p.items);
  sketch::Sketch full(p.bits, p.full);
  sketch::Sketch direct(p.bits, p.trunc);
  for (std::size_t i = 0; i < p.items; ++i) {
    const auto v = rng.next();
    full.add(v);
    direct.add(v);
  }
  EXPECT_EQ(full.truncated(p.trunc).syndromes(), direct.syndromes());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SketchTruncationProperty,
    ::testing::Values(TruncParam{32, 128, 8, 50}, TruncParam{32, 128, 64, 200},
                      TruncParam{32, 64, 63, 10}, TruncParam{16, 32, 4, 31},
                      TruncParam{63, 16, 8, 100}));

// ---- Property: commitment serialization roundtrips across parameters ----

struct SerdeParam {
  std::size_t sketch_capacity;
  std::size_t clock_cells;
  unsigned clock_hashes;
  std::size_t appends;
};

// Named by fields, like TruncParam: the byte dump would include the padding
// after `clock_hashes`.
void PrintTo(const SerdeParam& p, std::ostream* os) {
  *os << "cap" << p.sketch_capacity << "_cells" << p.clock_cells << "_hashes"
      << p.clock_hashes << "_appends" << p.appends;
}

class CommitmentSerdeProperty : public ::testing::TestWithParam<SerdeParam> {};

TEST_P(CommitmentSerdeProperty, RoundTripAndVerify) {
  const auto p = GetParam();
  CommitmentParams params;
  params.sketch_capacity = p.sketch_capacity;
  params.clock_cells = p.clock_cells;
  params.clock_hashes = p.clock_hashes;

  util::Rng rng(p.appends * 7 + p.clock_cells);
  CommitmentLog log(9, params);
  for (std::size_t i = 0; i < p.appends; ++i) {
    log.append(random_txids(rng, 1 + rng.next_below(4)), 1);
  }
  const auto s = signer(9);
  for (std::size_t cap : {std::size_t{8}, p.sketch_capacity}) {
    const auto h = log.make_header(s, cap);
    const auto bytes = h.serialize();
    EXPECT_EQ(bytes.size(), h.wire_size());
    const auto back = CommitmentHeader::deserialize(bytes, params);
    ASSERT_TRUE(back.has_value()) << "cap " << cap;
    EXPECT_TRUE(back->verify(kMode));
    EXPECT_EQ(check_consistency(*back, h), Consistency::kConsistent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CommitmentSerdeProperty,
    ::testing::Values(SerdeParam{128, 32, 1, 0}, SerdeParam{128, 32, 1, 6},
                      SerdeParam{64, 16, 2, 4}, SerdeParam{16, 64, 3, 10},
                      SerdeParam{256, 8, 1, 2}));

// ---- Property: append-only logs never lose or reorder existing entries ----

TEST(LogMonotonicity, OrderIsStablePrefix) {
  util::Rng rng(404);
  CommitmentLog log(5, CommitmentParams{});
  std::vector<TxId> previous;
  for (int round = 0; round < 20; ++round) {
    auto batch = random_txids(rng, rng.next_below(5));
    // Re-offer some known ids to exercise dedup.
    if (!previous.empty()) {
      batch.push_back(previous[rng.next_below(previous.size())]);
    }
    log.append(batch, 1);
    const auto& order = log.order();
    ASSERT_GE(order.size(), previous.size());
    for (std::size_t i = 0; i < previous.size(); ++i) {
      EXPECT_EQ(order[i], previous[i]) << "position " << i << " changed";
    }
    previous = order;
  }
}

}  // namespace
}  // namespace lo::core
