// AccountabilityRegistry tests: observation, status transitions, equivocation
// evidence production (Sec. 3.2 / 5.2).
#include <gtest/gtest.h>

#include "core/accountability.hpp"
#include "core/commitment_log.hpp"
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

TEST(Registry, StatusTransitions) {
  AccountabilityRegistry reg(kMode);
  EXPECT_EQ(reg.status(5), PeerStatus::kTrusted);
  reg.suspect(5);
  EXPECT_EQ(reg.status(5), PeerStatus::kSuspected);
  EXPECT_TRUE(reg.is_suspected(5));
  reg.unsuspect(5);
  EXPECT_EQ(reg.status(5), PeerStatus::kTrusted);
  reg.suspect(5);
  reg.expose(5);
  EXPECT_EQ(reg.status(5), PeerStatus::kExposed);
  EXPECT_FALSE(reg.is_suspected(5)) << "exposure supersedes suspicion";
}

TEST(Registry, ObserveStoresLatest) {
  AccountabilityRegistry reg(kMode);
  CommitmentLog log(9, CommitmentParams{});
  util::Rng rng(1);
  const auto s = signer(9);
  log.append(random_txids(rng, 2), 1);
  EXPECT_FALSE(reg.observe_commitment(log.make_header(s)).has_value());
  const auto h1 = reg.latest(9);
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->seqno, 1u);
  log.append(random_txids(rng, 2), 2);
  EXPECT_FALSE(reg.observe_commitment(log.make_header(s)).has_value());
  EXPECT_EQ(reg.latest(9)->seqno, 2u);
  EXPECT_EQ(reg.commitments_stored(), 1u);
}

TEST(Registry, OlderConsistentHeaderKept) {
  AccountabilityRegistry reg(kMode);
  CommitmentLog log(9, CommitmentParams{});
  util::Rng rng(2);
  const auto s = signer(9);
  log.append(random_txids(rng, 2), 1);
  const auto h_old = log.make_header(s);
  log.append(random_txids(rng, 2), 2);
  const auto h_new = log.make_header(s);
  EXPECT_FALSE(reg.observe_commitment(h_new).has_value());
  // Replaying the old header is consistent and must not downgrade storage.
  EXPECT_FALSE(reg.observe_commitment(h_old).has_value());
  EXPECT_EQ(reg.latest(9)->seqno, 2u);
}

TEST(Registry, EquivocationProducesEvidenceAndExposes) {
  AccountabilityRegistry reg(kMode);
  util::Rng rng(3);
  CommitmentLog a(9, CommitmentParams{}), b(9, CommitmentParams{});
  a.append(random_txids(rng, 3), 1);
  b.append(random_txids(rng, 3), 1);
  const auto s = signer(9);
  EXPECT_FALSE(reg.observe_commitment(a.make_header(s)).has_value());
  const auto evidence = reg.observe_commitment(b.make_header(s));
  ASSERT_TRUE(evidence.has_value());
  EXPECT_EQ(evidence->accused, 9u);
  EXPECT_TRUE(evidence->verify(kMode));
  EXPECT_TRUE(reg.is_exposed(9));
}

TEST(Registry, InvalidSignatureIgnored) {
  AccountabilityRegistry reg(kMode);
  CommitmentLog log(9, CommitmentParams{});
  auto h = log.make_header(signer(9));
  h.count = 99;  // breaks signature
  EXPECT_FALSE(reg.observe_commitment(h).has_value());
  EXPECT_EQ(reg.latest(9), nullptr);
}

TEST(Registry, ImposterKeyIgnored) {
  AccountabilityRegistry reg(kMode);
  CommitmentLog log(9, CommitmentParams{});
  util::Rng rng(4);
  log.append(random_txids(rng, 2), 1);
  EXPECT_FALSE(reg.observe_commitment(log.make_header(signer(9))).has_value());
  // Another keypair claiming to be node 9: signed validly under the imposter
  // key, but conflicting with the stored key — not evidence, just ignored.
  CommitmentLog fake(9, CommitmentParams{});
  fake.append(random_txids(rng, 5), 1);
  const auto ev = reg.observe_commitment(fake.make_header(signer(666)));
  EXPECT_FALSE(ev.has_value());
  EXPECT_FALSE(reg.is_exposed(9));
  EXPECT_EQ(reg.latest(9)->count, 2u);
}

TEST(Registry, MemoryAccountingGrows) {
  AccountabilityRegistry reg(kMode);
  util::Rng rng(5);
  const auto before = reg.memory_bytes();
  for (std::uint64_t n = 0; n < 10; ++n) {
    CommitmentLog log(static_cast<NodeId>(n), CommitmentParams{});
    log.append(random_txids(rng, 1), 1);
    reg.observe_commitment(log.make_header(signer(n)));
  }
  EXPECT_EQ(reg.commitments_stored(), 10u);
  EXPECT_GT(reg.memory_bytes(), before + 10 * 500);
}

}  // namespace
}  // namespace lo::core
