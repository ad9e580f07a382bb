// Seed-replay determinism regression tests (companion to tools/lolint).
//
// Every protocol stack in this repo — LØ and the three baselines — is driven
// by seeded RNGs and a deterministic discrete-event simulator, so two runs
// with the same seed must produce byte-identical traces. These tests condense
// a run into a SHA-256 trace digest covering commitment-log heads, blame
// state, event feeds and metric streams (in emission order), and assert that
// the digest is replay-stable. A hash-order iteration feeding any message,
// metric or digest would break these tests on the spot — that is the dynamic
// counterpart of lolint's static unordered-iter rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "baselines/flood.hpp"
#include "baselines/narwhal.hpp"
#include "baselines/peerreview.hpp"
#include "crypto/sha256.hpp"
#include "harness/lo_network.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "test_net_util.hpp"
#include "util/ordered.hpp"

namespace lo {
namespace {

// ---------------------------------------------------------- digest helper ----

class TraceDigest {
 public:
  void u64(std::uint64_t v) {
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    h_.update(std::span<const std::uint8_t>(buf, 8));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  // Doubles are digested via their bit pattern: replay determinism demands
  // bit-identical floating point streams, not merely "close" ones.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(std::span<const std::uint8_t> b) { h_.update(b); }
  void str(std::string_view s) { h_.update(s); }

  std::string hex() {
    const crypto::Digest256 d = h_.finalize();
    static const char* kHex = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t byte : d) {
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    }
    return out;
  }

 private:
  crypto::Sha256 h_;
};

// Condenses a finished LØ run into a digest. Everything order-sensitive is
// either intrinsically ordered (event feeds, sample streams, log heads) or
// explicitly sorted here (registry sets) — the point is that the underlying
// run must deliver identical content AND order on replay.
std::string lo_trace_digest(harness::LoNetwork& net) {
  TraceDigest d;
  d.u64(net.txs_injected());
  d.i64(net.sim().now());
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto& n = net.node(i);
    // One head per shard log, ascending shard order; at k = 1 this digests
    // exactly the same bytes as the pre-sharding single-log version.
    for (std::uint32_t s = 0; s < n.shard_count(); ++s) {
      d.u64(n.log(s).seqno());
      d.bytes(n.log(s).chain_hash());
    }
    d.u64(n.mempool_size());
    for (core::NodeId s : util::sorted_keys(n.registry().suspected())) {
      d.u64(s);
    }
    for (core::NodeId e : util::sorted_keys(n.registry().exposed())) {
      d.u64(e);
    }
  }
  for (const auto& ev : net.suspicion_events()) {
    d.u64(ev.observer);
    d.u64(ev.accused);
    d.f64(ev.when_s);
  }
  for (const auto& ev : net.exposure_events()) {
    d.u64(ev.observer);
    d.u64(ev.accused);
    d.f64(ev.when_s);
  }
  // Emission-ordered metric stream: admission hooks fire in event order, so
  // any nondeterminism in message scheduling shows up here.
  for (double v : net.mempool_latency().values()) d.f64(v);
  // The whole observability surface rides along: the binary event trace
  // (every message/commitment/reconciliation event in emission order, string
  // table included) and the metrics-registry JSON must be byte-identical on
  // replay — that is the paper-artifact property ISSUE 5 pins down.
  d.bytes(net.sim().obs().tracer.bytes());
  net.publish_metrics();
  d.str(net.sim().obs().registry.to_json("determinism"));
  return d.hex();
}

// The network of one full LØ run: malicious minority (silent censors) so
// that the digest also covers the suspicion/exposure machinery, not just
// happy-path sync.
std::unique_ptr<harness::LoNetwork> lo_net(std::uint64_t seed) {
  auto cfg = test::net_cfg(16, seed, /*malicious_fraction=*/0.125);
  cfg.trace = true;  // digest the full event trace, not just the summaries
  cfg.malicious.ignore_requests = true;
  cfg.malicious.censor_txs = true;
  auto net = std::make_unique<harness::LoNetwork>(cfg);
  net->start_workload(test::load_cfg(20.0, seed + 1000));
  return net;
}

std::string run_lo(std::uint64_t seed) {
  auto net = lo_net(seed);
  net->run_for(15.0);
  return lo_trace_digest(*net);
}

// Every other LØ run here signs with kSimFast, which bypasses the verify
// caches. This one uses real Ed25519, once as built (every node on the
// network's one verdict and key tier) and once with each node on a tier of
// its own, as if it verified alone. Sharing may change only the amount of
// curve work: the trace and the registry stay byte-identical.
struct Ed25519Run {
  std::vector<std::uint8_t> trace;
  std::string registry;
  std::uint64_t curve_checks = 0;  // Ed25519 verifies
  std::size_t verdicts = 0;        // held by the network's tier
};

Ed25519Run run_lo_ed25519(bool tier_per_node) {
  auto cfg = test::net_cfg(16, 42, /*malicious_fraction=*/0.125);
  cfg.node.sig_mode = crypto::SignatureMode::kEd25519;
  cfg.node.prevalidation.sig_mode = crypto::SignatureMode::kEd25519;
  cfg.trace = true;
  cfg.malicious.ignore_requests = true;
  cfg.malicious.censor_txs = true;
  harness::LoNetwork net(cfg);
  if (tier_per_node) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      net.node(i).set_verify_tier(std::make_shared<crypto::VerifyTier>());
    }
  }
  auto load = test::load_cfg(20.0, 1042);
  load.sig_mode = crypto::SignatureMode::kEd25519;
  net.start_workload(load);
  obs::profile::reset();
  obs::profile::set_enabled(true);
  net.run_for(8.0);
  obs::profile::set_enabled(false);
  Ed25519Run run;
  run.curve_checks =
      obs::profile::counters(obs::ProfileSite::kEd25519Verify).calls;
  obs::profile::reset();
  run.verdicts = net.verify_tier().verdict_count();
  run.trace = net.sim().obs().tracer.bytes();
  net.publish_metrics();
  run.registry = net.sim().obs().registry.to_json("determinism");
  return run;
}

// ------------------------------------------------------------------- LØ ----

TEST(Determinism, LoSameSeedSameTrace) {
  const std::string a = run_lo(42);
  const std::string b = run_lo(42);
  EXPECT_EQ(a, b) << "same-seed LO runs diverged — a nondeterministic source "
                     "or hash-order iteration leaked into the protocol";
}

TEST(Determinism, LoDifferentSeedDifferentTrace) {
  // Sanity check that the digest actually observes the run: distinct seeds
  // must produce distinct traces (otherwise the equality test is vacuous).
  EXPECT_NE(run_lo(42), run_lo(43));
}

// Two simulations in one process share every per-process object (statics
// such as the sketch decode workspace). Advancing two networks in
// alternating 1 s slices must leave each digest equal to its solo run: the
// tracer's causes, the registry cells and any workspace stay per simulation.
TEST(Determinism, InterleavedSimulationsMatchSoloRuns) {
  auto a = lo_net(42);
  auto b = lo_net(43);
  for (int slice = 0; slice < 15; ++slice) {
    a->run_for(1.0);
    b->run_for(1.0);
  }
  EXPECT_EQ(lo_trace_digest(*a), run_lo(42));
  EXPECT_EQ(lo_trace_digest(*b), run_lo(43));
}

TEST(Determinism, SharedVerifyTierChangesOnlyTheWork) {
  const Ed25519Run shared = run_lo_ed25519(/*tier_per_node=*/false);
  const Ed25519Run alone = run_lo_ed25519(/*tier_per_node=*/true);
  EXPECT_TRUE(shared.trace == alone.trace)
      << "sharing the verify tier changed the event trace";
  EXPECT_EQ(shared.registry, alone.registry);
  EXPECT_GT(shared.curve_checks, 0u);
  // One curve check per distinct triple: nothing verified around the tier.
  EXPECT_EQ(shared.curve_checks, shared.verdicts);
  EXPECT_LE(3 * shared.curve_checks, alone.curve_checks)
      << shared.curve_checks << " shared vs " << alone.curve_checks
      << " with a tier per node";
}

// ---------------------------------------------- sharded pipeline digests ----

// A sharded run: same adversarial setup as run_lo plus block production, so
// the digest also covers the per-shard proposer draws and the cross-shard
// combiner ordering (DESIGN.md §7).
std::string run_lo_sharded(std::uint64_t seed, std::uint32_t k) {
  auto cfg = test::net_cfg(16, seed, /*malicious_fraction=*/0.125);
  cfg.trace = true;
  cfg.malicious.ignore_requests = true;
  cfg.malicious.censor_txs = true;
  cfg.node.mempool_shards = k;
  harness::LoNetwork net(cfg);
  net.start_workload(test::load_cfg(20.0, seed + 1000));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 2 * sim::kSecond;
  lc.seed = seed + 2;
  net.start_block_production(lc, /*correct_leaders_only=*/true);
  net.run_for(15.0);

  TraceDigest d;
  d.str(lo_trace_digest(net));
  d.u64(net.chain().height());
  d.bytes(net.chain().tip_hash());
  return d.hex();
}

// For every shard count the run is defined by (seed) alone: a same-seed
// replay is byte-identical.
TEST(Determinism, LoShardedSameSeedSameTrace) {
  for (std::uint32_t k : {1u, 2u, 4u}) {
    EXPECT_EQ(run_lo_sharded(42, k), run_lo_sharded(42, k))
        << "sharded LO replay diverged at k=" << k;
  }
}

// --------------------------------------------------- LØ with membership ----

// A membership-enabled run under churn: SWIM probes, suspicion deadlines,
// incarnation-bump refutations and the rejoin path all ride the same seeded
// RNG and epoch-scoped timers, so the full detector state and the member
// event feed must replay bit-for-bit too.
std::string run_lo_membership(std::uint64_t seed) {
  auto cfg = test::net_cfg(12, seed);
  cfg.trace = true;
  cfg.city_latency = false;
  cfg.node.membership.enabled = true;
  cfg.node.membership.protocol_period = 500 * sim::kMillisecond;
  cfg.node.membership.ping_timeout = 120 * sim::kMillisecond;
  harness::LoNetwork net(cfg);
  net.start_workload(test::load_cfg(10.0, seed + 2000));
  sim::ChurnConfig churn;
  churn.mean_gap = 2 * sim::kSecond;
  churn.max_concurrent_down = 2;
  net.start_churn(churn);
  net.run_for(12.0);
  net.stop_churn();
  net.run_for(8.0);

  TraceDigest d;
  d.str(lo_trace_digest(net));
  for (const auto& ev : net.member_events()) {
    d.u64(ev.observer);
    d.u64(ev.member);
    d.u64(static_cast<std::uint64_t>(ev.state));
    d.f64(ev.when_s);
  }
  for (std::size_t i = 0; i < net.size(); ++i) {
    d.u64(net.node(i).member_incarnation());
    d.u64(net.node(i).suspicions_absolved());
    if (const auto* det = net.node(i).swim()) {
      for (const auto& [member, ms] : det->members()) {
        d.u64(member);
        d.u64(static_cast<std::uint64_t>(ms.state));
        d.u64(ms.incarnation);
      }
    }
  }
  for (double v : net.membership_detection_latency().values()) d.f64(v);
  return d.hex();
}

TEST(Determinism, LoMembershipSameSeedSameTrace) {
  const std::string a = run_lo_membership(77);
  const std::string b = run_lo_membership(77);
  EXPECT_EQ(a, b) << "membership-enabled LO runs diverged under seed replay";
}

// -------------------------------------------------------------- baselines ----

template <typename NodeT>
std::string run_baseline(const typename NodeT::Config& node_cfg,
                         std::uint64_t seed) {
  baselines::BaselineNetConfig cfg;
  cfg.num_nodes = 12;
  cfg.seed = seed;
  cfg.city_latency = true;
  cfg.trace = true;
  baselines::BaselineNetwork<NodeT> net(cfg, node_cfg);
  net.start_workload(test::load_cfg(20.0, seed + 1000));
  net.run_for(10.0);

  TraceDigest d;
  d.u64(net.txs_injected());
  d.i64(net.sim().now());
  for (std::size_t i = 0; i < net.size(); ++i) d.u64(net.node(i).mempool_size());
  for (double v : net.mempool_latency().values()) d.f64(v);
  // Bandwidth accounting folds every delivered message; digest the per-class
  // totals in sorted class order.
  const auto& classes = net.sim().bandwidth().by_class();
  for (const auto& name : util::sorted_keys(classes)) {
    const auto& st = classes.at(name);
    d.str(name);
    d.u64(st.messages);
    d.u64(st.bytes);
  }
  d.bytes(net.sim().obs().tracer.bytes());
  return d.hex();
}

TEST(Determinism, FloodSameSeedSameTrace) {
  baselines::FloodNode::Config cfg;
  cfg.prevalidation.sig_mode = test::kFastSig;
  EXPECT_EQ(run_baseline<baselines::FloodNode>(cfg, 7),
            run_baseline<baselines::FloodNode>(cfg, 7));
}

TEST(Determinism, PeerReviewSameSeedSameTrace) {
  baselines::PeerReviewNode::Config cfg;
  cfg.prevalidation.sig_mode = test::kFastSig;
  EXPECT_EQ(run_baseline<baselines::PeerReviewNode>(cfg, 7),
            run_baseline<baselines::PeerReviewNode>(cfg, 7));
}

TEST(Determinism, NarwhalSameSeedSameTrace) {
  baselines::NarwhalNode::Config cfg;
  cfg.prevalidation.sig_mode = test::kFastSig;
  EXPECT_EQ(run_baseline<baselines::NarwhalNode>(cfg, 7),
            run_baseline<baselines::NarwhalNode>(cfg, 7));
}

// ------------------------------------------------------- causal span layer ----

// A short sharded run with block production: the richest causal surface
// (gossip, sync, batch-commit bridges, leader timers) at a size that keeps
// the k sweep cheap.
std::vector<std::uint8_t> causal_trace_bytes(std::uint32_t k) {
  auto cfg = test::net_cfg(8, 5, /*malicious_fraction=*/0.125);
  cfg.trace = true;
  cfg.node.mempool_shards = k;
  harness::LoNetwork net(cfg);
  net.start_workload(test::load_cfg(15.0, 1005));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 2 * sim::kSecond;
  lc.seed = 7;
  net.start_block_production(lc, /*correct_leaders_only=*/true);
  net.run_for(8.0);
  return net.sim().obs().tracer.bytes();
}

// Span/parent ids are derived from simulator event keys, so the full causal
// trace — not just the event payloads — is byte-identical on same-seed
// replay, for flat and sharded mempools alike.
TEST(Determinism, CausalTraceSameSeedSameBytes) {
  for (std::uint32_t k : {1u, 4u}) {
    const auto first = causal_trace_bytes(k);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, causal_trace_bytes(k))
        << "causal trace replay diverged at k=" << k;
  }
}

// Structural well-formedness of the happens-before DAG: every delivery event
// that names a causing dispatch must find a matching send in that dispatch —
// the property loscope's critical-path walk relies on.
TEST(Determinism, CausalSpansFormACrossNodeHappensBeforeDag) {
  const auto file =
      obs::Tracer::from_bytes(causal_trace_bytes(/*k=*/1));
  ASSERT_FALSE(file.events.empty());

  std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> by_span;
  std::size_t with_cause = 0;
  for (const auto& ev : file.events) {
    if (ev.span != 0) {
      by_span[ev.span].push_back(&ev);
      ++with_cause;
    }
  }
  // The layer is live: the overwhelming majority of events in a harness run
  // are emitted inside some dispatch.
  EXPECT_GT(with_cause, file.events.size() / 2);
  EXPECT_GT(by_span.size(), 1u);

  std::size_t recvs_checked = 0;
  for (const auto& ev : file.events) {
    if (ev.kind != static_cast<std::uint16_t>(obs::EventKind::kMsgRecv) ||
        ev.parent == 0) {
      continue;
    }
    auto it = by_span.find(ev.parent);
    if (it == by_span.end()) continue;  // causing dispatch predates the ring
    bool matched = false;
    for (const auto* cause : it->second) {
      if (cause->kind == static_cast<std::uint16_t>(obs::EventKind::kMsgSend) &&
          cause->node == ev.peer && cause->peer == ev.node) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "recv at node " << ev.node << " (t=" << ev.at
                         << ") has parent span " << ev.parent
                         << " containing no matching send";
    ++recvs_checked;
  }
  EXPECT_GT(recvs_checked, 0u) << "no cross-node recv carried a parent span";
}

// -------------------------------------------------------- negative control ----

// The digest must actually catch the failure mode lolint guards against:
// the same logical set of events emitted in two different orders (exactly
// what iterating an unordered container produces on another platform) has to
// hash differently. If this test ever fails, the digest has gone
// order-blind and the equality tests above prove nothing.
TEST(Determinism, UnorderedEmissionIsCaught) {
  const harness::LoNetwork::BlameEvent e1{/*observer=*/1, /*accused=*/9, 0.5};
  const harness::LoNetwork::BlameEvent e2{/*observer=*/2, /*accused=*/9, 0.5};

  auto digest_events =
      [](const std::vector<harness::LoNetwork::BlameEvent>& evs) {
        TraceDigest d;
        for (const auto& ev : evs) {
          d.u64(ev.observer);
          d.u64(ev.accused);
          d.f64(ev.when_s);
        }
        return d.hex();
      };

  EXPECT_NE(digest_events({e1, e2}), digest_events({e2, e1}))
      << "trace digest failed to distinguish emission orders";
}

}  // namespace
}  // namespace lo
