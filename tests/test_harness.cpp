// Harness-level tests: LoNetwork assembly invariants, metric plumbing,
// detection-time computation, coverage helper, workload control, sink feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "baselines/flood.hpp"
#include "baselines/narwhal.hpp"
#include "harness/lo_network.hpp"
#include "test_net_util.hpp"

namespace lo::harness {
namespace {

constexpr auto kMode = test::kFastSig;

using test::net_cfg;

workload::WorkloadConfig load_of(double tps, std::uint64_t seed) {
  return test::load_cfg(tps, seed);
}

TEST(Harness, MaliciousCountMatchesFraction) {
  for (double f : {0.0, 0.1, 0.25, 0.5}) {
    LoNetwork net(net_cfg(20, 3, f));
    std::size_t count = 0;
    for (bool b : net.malicious_mask()) count += b ? 1 : 0;
    EXPECT_EQ(count, net.malicious_count());
    EXPECT_EQ(count, static_cast<std::size_t>(f * 20 + 0.5));
    EXPECT_EQ(net.correct_count(), 20 - count);
  }
}

TEST(Harness, HonestSubgraphIsConnected) {
  auto cfg = net_cfg(30, 5, 0.4);
  cfg.malicious.censor_txs = true;
  LoNetwork net(cfg);
  std::vector<bool> honest(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    honest[i] = !net.malicious_mask()[i];
  }
  EXPECT_TRUE(net.topology().connected_among(honest));
  EXPECT_TRUE(net.topology().connected());
}

TEST(Harness, NeighborsMatchTopology) {
  LoNetwork net(net_cfg(12, 7));
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i).neighbors(),
              net.topology().neighbors(static_cast<core::NodeId>(i)));
  }
}

TEST(Harness, WorkloadInjectsAtConfiguredRate) {
  LoNetwork net(net_cfg(10, 9));
  net.start_workload(load_of(20.0, 11));
  net.run_for(20.0);
  // Poisson(400): 5-sigma band.
  EXPECT_NEAR(static_cast<double>(net.txs_injected()), 400.0, 100.0);
}

TEST(Harness, StopWorkloadStopsInjection) {
  LoNetwork net(net_cfg(10, 13));
  net.start_workload(load_of(20.0, 15));
  net.run_for(5.0);
  net.stop_workload();
  const auto at_stop = net.txs_injected();
  net.run_for(10.0);
  EXPECT_LE(net.txs_injected(), at_stop + 1);  // at most one in-flight arrival
}

TEST(Harness, WorkloadAvoidsMaliciousEntryNodes) {
  auto cfg = net_cfg(10, 17, 0.3);
  cfg.malicious.censor_txs = true;
  cfg.malicious.ignore_requests = true;
  LoNetwork net(cfg);
  net.start_workload(load_of(10.0, 19));
  net.run_for(5.0);
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.malicious_mask()[i]) {
      EXPECT_EQ(net.node(i).log().count(), 0u)
          << "client submitted to a censoring node";
    }
  }
}

TEST(Harness, CoverageReportsFraction) {
  LoNetwork net(net_cfg(8, 21));
  crypto::Signer client(crypto::derive_keypair(50, kMode), kMode);
  const auto tx = core::make_transaction(client, 1, 9, 0);
  EXPECT_EQ(net.coverage(tx.id), 0.0);
  net.node(0).submit_transaction(tx);
  EXPECT_NEAR(net.coverage(tx.id), 1.0 / 8.0, 1e-9);
  net.run_for(8.0);
  EXPECT_EQ(net.coverage(tx.id), 1.0);
}

TEST(Harness, DetectionTimesEmptyWithoutMalicious) {
  LoNetwork net(net_cfg(8, 23));
  net.start_workload(load_of(5.0, 25));
  net.run_for(5.0);
  const auto t = net.detection_times();
  EXPECT_LT(t.suspicion_complete_s, 0.0);
  EXPECT_LT(t.exposure_complete_s, 0.0);
  EXPECT_LT(t.exposure_spread_s, 0.0);
}

TEST(Harness, DetectionTimesOrdering) {
  auto cfg = net_cfg(16, 27, 0.15);
  cfg.malicious.equivocate = true;
  LoNetwork net(cfg);
  net.start_workload(load_of(8.0, 29));
  net.run_for(40.0);
  const auto t = net.detection_times();
  ASSERT_GE(t.exposure_complete_s, 0.0);
  EXPECT_LE(t.first_exposure_s, t.exposure_complete_s);
  ASSERT_GE(t.exposure_spread_s, 0.0);
  EXPECT_LE(t.exposure_spread_s, t.exposure_complete_s - 0.0);
}

TEST(Harness, BlockProductionRespectsCorrectLeaderFilter) {
  auto cfg = net_cfg(12, 31, 0.25);
  cfg.malicious.reorder_block = true;
  LoNetwork net(cfg);
  net.start_workload(load_of(8.0, 33));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 3 * sim::kSecond;
  lc.exponential_intervals = false;
  net.start_block_production(lc, /*correct_leaders_only=*/true);
  net.run_for(30.0);
  ASSERT_GT(net.chain().height(), 3u);
  for (const auto& block : net.chain().blocks()) {
    EXPECT_FALSE(net.malicious_mask()[block.creator])
        << "malicious leader elected despite filter";
  }
  // With only honest leaders there must be no exposures.
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(net.node(i).registry().exposed().empty());
  }
}

TEST(Harness, BlockLatencyTracksOnlyFirstInclusion) {
  LoNetwork net(net_cfg(10, 35));
  net.start_workload(load_of(10.0, 37));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 4 * sim::kSecond;
  lc.exponential_intervals = false;
  net.start_block_production(lc);
  net.run_for(30.0);
  // Each injected tx is counted at most once even though later blocks
  // re-include everything (no settlement pruning in the stub).
  EXPECT_LE(net.block_latency().count(), net.txs_injected());
  EXPECT_GT(net.block_latency().count(), 0u);
}

TEST(Harness, SeedsChangeOutcomes) {
  auto run = [](std::uint64_t seed) {
    LoNetwork net(net_cfg(10, seed));
    net.start_workload(load_of(10.0, seed + 1));
    net.run_for(5.0);
    return net.sim().bandwidth().total_bytes();
  };
  EXPECT_NE(run(1), run(2));
}

// The recorded events of `kind`.
std::vector<obs::TraceEvent> traced(LoNetwork& net, obs::EventKind kind) {
  std::vector<obs::TraceEvent> out;
  for (const auto& ev : net.sim().obs().tracer.events()) {
    if (ev.kind == static_cast<std::uint16_t>(kind)) out.push_back(ev);
  }
  return out;
}

// A crash is traced where it happens, whoever caused it: by hand or through
// the fault injector, once each.
TEST(Harness, CrashesAreTracedWhereTheyHappen) {
  auto cfg = net_cfg(8, 41);
  cfg.trace = true;
  LoNetwork net(cfg);
  net.faults().crash_at(2 * sim::kSecond, 3, sim::kSecond);
  net.crash_node(2);
  net.crash_node(2);  // already down: no event
  net.run_for(1.0);
  net.restart_node(2);
  net.run_for(3.0);
  for (const auto kind :
       {obs::EventKind::kFaultCrash, obs::EventKind::kFaultRestart}) {
    const auto events = traced(net, kind);
    ASSERT_EQ(events.size(), 2u) << obs::event_kind_name(kind);
    EXPECT_EQ(events[0].node, 2u);
    EXPECT_EQ(events[1].node, 3u);
  }
}

// start_workload's fanout: each tx reaches the network through two
// tx.submit events, yet it settles once, and the second submit never puts
// it back in flight.
template <typename NetT>
void expect_fanout_settles_once(NetT& net) {
  net.start_workload(load_of(10.0, 43), /*submit_fanout=*/2);
  net.run_for(5.0);
  net.stop_workload();
  net.run_for(10.0);
  std::map<std::uint64_t, std::size_t> submits;
  for (const auto& ev : net.sim().obs().tracer.events()) {
    if (ev.kind == static_cast<std::uint16_t>(obs::EventKind::kTxSubmit)) {
      ++submits[ev.a];
    }
  }
  ASSERT_GT(submits.size(), 10u);
  for (const auto& [txid, n] : submits) EXPECT_EQ(n, 2u) << txid;
  const Analyzer& a = net.analyzer();
  EXPECT_EQ(a.inflight(), 0u);
  EXPECT_EQ(a.settle_latency.count(), submits.size());
}

TEST(Harness, FanoutSubmitsSettleOnce) {
  auto cfg = net_cfg(10, 45);
  cfg.trace = true;
  LoNetwork lo_net(cfg);
  expect_fanout_settles_once(lo_net);
  baselines::FloodNode::Config flood;
  flood.prevalidation.sig_mode = kMode;
  Network<baselines::FloodNode> flood_net(cfg, flood);
  expect_fanout_settles_once(flood_net);
}

// With blocks, a tx submitted twice settles at its one tx.finalize and gives
// one block-latency sample.
TEST(Harness, FanoutGivesOneBlockLatencyPerTx) {
  auto cfg = net_cfg(10, 47);
  cfg.trace = true;
  LoNetwork net(cfg);
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 2 * sim::kSecond;
  lc.exponential_intervals = false;
  net.start_block_production(lc);
  expect_fanout_settles_once(net);
  const auto finalized = traced(net, obs::EventKind::kTxFinalize);
  EXPECT_EQ(finalized.size(), net.analyzer().settle_latency.count());
  EXPECT_EQ(net.block_latency().count(), finalized.size());
  for (const auto& [txid, tx] : net.analyzer().txs) {
    EXPECT_EQ(tx.settle_at, tx.finalize_at) << txid;
  }
}

// ------------------------------------------------ one observation channel ----

// Silent censors, a faulty node that builds a reordered block, block
// production, and membership with a crashed correct node: a run that reaches
// every feed. `record` only switches the ring on.
std::unique_ptr<LoNetwork> adversarial_run(bool record) {
  auto cfg = net_cfg(16, 5, /*malicious_fraction=*/0.25);
  cfg.trace = record;
  cfg.trace_capacity = 1 << 20;  // the whole run
  cfg.city_latency = false;
  cfg.malicious.censor_txs = true;
  cfg.malicious.ignore_requests = true;
  cfg.node.membership.enabled = true;
  auto net = std::make_unique<LoNetwork>(cfg);
  const auto& bad = net->malicious_mask();
  const auto reorderer = static_cast<std::size_t>(
      std::find(bad.begin(), bad.end(), true) - bad.begin());
  const auto victim = static_cast<core::NodeId>(
      std::find(bad.begin(), bad.end(), false) - bad.begin());
  net->node(reorderer).behavior() = core::MaliciousBehavior{};
  net->node(reorderer).behavior().reorder_block = true;
  AnomalyConfig acfg;
  acfg.suspicion_spike_threshold = 0;  // any suspicion in a window alerts
  net->start_anomaly_monitor(acfg);
  net->start_workload(load_of(20.0, 6));
  consensus::LeaderConfig lc;
  lc.mean_block_interval = 3 * sim::kSecond;
  net->start_block_production(lc, /*correct_leaders_only=*/true);
  net->faults().crash_at(6 * sim::kSecond, victim, 8 * sim::kSecond);
  net->run_for(12.0);
  net->node(reorderer).create_block(100, crypto::Digest256{});
  net->run_for(13.0);
  return net;
}

// The recorded events of `kind` as blame feed entries.
std::vector<BlameEvent> traced_blame(LoNetwork& net, obs::EventKind kind) {
  std::vector<BlameEvent> out;
  for (const auto& ev : traced(net, kind)) {
    out.push_back({ev.node, ev.peer, sim::to_seconds(ev.at)});
  }
  return out;
}

// The parts of two analyzers' state one by one, for the failure message,
// then the whole of it.
void expect_same_analysis(const Analyzer& got, const Analyzer& want) {
  EXPECT_TRUE(got.txs == want.txs) << "per-tx lifecycles differ";
  EXPECT_EQ(got.mempool_latency.values(), want.mempool_latency.values());
  EXPECT_EQ(got.block_latency.values(), want.block_latency.values());
  EXPECT_EQ(got.settle_latency.values(), want.settle_latency.values());
  EXPECT_EQ(got.membership_detection_latency.values(),
            want.membership_detection_latency.values());
  EXPECT_EQ(got.suspicion_events, want.suspicion_events);
  EXPECT_EQ(got.exposure_events, want.exposure_events);
  EXPECT_EQ(got.member_events, want.member_events);
  EXPECT_EQ(got.reconciles_ok, want.reconciles_ok);
  EXPECT_EQ(got.reconciles_failed, want.reconciles_failed);
  EXPECT_TRUE(got == want) << "the analyzers' states differ";
}

// The sink contract (obs::Tracer::set_sink): a fact the analyzer reads is
// emitted without an enabled() guard, so recording changes none of the
// analyzer's state, no alert and no registry cell.
TEST(ObsChannel, FeedsAreTheSameWithRecordingOnOrOff) {
  auto on = adversarial_run(true);
  auto off = adversarial_run(false);
  const Analyzer& a = on->analyzer();
  for (const std::size_t n :
       {a.block_latency.count(), a.membership_detection_latency.count(),
        a.suspicion_events.size(), a.exposure_events.size(),
        a.member_events.size(), on->anomaly()->alerts().size()}) {
    EXPECT_GT(n, 0u) << "the run misses a feed";
  }
  expect_same_analysis(on->analyzer(), off->analyzer());
  EXPECT_EQ(on->detection_times(), off->detection_times());
  EXPECT_EQ(on->anomaly()->alerts(), off->anomaly()->alerts());
  on->publish_metrics();
  off->publish_metrics();
  EXPECT_EQ(on->sim().obs().registry.to_json("feeds"),
            off->sim().obs().registry.to_json("feeds"));
}

// One analysis online and offline: the run's recorded trace, replayed
// through a fresh analyzer, gives exactly the live run's per-tx settle
// times, latency samples, blame and member feeds, membership latencies and
// detection times.
TEST(ObsChannel, ReplayedTraceGivesTheLiveAnalysis) {
  auto net = adversarial_run(true);
  const auto& tracer = net->sim().obs().tracer;
  ASSERT_EQ(tracer.dropped(), 0u) << "the ring lost the start of the run";
  Analyzer replay;
  for (const auto& ev : obs::Tracer::from_bytes(tracer.bytes()).events) {
    replay.observe(ev);
  }
  expect_same_analysis(replay, net->analyzer());
  EXPECT_EQ(replay.detection_times(net->malicious_mask()),
            net->detection_times());
}

// An exposure found by inspecting a block is a kExpose, and a suspicion a
// node adopts from another's report a blame.suspected, so the trace holds
// both blame feeds.
TEST(ObsChannel, TraceHoldsTheBlameFeeds) {
  auto net = adversarial_run(true);
  ASSERT_FALSE(net->analyzer().exposure_events.empty());
  EXPECT_EQ(traced_blame(*net, obs::EventKind::kExpose),
            net->analyzer().exposure_events);
  const auto suspected = traced_blame(*net, obs::EventKind::kSuspected);
  // Each own report (kSuspect) gains at most one suspect: the rest relayed.
  const auto own = traced_blame(*net, obs::EventKind::kSuspect);
  EXPECT_GT(suspected.size(), own.size()) << "no relayed suspicion adopted";
  EXPECT_EQ(suspected, net->analyzer().suspicion_events);
}

// Every node kind admits with one kTxAdmit whose b is the tx's created_at,
// so the latency sample is at - b, also for a tx submitted by hand; a
// Narwhal batch admits at every node it reaches.
template <typename NetT>
void expect_admits_carry_created_at(NetT& net) {
  net.run_for(2.0);
  crypto::Signer client(crypto::derive_keypair(42, kMode), kMode);
  net.node(1).submit_transaction(
      core::make_transaction(client, 1, 100, sim::kSecond));
  net.run_for(3.0);
  std::size_t admits = 0;
  for (const auto& ev : net.sim().obs().tracer.events()) {
    if (ev.kind == static_cast<std::uint16_t>(obs::EventKind::kTxAdmit)) {
      ++admits;
      EXPECT_EQ(ev.b, std::uint64_t{sim::kSecond});
    }
  }
  ASSERT_EQ(admits, net.size()) << "the tx did not reach every node";
  EXPECT_EQ(net.mempool_latency().values().front(), 1.0);
}

TEST(ObsChannel, AdmitCarriesCreatedAt) {
  auto cfg = net_cfg(8, 13);
  cfg.trace = true;
  LoNetwork lo_net(cfg);
  expect_admits_carry_created_at(lo_net);
  baselines::FloodNode::Config flood;
  flood.prevalidation.sig_mode = kMode;
  Network<baselines::FloodNode> flood_net(cfg, flood);
  expect_admits_carry_created_at(flood_net);
  baselines::NarwhalNode::Config narwhal;
  narwhal.prevalidation.sig_mode = kMode;
  narwhal.num_nodes = 8;
  Network<baselines::NarwhalNode> narwhal_net(cfg, narwhal);
  expect_admits_carry_created_at(narwhal_net);
}

}  // namespace
}  // namespace lo::harness
