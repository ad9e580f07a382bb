// AnomalyMonitor tests: each streaming detector in isolation on a bare
// simulator (dwell watermark, settle clearing, suspicion spike, reconcile
// failure ratio, commit-latency SLO), driven by the events its analyzer
// folds; the lo.anomaly.* counter and kAnomaly trace surfaces, the settle
// rule both node kinds share on the network scaffold, and same-seed replay
// of the full alert stream when the monitor rides a real LØ run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/flood.hpp"
#include "harness/analyzer.hpp"
#include "harness/anomaly.hpp"
#include "harness/lo_network.hpp"
#include "harness/network.hpp"
#include "sim/simulator.hpp"
#include "test_net_util.hpp"

namespace lo {
namespace {

using harness::AnomalyConfig;
using harness::AnomalyKind;
using harness::AnomalyMonitor;
using obs::EventKind;

// An event as a node or the workload emits it: `a` is the short tx id or
// the reconcile outcome, `at` its timestamp.
obs::TraceEvent event(EventKind kind, std::uint64_t a = 0,
                      sim::TimePoint at = 0) {
  obs::TraceEvent ev;
  ev.at = at;
  ev.kind = static_cast<std::uint16_t>(kind);
  ev.a = a;
  return ev;
}

// ------------------------------------------------------------ censor dwell ----

TEST(Anomaly, CensorDwellAlertsOncePerUnsettledTx) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.censor_dwell_threshold_s = 5.0;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  analyzer.observe(event(EventKind::kTxSubmit, 0xabc));
  sim.run_until(10 * sim::kSecond);

  // Ten ticks fire, six of them past the watermark — but the alert is
  // raised exactly once per tx.
  ASSERT_EQ(mon.alerts().size(), 1u);
  const auto& a = mon.alerts()[0];
  EXPECT_EQ(a.kind, AnomalyKind::kCensorDwell);
  EXPECT_GE(a.value, 5.0);
  EXPECT_DOUBLE_EQ(a.threshold, 5.0);
  EXPECT_NE(a.detail.find("unsettled"), std::string::npos);
  // Still in flight: a late settle can clear it.
  EXPECT_EQ(analyzer.inflight(), 1u);

  auto& reg = sim.obs().registry;
  EXPECT_EQ(reg.counter("lo.anomaly.alerts"), 1u);
  EXPECT_EQ(reg.counter("lo.anomaly.alerts", {{"kind", "censor_dwell"}}), 1u);
  EXPECT_EQ(reg.counter("lo.anomaly.alerts", {{"kind", "suspicion_spike"}}),
            0u);
}

TEST(Anomaly, SettleClearsInflightBeforeTheWatermark) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.censor_dwell_threshold_s = 5.0;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  analyzer.observe(event(EventKind::kTxSubmit, 0xabc));
  sim.schedule(2 * sim::kSecond, [&] {
    analyzer.observe(event(EventKind::kTxAdmit, 0xabc, sim.now()));
  });
  // A tx never submitted settles but was never in flight.
  analyzer.observe(event(EventKind::kTxAdmit, 0xdead));
  sim.run_until(10 * sim::kSecond);
  EXPECT_TRUE(mon.alerts().empty());
  EXPECT_EQ(analyzer.inflight(), 0u);
}

// --------------------------------------------------------- suspicion spike ----

TEST(Anomaly, SuspicionSpikeFiresOnlyInTheHotWindow) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.suspicion_spike_threshold = 4;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  sim.schedule(sim::kSecond / 2, [&] {
    for (int i = 0; i < 10; ++i) analyzer.observe(event(EventKind::kSuspected));
  });
  sim.run_until(3 * sim::kSecond);
  // Tick at 1s sees 10 > 4; the window resets, so ticks at 2s/3s stay quiet.
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].kind, AnomalyKind::kSuspicionSpike);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 10.0);
}

// ---------------------------------------------------------- reconcile fail ----

TEST(Anomaly, ReconcileFailureNeedsRatioAndMinSamples) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.reconcile_failure_ratio = 0.5;
  cfg.reconcile_min_samples = 8;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  const auto ok = event(EventKind::kReconcileRound, obs::kReconcileDecoded);
  const auto failed =
      event(EventKind::kReconcileRound, obs::kReconcileOverflow);
  // Window 1: 4 ok + 4 failed = 8 samples at exactly the ratio bound.
  sim.schedule(sim::kSecond / 2, [&] {
    for (int i = 0; i < 4; ++i) analyzer.observe(ok);
    for (int i = 0; i < 4; ++i) analyzer.observe(failed);
  });
  // Window 2: all failures but below the sample floor — no alert.
  sim.schedule(3 * sim::kSecond / 2, [&] {
    for (int i = 0; i < 7; ++i) analyzer.observe(failed);
  });
  sim.run_until(3 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].kind, AnomalyKind::kReconcileFailure);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 0.5);
  EXPECT_NE(mon.alerts()[0].detail.find("4/8"), std::string::npos);
}

// -------------------------------------------------------------- commit slo ----

TEST(Anomaly, CommitSloUsesNearestRankP95) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.commit_latency_slo_s = 1.0;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  // 18 fast settles and 2 slow ones: rank ceil(0.95*20) = 19 lands on the
  // first slow sample, breaching the SLO.
  sim.schedule(sim::kSecond / 2, [&] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      analyzer.observe(event(EventKind::kTxSubmit, i));
    }
    for (std::uint64_t i = 0; i < 18; ++i) {
      analyzer.observe(event(EventKind::kTxAdmit, i, 100 * sim::kMillisecond));
    }
    analyzer.observe(event(EventKind::kTxAdmit, 18, 5 * sim::kSecond));
    analyzer.observe(event(EventKind::kTxAdmit, 19, 5 * sim::kSecond));
  });
  sim.run_until(2 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].kind, AnomalyKind::kCommitLatencySlo);
  EXPECT_DOUBLE_EQ(mon.alerts()[0].value, 5.0);
}

TEST(Anomaly, CommitSloToleratesASingleOutlier) {
  sim::Simulator sim(1);
  AnomalyConfig cfg;
  cfg.commit_latency_slo_s = 1.0;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  // 19 fast + 1 slow: rank 19 of 20 is still a fast sample.
  sim.schedule(sim::kSecond / 2, [&] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      analyzer.observe(event(EventKind::kTxSubmit, i));
    }
    for (std::uint64_t i = 0; i < 19; ++i) {
      analyzer.observe(event(EventKind::kTxAdmit, i, 100 * sim::kMillisecond));
    }
    analyzer.observe(event(EventKind::kTxAdmit, 19, 5 * sim::kSecond));
  });
  sim.run_until(2 * sim::kSecond);
  EXPECT_TRUE(mon.alerts().empty());
}

// ----------------------------------------------------------- trace surface ----

TEST(Anomaly, AlertsRideTheTraceStream) {
  sim::Simulator sim(1);
  sim.obs().tracer.enable(true);
  AnomalyConfig cfg;
  cfg.censor_dwell_threshold_s = 2.0;
  harness::Analyzer analyzer;
  AnomalyMonitor mon(sim, cfg);
  mon.start(analyzer);
  analyzer.observe(event(EventKind::kTxSubmit, 0x77));
  sim.run_until(4 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);

  bool found = false;
  for (const auto& ev : sim.obs().tracer.events()) {
    if (ev.kind != static_cast<std::uint16_t>(obs::EventKind::kAnomaly)) {
      continue;
    }
    found = true;
    EXPECT_EQ(ev.peer, static_cast<std::uint32_t>(AnomalyKind::kCensorDwell));
    EXPECT_EQ(ev.b, 2000u);  // threshold in milli-units
    EXPECT_GE(ev.a, 2000u);  // observed dwell in milli-units
  }
  EXPECT_TRUE(found) << "no kAnomaly event reached the tracer";
}

// ------------------------------------------------------------- determinism ----

// Alert stream + registry export from a monitored adversarial LØ run must be
// identical on same-seed replay: the monitor keeps ordered state and ticks on
// an ordinary coordinator timer.
std::string run_monitored_lo(std::uint64_t seed) {
  auto cfg = test::net_cfg(16, seed, /*malicious_fraction=*/0.125);
  cfg.trace = true;
  cfg.malicious.ignore_requests = true;
  cfg.malicious.censor_txs = true;
  harness::LoNetwork net(cfg);
  AnomalyConfig acfg;
  acfg.suspicion_spike_threshold = 0;  // any suspicion in a window alerts
  acfg.censor_dwell_threshold_s = 5.0;
  net.start_anomaly_monitor(acfg);
  net.start_workload(test::load_cfg(20.0, seed + 1000));
  net.run_for(15.0);

  std::string out;
  char buf[192];
  for (const auto& a : net.anomaly()->alerts()) {
    std::snprintf(buf, sizeof(buf), "%u|%.6f|%.6f|%.6f|%s\n",
                  static_cast<unsigned>(a.kind), a.when_s, a.value, a.threshold,
                  a.detail.c_str());
    out += buf;
  }
  out += std::to_string(net.analyzer().inflight());
  out += "\n";
  net.publish_metrics();
  out += net.sim().obs().registry.to_json("anomaly");
  return out;
}

baselines::FloodNode::Config flood_cfg() {
  baselines::FloodNode::Config cfg;
  cfg.prevalidation.sig_mode = test::kFastSig;
  return cfg;
}

// The same detectors ride the baseline stacks: a healthy flood run with a
// sane SLO raises nothing, and every tx settles — the monitor reads real
// submit and admit events.
TEST(Anomaly, FloodNetworkFeedsTheMonitor) {
  harness::ScaffoldConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = 7;
  harness::Network<baselines::FloodNode> net(cfg, flood_cfg());
  AnomalyConfig acfg;
  acfg.censor_dwell_threshold_s = 5.0;
  net.start_anomaly_monitor(acfg);
  net.start_workload(test::load_cfg(15.0, 8));
  net.run_for(10.0);
  ASSERT_NE(net.anomaly(), nullptr);
  EXPECT_GT(net.txs_injected(), 0u);
  EXPECT_EQ(net.analyzer().inflight(), 0u)
      << "flood baseline left submitted txs unsettled";
  EXPECT_TRUE(net.anomaly()->alerts().empty());
}

// Without blocks a tx settles at its first mempool admit, whatever the node
// kind. A submit admits synchronously, so the scaffold must emit tx.submit
// before it places the tx: right after the first arrival nothing may be
// left in flight.
template <typename NodeT>
std::uint64_t inflight_after_first_arrival(harness::Network<NodeT>& net) {
  net.start_anomaly_monitor();
  net.start_workload(test::load_cfg(10.0, 4));
  while (net.txs_injected() == 0 && net.sim().step()) {
  }
  EXPECT_EQ(net.txs_injected(), 1u);
  return net.analyzer().inflight();
}

TEST(Anomaly, FirstArrivalSettlesAtItsAdmit) {
  const auto cfg = test::net_cfg(16, 3);
  harness::LoNetwork lo_net(cfg);
  EXPECT_EQ(inflight_after_first_arrival(lo_net), 0u) << "LØ";
  harness::Network<baselines::FloodNode> flood(cfg, flood_cfg());
  EXPECT_EQ(inflight_after_first_arrival(flood), 0u) << "Flood";
}

TEST(Anomaly, MonitoredRunSameSeedSameAlerts) {
  const std::string first = run_monitored_lo(5);
  // Non-vacuous: sync-ignoring censors must trip at least one detector.
  EXPECT_NE(first.find("|"), std::string::npos)
      << "adversarial run produced no alerts — determinism check is vacuous";
  EXPECT_EQ(first, run_monitored_lo(5)) << "monitored LO replay diverged";
}

}  // namespace
}  // namespace lo
