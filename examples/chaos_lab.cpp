// Chaos lab: drive a LØ network through the full fault-injection repertoire —
// scripted crash/restart windows, random churn, flaky links and latency
// spikes — while the invariant checker continuously verifies that no correct
// node is ever exposed, no log double-commits, and mempools stay consistent
// with the commitment logs.
//
//   $ ./build/examples/chaos_lab [trace.lotrace [metrics.json]]
//
// Everything is driven by two seeds (network and fault injector), so every
// run of this binary prints exactly the same trace. With a trace path the
// event tracer records the whole run (crashes, drops, reconciliations);
// `./build/tools/loscope <trace> chrome` converts the capture for the
// Perfetto UI.
#include <cstdio>

#include "harness/lo_network.hpp"

int main(int argc, char** argv) {
  using namespace lo;
  const char* trace_path = argc > 1 ? argv[1] : nullptr;
  const char* metrics_path = argc > 2 ? argv[2] : nullptr;

  harness::NetworkConfig cfg;
  cfg.num_nodes = 16;
  cfg.seed = 7;
  cfg.trace = trace_path != nullptr;
  cfg.trace_capacity = 1 << 18;  // chaos runs are long; keep the whole story
  cfg.node.sig_mode = crypto::SignatureMode::kSimFast;
  cfg.node.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  harness::LoNetwork net(cfg);
  std::printf("== LO chaos lab: %zu miners ==\n\n", net.size());

  // Fail fast on any accountability or log-consistency violation: a broken
  // invariant raises std::runtime_error out of run_for().
  net.start_invariant_checker(500 * sim::kMillisecond);

  // Online anomaly detection: the chaos (crashes, flaky links, churn) is
  // expected to trip the dwell/SLO detectors occasionally; the alert log
  // below shows what an operator would have seen live.
  harness::AnomalyConfig anomaly_cfg;
  anomaly_cfg.censor_dwell_threshold_s = 20.0;
  anomaly_cfg.commit_latency_slo_s = 10.0;
  net.start_anomaly_monitor(anomaly_cfg);

  workload::WorkloadConfig load;
  load.tps = 10.0;
  load.seed = 11;
  load.sig_mode = crypto::SignatureMode::kSimFast;
  net.start_workload(load);

  // Act I — a scripted crash: node 3 dies at t=4s for 6 seconds, losing its
  // volatile state (the commitment log survives as "disk").
  net.faults().crash_at(4 * sim::kSecond, 3, 6 * sim::kSecond,
                        /*wipe_mempool=*/true);

  // Act II — pathological links: a flaky window and a latency spike.
  net.faults().flaky_link(0, 1, 5 * sim::kSecond, 15 * sim::kSecond, 0.5);
  net.faults().latency_spike(8 * sim::kSecond, 12 * sim::kSecond, 4.0);

  // Act III — random churn: up to 3 of 16 nodes down at any time.
  sim::ChurnConfig churn;
  churn.mean_gap = 3 * sim::kSecond;
  churn.min_down = 2 * sim::kSecond;
  churn.max_down = 6 * sim::kSecond;
  churn.max_concurrent_down = 3;
  net.start_churn(churn);

  for (int leg = 1; leg <= 3; ++leg) {
    net.run_for(10.0);
    std::printf(
        "t=%5.1fs  injected=%llu  down_now=%zu  crashes=%llu  link_drops=%llu\n",
        static_cast<double>(net.sim().now()) / 1e6,
        static_cast<unsigned long long>(net.txs_injected()),
        net.faults().down_count(),
        static_cast<unsigned long long>(net.faults().crashes_injected()),
        static_cast<unsigned long long>(net.faults().link_drops()));
  }

  // Cooldown: stop the chaos, drain the workload, let recovery syncs finish.
  net.stop_churn();
  net.stop_workload();
  std::printf("\nchurn stopped; draining...\n");
  net.run_for(60.0);

  const auto total = net.txs_injected();
  std::size_t converged = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.node(i).mempool_size() == total &&
        net.node(i).log().count() == total) {
      ++converged;
    }
  }
  const auto stats = net.total_stats();
  std::printf("\n== aftermath ==\n");
  std::printf("transactions injected     %llu\n",
              static_cast<unsigned long long>(total));
  std::printf("nodes fully converged     %zu / %zu\n", converged, net.size());
  std::printf("crashes / restarts        %llu / %llu\n",
              static_cast<unsigned long long>(net.faults().crashes_injected()),
              static_cast<unsigned long long>(net.faults().restarts_injected()));
  std::printf("timeouts / retries        %llu / %llu\n",
              static_cast<unsigned long long>(stats.timeouts_fired),
              static_cast<unsigned long long>(stats.retries_sent));
  std::printf("suspicions raised/retracted %llu / %llu\n",
              static_cast<unsigned long long>(stats.suspicions_raised),
              static_cast<unsigned long long>(stats.suspicions_retracted));
  std::printf("invariant violations      %zu\n",
              net.invariant_violations().size());

  std::size_t exposures = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    exposures += net.node(i).registry().exposed().size();
  }
  std::printf("false exposures           %zu  %s\n", exposures,
              exposures == 0 ? "(accuracy holds)" : "(BUG!)");

  const auto& alerts = net.anomaly()->alerts();
  std::printf("anomaly alerts            %zu  (inflight at end: %llu)\n",
              alerts.size(),
              static_cast<unsigned long long>(net.anomaly()->inflight()));
  for (const auto& a : alerts) {
    std::printf("  [%7.2fs] %-18s %.3f > %.3f  %s\n", a.when_s,
                harness::anomaly_kind_name(a.kind), a.value, a.threshold,
                a.detail.c_str());
  }

  if (trace_path != nullptr) {
    auto& tracer = net.sim().obs().tracer;
    if (!tracer.write_file(trace_path)) return 1;
    std::printf("wrote %zu trace events to %s (dropped=%llu)\n", tracer.size(),
                trace_path, static_cast<unsigned long long>(tracer.dropped()));
  }
  if (metrics_path != nullptr) {
    net.publish_metrics();
    if (!net.sim().obs().registry.write_json(metrics_path, "chaos_lab")) {
      return 1;
    }
    std::printf("wrote %zu metrics to %s\n", net.sim().obs().registry.size(),
                metrics_path);
  }
  return exposures == 0 && converged == net.size() ? 0 : 1;
}
