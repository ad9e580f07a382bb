// Scaling bench — LØ's per-node costs as the network grows, plus the
// observability overhead guard (BENCH_obs.json).
//
// The paper deployed 10,000 processes; this single-process reproduction runs
// smaller networks and uses this sweep to support the extrapolation argument
// (EXPERIMENTS.md): LØ's per-node overhead is governed by the local
// reconciliation budget (3 neighbors/second), not by the network size, while
// flooding-style protocols pay per edge.
//
// The final section reruns one fixed configuration twice — instrumentation
// disabled (the default everywhere) and fully traced (event tracer +
// profiling hooks on) — and records both wall times. The traced/disabled
// ratio is the overhead budget DESIGN.md commits to; CI keeps the artifact
// next to BENCH_crypto.json so regressions in the "disabled" fast path are
// visible in the same dashboard.
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "minisketch/partitioned.hpp"
#include "obs/profile.hpp"

namespace {

struct ObsRow {
  double wall_s = 0.0;
  std::uint64_t trace_events = 0;
  std::uint64_t txs = 0;
};

ObsRow run_obs_leg(std::size_t n, double seconds, std::uint64_t seed,
                   bool instrumented) {
  auto cfg = lo::bench::base_config(n, seed);
  cfg.trace = instrumented;
  cfg.trace_capacity = instrumented ? (1u << 20) : 0;  // keep every event
  lo::obs::profile::reset();
  lo::obs::profile::set_enabled(instrumented);
  lo::harness::LoNetwork net(cfg);
  net.start_workload(lo::bench::base_workload(20.0, seed * 3), 1);
  // lolint:allow(banned-source) reason=wall-clock stopwatch for the overhead guard column; never feeds protocol state or the simulation
  const auto t0 = std::chrono::steady_clock::now();
  net.run_for(seconds);
  // lolint:allow(banned-source) reason=wall-clock stopwatch read for the overhead guard column; never feeds protocol state or the simulation
  const auto t1 = std::chrono::steady_clock::now();
  lo::obs::profile::set_enabled(false);
  ObsRow row;
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.trace_events = net.sim().obs().tracer.size() +
                     net.sim().obs().tracer.dropped();
  row.txs = net.txs_injected();
  return row;
}

// ---- membership leg (BENCH_membership.json) ----
// Two series. (1) SWIM under churn: mean/max crash-to-confirm detection
// latency and the probe+gossip bandwidth per node, as the churn rate rises —
// the bandwidth is expected to stay near-flat (one probe per period per node,
// piggybacked dissemination) while only the event count grows. (2) Adaptive
// vs fixed reconciliation: syndrome bytes spent per symmetric-difference
// size, with the adaptive reconciler required to recover the exact set the
// fixed-capacity oracle does.

struct MembershipRow {
  double detect_mean_s = 0.0;
  double detect_max_s = 0.0;
  double swim_bytes_per_node_s = 0.0;
  std::uint64_t confirms = 0;
};

MembershipRow run_membership_leg(std::size_t n, double seconds,
                                 std::uint64_t seed, double mean_gap_s) {
  auto cfg = lo::bench::base_config(n, seed);
  cfg.node.membership.enabled = true;
  cfg.node.membership.protocol_period = 500 * lo::sim::kMillisecond;
  cfg.node.membership.ping_timeout = 120 * lo::sim::kMillisecond;
  lo::harness::LoNetwork net(cfg);
  lo::sim::ChurnConfig churn;
  churn.mean_gap = static_cast<lo::sim::Duration>(mean_gap_s * lo::sim::kSecond);
  // Down-times comfortably above the suspicion window so every crash can be
  // confirmed before the victim returns.
  churn.min_down = 8 * lo::sim::kSecond;
  churn.max_down = 16 * lo::sim::kSecond;
  churn.max_concurrent_down = std::max<std::size_t>(1, n / 8);
  net.start_churn(churn);
  net.run_for(seconds);

  MembershipRow row;
  row.detect_mean_s = net.membership_detection_latency().mean();
  row.detect_max_s = net.membership_detection_latency().max();
  std::uint64_t swim_bytes = 0;
  for (const auto& [name, st] : net.sim().bandwidth().by_class()) {
    if (name.rfind("swim.", 0) == 0) swim_bytes += st.bytes;
  }
  row.swim_bytes_per_node_s =
      static_cast<double>(swim_bytes) / seconds / static_cast<double>(n);
  for (const auto& ev : net.member_events()) {
    if (ev.state == lo::membership::MemberState::kConfirmed) ++row.confirms;
  }
  return row;
}

// ---- sharded pipeline leg (BENCH_sharding.json) ----
// Storm workload against the Sedna-style sharded commitment pipeline
// (DESIGN.md §7). The storm is sized so that the pairwise symmetric
// difference overflows the per-exchange sketch capacity at k = 1: the
// unsharded pipeline falls back to bounded random delta windows and commits
// a fraction of each window, far below the injection rate. Sharding
// composes decode capacity — k shards carry k independent sketches, so the
// per-shard difference stays decodable and each exchange commits its whole
// difference. Committed throughput must therefore scale with k (the gate is
// >= 2x at k = 4 at the default scale).

struct ShardingRow {
  double commits_per_node_s = 0.0;  // committed txs / correct node / sim-sec
  std::uint64_t injected = 0;
  double wall_s = 0.0;
};

ShardingRow run_sharding_leg(std::size_t n, double seconds, std::uint64_t seed,
                             std::uint32_t shards) {
  auto cfg = lo::bench::base_config(n, seed);
  cfg.node.mempool_shards = shards;
  // Saturation knobs: no signature checks (wire sizes unchanged); capacity
  // and delta bound the exchange so that the global difference overflows the
  // sketch at k = 1 while the per-shard differences stay decodable at k = 4
  // — the regime the sharded pipeline exists for.
  cfg.node.verify_signatures = false;
  cfg.node.commitment.sketch_capacity = 64;
  cfg.node.max_delta = 48;
  lo::harness::LoNetwork net(cfg);
  net.start_workload(lo::bench::base_workload(240.0, seed * 3), 1);
  // lolint:allow(banned-source) reason=wall-clock stopwatch for the bench table; never feeds protocol state or the simulation
  const auto t0 = std::chrono::steady_clock::now();
  net.run_for(seconds);
  // lolint:allow(banned-source) reason=wall-clock stopwatch read for the bench table; never feeds protocol state or the simulation
  const auto t1 = std::chrono::steady_clock::now();

  ShardingRow row;
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.injected = net.txs_injected();
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    committed += net.node(i).total_committed();
  }
  row.commits_per_node_s = static_cast<double>(committed) /
                           static_cast<double>(n) / seconds;
  return row;
}

// Returns false if the adaptive reconciler ever disagrees with the
// fixed-capacity oracle — that would invalidate the bytes comparison.
bool run_reconcile_series(lo::bench::JsonReport& report) {
  constexpr std::size_t kShared = 400;
  for (std::size_t diff : {4u, 16u, 64u, 256u, 1024u}) {
    std::vector<std::uint64_t> a, b;
    for (std::size_t i = 0; i < kShared; ++i) {
      a.push_back((i + 1) * 0x9e3779b97f4a7c15ULL);
      b.push_back((i + 1) * 0x9e3779b97f4a7c15ULL);
    }
    for (std::size_t i = 0; i < diff / 2; ++i) {
      a.push_back((0x10000 + i) * 0xc2b2ae3d27d4eb4fULL | 1);
      b.push_back((0x20000 + i) * 0xc2b2ae3d27d4eb4fULL | 1);
    }

    lo::sketch::ReconcileStats fixed_st;
    lo::sketch::PartitionedReconciler fixed(32, 128);
    auto fixed_got = fixed.reconcile(a, b, &fixed_st);
    lo::sketch::ReconcileStats ad_st;
    lo::sketch::AdaptiveReconciler adaptive(32, 128);
    // The Bloom-clock estimate the protocol feeds in is the true difference
    // here; the node-level sizing error path is covered by tests.
    auto ad_got = adaptive.reconcile(a, b, diff, &ad_st);
    if (!fixed_got || !ad_got) return false;
    std::sort(fixed_got->begin(), fixed_got->end());
    std::sort(ad_got->begin(), ad_got->end());
    if (*fixed_got != *ad_got) return false;

    std::printf("  diff %-6zu fixed %6llu B   adaptive %6llu B\n", diff,
                static_cast<unsigned long long>(fixed_st.bytes),
                static_cast<unsigned long long>(ad_st.bytes));
    const std::string tag = "/diff" + std::to_string(diff);
    report.add("reconcile/fixed_bytes" + tag, 0.0,
               static_cast<double>(fixed_st.bytes));
    report.add("reconcile/adaptive_bytes" + tag, 0.0,
               static_cast<double>(ad_st.bytes));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = lo::bench::parse_args(argc, argv, 0, 30.0);
  lo::bench::print_header(
      "Scaling — LØ per-node overhead and latency vs network size",
      "supports the 10,000-node extrapolation of Sec. 6 (not a paper figure)");
  std::printf("horizon=%.0fs tps=20\n\n", args.seconds);
  std::printf("%-10s %-20s %-16s %-18s %-22s\n", "nodes", "overhead[B/s/node]",
              "mempool-lat[s]", "decodes/node/min",
              "acct-memory/node[KiB]");

  for (std::size_t n : {50u, 100u, 200u, 400u}) {
    auto cfg = lo::bench::base_config(n, args.seed);
    lo::harness::LoNetwork net(cfg);
    net.start_workload(lo::bench::base_workload(20.0, args.seed * 3), 1);
    net.run_for(args.seconds);

    const double overhead =
        static_cast<double>(
            net.sim().bandwidth().bytes_excluding({"lo.txs"})) /
        args.seconds / static_cast<double>(n);
    std::uint64_t mem = 0;
    for (std::size_t i = 0; i < n; ++i) {
      mem += net.node(i).accountability_memory_bytes();
    }
    std::printf("%-10zu %-20.1f %-16.2f %-18.1f %-22.1f\n", n, overhead,
                net.mempool_latency().mean(),
                static_cast<double>(net.total_sketch_decodes()) /
                    static_cast<double>(n) / (args.seconds / 60.0),
                static_cast<double>(mem) / static_cast<double>(n) / 1024.0);
  }
  std::printf(
      "\nexpected shape: overhead per node roughly flat (the reconciliation\n"
      "budget is local); latency grows slowly (diameter); accountability\n"
      "memory grows with observed peers, far below the Sec. 6.5 bound.\n");

  // ---- observability overhead guard (BENCH_obs.json) ----
  const std::size_t obs_n = 32;
  const ObsRow off = run_obs_leg(obs_n, args.seconds, args.seed, false);
  const ObsRow on = run_obs_leg(obs_n, args.seconds, args.seed, true);
  const double ratio = off.wall_s > 0.0 ? on.wall_s / off.wall_s : 0.0;
  std::printf(
      "\nobservability overhead (%zu nodes, %.0fs horizon):\n"
      "  disabled  %.3fs wall\n"
      "  traced    %.3fs wall (%llu events) -> ratio %.3f\n",
      obs_n, args.seconds, off.wall_s, on.wall_s,
      static_cast<unsigned long long>(on.trace_events), ratio);

  lo::bench::JsonReport report("BENCH_obs.json", "lo-obs-overhead");
  report.add("obs/disabled", off.wall_s * 1e9,
             static_cast<double>(off.txs) / off.wall_s);
  report.add("obs/traced", on.wall_s * 1e9,
             static_cast<double>(on.trace_events) / on.wall_s);
  report.add("obs/overhead_ratio", on.wall_s * 1e9, ratio);
  if (!report.write()) return 1;

  // ---- membership under churn + adaptive reconciliation ----
  lo::bench::JsonReport mreport("BENCH_membership.json", "lo-membership");
  const std::size_t mem_n = 32;
  // Horizon long enough for several crash/confirm cycles at the default
  // scale; the smoke run's 1s horizon simply yields zero-confirm rows.
  const double mem_seconds = std::max(args.seconds, 1.0);
  std::printf("\nmembership (%zu nodes, %.0fs horizon, SWIM period 0.5s):\n",
              mem_n, mem_seconds);
  std::printf("  %-14s %-16s %-16s %-20s %-10s\n", "churn-gap[s]",
              "detect-mean[s]", "detect-max[s]", "swim[B/s/node]", "confirms");
  for (double gap_s : {16.0, 8.0, 4.0}) {
    const auto row = run_membership_leg(mem_n, mem_seconds, args.seed, gap_s);
    std::printf("  %-14.0f %-16.2f %-16.2f %-20.1f %-10llu\n", gap_s,
                row.detect_mean_s, row.detect_max_s, row.swim_bytes_per_node_s,
                static_cast<unsigned long long>(row.confirms));
    const std::string tag = "/gap" + std::to_string(static_cast<int>(gap_s));
    mreport.add("membership/detect_latency_s" + tag, mem_seconds * 1e9,
                row.detect_mean_s);
    mreport.add("membership/detect_latency_max_s" + tag, mem_seconds * 1e9,
                row.detect_max_s);
    mreport.add("membership/swim_bytes_per_node_s" + tag, mem_seconds * 1e9,
                row.swim_bytes_per_node_s);
    mreport.add("membership/confirms" + tag, mem_seconds * 1e9,
                static_cast<double>(row.confirms));
  }

  std::printf(
      "\nadaptive vs fixed reconciliation (shared 400, capacity max 128):\n");
  if (!run_reconcile_series(mreport)) {
    std::fprintf(stderr,
                 "adaptive reconciler diverged from fixed-capacity oracle\n");
    return 1;
  }
  if (!mreport.write()) return 1;
  std::printf(
      "\nexpected shape: swim bandwidth per node stays near-flat as churn\n"
      "rises (probe rate is constant; only event dissemination grows), and\n"
      "adaptive syndromes undercut the fixed capacity on small differences\n"
      "while recovering the identical set.\n");

  // ---- sharded commitment pipeline (BENCH_sharding.json) ----
  const std::size_t shard_n = 16;
  const double shard_seconds = args.seconds;
  std::printf(
      "\nsharded pipeline (%zu nodes, %.0fs horizon, 240 tps storm):\n",
      shard_n, shard_seconds);
  std::printf("  %-8s %-20s %-12s %-12s %-10s\n", "shards",
              "commits[/node/s]", "injected", "wall[s]", "vs k=1");
  lo::bench::JsonReport sreport("BENCH_sharding.json", "lo-sharding");
  double k1_rate = 0.0;
  double k4_rate = 0.0;
  for (std::uint32_t k : {1u, 2u, 4u}) {
    const auto row = run_sharding_leg(shard_n, shard_seconds, args.seed, k);
    if (k == 1) k1_rate = row.commits_per_node_s;
    if (k == 4) k4_rate = row.commits_per_node_s;
    const double speedup =
        k1_rate > 0.0 ? row.commits_per_node_s / k1_rate : 0.0;
    std::printf("  %-8u %-20.1f %-12llu %-12.3f %-10.2f\n", k,
                row.commits_per_node_s,
                static_cast<unsigned long long>(row.injected), row.wall_s,
                speedup);
    const std::string tag = "/k" + std::to_string(k);
    sreport.add("sharding/commits_per_node_s" + tag, shard_seconds * 1e9,
                row.commits_per_node_s);
    sreport.add("sharding/speedup_vs_k1" + tag, shard_seconds * 1e9, speedup);
  }
  sreport.add("sharding/speedup_k4_vs_k1", shard_seconds * 1e9,
              k1_rate > 0.0 ? k4_rate / k1_rate : 0.0);
  if (!sreport.write()) return 1;
  std::printf(
      "\nexpected shape: the k=1 pipeline overflows its sketch every exchange\n"
      "and crawls through random delta windows; per-shard differences stay\n"
      "decodable, so k=4 clears the storm (>= 2x at the default scale).\n");
  return 0;
}
