// Scaling bench — LØ's per-node costs as the network grows, then the
// membership, adaptive-reconciliation and sharded-pipeline legs.
//
// The paper deployed 10,000 processes; this single-process reproduction runs
// smaller networks and uses this sweep to support the extrapolation argument
// (EXPERIMENTS.md): LØ's per-node overhead is governed by the local
// reconciliation budget (3 neighbors/second), not by the network size, while
// flooding-style protocols pay per edge.
#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "minisketch/partitioned.hpp"

namespace {

// ---- membership leg ----
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
  row.detect_mean_s = net.analyzer().membership_detection_latency.mean();
  row.detect_max_s = net.analyzer().membership_detection_latency.max();
  std::uint64_t swim_bytes = 0;
  for (const auto& [name, st] : net.sim().bandwidth().by_class()) {
    if (name.rfind("swim.", 0) == 0) swim_bytes += st.bytes;
  }
  row.swim_bytes_per_node_s =
      static_cast<double>(swim_bytes) / seconds / static_cast<double>(n);
  for (const auto& ev : net.analyzer().member_events) {
    if (ev.state == lo::membership::MemberState::kConfirmed) ++row.confirms;
  }
  return row;
}

// ---- sharded pipeline leg ----
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
};

ShardingRow run_sharding_leg(std::size_t n, double seconds, std::uint64_t seed,
                             std::uint32_t shards) {
  auto cfg = lo::bench::base_config(n, seed);
  cfg.node.mempool_shards = shards;
  // Saturation knobs: capacity and delta bound the exchange so that the
  // global difference overflows the sketch at k = 1 while the per-shard
  // differences stay decodable at k = 4 — the regime the sharded pipeline
  // exists for.
  cfg.node.commitment.sketch_capacity = 64;
  cfg.node.max_delta = 48;
  lo::harness::LoNetwork net(cfg);
  net.start_workload(lo::bench::base_workload(240.0, seed * 3), 1);
  net.run_for(seconds);

  ShardingRow row;
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
bool run_reconcile_series() {
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

  // ---- membership under churn + adaptive reconciliation ----
  const std::size_t mem_n = 32;
  // Horizon long enough for several crash/confirm cycles at the default
  // scale, and at least 10 s: below that no crash is confirmed, and the
  // 1 s run that golden.bench_scaling pins would print zero-confirm rows.
  const double mem_seconds = std::max(args.seconds, 10.0);
  std::printf("\nmembership (%zu nodes, %.0fs horizon, SWIM period 0.5s):\n",
              mem_n, mem_seconds);
  std::printf("  %-14s %-16s %-16s %-20s %-10s\n", "churn-gap[s]",
              "detect-mean[s]", "detect-max[s]", "swim[B/s/node]", "confirms");
  for (double gap_s : {16.0, 8.0, 4.0}) {
    const auto row = run_membership_leg(mem_n, mem_seconds, args.seed, gap_s);
    std::printf("  %-14.0f %-16.2f %-16.2f %-20.1f %-10llu\n", gap_s,
                row.detect_mean_s, row.detect_max_s, row.swim_bytes_per_node_s,
                static_cast<unsigned long long>(row.confirms));
  }

  std::printf(
      "\nadaptive vs fixed reconciliation (shared 400, capacity max 128):\n");
  if (!run_reconcile_series()) {
    std::fprintf(stderr,
                 "adaptive reconciler diverged from fixed-capacity oracle\n");
    return 1;
  }
  std::printf(
      "\nexpected shape: swim bandwidth per node stays near-flat as churn\n"
      "rises (probe rate is constant; only event dissemination grows), and\n"
      "adaptive syndromes undercut the fixed capacity on small differences\n"
      "while recovering the identical set.\n");

  // ---- sharded commitment pipeline ----
  const std::size_t shard_n = 16;
  const double shard_seconds = args.seconds;
  std::printf(
      "\nsharded pipeline (%zu nodes, %.0fs horizon, 240 tps storm):\n",
      shard_n, shard_seconds);
  std::printf("  %-8s %-20s %-12s %-10s\n", "shards", "commits[/node/s]",
              "injected", "vs k=1");
  double k1_rate = 0.0;
  for (std::uint32_t k : {1u, 2u, 4u}) {
    const auto row = run_sharding_leg(shard_n, shard_seconds, args.seed, k);
    if (k == 1) k1_rate = row.commits_per_node_s;
    const double speedup =
        k1_rate > 0.0 ? row.commits_per_node_s / k1_rate : 0.0;
    std::printf("  %-8u %-20.1f %-12llu %-10.2f\n", k, row.commits_per_node_s,
                static_cast<unsigned long long>(row.injected), speedup);
  }
  std::printf(
      "\nexpected shape: the k=1 pipeline overflows its sketch every exchange\n"
      "and crawls through random delta windows; per-shard differences stay\n"
      "decodable, so k=4 clears the storm (>= 2x at the default scale).\n");
  return 0;
}
