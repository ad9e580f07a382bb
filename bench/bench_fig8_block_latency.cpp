// Fig. 8 — time until a transaction is included in a block.
//   Left:  LØ's canonical 'FIFO' ordering vs the conventional 'Highest Fee'
//          selection, at an Ethereum-like 12 s mean block time.
//   Right: block-inclusion latency as a function of the system size.
//
// Paper shape (Sec. 6.3): FIFO mean ~3 s vs Highest-Fee ~7-8 s with much
// larger variance (low-fee transactions starve under fee ordering). Absolute
// numbers depend on the blockspace budget; the crossing (FIFO < Highest-Fee,
// Highest-Fee heavy-tailed) is the reproduced claim.
#include <algorithm>

#include "bench_common.hpp"

namespace lo {
namespace {

enum class Policy { kFifo, kHighestFee };

struct PolicyResult {
  double mean_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  double stddev_s = 0;
  std::size_t included = 0;
  double low_fee_mean_s = 0;   // bottom fee quartile
  double high_fee_mean_s = 0;  // top fee quartile
  std::size_t left_pending = 0;  // never included within the horizon
};

// Simulates block production over a running LØ network with a bounded
// blockspace. FIFO = the canonical commitment order (LØ's policy);
// HighestFee = conventional fee-priority selection from the same mempool.
PolicyResult run_policy(Policy policy, std::size_t n, double seconds,
                        double tps, std::uint64_t seed) {
  auto cfg = bench::base_config(n, seed);
  harness::LoNetwork net(cfg);
  net.start_workload(bench::base_workload(tps, seed * 3), 1);

  // Random miner selection => memoryless block arrivals: exponential gaps
  // with a 12 s mean (Sec. 6.3). Long gaps create backlogs beyond the
  // blockspace budget; that contention is what separates FIFO from
  // Highest-Fee ordering.
  const double block_interval_s = 12.0;
  const std::size_t capacity =
      static_cast<std::size_t>(tps * block_interval_s * 1.15);

  sim::Samples latency;
  std::vector<std::pair<std::uint64_t, double>> fee_latency;  // (fee, latency)
  std::unordered_set<core::TxId, core::TxIdHash> settled;
  util::Rng leader_rng(seed * 17);

  double next_block_at = leader_rng.next_exponential(block_interval_s);
  while (next_block_at < seconds) {
    net.run_for(next_block_at - sim::to_seconds(net.sim().now()));
    const auto leader = leader_rng.next_below(net.size());
    auto& node = net.node(leader);

    // Candidates: known content, valid, not yet settled — in commitment
    // (received) order, exactly what create_block would use.
    std::vector<const core::Transaction*> candidates;
    for (const auto& id : node.log().order()) {
      if (settled.count(id) != 0) continue;
      const auto* tx = node.get_tx(id);
      if (tx != nullptr) candidates.push_back(tx);
    }
    if (policy == Policy::kHighestFee) {
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const auto* a, const auto* b) { return a->fee > b->fee; });
    }
    if (candidates.size() > capacity) candidates.resize(capacity);

    const double now_s = sim::to_seconds(net.sim().now());
    for (const auto* tx : candidates) {
      settled.insert(tx->id);
      const double lat = now_s - sim::to_seconds(tx->created_at);
      latency.add(lat);
      fee_latency.emplace_back(tx->fee, lat);
    }
    next_block_at += leader_rng.next_exponential(block_interval_s);
  }
  // Run to the horizon, so `left_pending` also counts the txs injected after
  // the last block.
  net.run_for(seconds - sim::to_seconds(net.sim().now()));

  PolicyResult r;
  r.mean_s = latency.mean();
  r.p50_s = latency.percentile(0.5);
  r.p99_s = latency.percentile(0.99);
  r.stddev_s = latency.stddev();
  r.included = latency.count();
  r.left_pending = net.txs_injected() - latency.count();

  // Fee-quartile means: this is where Highest-Fee starvation shows.
  std::sort(fee_latency.begin(), fee_latency.end());
  const std::size_t q = fee_latency.size() / 4;
  if (q > 0) {
    double lo_sum = 0, hi_sum = 0;
    for (std::size_t i = 0; i < q; ++i) lo_sum += fee_latency[i].second;
    for (std::size_t i = fee_latency.size() - q; i < fee_latency.size(); ++i) {
      hi_sum += fee_latency[i].second;
    }
    r.low_fee_mean_s = lo_sum / static_cast<double>(q);
    r.high_fee_mean_s = hi_sum / static_cast<double>(q);
  }
  return r;
}

}  // namespace
}  // namespace lo

int main(int argc, char** argv) {
  const auto args = lo::bench::parse_args(argc, argv, 96, 180.0);
  lo::bench::print_header(
      "Fig. 8 — block inclusion latency: FIFO vs Highest-Fee; vs system size",
      "Nasrulin et al., Middleware'23, Fig. 8 (left + right)");

  std::printf("[left] nodes=%zu horizon=%.0fs tps=20 block=12s\n\n",
              args.num_nodes, args.seconds);
  std::printf("%-12s %-8s %-8s %-8s %-9s %-9s %-11s %-11s %-8s\n", "policy",
              "mean[s]", "p50[s]", "p99[s]", "stddev", "lowfee[s]",
              "highfee[s]", "included", "starved");
  for (auto policy : {lo::Policy::kFifo, lo::Policy::kHighestFee}) {
    const auto r = lo::run_policy(policy, args.num_nodes, args.seconds, 20.0,
                                  args.seed);
    std::printf("%-12s %-8.2f %-8.2f %-8.2f %-9.2f %-9.2f %-11.2f %-11zu %-8zu\n",
                policy == lo::Policy::kFifo ? "FIFO" : "HighestFee", r.mean_s,
                r.p50_s, r.p99_s, r.stddev_s, r.low_fee_mean_s,
                r.high_fee_mean_s, r.included, r.left_pending);
  }
  std::printf(
      "\nexpected shape: under Highest-Fee the bottom fee quartile waits far\n"
      "longer than the top quartile and more txs starve past the horizon;\n"
      "FIFO treats both alike (the paper's 'much larger variation, with many\n"
      "low-fee transactions experiencing very high latency'). The overall\n"
      "means agree only when both policies include the same txs, so the\n"
      "shape lives in the tails and the fee quartiles, not the mean.\n\n");

  std::printf("[right] FIFO latency vs system size (horizon=%.0fs):\n\n",
              args.seconds / 2);
  std::printf("%-10s %-10s %-10s\n", "nodes", "mean[s]", "p99[s]");
  for (std::size_t n : {32u, 64u, 128u, 192u}) {
    const auto r =
        lo::run_policy(lo::Policy::kFifo, n, args.seconds / 2, 20.0, args.seed);
    std::printf("%-10zu %-10.2f %-10.2f\n", n, r.mean_s, r.p99_s);
  }
  std::printf("\nexpected shape: mild growth with network size.\n");
  return 0;
}
