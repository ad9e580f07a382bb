// Fig. 9 — bandwidth overhead of LØ vs Flood, PeerReview and Narwhal.
//
// Paper setup (Sec. 6.4): 200 nodes, identical workload; transaction bodies
// are excluded from "overhead" since all protocols pay them equally.
// Paper shape: LØ >= 4x cheaper than Flood, ~20x cheaper than PeerReview;
// Narwhal costs 7-10x more than LØ but is 1-2 s faster.
#include "baselines/flood.hpp"
#include "baselines/narwhal.hpp"
#include "baselines/peerreview.hpp"
#include "bench_common.hpp"
#include "harness/network.hpp"

namespace lo {
namespace {

struct ProtocolRow {
  const char* name;
  double overhead_kib_per_node;  // total overhead / nodes over the horizon
  double overhead_bps_per_node;  // bytes/s/node
  double mempool_latency_s;
};

core::PrevalidationPolicy fast_preval() {
  core::PrevalidationPolicy p;
  p.sig_mode = crypto::SignatureMode::kSimFast;
  return p;
}

ProtocolRow run_lo(std::size_t n, double seconds, double tps,
                   std::uint64_t seed) {
  auto cfg = bench::base_config(n, seed);
  harness::LoNetwork net(cfg);
  net.start_workload(bench::base_workload(tps, seed * 3), 1);
  net.run_for(seconds);
  const auto overhead =
      static_cast<double>(net.sim().bandwidth().bytes_excluding({"lo.txs"}));
  const auto nodes = static_cast<double>(n);
  return {"LO", overhead / 1024.0 / nodes, overhead / seconds / nodes,
          net.mempool_latency().mean()};
}

template <typename NodeT>
ProtocolRow run_baseline(const char* name, typename NodeT::Config node_cfg,
                         const char* tx_class, std::size_t n, double seconds,
                         double tps, std::uint64_t seed,
                         bool set_universe = false) {
  // The LØ row's scaffold settings; only the node type and its config differ.
  harness::Network<NodeT> net(bench::base_config(n, seed), node_cfg);
  if constexpr (std::is_same_v<NodeT, baselines::PeerReviewNode>) {
    if (set_universe) {
      for (std::size_t i = 0; i < net.size(); ++i) net.node(i).set_universe(n);
    }
  }
  net.start_workload(lo::bench::base_workload(tps, seed * 3), 1);
  net.run_for(seconds);
  const auto overhead =
      static_cast<double>(net.sim().bandwidth().bytes_excluding({tx_class}));
  const auto nodes = static_cast<double>(n);
  return {name, overhead / 1024.0 / nodes, overhead / seconds / nodes,
          net.mempool_latency().mean()};
}

}  // namespace
}  // namespace lo

int main(int argc, char** argv) {
  const auto args = lo::bench::parse_args(argc, argv, 200, 30.0);
  const double tps = 20.0;
  lo::bench::print_header(
      "Fig. 9 — bandwidth overhead: LO vs Flood vs PeerReview vs Narwhal",
      "Nasrulin et al., Middleware'23, Fig. 9 (+ Sec. 6.4 Narwhal numbers)");
  std::printf("nodes=%zu horizon=%.0fs tps=%.0f (tx bodies excluded)\n\n",
              args.num_nodes, args.seconds, tps);

  std::vector<lo::ProtocolRow> rows;
  rows.push_back(lo::run_lo(args.num_nodes, args.seconds, tps, args.seed));

  {
    lo::baselines::FloodNode::Config cfg;
    cfg.prevalidation = lo::fast_preval();
    rows.push_back(lo::run_baseline<lo::baselines::FloodNode>(
        "Flood", cfg, "flood.tx", args.num_nodes, args.seconds, tps, args.seed));
  }
  {
    lo::baselines::PeerReviewNode::Config cfg;
    cfg.prevalidation = lo::fast_preval();
    rows.push_back(lo::run_baseline<lo::baselines::PeerReviewNode>(
        "PeerReview", cfg, "pr.tx", args.num_nodes, args.seconds, tps,
        args.seed, /*set_universe=*/true));
  }
  {
    lo::baselines::NarwhalNode::Config cfg;
    cfg.prevalidation = lo::fast_preval();
    cfg.num_nodes = args.num_nodes;
    rows.push_back(lo::run_baseline<lo::baselines::NarwhalNode>(
        "Narwhal", cfg, "nw.batch", args.num_nodes, args.seconds, tps,
        args.seed));
  }

  const double lo_bps = rows[0].overhead_bps_per_node;
  std::printf("%-12s %-20s %-20s %-14s %-12s\n", "protocol",
              "overhead[KiB/node]", "overhead[B/s/node]", "vs LO", "latency[s]");
  for (const auto& r : rows) {
    std::printf("%-12s %-20.1f %-20.1f %-14.2f %-12.2f\n", r.name,
                r.overhead_kib_per_node, r.overhead_bps_per_node,
                r.overhead_bps_per_node / lo_bps, r.mempool_latency_s);
  }
  std::printf(
      "\nexpected shape: LO cheapest; Flood >= 4x LO; PeerReview ~20x LO;\n"
      "Narwhal 7-10x LO but with the lowest latency (1-2 s below LO).\n");
  return 0;
}
