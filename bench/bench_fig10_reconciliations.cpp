// Fig. 10 — average number of reconciliations in LØ per minute per node as a
// function of the workload.
//
// Paper context (Sec. 6.5): the hash-partitioned reconciliation keeps sketch
// decoding cheap, so the count of reconciliation operations (sync exchanges
// that actually move data, plus the escalated sketch decodes) grows with the
// workload. Reproduced series: both counters per node-minute across a tps
// sweep.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = lo::bench::parse_args(argc, argv, 100, 60.0);
  lo::bench::print_header(
      "Fig. 10 — reconciliations per minute per node vs workload",
      "Nasrulin et al., Middleware'23, Fig. 10");
  std::printf("nodes=%zu horizon=%.0fs\n\n", args.num_nodes, args.seconds);
  std::printf("%-14s %-26s %-26s\n", "workload[tps]", "sync-recons/node/min",
              "sketch-decodes/node/min");

  for (double tps : {2.0, 5.0, 10.0, 20.0, 40.0, 80.0}) {
    auto cfg = lo::bench::base_config(args.num_nodes, args.seed);
    lo::harness::LoNetwork net(cfg);
    net.start_workload(lo::bench::base_workload(tps, args.seed * 3), 1);
    net.run_for(args.seconds);

    std::uint64_t recons = 0;
    std::uint64_t decodes = 0;
    for (std::size_t i = 0; i < net.size(); ++i) {
      recons += net.node(i).sync_reconciliations();
      decodes += net.node(i).sketch_decodes();
    }
    const double minutes = args.seconds / 60.0;
    const auto nodes = static_cast<double>(net.size());
    const double recon_rate = static_cast<double>(recons) / nodes / minutes;
    const double decode_rate = static_cast<double>(decodes) / nodes / minutes;
    std::printf("%-14.0f %-26.1f %-26.1f\n", tps, recon_rate, decode_rate);
  }
  std::printf(
      "\nexpected shape: reconciliation rate grows with the workload and\n"
      "saturates near the sync budget (3 neighbors x 60 rounds per minute).\n"
      "Decodes track the exchange rate — one per handled request — plus the\n"
      "rare clock-flagged consistency escalations.\n");
  return 0;
}
