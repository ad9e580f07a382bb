// Quickstart: stand up a small LØ network, submit transactions, watch them
// propagate through accountable mempool reconciliation, and build a block in
// the verifiable canonical order.
//
//   $ ./build/examples/quickstart [trace.lotrace [metrics.json]]
//
// This walks the whole happy path of the paper: Stage I (client submission),
// Stage II (mempool reconciliation with pairwise commitments), Stage III
// (canonical block building) and block inspection.
//
// With a trace path, the deterministic event tracer records every message,
// commitment and tx-lifecycle event; convert the capture for the Perfetto UI
// (https://ui.perfetto.dev) with `./build/tools/loscope trace.lotrace chrome`.
#include <cstdio>

#include "harness/lo_network.hpp"

int main(int argc, char** argv) {
  using namespace lo;
  const char* trace_path = argc > 1 ? argv[1] : nullptr;
  const char* metrics_path = argc > 2 ? argv[2] : nullptr;

  // 1. A 16-node network with the paper's defaults: 8 outgoing connections,
  //    reconciliation with 3 random neighbors every second, 1 s request
  //    timeout with 3 retries, geographic latencies over 32 cities.
  harness::NetworkConfig cfg;
  cfg.num_nodes = 16;
  cfg.seed = 2023;
  cfg.trace = trace_path != nullptr;
  std::printf("== LO quickstart: %zu miners, city latency model ==\n\n",
              cfg.num_nodes);
  harness::LoNetwork net(cfg);

  // 2. Stage I — a client creates and signs transactions and hands them to
  //    a miner it knows.
  crypto::Signer client(
      crypto::derive_keypair(42, crypto::SignatureMode::kEd25519),
      crypto::SignatureMode::kEd25519);
  std::vector<core::TxId> submitted;
  for (std::uint64_t nonce = 1; nonce <= 5; ++nonce) {
    auto tx = core::make_transaction(client, nonce, 100 * nonce,
                                     net.sim().now());
    submitted.push_back(tx.id);
    net.node(nonce % cfg.num_nodes).submit_transaction(tx);
    std::printf("client submitted tx nonce=%llu fee=%llu to miner %llu\n",
                static_cast<unsigned long long>(nonce),
                static_cast<unsigned long long>(100 * nonce),
                static_cast<unsigned long long>(nonce % cfg.num_nodes));
  }

  // 3. Stage II — run the simulation; reconciliation rounds spread the
  //    transactions and the signed commitments that make miners accountable.
  net.run_for(10.0);
  std::printf("\nafter 10 simulated seconds:\n");
  for (std::size_t i = 0; i < 4; ++i) {
    std::printf(
        "  miner %zu: mempool=%zu committed=%llu commitment-seqno=%llu\n", i,
        net.node(i).mempool_size(),
        static_cast<unsigned long long>(net.node(i).log().count()),
        static_cast<unsigned long long>(net.node(i).log().seqno()));
  }
  std::size_t holders = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.node(i).has_tx(submitted[0])) ++holders;
  }
  std::printf("  tx #1 reached %zu/%zu miners; mean mempool latency %.2f s\n",
              holders, net.size(), net.mempool_latency().mean());

  // 4. Stage III — miner 3 is elected leader and builds a block. The order
  //    is canonical: committed bundles in commitment order, shuffled inside
  //    each bundle by the previous block hash.
  const auto block = net.node(3).create_block(1, crypto::Digest256{});
  std::printf("\nminer 3 built block: height=%llu txs=%zu segments=%zu\n",
              static_cast<unsigned long long>(block.height), block.tx_count(),
              block.segments.size());

  // 5. Everyone inspects the block (Sec. 4.3 step 5). An honest block draws
  //    no blame.
  net.run_for(10.0);
  std::size_t blamed = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.node(i).registry().is_exposed(3) ||
        net.node(i).registry().is_suspected(3)) {
      ++blamed;
    }
  }
  std::printf("after inspection: %zu/%zu miners blame the creator (expect 0)\n",
              blamed, net.size());

  // 6. Observability artifacts: the binary event trace (`loscope chrome`
  //    converts it to Perfetto JSON) and a registry snapshot of every metric
  //    in the run.
  if (trace_path != nullptr) {
    auto& tracer = net.sim().obs().tracer;
    if (!tracer.write_file(trace_path)) return 1;
    std::printf("\nwrote %zu trace events to %s (dropped=%llu)\n",
                tracer.size(), trace_path,
                static_cast<unsigned long long>(tracer.dropped()));
  }
  if (metrics_path != nullptr) {
    net.publish_metrics();
    if (!net.sim().obs().registry.write_json(metrics_path, "quickstart")) {
      return 1;
    }
    std::printf("wrote %zu metrics to %s\n", net.sim().obs().registry.size(),
                metrics_path);
  }
  std::printf("\nquickstart complete.\n");
  return 0;
}
