// Attack lab: sweeps every transaction-manipulation primitive of Sec. 2.2
// against LØ and prints one detection matrix — which attacks end in
// transferable exposure, which in suspicion, and how fast.
//
//   $ ./build/examples/attack_lab
#include <cstdio>

#include "harness/lo_network.hpp"

namespace {

using namespace lo;

struct Outcome {
  std::size_t exposed = 0;
  std::size_t suspected = 0;
  std::size_t correct = 0;
  double first_blame_s = -1;
};

Outcome run(const core::MaliciousBehavior& attack, bool attacker_builds_block,
            std::uint64_t seed) {
  harness::NetworkConfig cfg;
  cfg.num_nodes = 24;
  cfg.seed = seed;
  cfg.node.sig_mode = crypto::SignatureMode::kSimFast;
  cfg.node.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  cfg.malicious_fraction = 0.05;
  cfg.malicious = attack;
  harness::LoNetwork net(cfg);

  workload::WorkloadConfig load;
  load.tps = 10.0;
  load.seed = seed * 3;
  load.sig_mode = crypto::SignatureMode::kSimFast;
  net.start_workload(load, 1);
  net.run_for(12.0);

  std::size_t attacker = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.malicious_mask()[i]) attacker = i;
  }
  if (attacker_builds_block) {
    net.node(attacker).create_block(1, crypto::Digest256{});
  }
  net.run_for(25.0);

  Outcome out;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.malicious_mask()[i]) continue;
    ++out.correct;
    const auto& reg = net.node(i).registry();
    if (reg.is_exposed(static_cast<core::NodeId>(attacker))) ++out.exposed;
    if (reg.is_suspected(static_cast<core::NodeId>(attacker))) ++out.suspected;
  }
  for (const auto& ev : net.analyzer().suspicion_events) {
    if (ev.accused == attacker &&
        (out.first_blame_s < 0 || ev.when_s < out.first_blame_s)) {
      out.first_blame_s = ev.when_s;
    }
  }
  for (const auto& ev : net.analyzer().exposure_events) {
    if (ev.accused == attacker &&
        (out.first_blame_s < 0 || ev.when_s < out.first_blame_s)) {
      out.first_blame_s = ev.when_s;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== LO attack lab: Sec. 2.2 manipulation primitives vs "
              "detection ==\n\n");
  std::printf("%-28s %-14s %-14s %-14s\n", "attack", "exposed-at",
              "suspected-at", "first-blame[s]");

  struct Case {
    const char* name;
    core::MaliciousBehavior b;
    bool builds_block;
  };
  std::vector<Case> cases;
  {
    Case c{"mempool censorship", {}, false};
    c.b.censor_txs = true;
    cases.push_back(c);
  }
  {
    Case c{"silent (crash-like)", {}, false};
    c.b.ignore_requests = true;
    c.b.censor_txs = true;
    cases.push_back(c);
  }
  {
    Case c{"equivocation (fork)", {}, false};
    c.b.equivocate = true;
    cases.push_back(c);
  }
  {
    Case c{"block re-ordering", {}, true};
    c.b.reorder_block = true;
    cases.push_back(c);
  }
  {
    Case c{"injection (front-run)", {}, true};
    c.b.inject_uncommitted = true;
    cases.push_back(c);
  }
  {
    Case c{"blockspace censorship", {}, true};
    c.b.censor_blockspace = true;
    cases.push_back(c);
  }
  {
    Case c{"honest control", {}, true};
    cases.push_back(c);
  }

  std::uint64_t seed = 1000;
  for (const auto& c : cases) {
    const auto out = run(c.b, c.builds_block, ++seed);
    char first[32];
    if (out.first_blame_s >= 0) {
      std::snprintf(first, sizeof first, "%.2f", out.first_blame_s);
    } else {
      std::snprintf(first, sizeof first, "-");
    }
    std::printf("%-28s %2zu/%-10zu %2zu/%-10zu %-14s\n", c.name, out.exposed,
                out.correct, out.suspected, out.correct, first);
  }
  std::printf(
      "\nreading the matrix: equivocation and block manipulations end in\n"
      "EXPOSURE (transferable evidence at every correct miner); censorship\n"
      "and silence end in network-wide SUSPICION; the honest control draws\n"
      "no blame at all (accuracy).\n");
  return 0;
}
