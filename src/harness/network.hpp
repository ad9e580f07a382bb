// Network<NodeT> — the one network scaffold every experiment runs on:
// simulator + latency model + overlay topology + nodes + Poisson workload +
// faults + anomaly monitor + the event analyzer. LØ (LoNetwork, which adds
// what only LØ has) and the Sec. 6.4 baselines (Network<FloodNode>,
// Network<PeerReviewNode>, Network<NarwhalNode>) all run on it, so the
// Fig. 9 comparison holds every condition but the protocol fixed. It
// observes its nodes only through the tracer's sink, which feeds every event
// to its harness::Analyzer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/transaction.hpp"
#include "harness/analyzer.hpp"
#include "harness/anomaly.hpp"
#include "obs/trace.hpp"
#include "overlay/topology.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/txgen.hpp"

namespace lo::harness {

// What the scaffold needs, whatever protocol runs on it. LoNetwork's
// NetworkConfig extends it with the LØ node config and the faulty nodes'
// behavior.
struct ScaffoldConfig {
  std::size_t num_nodes = 64;
  std::uint64_t seed = 1;

  overlay::TopologyConfig topology;

  // Latency model: true = 32-city geographic model (paper setup); false =
  // constant latency (useful for deterministic unit tests).
  bool city_latency = true;
  sim::Duration constant_latency = 50 * sim::kMillisecond;

  // Faulty population: round(fraction*n) node ids sampled from the network
  // seed. Clients never submit to them, and honest-subgraph connectivity is
  // enforced as in Sec. 6.2.
  double malicious_fraction = 0.0;
  bool connect_malicious_clique = true;  // paper: all malicious interconnected
  bool ensure_honest_connected = true;

  // Observability: enable the simulator's deterministic event tracer before
  // any node is constructed (so node-construction events are captured too).
  // `trace_capacity` sizes the ring; 0 keeps the tracer default.
  bool trace = false;
  std::size_t trace_capacity = 0;
};

// NodeT requirements:
//   NodeT(sim::Simulator&, core::NodeId, const NodeConfig&)
//   void set_neighbors(std::vector<core::NodeId>)
//   void submit_transaction(const core::Transaction&)
// plus the sim::INode interface, and one unguarded kTxAdmit event per
// mempool admit (b = the tx's created_at). crash_node()/restart_node() (and
// so faults() and churn) also need void crash(bool wipe_mempool) and
// void restart().
template <typename NodeT>
class Network {
 public:
  template <typename NodeConfig>
  Network(const ScaffoldConfig& config, const NodeConfig& node_cfg)
      : Network(config) {
    add_nodes([&](core::NodeId id) {
      return std::make_unique<NodeT>(sim_, id, node_cfg);
    });
  }

  sim::Simulator& sim() noexcept { return sim_; }
  std::size_t size() const noexcept { return nodes_.size(); }
  NodeT& node(std::size_t i) { return *nodes_.at(i); }
  const overlay::Topology& topology() const noexcept { return topology_; }
  const std::vector<bool>& malicious_mask() const noexcept { return malicious_; }
  std::size_t malicious_count() const noexcept { return malicious_count_; }
  std::size_t correct_count() const noexcept {
    return nodes_.size() - malicious_count_;
  }

  // --- workload ---
  // Starts Poisson transaction injection: each tx is submitted to
  // `submit_fanout` random correct nodes. Runs until the simulation stops.
  void start_workload(const workload::WorkloadConfig& cfg,
                      std::size_t submit_fanout = 1) {
    txgen_ = std::make_unique<workload::TxGenerator>(cfg);
    submit_fanout_ = std::max<std::size_t>(1, submit_fanout);
    schedule_next_tx();
  }
  // Stops injection after the currently scheduled arrival (for drain phases).
  void stop_workload() noexcept { workload_stopped_ = true; }
  std::uint64_t txs_injected() const noexcept { return txs_injected_; }

  // --- fault injection ---
  // Crashes node i: marks it down in the simulator (suppressing its timers
  // and dropping its traffic) and wipes its volatile state; the commitment
  // log survives as "disk". Emits fault.crash. No-op when already down.
  void crash_node(std::size_t i, bool wipe_mempool = false) {
    const auto id = static_cast<core::NodeId>(i);
    if (!sim_.node_up(id)) return;
    // Order matters: marking the node down first bumps its epoch, so nothing
    // the dying node scheduled can fire; then the node wipes volatile state.
    sim_.set_node_up(id, false);
    nodes_.at(i)->crash(wipe_mempool);
    sim_.obs().tracer.emit(obs::EventKind::kFaultCrash, id, 0, 0,
                           wipe_mempool ? 1 : 0);
  }
  // Restarts node i: marks it up, re-arms its periodic machinery and lets it
  // rejoin through the ordinary sync path. Emits fault.restart. No-op when
  // already up.
  void restart_node(std::size_t i) {
    const auto id = static_cast<core::NodeId>(i);
    if (sim_.node_up(id)) return;
    // Up first: restart() re-arms timers under the current (live) epoch.
    sim_.set_node_up(id, true);
    nodes_.at(i)->restart();
    sim_.obs().tracer.emit(obs::EventKind::kFaultRestart, id);
  }
  bool node_down(std::size_t i) const {
    return !sim_.node_up(static_cast<core::NodeId>(i));
  }
  // Lazily constructed deterministic fault injector (seeded from the network
  // seed) with its crash/restart handlers wired to the two methods above.
  sim::FaultInjector& faults() {
    if (!faults_) {
      faults_ = std::make_unique<sim::FaultInjector>(
          sim_, config_.seed ^ 0x9e3779b97f4a7c15ULL,
          [this](core::NodeId id, bool wipe) { crash_node(id, wipe); },
          [this](core::NodeId id) { restart_node(id); });
    }
    return *faults_;
  }
  // Convenience: random crash/restart churn through the fault injector.
  void start_churn(const sim::ChurnConfig& cfg) { faults().start_churn(cfg); }
  void stop_churn() {
    if (faults_) faults_->stop_churn();
  }

  // --- online anomaly detection ---
  // Arms the streaming anomaly detectors (DESIGN.md §5): censor-dwell
  // watermark, suspicion-spike, reconcile-failure-rate and commit-latency
  // SLO. Alerts land in anomaly()->alerts(), lo.anomaly.* counters and
  // kAnomaly trace events. Idempotent.
  AnomalyMonitor& start_anomaly_monitor(const AnomalyConfig& cfg = {}) {
    if (!anomaly_) {
      anomaly_ = std::make_unique<AnomalyMonitor>(sim_, cfg);
      anomaly_->start(analyzer_);
    }
    return *anomaly_;
  }
  const AnomalyMonitor* anomaly() const noexcept { return anomaly_.get(); }

  // --- running ---
  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::from_seconds(seconds));
  }

  // --- metrics ---
  // Every fact derived from the run's events (harness/analyzer.hpp).
  const Analyzer& analyzer() const noexcept { return analyzer_; }
  // Fig. 7: per-(node, tx) mempool admission latencies, seconds.
  sim::Samples& mempool_latency() noexcept {
    return analyzer_.mempool_latency;
  }

 protected:
  // Every step before the nodes, in the order the seeded RNG stream depends
  // on: tracer, latency model, faulty sample, topology, honest-subgraph
  // repair, malicious clique. add_nodes() builds the nodes.
  explicit Network(const ScaffoldConfig& config)
      : config_(config), sim_(config.seed) {
    const std::size_t n = config.num_nodes;

    // Tracing goes live before nodes exist so construction-time events
    // (first timers) land in the stream too. The analyzer reads the sink,
    // which is installed whether or not the ring records.
    if (config.trace_capacity > 0) {
      sim_.obs().tracer.set_capacity(config.trace_capacity);
    }
    if (config.trace) sim_.obs().tracer.enable(true);
    sim_.obs().tracer.set_sink(
        [this](const obs::TraceEvent& ev) { analyzer_.observe(ev); });

    if (config.city_latency) {
      sim_.set_latency_model(std::make_shared<sim::CityLatencyModel>());
    } else {
      sim_.set_latency_model(
          std::make_shared<sim::ConstantLatency>(config.constant_latency));
    }

    malicious_.assign(n, false);
    malicious_count_ = static_cast<std::size_t>(
        config.malicious_fraction * static_cast<double>(n) + 0.5);
    if (malicious_count_ > 0) {
      for (auto i : sim_.rng().sample_indices(n, malicious_count_)) {
        malicious_[i] = true;
      }
    }

    // Topology with the paper's degree limits, then the Sec. 6.2
    // preconditions.
    topology_ = overlay::Topology::random(n, config.topology, sim_.rng());
    if (config.ensure_honest_connected && malicious_count_ > 0) {
      std::vector<bool> honest(n);
      for (std::size_t i = 0; i < n; ++i) honest[i] = !malicious_[i];
      topology_.ensure_connected_among(honest, sim_.rng());
    }
    if (config.connect_malicious_clique && malicious_count_ > 1) {
      std::vector<core::NodeId> bad;
      for (std::size_t i = 0; i < n; ++i) {
        if (malicious_[i]) bad.push_back(static_cast<core::NodeId>(i));
      }
      for (std::size_t i = 0; i + 1 < bad.size(); ++i) {
        topology_.add_edge(bad[i], bad[i + 1]);  // ring suffices for collusion
      }
    }
  }

  // Builds node i as make(i), registers it with the simulator, then wires
  // every node to its topology neighbors.
  template <typename MakeNode>
  void add_nodes(MakeNode make) {
    const std::size_t n = config_.num_nodes;
    nodes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto node = make(static_cast<core::NodeId>(i));
      sim_.add_node(node.get());
      nodes_.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i]->set_neighbors(
          topology_.neighbors(static_cast<core::NodeId>(i)));
    }
  }

  ScaffoldConfig config_;
  // Declared before sim_, so it outlives the sink sim_'s tracer holds.
  Analyzer analyzer_;
  sim::Simulator sim_;
  overlay::Topology topology_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
  std::vector<bool> malicious_;
  std::size_t malicious_count_ = 0;
  std::unique_ptr<AnomalyMonitor> anomaly_;

 private:
  void schedule_next_tx() {
    sim_.schedule(txgen_->next_gap_us(), [this] {
      if (workload_stopped_) return;
      auto tx = txgen_->next(sim_.now());
      ++txs_injected_;
      // Submit to random correct nodes (clients would avoid known-bad peers;
      // submitting to a censoring node would only measure the censorship).
      std::size_t placed = 0;
      int guard = 0;
      while (placed < submit_fanout_ && guard < 200) {
        ++guard;
        const auto i = sim_.rng().next_below(nodes_.size());
        if (malicious_[i]) continue;
        // Clients cannot reach a down node; they pick another correct peer.
        if (!sim_.node_up(static_cast<core::NodeId>(i))) continue;
        // The tx is in flight from its first tx.submit, before the placement
        // whose synchronous admit may already settle it.
        sim_.obs().tracer.emit(obs::EventKind::kTxSubmit,
                               static_cast<std::uint32_t>(i), 0,
                               core::txid_short(tx.id));
        nodes_[i]->submit_transaction(tx);
        ++placed;
      }
      schedule_next_tx();
    });
  }

  std::unique_ptr<workload::TxGenerator> txgen_;
  std::size_t submit_fanout_ = 1;
  std::uint64_t txs_injected_ = 0;
  bool workload_stopped_ = false;
  std::unique_ptr<sim::FaultInjector> faults_;
};

}  // namespace lo::harness
