// Shared harness for baseline mempool protocols (Sec. 6.4): Flood,
// PeerReview and Narwhal all plug into the same simulator/topology/workload
// scaffolding so that the Fig. 9 bandwidth comparison runs all four systems
// under identical conditions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/node.hpp"  // for core::Hooks
#include "harness/anomaly.hpp"
#include "overlay/topology.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/txgen.hpp"

namespace lo::baselines {

struct BaselineNetConfig {
  std::size_t num_nodes = 64;
  std::uint64_t seed = 1;
  overlay::TopologyConfig topology;
  bool city_latency = true;
  sim::Duration constant_latency = 50 * sim::kMillisecond;
  // Enable the simulator's deterministic event tracer (same stream the LØ
  // harness records, so baseline traces diff side by side).
  bool trace = false;
};

// NodeT requirements:
//   NodeT(sim::Simulator&, core::NodeId, const typename NodeT::Config&,
//         core::Hooks*)
//   void set_neighbors(std::vector<core::NodeId>)
//   void submit_transaction(const core::Transaction&)
// plus the sim::INode interface.
template <typename NodeT>
class BaselineNetwork {
 public:
  BaselineNetwork(const BaselineNetConfig& net_cfg,
                  const typename NodeT::Config& node_cfg)
      : config_(net_cfg), sim_(net_cfg.seed) {
    if (net_cfg.trace) sim_.obs().tracer.enable(true);
    if (net_cfg.city_latency) {
      sim_.set_latency_model(std::make_shared<sim::CityLatencyModel>());
    } else {
      sim_.set_latency_model(
          std::make_shared<sim::ConstantLatency>(net_cfg.constant_latency));
    }
    topology_ = overlay::Topology::random(net_cfg.num_nodes, net_cfg.topology,
                                          sim_.rng());
    hooks_.on_mempool_admit = [this](core::NodeId, const core::Transaction& tx,
                                     sim::TimePoint when) {
      mempool_latency_.add(sim::to_seconds(when - tx.created_at));
      // Baselines have no consensus stub: settle = first admit anywhere.
      if (anomaly_) anomaly_->on_settle(core::txid_short(tx.id), when);
    };
    nodes_.reserve(net_cfg.num_nodes);
    for (std::size_t i = 0; i < net_cfg.num_nodes; ++i) {
      nodes_.push_back(std::make_unique<NodeT>(
          sim_, static_cast<core::NodeId>(i), node_cfg, &hooks_));
      sim_.add_node(nodes_.back().get());
    }
    for (std::size_t i = 0; i < net_cfg.num_nodes; ++i) {
      nodes_[i]->set_neighbors(
          topology_.neighbors(static_cast<core::NodeId>(i)));
    }
  }

  void start_workload(const workload::WorkloadConfig& cfg,
                      std::size_t submit_fanout = 1) {
    txgen_ = std::make_unique<workload::TxGenerator>(cfg);
    submit_fanout_ = submit_fanout == 0 ? 1 : submit_fanout;
    schedule_next_tx();
  }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::from_seconds(seconds));
  }

  sim::Simulator& sim() noexcept { return sim_; }
  NodeT& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t size() const noexcept { return nodes_.size(); }
  sim::Samples& mempool_latency() noexcept { return mempool_latency_; }
  std::uint64_t txs_injected() const noexcept { return txs_injected_; }

  // Same streaming detectors the LØ harness runs (suspicion/reconcile feeds
  // stay silent here — baselines have no accountability layer to observe).
  harness::AnomalyMonitor& start_anomaly_monitor(
      const harness::AnomalyConfig& cfg = {}) {
    if (!anomaly_) {
      anomaly_ = std::make_unique<harness::AnomalyMonitor>(sim_, cfg);
      anomaly_->start();
    }
    return *anomaly_;
  }
  const harness::AnomalyMonitor* anomaly() const noexcept {
    return anomaly_.get();
  }

 private:
  void schedule_next_tx() {
    sim_.schedule(txgen_->next_gap_us(), [this] {
      auto tx = txgen_->next(sim_.now());
      ++txs_injected_;
      if (anomaly_) anomaly_->on_submit(core::txid_short(tx.id), tx.created_at);
      for (std::size_t k = 0; k < submit_fanout_; ++k) {
        const auto i = sim_.rng().next_below(nodes_.size());
        sim_.obs().tracer.emit(obs::EventKind::kTxSubmit,
                               static_cast<std::uint32_t>(i), 0,
                               core::txid_short(tx.id));
        nodes_[i]->submit_transaction(tx);
      }
      schedule_next_tx();
    });
  }

  BaselineNetConfig config_;
  sim::Simulator sim_;
  overlay::Topology topology_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
  core::Hooks hooks_;
  std::unique_ptr<workload::TxGenerator> txgen_;
  std::unique_ptr<harness::AnomalyMonitor> anomaly_;
  std::size_t submit_fanout_ = 1;
  std::uint64_t txs_injected_ = 0;
  sim::Samples mempool_latency_;
};

}  // namespace lo::baselines
