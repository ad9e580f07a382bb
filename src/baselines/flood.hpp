// 'Flood' — the classical inventory-based mempool exchange used as the main
// baseline in Sec. 6.4: miners relay a Mempool/inv message listing their
// transaction hashes; receivers request the transactions they do not
// recognize (Bitcoin-style INV / GETDATA / TX).
//
// Message classes for Fig. 9: flood.inv and flood.getdata are overhead;
// flood.tx carries transaction bodies and is excluded, like in the paper.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/transaction.hpp"
#include "core/types.hpp"
#include "sim/simulator.hpp"

namespace lo::baselines {

struct InvMsg final : sim::Payload {
  std::vector<core::TxId> ids;
  const char* type_name() const noexcept override { return "flood.inv"; }
  std::size_t wire_size() const noexcept override {
    // Bitcoin inv entries are 36 bytes (type + hash).
    return 4 + 36 * ids.size();
  }
};

struct GetDataMsg final : sim::Payload {
  std::vector<core::TxId> ids;
  const char* type_name() const noexcept override { return "flood.getdata"; }
  std::size_t wire_size() const noexcept override {
    return 4 + 36 * ids.size();
  }
};

struct FloodTxMsg final : sim::Payload {
  std::vector<core::Transaction> txs;
  const char* type_name() const noexcept override { return "flood.tx"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = 4;
    for (const auto& tx : txs) sz += tx.wire_size();
    return sz;
  }
};

class FloodNode final : public sim::INode {
 public:
  struct Config {
    core::PrevalidationPolicy prevalidation;
    // Announcements are batched briefly, as real nodes do (trickle).
    sim::Duration announce_delay = 100 * sim::kMillisecond;
  };

  FloodNode(sim::Simulator& sim, core::NodeId id, const Config& config);

  void set_neighbors(std::vector<core::NodeId> neighbors) {
    neighbors_ = std::move(neighbors);
  }
  void submit_transaction(const core::Transaction& tx);

  void on_start() override {}
  void on_message(core::NodeId from, const sim::PayloadPtr& msg) override;

  std::size_t mempool_size() const noexcept { return store_.size(); }
  bool has_tx(const core::TxId& id) const { return store_.count(id) != 0; }

 private:
  void admit(const core::Transaction& tx, core::NodeId source);
  void flush_announcements();

  sim::Simulator& sim_;
  core::NodeId id_;
  Config config_;
  std::vector<core::NodeId> neighbors_;
  std::unordered_map<core::TxId, core::Transaction, core::TxIdHash> store_;
  std::unordered_set<core::TxId, core::TxIdHash> requested_;
  std::vector<core::TxId> announce_queue_;
  bool announce_armed_ = false;
};

}  // namespace lo::baselines
