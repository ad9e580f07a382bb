// Narwhal (Danezis et al. [14]) — the DAG-mempool baseline of Sec. 6.4.
//
// Per the paper's comparison setup: every node batches recent transactions
// every 0.5 s and reliably broadcasts the batch; a batch that collects
// acknowledgments from more than two-thirds of the network is referenced by
// a certificate inside the next header, which is broadcast to everyone.
// Peers missing a batch referenced by a header request it from the header's
// originator. The quorum of signed acks and the certificate-carrying headers
// are what drive Narwhal's 7–10x bandwidth overhead relative to LØ, while
// direct batch broadcast gives it 1–2 s lower latency.
//
// Overhead classes: nw.ack, nw.header, nw.batch_req; nw.batch carries bodies.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/transaction.hpp"
#include "core/types.hpp"
#include "sim/simulator.hpp"

namespace lo::baselines {

using BatchDigest = crypto::Digest256;

struct NwBatchMsg final : sim::Payload {
  core::NodeId origin = 0;
  std::uint64_t batch_no = 0;
  std::vector<core::Transaction> txs;
  const char* type_name() const noexcept override { return "nw.batch"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = 4 + 8 + 4;
    for (const auto& tx : txs) sz += tx.wire_size();
    return sz;
  }
  BatchDigest digest() const;
};

struct NwAckMsg final : sim::Payload {
  BatchDigest batch{};
  const char* type_name() const noexcept override { return "nw.ack"; }
  // digest + signature.
  std::size_t wire_size() const noexcept override { return 32 + 64; }
};

struct NwHeaderMsg final : sim::Payload {
  core::NodeId origin = 0;
  std::uint64_t round = 0;
  // Certified batches: digest + quorum certificate (2f+1 signer ids + sigs).
  std::vector<BatchDigest> batches;
  std::size_t quorum = 0;
  const char* type_name() const noexcept override { return "nw.header"; }
  std::size_t wire_size() const noexcept override {
    // Each certificate: digest + quorum * (id 4 + sig 64), plus header sig.
    return 4 + 8 + 4 + batches.size() * (32 + quorum * 68) + 64;
  }
};

struct NwBatchRequest final : sim::Payload {
  std::vector<BatchDigest> want;
  const char* type_name() const noexcept override { return "nw.batch_req"; }
  std::size_t wire_size() const noexcept override {
    return 4 + 32 * want.size();
  }
};

class NarwhalNode final : public sim::INode {
 public:
  struct Config {
    core::PrevalidationPolicy prevalidation;
    sim::Duration batch_interval = 500 * sim::kMillisecond;  // paper setup
    std::size_t num_nodes = 0;  // quorum = floor(2n/3) + 1
  };

  NarwhalNode(sim::Simulator& sim, core::NodeId id, const Config& config);

  void set_neighbors(std::vector<core::NodeId> neighbors) {
    neighbors_ = std::move(neighbors);
  }
  void submit_transaction(const core::Transaction& tx);

  void on_start() override;
  void on_message(core::NodeId from, const sim::PayloadPtr& msg) override;

  std::size_t mempool_size() const noexcept { return known_txs_; }
  std::uint64_t certified_batches() const noexcept { return certified_; }

 private:
  void batch_tick();
  std::size_t quorum() const {
    return 2 * config_.num_nodes / 3 + 1;
  }

  sim::Simulator& sim_;
  core::NodeId id_;
  Config config_;
  std::vector<core::NodeId> neighbors_;

  std::vector<core::Transaction> pending_;
  std::uint64_t batch_no_ = 0;
  std::uint64_t round_ = 0;
  std::size_t known_txs_ = 0;
  std::unordered_set<core::TxId, core::TxIdHash> seen_;

  // Own batches awaiting acks.
  std::unordered_map<BatchDigest, std::size_t, core::TxIdHash> ack_count_;
  std::vector<BatchDigest> ready_certs_;
  std::uint64_t certified_ = 0;

  // Batches received from others (served on request).
  std::unordered_map<BatchDigest, std::shared_ptr<const NwBatchMsg>,
                     core::TxIdHash>
      batch_store_;
};

}  // namespace lo::baselines
