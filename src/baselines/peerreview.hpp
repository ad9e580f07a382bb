// PeerReview (Haeberlen et al. [20]) — the universal accountability baseline
// of Sec. 6.4: every node keeps a hash-chained signed log of all send/receive
// events; each node is assigned 8 witnesses that periodically fetch and audit
// its log.
//
// The transaction dissemination underneath is the same INV/GETDATA/TX flood;
// PeerReview adds (a) an authenticator (seqno + log-top hash + signature) on
// every protocol message, (b) acknowledgments carrying authenticators, and
// (c) witness audit traffic that transfers the log entries themselves. These
// additions are what make PeerReview roughly an order of magnitude more
// expensive than LØ in Fig. 9.
//
// Overhead classes: pr.inv, pr.getdata, pr.ack, pr.audit_req, pr.audit_resp;
// pr.tx carries bodies and is excluded like every protocol's tx class.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/transaction.hpp"
#include "core/types.hpp"
#include "crypto/keys.hpp"
#include "sim/simulator.hpp"

namespace lo::baselines {

// seqno(8) + top hash(32) + signature(64).
inline constexpr std::size_t kAuthenticatorWire = 104;

struct LogEntry {
  std::uint64_t seq = 0;
  std::uint8_t kind = 0;  // 0 send, 1 recv
  core::NodeId peer = 0;
  crypto::Digest256 content_digest{};
  crypto::Digest256 chain{};  // H(prev_chain || fields)

  static constexpr std::size_t kWire = 8 + 1 + 4 + 32 + 32;
};

struct PrInvMsg final : sim::Payload {
  std::vector<core::TxId> ids;
  const char* type_name() const noexcept override { return "pr.inv"; }
  std::size_t wire_size() const noexcept override {
    return 4 + 36 * ids.size() + kAuthenticatorWire;
  }
};

struct PrGetDataMsg final : sim::Payload {
  std::vector<core::TxId> ids;
  const char* type_name() const noexcept override { return "pr.getdata"; }
  std::size_t wire_size() const noexcept override {
    return 4 + 36 * ids.size() + kAuthenticatorWire;
  }
};

struct PrTxMsg final : sim::Payload {
  std::vector<core::Transaction> txs;
  const char* type_name() const noexcept override { return "pr.tx"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = 4 + kAuthenticatorWire;
    for (const auto& tx : txs) sz += tx.wire_size();
    return sz;
  }
};

// Receipt acknowledgment: PeerReview requires acknowledging every message
// with a signed authenticator so that omissions are provable.
struct PrAckMsg final : sim::Payload {
  std::uint64_t acked_seq = 0;
  const char* type_name() const noexcept override { return "pr.ack"; }
  std::size_t wire_size() const noexcept override {
    return 8 + kAuthenticatorWire;
  }
};

struct PrAuditRequest final : sim::Payload {
  std::uint64_t since_seq = 0;
  const char* type_name() const noexcept override { return "pr.audit_req"; }
  std::size_t wire_size() const noexcept override {
    return 8 + kAuthenticatorWire;
  }
};

struct PrAuditResponse final : sim::Payload {
  std::uint64_t from_seq = 0;
  std::vector<LogEntry> entries;
  const char* type_name() const noexcept override { return "pr.audit_resp"; }
  std::size_t wire_size() const noexcept override {
    return 8 + 4 + LogEntry::kWire * entries.size() + kAuthenticatorWire;
  }
};

class PeerReviewNode final : public sim::INode {
 public:
  struct Config {
    core::PrevalidationPolicy prevalidation;
    sim::Duration announce_delay = 100 * sim::kMillisecond;
    std::size_t witnesses = 8;  // paper setup
    sim::Duration audit_interval = 10 * sim::kSecond;
  };

  PeerReviewNode(sim::Simulator& sim, core::NodeId id, const Config& config);

  void set_neighbors(std::vector<core::NodeId> neighbors) {
    neighbors_ = std::move(neighbors);
  }
  // Witness sets are derived from node ids: node i is audited by
  // i+1 .. i+witnesses (mod n). Needs the network size.
  void set_universe(std::size_t num_nodes) { universe_ = num_nodes; }

  void submit_transaction(const core::Transaction& tx);

  void on_start() override;
  void on_message(core::NodeId from, const sim::PayloadPtr& msg) override;

  std::size_t mempool_size() const noexcept { return store_.size(); }
  bool has_tx(const core::TxId& id) const { return store_.count(id) != 0; }
  std::uint64_t log_length() const noexcept { return log_.size(); }
  // True while no audited log has failed replay.
  bool audits_clean() const noexcept { return audits_clean_; }

 private:
  void admit(const core::Transaction& tx);
  void flush_announcements();
  void log_event(std::uint8_t kind, core::NodeId peer,
                 const crypto::Digest256& digest);
  void schedule_audits();

  sim::Simulator& sim_;
  core::NodeId id_;
  Config config_;
  std::vector<core::NodeId> neighbors_;
  std::size_t universe_ = 0;
  std::unordered_map<core::TxId, core::Transaction, core::TxIdHash> store_;
  std::unordered_set<core::TxId, core::TxIdHash> requested_;
  std::vector<core::TxId> announce_queue_;
  bool announce_armed_ = false;

  std::vector<LogEntry> log_;
  crypto::Digest256 log_top_{};
  // witness state: per audited node, last fetched seq + their chain top.
  std::unordered_map<core::NodeId, std::uint64_t> audit_watermark_;
  std::unordered_map<core::NodeId, crypto::Digest256> audit_chain_;
  bool audits_clean_ = true;
};

}  // namespace lo::baselines
