#include "baselines/peerreview.hpp"

namespace lo::baselines {

namespace {

crypto::Digest256 digest_of_ids(const std::vector<core::TxId>& ids) {
  crypto::Sha256 h;
  for (const auto& id : ids) {
    h.update(std::span<const std::uint8_t>(id.data(), id.size()));
  }
  return h.finalize();
}

crypto::Digest256 chain_step(const crypto::Digest256& prev,
                             const LogEntry& entry) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(prev.data(), prev.size()));
  std::uint8_t meta[13];
  for (int i = 0; i < 8; ++i) meta[i] = static_cast<std::uint8_t>(entry.seq >> (8 * i));
  meta[8] = entry.kind;
  for (int i = 0; i < 4; ++i) meta[9 + i] = static_cast<std::uint8_t>(entry.peer >> (8 * i));
  h.update(std::span<const std::uint8_t>(meta, sizeof meta));
  h.update(std::span<const std::uint8_t>(entry.content_digest.data(),
                                         entry.content_digest.size()));
  return h.finalize();
}

}  // namespace

PeerReviewNode::PeerReviewNode(sim::Simulator& sim, core::NodeId id,
                               const Config& config)
    : sim_(sim), id_(id), config_(config) {}

void PeerReviewNode::on_start() { schedule_audits(); }

void PeerReviewNode::schedule_audits() {
  sim_.schedule_for(id_, config_.audit_interval, [this] {
    if (universe_ > 1) {
      // This node witnesses the `witnesses` nodes preceding it (equivalently,
      // each node is audited by the `witnesses` ids after it, mod n).
      for (std::size_t k = 1; k <= config_.witnesses; ++k) {
        const auto target = static_cast<core::NodeId>(
            (id_ + universe_ - (k % universe_)) % universe_);
        if (target == id_) continue;
        auto req = std::make_shared<PrAuditRequest>();
        req->since_seq = audit_watermark_[target];
        log_event(0, target, crypto::Digest256{});
        sim_.send(id_, target, req);
      }
    }
    schedule_audits();
  });
}

void PeerReviewNode::log_event(std::uint8_t kind, core::NodeId peer,
                               const crypto::Digest256& digest) {
  LogEntry e;
  e.seq = log_.size() + 1;
  e.kind = kind;
  e.peer = peer;
  e.content_digest = digest;
  e.chain = chain_step(log_top_, e);
  log_top_ = e.chain;
  log_.push_back(e);
  // PeerReview's tamper-evident log is its commitment analog: record the
  // append so its cadence lines up against LØ's kCommitCreate stream.
  sim_.obs().tracer.emit(obs::EventKind::kCommitCreate, id_, peer, kind, e.seq);
}

void PeerReviewNode::submit_transaction(const core::Transaction& tx) {
  admit(tx);
}

void PeerReviewNode::admit(const core::Transaction& tx) {
  if (store_.count(tx.id) != 0) return;
  if (!prevalidate(tx, config_.prevalidation)) return;
  store_.emplace(tx.id, tx);
  sim_.obs().tracer.emit(obs::EventKind::kTxAdmit, id_, id_,
                         core::txid_short(tx.id),
                         static_cast<std::uint64_t>(tx.created_at));
  announce_queue_.push_back(tx.id);
  if (!announce_armed_) {
    announce_armed_ = true;
    sim_.schedule_for(id_, config_.announce_delay, [this] { flush_announcements(); });
  }
}

void PeerReviewNode::flush_announcements() {
  announce_armed_ = false;
  if (announce_queue_.empty()) return;
  auto inv = std::make_shared<PrInvMsg>();
  inv->ids = std::move(announce_queue_);
  announce_queue_.clear();
  const auto digest = digest_of_ids(inv->ids);
  for (auto n : neighbors_) {
    log_event(0, n, digest);
    sim_.send(id_, n, inv);
  }
}

void PeerReviewNode::on_message(core::NodeId from, const sim::PayloadPtr& msg) {
  if (const auto* inv = dynamic_cast<const PrInvMsg*>(msg.get())) {
    log_event(1, from, digest_of_ids(inv->ids));
    // Acknowledge receipt (PeerReview's provable-delivery requirement).
    auto ack = std::make_shared<PrAckMsg>();
    ack->acked_seq = log_.size();
    sim_.send(id_, from, ack);
    auto get = std::make_shared<PrGetDataMsg>();
    for (const auto& id : inv->ids) {
      if (store_.count(id) != 0) continue;
      if (!requested_.insert(id).second) continue;
      get->ids.push_back(id);
    }
    if (!get->ids.empty()) {
      log_event(0, from, digest_of_ids(get->ids));
      sim_.send(id_, from, get);
    }
  } else if (const auto* get = dynamic_cast<const PrGetDataMsg*>(msg.get())) {
    log_event(1, from, digest_of_ids(get->ids));
    auto reply = std::make_shared<PrTxMsg>();
    for (const auto& id : get->ids) {
      auto it = store_.find(id);
      if (it != store_.end()) reply->txs.push_back(it->second);
    }
    if (!reply->txs.empty()) {
      log_event(0, from, crypto::Digest256{});
      sim_.send(id_, from, reply);
    }
  } else if (const auto* txs = dynamic_cast<const PrTxMsg*>(msg.get())) {
    log_event(1, from, crypto::Digest256{});
    auto ack = std::make_shared<PrAckMsg>();
    ack->acked_seq = log_.size();
    sim_.send(id_, from, ack);
    for (const auto& tx : txs->txs) {
      requested_.erase(tx.id);
      admit(tx);
    }
  } else if (dynamic_cast<const PrAckMsg*>(msg.get()) != nullptr) {
    log_event(1, from, crypto::Digest256{});
  } else if (const auto* areq = dynamic_cast<const PrAuditRequest*>(msg.get())) {
    log_event(1, from, crypto::Digest256{});
    auto resp = std::make_shared<PrAuditResponse>();
    resp->from_seq = areq->since_seq;
    for (std::size_t i = areq->since_seq; i < log_.size(); ++i) {
      resp->entries.push_back(log_[i]);
    }
    sim_.send(id_, from, resp);
  } else if (const auto* aresp = dynamic_cast<const PrAuditResponse*>(msg.get())) {
    // Witness replay: recompute the hash chain over the fetched segment.
    crypto::Digest256 chain = audit_chain_[from];
    std::uint64_t expect_seq = audit_watermark_[from];
    for (const auto& e : aresp->entries) {
      if (e.seq != expect_seq + 1 || chain_step(chain, e) != e.chain) {
        audits_clean_ = false;
        return;
      }
      chain = e.chain;
      ++expect_seq;
    }
    audit_chain_[from] = chain;
    audit_watermark_[from] = expect_seq;
  }
}

}  // namespace lo::baselines
