#include "baselines/flood.hpp"

namespace lo::baselines {

FloodNode::FloodNode(sim::Simulator& sim, core::NodeId id,
                     const Config& config)
    : sim_(sim), id_(id), config_(config) {}

void FloodNode::submit_transaction(const core::Transaction& tx) {
  admit(tx, id_);
}

void FloodNode::admit(const core::Transaction& tx, core::NodeId source) {
  if (store_.count(tx.id) != 0) return;
  if (!prevalidate(tx, config_.prevalidation)) return;
  store_.emplace(tx.id, tx);
  sim_.obs().tracer.emit(obs::EventKind::kTxAdmit, id_, source,
                         core::txid_short(tx.id),
                         static_cast<std::uint64_t>(tx.created_at));
  announce_queue_.push_back(tx.id);
  if (!announce_armed_) {
    announce_armed_ = true;
    sim_.schedule_for(id_, config_.announce_delay, [this] { flush_announcements(); });
  }
}

void FloodNode::flush_announcements() {
  announce_armed_ = false;
  if (announce_queue_.empty()) return;
  auto inv = std::make_shared<InvMsg>();
  inv->ids = std::move(announce_queue_);
  announce_queue_.clear();
  for (auto n : neighbors_) sim_.send(id_, n, inv);
}

void FloodNode::on_message(core::NodeId from, const sim::PayloadPtr& msg) {
  if (const auto* inv = dynamic_cast<const InvMsg*>(msg.get())) {
    auto get = std::make_shared<GetDataMsg>();
    for (const auto& id : inv->ids) {
      if (store_.count(id) != 0) continue;
      if (!requested_.insert(id).second) continue;
      get->ids.push_back(id);
    }
    if (!get->ids.empty()) sim_.send(id_, from, get);
  } else if (const auto* get = dynamic_cast<const GetDataMsg*>(msg.get())) {
    auto reply = std::make_shared<FloodTxMsg>();
    for (const auto& id : get->ids) {
      auto it = store_.find(id);
      if (it != store_.end()) reply->txs.push_back(it->second);
    }
    if (!reply->txs.empty()) sim_.send(id_, from, reply);
  } else if (const auto* txs = dynamic_cast<const FloodTxMsg*>(msg.get())) {
    for (const auto& tx : txs->txs) {
      requested_.erase(tx.id);
      admit(tx, from);
    }
  }
}

}  // namespace lo::baselines
