#include "baselines/narwhal.hpp"

namespace lo::baselines {

BatchDigest NwBatchMsg::digest() const {
  crypto::Sha256 h;
  std::uint8_t meta[12];
  for (int i = 0; i < 4; ++i) meta[i] = static_cast<std::uint8_t>(origin >> (8 * i));
  for (int i = 0; i < 8; ++i) meta[4 + i] = static_cast<std::uint8_t>(batch_no >> (8 * i));
  h.update(std::span<const std::uint8_t>(meta, sizeof meta));
  for (const auto& tx : txs) {
    h.update(std::span<const std::uint8_t>(tx.id.data(), tx.id.size()));
  }
  return h.finalize();
}

NarwhalNode::NarwhalNode(sim::Simulator& sim, core::NodeId id,
                         const Config& config)
    : sim_(sim), id_(id), config_(config) {}

void NarwhalNode::on_start() {
  // Stagger batch ticks across nodes.
  const auto phase = static_cast<sim::Duration>(sim_.node_rng(id_).next_below(
      static_cast<std::uint64_t>(config_.batch_interval)));
  sim_.schedule_for(id_, phase, [this] { batch_tick(); });
}

void NarwhalNode::submit_transaction(const core::Transaction& tx) {
  if (!seen_.insert(tx.id).second) return;
  if (!prevalidate(tx, config_.prevalidation)) return;
  ++known_txs_;
  sim_.obs().tracer.emit(obs::EventKind::kTxAdmit, id_, id_,
                         core::txid_short(tx.id),
                         static_cast<std::uint64_t>(tx.created_at));
  pending_.push_back(tx);
}

void NarwhalNode::batch_tick() {
  // Broadcast a batch of recent transactions to the whole network (reliable
  // broadcast in Narwhal; here every node is a worker+primary).
  if (!pending_.empty()) {
    auto batch = std::make_shared<NwBatchMsg>();
    batch->origin = id_;
    batch->batch_no = ++batch_no_;
    batch->txs = std::move(pending_);
    pending_.clear();
    const auto d = batch->digest();
    sim_.obs().tracer.emit(obs::EventKind::kCommitCreate, id_, 0,
                           batch->txs.size(), batch_no_);
    ack_count_[d] = 1;  // self-ack
    batch_store_[d] = batch;
    for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
      if (n == id_) continue;
      sim_.send(id_, n, batch);
    }
  }
  // Emit a header referencing certified batches.
  if (!ready_certs_.empty()) {
    auto header = std::make_shared<NwHeaderMsg>();
    header->origin = id_;
    header->round = ++round_;
    header->batches = std::move(ready_certs_);
    ready_certs_.clear();
    header->quorum = quorum();
    for (std::uint32_t n = 0; n < config_.num_nodes; ++n) {
      if (n == id_) continue;
      sim_.send(id_, n, header);
    }
  }
  sim_.schedule_for(id_, config_.batch_interval, [this] { batch_tick(); });
}

void NarwhalNode::on_message(core::NodeId from, const sim::PayloadPtr& msg) {
  if (const auto* batch = dynamic_cast<const NwBatchMsg*>(msg.get())) {
    const auto d = batch->digest();
    if (batch_store_.emplace(d, std::static_pointer_cast<const NwBatchMsg>(msg))
            .second) {
      sim_.obs().tracer.emit(obs::EventKind::kCommitObserve, id_, batch->origin,
                             batch->txs.size());
      for (const auto& tx : batch->txs) {
        if (!seen_.insert(tx.id).second) continue;
        ++known_txs_;
        sim_.obs().tracer.emit(obs::EventKind::kTxAdmit, id_, from,
                               core::txid_short(tx.id),
                               static_cast<std::uint64_t>(tx.created_at));
      }
    }
    auto ack = std::make_shared<NwAckMsg>();
    ack->batch = d;
    sim_.send(id_, from, ack);
  } else if (const auto* ack = dynamic_cast<const NwAckMsg*>(msg.get())) {
    auto it = ack_count_.find(ack->batch);
    if (it == ack_count_.end()) return;
    if (++it->second == quorum()) {
      ready_certs_.push_back(ack->batch);
      ++certified_;
    }
  } else if (const auto* header = dynamic_cast<const NwHeaderMsg*>(msg.get())) {
    auto req = std::make_shared<NwBatchRequest>();
    for (const auto& d : header->batches) {
      if (batch_store_.count(d) == 0) req->want.push_back(d);
    }
    if (!req->want.empty()) sim_.send(id_, from, req);
  } else if (const auto* req = dynamic_cast<const NwBatchRequest*>(msg.get())) {
    for (const auto& d : req->want) {
      auto it = batch_store_.find(d);
      if (it != batch_store_.end()) sim_.send(id_, from, it->second);
    }
  }
}

}  // namespace lo::baselines
