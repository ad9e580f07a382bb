#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace lo::sim {

Simulator::Simulator(std::uint64_t seed) : seed_(seed), rng_(seed) {
  latency_ = std::make_shared<ConstantLatency>(50 * kMillisecond);
  obs_.tracer.set_clock(&now_);
  c_dropped_sender_down_ = &obs_.registry.counter("sim.dropped_sender_down");
  c_dropped_receiver_down_ =
      &obs_.registry.counter("sim.dropped_receiver_down");
  c_suppressed_callbacks_ = &obs_.registry.counter("sim.suppressed_callbacks");
  c_dropped_by_fault_filter_ =
      &obs_.registry.counter("sim.dropped_by_fault_filter");
}

NodeId Simulator::add_node(INode* node) {
  if (node == nullptr) throw std::invalid_argument("null node");
  if (nodes_.size() >= kCoordinatorCtx) {
    throw std::length_error("node id space exhausted");
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  node_state_.emplace_back();
  node_rngs_.push_back(util::Rng::for_stream(seed_, id));
  ctx_ctr_.push_back(0);
  bandwidth_.ensure_nodes(nodes_.size());
  return id;
}

util::Rng& Simulator::node_rng(NodeId id) {
  if (id >= node_rngs_.size()) throw std::out_of_range("unknown node");
  return node_rngs_[id];
}

void Simulator::set_node_up(NodeId id, bool up) {
  if (id >= node_state_.size()) throw std::out_of_range("unknown node");
  NodeState& st = node_state_[id];
  if (st.up && !up) ++st.epoch;  // invalidate the crashed incarnation's timers
  st.up = up;
}

std::size_t Simulator::down_count() const noexcept {
  std::size_t n = 0;
  for (const auto& st : node_state_) n += st.up ? 0 : 1;
  return n;
}

std::uint64_t Simulator::alloc_seq() {
  std::uint64_t& ctr =
      (cur_exec_ctx_ == kCoordinatorCtx) ? coord_ctr_ : ctx_ctr_[cur_exec_ctx_];
  // The floor (executing event's counter + 1) makes same-timestamp children
  // sort after their parent — a property of the creating event alone, never
  // of global history.
  const std::uint64_t use = std::max(ctr, cur_floor_);
  ctr = use + 1;
  return (use << 24) | cur_exec_ctx_;
}

void Simulator::send(NodeId from, NodeId to, PayloadPtr msg) {
  if (from >= nodes_.size()) throw std::out_of_range("unknown sender node");
  if (to >= nodes_.size()) throw std::out_of_range("unknown destination node");
  obs::Tracer& tr = obs_.tracer;
  // Interning and event assembly stay behind the enabled() check so the
  // disabled path pays one branch per drop/send site.
  const auto drop = [&](std::uint64_t reason) {
    if (tr.enabled()) {
      tr.emit(obs::EventKind::kMsgDrop, from, to, reason, msg->wire_size(),
              tr.intern(msg->type_name()));
    }
  };
  if (!node_up(from)) {
    // A down node's NIC is off: nothing leaves, nothing is charged.
    ++*c_dropped_sender_down_;
    drop(obs::kDropSenderDown);
    return;
  }
  bandwidth_.record(from, msg->type_name(), msg->wire_size());
  // All send-time randomness draws from the sender's stream, so the draw
  // sequence depends only on the sender's own send history.
  util::Rng& srng = node_rngs_[from];
  if (drop_probability_ > 0.0 && srng.next_bool(drop_probability_)) {
    drop(obs::kDropRandom);
    return;
  }
  if (filter_ && !filter_(from, to)) {
    drop(obs::kDropFilter);
    return;
  }
  if (fault_filter_ && !fault_filter_(from, to)) {
    ++*c_dropped_by_fault_filter_;
    drop(obs::kDropFaultFilter);
    return;
  }
  Duration lat = latency_->latency_us(from, to, srng);
  if (latency_shaper_) lat = latency_shaper_(from, to, lat);
  if (lat < 0) lat = 0;
  if (tr.enabled()) {
    tr.emit(obs::EventKind::kMsgSend, from, to, msg->wire_size(),
            static_cast<std::uint64_t>(lat), tr.intern(msg->type_name()));
  }
  INode* dest = nodes_[to];
  Event ev;
  ev.at = now_ + lat;
  ev.seq = alloc_seq();
  ev.ctx = to;  // the delivery runs in the receiver's context
  ev.parent = obs::Tracer::thread_cause().span;  // sender dispatch = cause
  ev.fn = [this, dest, to, from, msg = std::move(msg)] {
    if (!node_up(to)) {
      // The receiver went down while the message was in flight.
      ++*c_dropped_receiver_down_;
      if (obs_.tracer.enabled()) {
        obs_.tracer.emit(obs::EventKind::kMsgDrop, from, to,
                         obs::kDropReceiverDown, msg->wire_size(),
                         obs_.tracer.intern(msg->type_name()));
      }
      return;
    }
    if (obs_.tracer.enabled()) {
      obs_.tracer.emit(obs::EventKind::kMsgRecv, to, from, msg->wire_size(), 0,
                       obs_.tracer.intern(msg->type_name()));
    }
    dest->on_message(from, msg);
  };
  queue_.push(std::move(ev));
}

void Simulator::schedule(Duration delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  Event ev;
  ev.at = now_ + delay;
  ev.seq = alloc_seq();
  // Plain callbacks stay in the scheduling context: a node's follow-up work
  // runs as that node; coordinator work stays on the coordinator.
  ev.ctx = cur_exec_ctx_;
  ev.parent = obs::Tracer::thread_cause().span;
  ev.fn = std::move(fn);
  queue_.push(std::move(ev));
}

void Simulator::schedule_for(NodeId owner, Duration delay,
                             std::function<void()> fn) {
  // An out-of-range owner used to silently degrade to an unpinned plain
  // schedule() — a timer that survives its owner's crash.
  if (owner >= node_state_.size()) {
    throw std::out_of_range("unknown owner node");
  }
  if (delay < 0) delay = 0;
  const std::uint64_t epoch = node_state_[owner].epoch;
  Event ev;
  ev.at = now_ + delay;
  ev.seq = alloc_seq();
  ev.ctx = owner;  // epoch-pinned timers run in the owner's context
  ev.parent = obs::Tracer::thread_cause().span;
  ev.fn = [this, owner, epoch, fn = std::move(fn)] {
    if (!node_up(owner) || node_epoch(owner) != epoch) {
      ++*c_suppressed_callbacks_;
      return;
    }
    fn();
  };
  queue_.push(std::move(ev));
}

void Simulator::start() {
  if (started_) return;
  started_ = true;
  bandwidth_.ensure_nodes(nodes_.size());
  for (auto* n : nodes_) n->on_start();
}

void Simulator::dispatch(Event& ev) {
  now_ = ev.at;
  cur_exec_ctx_ = ev.ctx;
  cur_floor_ = (ev.seq >> 24) + 1;
  // Causal context for everything this dispatch emits or schedules: the
  // span id is derived from the event key alone (span 0 is reserved for
  // "no cause").
  obs::Tracer::set_thread_cause({ev.seq + 1, ev.parent});
  ev.fn();
  obs::Tracer::set_thread_cause({});
  cur_exec_ctx_ = kCoordinatorCtx;
  cur_floor_ = 0;
}

std::size_t Simulator::run_until(TimePoint horizon) {
  start();
  // A horizon in the past is a no-op: nothing executes and now() never
  // moves backwards.
  if (horizon < now_) return 0;
  std::size_t processed = 0;
  while (!queue_.empty() && queue_.top().at <= horizon) {
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    ++processed;
  }
  if (now_ < horizon) now_ = horizon;
  return processed;
}

bool Simulator::step() {
  start();
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  dispatch(ev);
  return true;
}

}  // namespace lo::sim
