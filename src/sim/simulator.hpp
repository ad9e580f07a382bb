// Deterministic discrete-event network simulator.
//
// The paper evaluates LØ on a 10,000-process cluster deployment; this
// reproduction substitutes an event-driven simulation (see DESIGN.md,
// substitution 3). Nodes exchange Payload messages; delivery latency comes
// from a pluggable LatencyModel; every sent byte is recorded by the
// BandwidthAccountant, which is the ground truth for the Fig. 9
// bandwidth-overhead comparison.
//
// Node lifecycle: every registered node is up by default. A down node neither
// sends nor receives — sends from it are dropped at the NIC (no bandwidth
// charged), and messages still in flight toward it are lost at delivery time,
// like packets racing a host that just lost power. Each transition to down
// bumps the node's *epoch* (incarnation number); callbacks scheduled through
// schedule_for() are pinned to the epoch they were armed in and are silently
// suppressed once the owner crashes, so a restarted node never executes
// timers from a previous life.
//
// Delivery semantics: drop probability, the delivery filter and the fault
// filter are all evaluated at SEND time. A message that passes them is
// irrevocably in flight: healing a partition mid-flight does not resurrect
// messages dropped earlier, and cutting a link does not destroy messages that
// already left (test_sim.cpp pins this).
//
// Determinism (DESIGN.md §4c): events run one at a time, popped in key
// order (at, seq), where seq = (counter << 24) | creator and each creating
// context (a node, or the coordinator) keeps its own counter. A key depends
// only on its creator's own scheduling history, and every node draws from
// its own RNG stream (node_rng), so a node's draws never depend on how other
// nodes' events interleave with its own.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/hub.hpp"
#include "sim/bandwidth.hpp"
#include "sim/latency.hpp"
#include "util/rng.hpp"

namespace lo::sim {

using NodeId = std::uint32_t;
using TimePoint = std::int64_t;  // microseconds since simulation start
using Duration = std::int64_t;   // microseconds

constexpr Duration from_seconds(double s) noexcept {
  return static_cast<Duration>(s * 1e6);
}
constexpr double to_seconds(TimePoint t) noexcept {
  return static_cast<double>(t) / 1e6;
}
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000000;

// Context id carried in the low 24 bits of an event key: a node id, or this
// sentinel for the coordinator (setup code, workloads, fault scripts —
// everything that runs outside a node's own dispatch).
constexpr std::uint32_t kCoordinatorCtx = 0xFFFFFFu;

// Base class for all wire messages. wire_size() must return the serialized
// size in bytes — it is what the bandwidth accountant charges.
class Payload {
 public:
  virtual ~Payload() = default;
  virtual const char* type_name() const noexcept = 0;
  virtual std::size_t wire_size() const noexcept = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

class INode {
 public:
  virtual ~INode() = default;
  // Called once when the simulation starts (after all nodes are registered).
  virtual void on_start() {}
  virtual void on_message(NodeId from, const PayloadPtr& msg) = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  // The observability hub's tracer holds a pointer to this simulator's
  // clock cell, so the object must stay put once constructed.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;

  // Current simulation time: the executing event's timestamp, or where the
  // last run_until() left the clock.
  TimePoint now() const noexcept { return now_; }

  // The coordinator RNG stream: setup, topology, workloads. Node-context
  // code draws from node_rng() instead, so a node's draws depend only on
  // its own history.
  util::Rng& rng() noexcept { return rng_; }
  // Per-node stream, derived from (seed, node id) at registration
  // (util::Rng::for_stream). Throws std::out_of_range for unregistered ids.
  util::Rng& node_rng(NodeId id);

  BandwidthAccountant& bandwidth() noexcept { return bandwidth_; }
  const BandwidthAccountant& bandwidth() const noexcept { return bandwidth_; }

  // Per-simulation observability: the shared metrics registry + event
  // tracer. The tracer is disabled by default; enabling it costs one branch
  // per instrumented site plus the ring write when on.
  obs::Hub& obs() noexcept { return obs_; }
  const obs::Hub& obs() const noexcept { return obs_; }

  // Registers a node; ids are assigned densely starting at 0. The simulator
  // does not own the node.
  NodeId add_node(INode* node);
  std::size_t node_count() const noexcept { return nodes_.size(); }

  void set_latency_model(std::shared_ptr<LatencyModel> model) {
    latency_ = std::move(model);
  }

  // Uniform message loss probability (applied per message, drawn from the
  // sender's node stream).
  void set_drop_probability(double p) noexcept { drop_probability_ = p; }

  // Arbitrary delivery filter for partitions/censorship at the network level;
  // return false to drop the message. Bandwidth is still charged to the
  // sender (the bytes left the NIC). Evaluated at send time — see the header
  // comment for the in-flight semantics this implies.
  using DeliveryFilter = std::function<bool(NodeId from, NodeId to)>;
  void set_delivery_filter(DeliveryFilter f) { filter_ = std::move(f); }

  // Second, independent filter slot reserved for the fault-injection
  // subsystem (per-link flaky windows), so faults compose with whatever
  // partition filter an experiment installed. Same semantics as above.
  void set_fault_filter(DeliveryFilter f) { fault_filter_ = std::move(f); }

  // Maps the model latency to the effective one (fault-injected latency
  // degradation spikes). Evaluated at send time; a negative result clamps
  // to 0.
  using LatencyShaper = std::function<Duration(NodeId from, NodeId to, Duration base)>;
  void set_latency_shaper(LatencyShaper f) { latency_shaper_ = std::move(f); }

  // --- node lifecycle ---
  // Marking a node down bumps its epoch, which cancels all of its
  // epoch-scoped callbacks (schedule_for). Marking it up does not re-arm
  // anything; that is the owner's job on restart. All three lifecycle
  // accessors share one contract: unregistered ids throw std::out_of_range
  // (the read side used to presume unknown ids up, which let out-of-range
  // senders through — see test_sim regression tests).
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const {
    if (id >= node_state_.size()) throw std::out_of_range("unknown node");
    return node_state_[id].up;
  }
  std::uint64_t node_epoch(NodeId id) const {
    if (id >= node_state_.size()) throw std::out_of_range("unknown node");
    return node_state_[id].epoch;
  }
  std::size_t down_count() const noexcept;

  // Sends a message; it arrives at `to` after the model latency. Both
  // endpoints must be registered (std::out_of_range otherwise — an unknown
  // sender used to slip past the liveness check and index the bandwidth
  // table out of bounds).
  void send(NodeId from, NodeId to, PayloadPtr msg);

  // Schedules fn at now() + delay (delay < 0 clamps to 0). The callback
  // executes in the scheduling context (the same node, or the coordinator).
  void schedule(Duration delay, std::function<void()> fn);

  // Schedules fn at now() + delay on behalf of `owner`: the callback is
  // suppressed (not executed) if the owner is down when it fires or has
  // crashed since it was armed (epoch mismatch). The owner must be
  // registered — std::out_of_range otherwise (an out-of-range owner used to
  // silently degrade to an unpinned plain schedule(), so a timer armed
  // before late registration would have survived that node's crash).
  void schedule_for(NodeId owner, Duration delay, std::function<void()> fn);

  // Calls on_start() on every node (in id order). Must be called once before
  // stepping/running; idempotent.
  void start();

  // Processes events until the queue is empty or the horizon is reached.
  // Returns the number of events processed. now() ends at max(now, horizon)
  // even when the queue drains early; a horizon in the past is a no-op —
  // run_until never executes anything and never moves now() backwards.
  std::size_t run_until(TimePoint horizon);

  // Processes a single event (the one with the smallest key); returns false
  // when the queue is empty.
  bool step();

  std::size_t pending_events() const noexcept { return queue_.size(); }

 private:
  struct Event {
    TimePoint at = 0;
    std::uint64_t seq = 0;     // (creator counter << 24) | creator ctx id
    std::uint32_t ctx = kCoordinatorCtx;  // execution context: node or coordinator
    // Causal span of the dispatch that created this event (obs::Tracer::Cause;
    // 0 = created outside any dispatch). Span ids are seq + 1 — globally
    // unique and fixed by the event key — so the trace layer can link every
    // emitted event to the dispatch chain that caused it.
    std::uint64_t parent = 0;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;  // unique per-context keys break ties
    }
  };
  using EventQueue = std::priority_queue<Event, std::vector<Event>, EventOrder>;
  struct NodeState {
    bool up = true;
    std::uint64_t epoch = 0;  // bumped on every up -> down transition
  };

  std::uint64_t alloc_seq();
  void dispatch(Event& ev);

  std::uint64_t seed_;
  TimePoint now_ = 0;
  util::Rng rng_;
  obs::Hub obs_;
  std::vector<INode*> nodes_;
  std::vector<NodeState> node_state_;
  std::vector<util::Rng> node_rngs_;

  // Event-key counters: one per creating context, plus the executing
  // event's context and counter floor (see alloc_seq).
  std::vector<std::uint64_t> ctx_ctr_;
  std::uint64_t coord_ctr_ = 0;
  std::uint32_t cur_exec_ctx_ = kCoordinatorCtx;
  std::uint64_t cur_floor_ = 0;
  EventQueue queue_;

  std::shared_ptr<LatencyModel> latency_;
  BandwidthAccountant bandwidth_;
  double drop_probability_ = 0.0;
  DeliveryFilter filter_;
  DeliveryFilter fault_filter_;
  LatencyShaper latency_shaper_;

  // Fault observability (tests assert on mechanism, not just outcomes):
  // handles of the "sim.dropped_sender_down", "sim.dropped_receiver_down",
  // "sim.suppressed_callbacks" and "sim.dropped_by_fault_filter" registry
  // cells (stable addresses; see Registry::counter).
  std::uint64_t* c_dropped_sender_down_;
  std::uint64_t* c_dropped_receiver_down_;
  std::uint64_t* c_suppressed_callbacks_;
  std::uint64_t* c_dropped_by_fault_filter_;
  bool started_ = false;
};

}  // namespace lo::sim
