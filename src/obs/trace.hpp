// Deterministic structured event tracer (observability layer, part 2).
//
// A fixed-capacity ring buffer of POD trace events stamped with *simulator*
// time — never wall clock (lolint's banned-source rule covers this
// directory), so same-seed runs produce byte-identical traces and the
// existing SHA-256 trace-digest determinism tests extend to the event
// stream. The recorder is disabled by default; when disabled, emit() is a
// single predictable branch.
//
// Events cover the whole mempool stack: message send/recv/drop, the
// commitment lifecycle (created -> observed -> reconciled -> finalized),
// sketch-reconciliation rounds with decode outcomes, verify-cache hits,
// per-transaction lifecycle spans (submit -> admit -> finalize across
// nodes), and fault-injector events. PeerReview-style accountability is
// itself built on logs of observed events, so the trace doubles as an audit
// artifact.
//
// Export paths:
//   bytes() / write_file()  - canonical little-endian binary ("LOTR"), the
//                             stream the determinism digests cover;
//   chrome_json()           - Chrome/Perfetto trace-event JSON (`loscope
//                             <trace> chrome` converts the binary form
//                             offline).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lo::obs {

enum class EventKind : std::uint16_t {
  kNone = 0,
  // Network layer (emitted by sim::Simulator). a = wire bytes; b = latency
  // (send) or drop reason (drop); name = payload type.
  kMsgSend = 1,
  kMsgRecv = 2,
  kMsgDrop = 3,
  // Transaction lifecycle span (async span id = short tx id in a).
  kTxSubmit = 10,   // workload handed the tx to `node`
  kTxAdmit = 11,    // tx admitted to `node`'s mempool; b = bundle seqno
  kTxFinalize = 12, // first block inclusion observed; b = block height
  kTxCommit = 13,   // tx committed into `node`'s log; b = bundle seqno.
                    // Emitted inside the dispatch that admitted or synced
                    // the tx, so its span links it to that delivery.
  kTxCensored = 14, // inspection proved `peer` omitted tx `a`; b = block id
  // Commitment lifecycle. create: a = batch size, b = log seqno after the
  // append; observe: peer = creator, a = creator's commitment count.
  kCommitCreate = 20,
  kCommitObserve = 21,  // header observed from `peer`
  // Set reconciliation. a = decode outcome (ReconcileOutcome);
  // b = recovered difference size (or sketch capacity on failure).
  kReconcileRound = 30,
  // Blocks. a = short block id; b = tx count (build) / seqno span (inspect).
  kBlockBuild = 40,
  kBlockInspect = 41,
  // Accountability. peer = accused/exposed node; a = detail.
  kSuspect = 50,
  kRetract = 51,
  kExpose = 52,
  // Fault injector. a = detail (e.g. scheduled restart delay us).
  kFaultCrash = 60,
  kFaultRestart = 61,
  // Verify cache. a = 1 on hit, 0 on miss; b = tier (0 = key, 1 = memo).
  kCacheProbe = 70,
  // Membership (SWIM failure detector). probe: peer = probed member (or the
  // proxy for an indirect request), a = probe seq, b = 0 direct / 1 indirect;
  // state: peer = member, a = MemberState, b = incarnation.
  kMemberProbe = 80,
  kMemberState = 81,
  // Online anomaly detector (harness). peer = detector kind (AnomalyKind),
  // a = observed value in microseconds or a count, b = threshold.
  kAnomaly = 90,
};

const char* event_kind_name(EventKind k) noexcept;

// Drop reasons carried in `a` of kMsgDrop, matching the simulator's
// evaluation order.
enum DropReason : std::uint64_t {
  kDropSenderDown = 0,
  kDropRandom = 1,
  kDropFilter = 2,
  kDropFaultFilter = 3,
  kDropReceiverDown = 4,
};

const char* drop_reason_name(std::uint64_t r) noexcept;

// Decode outcomes carried in `a` of kReconcileRound.
enum ReconcileOutcome : std::uint64_t {
  kReconcileDecoded = 0,
  kReconcileOverflow = 1,  // difference exceeded sketch capacity
  kReconcileEmpty = 2,     // decoded, nothing missing
};

const char* reconcile_outcome_name(std::uint64_t r) noexcept;

// POD record (56 wire bytes, v2). `name` is an interned string id (payload
// type, metric name); 0 means "no name". `span`/`parent` are the causal
// layer: every event carries the span of the dispatch that emitted it and
// the span of the dispatch that *caused* that dispatch (the send for a
// delivery, the scheduling context for a timer), so send -> deliver ->
// handle -> emit chains form a cross-node happens-before DAG. Span ids are
// derived from simulator event keys, so same-seed runs stamp the same ids;
// 0 means "no cause" (emitted outside any dispatch).
struct TraceEvent {
  std::int64_t at = 0;  // simulator microseconds
  std::uint16_t kind = 0;
  std::uint16_t name = 0;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint32_t aux = 0;  // shard id for shard-scoped events; 0 otherwise
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t span = 0;    // causal span of the emitting dispatch
  std::uint64_t parent = 0;  // span of the causing dispatch (0 = root)
};

// Short id for span correlation: first 8 bytes of a digest, little-endian
// (fewer bytes are zero-padded). Collisions across 2^64 are irrelevant for
// trace grouping.
std::uint64_t short_id(std::span<const std::uint8_t> bytes) noexcept;

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  // The "current cause": the causal span of the dispatch the simulator is
  // executing, and that dispatch's own parent. The simulator sets it around
  // every event dispatch, emit() stamps it into each recorded event, and
  // send/schedule capture it as the parent of the events they create. Held
  // here rather than in sim/ so obs stays independent of the scheduler.
  struct Cause {
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
  };
  void set_cause(Cause c) noexcept { cause_ = c; }
  Cause cause() const noexcept { return cause_; }

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  // The tracer stamps events by dereferencing `now`: the simulator hands a
  // pointer to its clock cell once, and every component holding a Tracer*
  // gets simulator-time stamps without depending on sim/. Null clock stamps
  // 0 (useful in unit tests).
  void set_clock(const std::int64_t* now) noexcept { clock_ = now; }

  void enable(bool on);
  bool enabled() const noexcept { return enabled_; }

  // Changing capacity clears the buffer (ring arithmetic restarts).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const noexcept { return capacity_; }

  // Interns a string, returning its stable id. Ids are assigned in first-use
  // order (deterministic given deterministic call order); id 0 is "". Throws
  // std::length_error past 65535 distinct strings.
  std::uint16_t intern(std::string_view s);
  std::string name(std::uint16_t id) const;
  std::vector<std::string> names() const;

  // Records an event (no-op when disabled, at the cost of one branch).
  // Overflow policy: drop-oldest — the ring keeps the most recent `capacity`
  // events and counts what it evicted, so the tail of a long run is always
  // inspectable.
  void emit(EventKind kind, std::uint32_t node, std::uint32_t peer = 0,
            std::uint64_t a = 0, std::uint64_t b = 0, std::uint16_t name = 0,
            std::uint32_t aux = 0) {
    if (!enabled_) return;
    record(kind, node, peer, a, b, name, aux);
  }

  std::size_t size() const noexcept { return ring_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  // Events oldest -> newest (linearized copy of the ring).
  std::vector<TraceEvent> events() const;

  // Drops recorded events and the eviction count; keeps the string table so
  // previously handed-out intern ids stay valid.
  void clear();

  // Canonical binary form: "LOTR" magic, version, dropped count, string
  // table, then events oldest -> newest, all little-endian. This is the byte
  // stream the determinism digests cover.
  std::vector<std::uint8_t> bytes() const;
  bool write_file(const std::string& path) const;

  // Parsed binary trace (what tools/loscope consumes).
  // Throws util::SerdeError on malformed input (bad magic, unknown version,
  // truncated body, out-of-range name id, trailing bytes). Version 1 files
  // (40-byte events, pre-causal) are still readable: span/parent load as 0.
  struct File {
    std::uint64_t dropped = 0;
    std::vector<std::string> names;
    std::vector<TraceEvent> events;
  };
  static File from_bytes(std::span<const std::uint8_t> data);
  static File read_file(const std::string& path);

 private:
  void record(EventKind kind, std::uint32_t node, std::uint32_t peer,
              std::uint64_t a, std::uint64_t b, std::uint16_t name,
              std::uint32_t aux);

  bool enabled_ = false;
  const std::int64_t* clock_ = nullptr;
  Cause cause_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest event
  std::uint64_t dropped_ = 0;
  // Grows by push_back until it holds `capacity_` events, then wraps: the
  // full capacity is reserved on the first record but only touched as events
  // arrive. head_ stays 0 until the ring is full.
  std::vector<TraceEvent> ring_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint16_t, std::less<>> intern_;
};

// Chrome/Perfetto trace-event JSON. Every event renders as a thread-scoped
// instant ("ph": "i", tid = node); transaction lifecycle events additionally
// render as an async span ("b"/"n"/"e", id = short tx id) so Perfetto draws
// one bar per tx from submission to inclusion. Timestamps are simulator
// microseconds, which is exactly the unit the format expects.
std::string chrome_json(const Tracer::File& f);
std::string chrome_json(const Tracer& t);
bool write_chrome_json(const Tracer& t, const std::string& path);

}  // namespace lo::obs
