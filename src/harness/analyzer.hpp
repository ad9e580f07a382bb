// Analyzer — the one fold of the event stream that every harness fact comes
// from (DESIGN.md §5). Its only input is observe(event). harness::Network
// feeds it every event from the tracer's sink, online; loscope replays a
// recorded LOTR file through it, offline. Both therefore compute the same
// per-tx settle times, latency samples, blame and member feeds, membership
// detection latencies and detection times, and the anomaly monitor windows
// the same running counts.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/types.hpp"
#include "membership/messages.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

namespace lo::harness {

struct DetectionTimes {
  // For each faulty node: the time by which EVERY correct node had
  // suspected/learned-exposure of it; <0 when incomplete.
  double suspicion_complete_s = -1.0;
  double exposure_complete_s = -1.0;
  double first_exposure_s = -1.0;  // first detection anywhere
  // The paper's Fig. 6 "Exposure" series measures dissemination: the time
  // from the FIRST node detecting a given attacker until ALL correct nodes
  // know that attacker, maximized over attackers; <0 when incomplete.
  double exposure_spread_s = -1.0;
  bool operator==(const DetectionTimes&) const = default;
};

// One entry per blame.suspected or blame.expose event.
struct BlameEvent {
  core::NodeId observer;
  core::NodeId accused;
  double when_s;
  bool operator==(const BlameEvent&) const = default;
};

// One entry per member.state event (a SWIM state transition).
struct MemberEvent {
  core::NodeId observer;
  core::NodeId member;
  membership::MemberState state;
  double when_s;
  bool operator==(const MemberEvent&) const = default;
};

// The fold's state is its output, read directly; observe() is its only
// writer (harness::Network::analyzer() is a const view).
struct Analyzer {
  // One transaction's lifecycle, simulator microseconds; -1 = not yet.
  struct Tx {
    std::int64_t submit_at = -1;    // first tx.submit
    std::int64_t admit_at = -1;     // first tx.admit anywhere
    std::int64_t finalize_at = -1;  // tx.finalize: first block inclusion
    std::int64_t settle_at = -1;    // by the settle rule (analyzer.cpp)
    bool inflight() const noexcept { return submit_at >= 0 && settle_at < 0; }
    bool operator==(const Tx&) const = default;
  };

  void observe(const obs::TraceEvent& ev);

  // Submitted and not yet settled.
  std::size_t inflight() const;
  bool finalized(std::uint64_t txid) const;
  // Fig. 6: completeness over the faulty population (faulty[i] = node i is
  // faulty), which no trace holds.
  DetectionTimes detection_times(const std::vector<bool>& faulty) const;

  bool operator==(const Analyzer&) const = default;

  std::map<std::uint64_t, Tx> txs;  // keyed by short tx id
  // A block.start was seen: from then on a tx settles at its finalize.
  bool blocks_started = false;
  // Samples, seconds. Fig. 7: one per admit at any node, at − created_at.
  sim::Samples mempool_latency;
  // Fig. 8: submit -> first block inclusion, one per submitted tx.
  sim::Samples block_latency;
  // Submit -> settle, one per submitted tx, in settle order.
  sim::Samples settle_latency;
  // Crash -> confirmation, one per (observer, member) confirmation while the
  // member was down (between its fault.crash and fault.restart).
  sim::Samples membership_detection_latency;
  // One entry per blame.suspected, blame.expose and member.state event.
  std::vector<BlameEvent> suspicion_events;
  std::vector<BlameEvent> exposure_events;
  std::vector<MemberEvent> member_events;
  // reconcile.round outcomes: decoded (or empty), and overflowed.
  std::uint64_t reconciles_ok = 0;
  std::uint64_t reconciles_failed = 0;
  std::set<std::uint32_t> crashed;  // every node with a fault.crash
  std::map<std::uint32_t, std::int64_t> down_since;  // node -> fault.crash at
};

}  // namespace lo::harness
