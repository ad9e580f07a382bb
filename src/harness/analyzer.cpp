#include "harness/analyzer.hpp"

#include <algorithm>

namespace lo::harness {

namespace {

// The settle rule, once: a tx settles at its first mempool admit anywhere
// until block production starts (block.start), and at its first block
// inclusion (tx.finalize) after. The first settle wins.
void settle(Analyzer::Tx& tx, std::int64_t at, sim::Samples& settle_latency) {
  if (tx.settle_at >= 0) return;
  tx.settle_at = at;
  if (tx.submit_at < 0) return;  // never submitted: was never in flight
  settle_latency.add(sim::to_seconds(at - tx.submit_at));
}

}  // namespace

void Analyzer::observe(const obs::TraceEvent& ev) {
  switch (static_cast<obs::EventKind>(ev.kind)) {
    case obs::EventKind::kTxSubmit: {
      Tx& tx = txs[ev.a];
      if (tx.submit_at < 0) tx.submit_at = ev.at;  // a fanout submits again
      break;
    }
    case obs::EventKind::kTxAdmit: {
      mempool_latency.add(
          sim::to_seconds(ev.at - static_cast<sim::TimePoint>(ev.b)));
      Tx& tx = txs[ev.a];
      if (tx.admit_at < 0) tx.admit_at = ev.at;
      if (!blocks_started) settle(tx, ev.at, settle_latency);
      break;
    }
    case obs::EventKind::kTxFinalize: {
      Tx& tx = txs[ev.a];
      if (tx.finalize_at >= 0) break;
      tx.finalize_at = ev.at;
      if (tx.submit_at >= 0) {
        block_latency.add(sim::to_seconds(ev.at) -
                          sim::to_seconds(tx.submit_at));
      }
      settle(tx, ev.at, settle_latency);
      break;
    }
    case obs::EventKind::kBlockStart:
      blocks_started = true;
      break;
    case obs::EventKind::kSuspected:
      suspicion_events.push_back({ev.node, ev.peer, sim::to_seconds(ev.at)});
      break;
    case obs::EventKind::kExpose:
      exposure_events.push_back({ev.node, ev.peer, sim::to_seconds(ev.at)});
      break;
    case obs::EventKind::kReconcileRound:
      if (ev.a == obs::kReconcileOverflow) {
        ++reconciles_failed;
      } else {
        ++reconciles_ok;
      }
      break;
    case obs::EventKind::kMemberState: {
      const auto state = static_cast<membership::MemberState>(ev.a);
      const double when_s = sim::to_seconds(ev.at);
      member_events.push_back({ev.node, ev.peer, state, when_s});
      // Crash -> confirmation latency: only counted while the member is in
      // fact down (a confirm of a node that already restarted is stale
      // news, not a detection).
      const auto down = down_since.find(ev.peer);
      if (state == membership::MemberState::kConfirmed &&
          down != down_since.end()) {
        membership_detection_latency.add(when_s -
                                         sim::to_seconds(down->second));
      }
      break;
    }
    case obs::EventKind::kFaultCrash:
      crashed.insert(ev.node);
      down_since[ev.node] = ev.at;
      break;
    case obs::EventKind::kFaultRestart:
      down_since.erase(ev.node);
      break;
    default:
      break;
  }
}

std::size_t Analyzer::inflight() const {
  return static_cast<std::size_t>(
      std::count_if(txs.begin(), txs.end(),
                     [](const auto& kv) { return kv.second.inflight(); }));
}

bool Analyzer::finalized(std::uint64_t txid) const {
  const auto it = txs.find(txid);
  return it != txs.end() && it->second.finalize_at >= 0;
}

DetectionTimes Analyzer::detection_times(
    const std::vector<bool>& faulty) const {
  DetectionTimes out;
  const std::size_t n = faulty.size();
  const auto bad = static_cast<std::size_t>(
      std::count(faulty.begin(), faulty.end(), true));
  if (bad == 0) return out;

  // For each faulty node, the first time each correct node blamed it.
  using FirstBlame = std::map<core::NodeId, std::map<core::NodeId, double>>;
  const auto first_blame = [&](const std::vector<BlameEvent>& events) {
    FirstBlame by_accused;
    for (const auto& ev : events) {
      if (ev.observer >= n || ev.accused >= n) continue;
      if (faulty[ev.observer] || !faulty[ev.accused]) continue;
      by_accused[ev.accused].emplace(ev.observer, ev.when_s);  // time-ordered
    }
    return by_accused;
  };
  // Complete once every correct node blamed every faulty one.
  const auto complete = [&](const FirstBlame& by_accused) {
    if (by_accused.size() < bad) return -1.0;
    double latest = 0.0;
    for (const auto& [accused, first] : by_accused) {
      if (first.size() < n - bad) return -1.0;
      for (const auto& [observer, t] : first) latest = std::max(latest, t);
    }
    return latest;
  };

  const FirstBlame exposures = first_blame(exposure_events);
  out.suspicion_complete_s = complete(first_blame(suspicion_events));
  out.exposure_complete_s = complete(exposures);
  if (!exposure_events.empty()) {
    double first = exposure_events.front().when_s;
    for (const auto& ev : exposure_events) first = std::min(first, ev.when_s);
    out.first_exposure_s = first;
  }
  // Per-attacker dissemination lag (paper's Fig. 6 "Exposure" measurement):
  // first to last correct node learning of it.
  if (out.exposure_complete_s >= 0) {
    double spread = 0.0;
    for (const auto& [accused, first] : exposures) {
      const auto [lo, hi] = std::minmax_element(
          first.begin(), first.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      spread = std::max(spread, hi->second - lo->second);
    }
    out.exposure_spread_s = spread;
  }
  return out;
}

}  // namespace lo::harness
