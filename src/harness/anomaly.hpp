// AnomalyMonitor — online accountability anomaly detection over the event
// analyzer (harness/analyzer.hpp, DESIGN.md §5). Four streaming detectors
// run on a fixed tick:
//
//   censor-dwell     a submitted transaction has been in flight (no settle)
//                    longer than the dwell watermark — the primary online
//                    symptom of mempool censorship;
//   suspicion-spike  more new suspicions landed in one tick window than the
//                    churn threshold — an accountability storm in progress;
//   reconcile-fail   the sketch-decode failure ratio over a tick window
//                    exceeded the configured bound — reconciliation is
//                    operating past its capacity;
//   commit-slo       the p95 submit->settle latency of the tick window
//                    breached the commit-latency SLO.
//
// Each tick reads the analyzer's tx table (in short-id order) and the part
// of its running counts that arrived since the previous tick. The analyzer
// is fed by the network's tracer sink; the tick is an ordinary coordinator
// timer, and the only place the monitor emits trace events — so the alert
// stream, the lo.anomaly.* counters and the kAnomaly trace events are
// byte-identical on same-seed replay.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness/analyzer.hpp"
#include "sim/simulator.hpp"

namespace lo::harness {

struct AnomalyConfig {
  double tick_interval_s = 1.0;
  // censor-dwell: alert when a tx stays unsettled this long (once per tx).
  double censor_dwell_threshold_s = 30.0;
  // suspicion-spike: alert when one tick window sees more new suspicions.
  std::uint64_t suspicion_spike_threshold = 16;
  // reconcile-fail: alert when fail/(ok+fail) >= ratio with enough samples.
  double reconcile_failure_ratio = 0.5;
  std::uint64_t reconcile_min_samples = 8;
  // commit-slo: alert when the window's p95 settle latency exceeds this.
  double commit_latency_slo_s = 10.0;
};

enum class AnomalyKind : std::uint32_t {
  kCensorDwell = 1,
  kSuspicionSpike = 2,
  kReconcileFailure = 3,
  kCommitLatencySlo = 4,
};

const char* anomaly_kind_name(AnomalyKind k) noexcept;

struct Alert {
  AnomalyKind kind;
  double when_s = 0.0;
  double value = 0.0;      // observed statistic
  double threshold = 0.0;  // configured bound it crossed
  std::string detail;      // human-readable one-liner
  bool operator==(const Alert&) const = default;
};

class AnomalyMonitor {
 public:
  AnomalyMonitor(sim::Simulator& sim, const AnomalyConfig& cfg);

  // Arms the recurring tick (coordinator timer) over `analyzer`, which must
  // outlive the monitor. The first window starts now. Call once.
  void start(const Analyzer& analyzer);

  const std::vector<Alert>& alerts() const noexcept { return alerts_; }

 private:
  void schedule_tick();
  void tick();
  void raise(AnomalyKind kind, double value, double threshold,
             std::string detail);

  sim::Simulator& sim_;
  AnomalyConfig cfg_;
  const Analyzer* analyzer_ = nullptr;  // set by start()
  sim::Duration period_ = 0;

  std::set<std::uint64_t> dwell_alerted_;  // one dwell alert per tx

  // The analyzer's running counts at the previous tick: a window is what
  // arrived since.
  std::size_t seen_suspicions_ = 0;
  std::uint64_t seen_reconcile_ok_ = 0;
  std::uint64_t seen_reconcile_fail_ = 0;
  std::size_t seen_settles_ = 0;

  std::vector<Alert> alerts_;

  // lo.anomaly.* counters (single-writer: coordinator only).
  std::uint64_t* c_alerts_[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
};

}  // namespace lo::harness
