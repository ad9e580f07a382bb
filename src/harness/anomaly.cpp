#include "harness/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lo::harness {

const char* anomaly_kind_name(AnomalyKind k) noexcept {
  switch (k) {
    case AnomalyKind::kCensorDwell: return "censor_dwell";
    case AnomalyKind::kSuspicionSpike: return "suspicion_spike";
    case AnomalyKind::kReconcileFailure: return "reconcile_failure";
    case AnomalyKind::kCommitLatencySlo: return "commit_latency_slo";
  }
  return "unknown";
}

AnomalyMonitor::AnomalyMonitor(sim::Simulator& sim, const AnomalyConfig& cfg)
    : sim_(sim), cfg_(cfg) {
  auto& reg = sim_.obs().registry;
  c_alerts_[0] = &reg.counter("lo.anomaly.alerts");
  c_alerts_[static_cast<std::size_t>(AnomalyKind::kCensorDwell)] =
      &reg.counter("lo.anomaly.alerts", {{"kind", "censor_dwell"}});
  c_alerts_[static_cast<std::size_t>(AnomalyKind::kSuspicionSpike)] =
      &reg.counter("lo.anomaly.alerts", {{"kind", "suspicion_spike"}});
  c_alerts_[static_cast<std::size_t>(AnomalyKind::kReconcileFailure)] =
      &reg.counter("lo.anomaly.alerts", {{"kind", "reconcile_failure"}});
  c_alerts_[static_cast<std::size_t>(AnomalyKind::kCommitLatencySlo)] =
      &reg.counter("lo.anomaly.alerts", {{"kind", "commit_latency_slo"}});
}

void AnomalyMonitor::start(const Analyzer& analyzer) {
  if (analyzer_ != nullptr) return;
  analyzer_ = &analyzer;
  seen_suspicions_ = analyzer.suspicion_events.size();
  seen_reconcile_ok_ = analyzer.reconciles_ok;
  seen_reconcile_fail_ = analyzer.reconciles_failed;
  seen_settles_ = analyzer.settle_latency.count();
  period_ = std::max<sim::Duration>(
      1, sim::from_seconds(std::max(cfg_.tick_interval_s, 1e-6)));
  schedule_tick();
}

// Self-rescheduling coordinator timer, exactly like the invariant checker.
void AnomalyMonitor::schedule_tick() {
  sim_.schedule(period_, [this] {
    tick();
    schedule_tick();
  });
}

void AnomalyMonitor::raise(AnomalyKind kind, double value, double threshold,
                           std::string detail) {
  const double now_s = sim::to_seconds(sim_.now());
  ++*c_alerts_[0];
  ++*c_alerts_[static_cast<std::size_t>(kind)];
  // kAnomaly rides the trace stream: peer = detector kind, a/b = observed
  // value / threshold in milli-units (integers keep the wire deterministic).
  sim_.obs().tracer.emit(
      obs::EventKind::kAnomaly, 0, static_cast<std::uint32_t>(kind),
      static_cast<std::uint64_t>(std::llround(value * 1000.0)),
      static_cast<std::uint64_t>(std::llround(threshold * 1000.0)));
  alerts_.push_back(Alert{kind, now_s, value, threshold, std::move(detail)});
}

void AnomalyMonitor::tick() {
  const double now_s = sim::to_seconds(sim_.now());

  // censor-dwell: scan the submitted, unsettled txs in short-id order;
  // alert once per tx. raise() emits an event the analyzer ignores, so the
  // scan's iterators stay valid.
  for (const auto& [tid, tx] : analyzer_->txs) {
    if (!tx.inflight()) continue;
    const double dwell_s = now_s - sim::to_seconds(tx.submit_at);
    if (dwell_s < cfg_.censor_dwell_threshold_s) continue;
    if (!dwell_alerted_.insert(tid).second) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "tx %016llx unsettled for %.3fs",
                  static_cast<unsigned long long>(tid), dwell_s);
    raise(AnomalyKind::kCensorDwell, dwell_s, cfg_.censor_dwell_threshold_s,
          buf);
  }

  // suspicion-spike.
  const std::size_t suspicions = analyzer_->suspicion_events.size();
  const std::uint64_t window_suspicions = suspicions - seen_suspicions_;
  if (window_suspicions > cfg_.suspicion_spike_threshold) {
    raise(AnomalyKind::kSuspicionSpike, static_cast<double>(window_suspicions),
          static_cast<double>(cfg_.suspicion_spike_threshold),
          std::to_string(window_suspicions) + " suspicions in one tick");
  }

  // reconcile-fail.
  const std::uint64_t ok = analyzer_->reconciles_ok;
  const std::uint64_t fail = analyzer_->reconciles_failed;
  const std::uint64_t window_fail = fail - seen_reconcile_fail_;
  const std::uint64_t total = ok - seen_reconcile_ok_ + window_fail;
  if (total >= cfg_.reconcile_min_samples) {
    const double ratio =
        static_cast<double>(window_fail) / static_cast<double>(total);
    if (ratio >= cfg_.reconcile_failure_ratio) {
      raise(AnomalyKind::kReconcileFailure, ratio,
            cfg_.reconcile_failure_ratio,
            std::to_string(window_fail) + "/" + std::to_string(total) +
                " sketch decodes overflowed");
    }
  }

  // commit-slo: nearest-rank p95 over the window's settle latencies.
  const auto& settles = analyzer_->settle_latency.values();
  if (seen_settles_ < settles.size()) {
    std::vector<double> sorted(
        settles.begin() + static_cast<std::ptrdiff_t>(seen_settles_),
        settles.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(0.95 * static_cast<double>(sorted.size()))));
    const double p95 = sorted[rank - 1];
    if (p95 > cfg_.commit_latency_slo_s) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "settle p95 %.3fs over %zu tx(s)", p95,
                    sorted.size());
      raise(AnomalyKind::kCommitLatencySlo, p95, cfg_.commit_latency_slo_s,
            buf);
    }
  }

  seen_suspicions_ = suspicions;
  seen_reconcile_ok_ = ok;
  seen_reconcile_fail_ = fail;
  seen_settles_ = settles.size();
}

}  // namespace lo::harness
