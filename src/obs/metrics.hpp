// Deterministic metrics registry (observability layer, part 1).
//
// Named, labeled counters / gauges / log-bucketed histograms with stable cell
// addresses, per-node scopes (label-prefixed views), snapshot/rollup for
// per-node -> global aggregation, and one export format, JSON.
//
// Determinism rules (lolint-enforced for all of src/obs/): no wall clocks and
// no unordered-container iteration. Cells live in a std::map keyed by the
// canonical metric id, so every export, snapshot and rollup walks in
// lexicographic order and same-seed runs produce byte-identical files.
//
// Cell addresses are stable (std::map nodes), so hot paths hold a
// std::uint64_t* / double* handle obtained once at registration and pay a
// single increment per event — no string formatting or lookups on the fast
// path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lo::obs {

// Label set as (key, value) pairs; canonicalization sorts by key and rejects
// duplicates, so insertion order never leaks into the exported id.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical metric id: "name{k1=v1,k2=v2}" with label keys sorted (bare
// "name" when unlabeled). Throws std::invalid_argument on empty names,
// duplicate keys, or reserved characters ('{', '}', ',', '=', '"', newline)
// that would make the id ambiguous to parse back.
std::string metric_id(std::string_view name, const Labels& labels);

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* metric_kind_name(MetricKind k) noexcept;

// Log-bucketed histogram: bucket e counts values v with 2^e <= v < 2^(e+1)
// (via frexp, exact for the full double range — no accumulated widths), plus
// a dedicated bucket for v <= 0. Geometric buckets keep the latency *tails*
// resolvable with O(64) buckets where fixed bins either clip or blur them.
class LogHistogram {
 public:
  // Bucket key for samples <= 0 (log buckets only cover v > 0).
  static constexpr int kZeroBucket = -1075;  // below the smallest denormal exp

  void observe(double v);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  // Bucket exponent e -> count; bucket e spans [2^e, 2^(e+1)).
  const std::map<int, std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

  // Approximate quantile (q in [0, 1]) from the bucket boundaries: walks the
  // cumulative counts and returns the geometric midpoint 2^(e + 0.5) of the
  // bucket holding the q-th sample, clamped to [min, max]. Error is bounded
  // by one octave — good enough for tail reporting, not for asserting exact
  // values.
  double quantile(double q) const;

  void merge(const LogHistogram& other);
  void clear();

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<int, std::uint64_t> buckets_;
};

class Registry {
 public:
  struct Cell {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    LogHistogram hist;
  };
  // A snapshot is a value copy of the cell map: cheap to take mid-run,
  // foldable offline (rollup), and exactly what the exporters consume.
  using Snapshot = std::map<std::string, Cell>;

  // Get-or-create. References stay valid for the registry's lifetime
  // (std::map node stability); re-registering with a different kind under the
  // same id throws std::invalid_argument. Each simulation owns its registry
  // (obs::Hub), so a cell is written only by the simulation that owns it.
  std::uint64_t& counter(std::string_view name, const Labels& labels = {});
  double& gauge(std::string_view name, const Labels& labels = {});
  LogHistogram& histogram(std::string_view name, const Labels& labels = {});

  bool contains(std::string_view name, const Labels& labels = {}) const;
  std::size_t size() const;
  Snapshot snapshot() const;
  void clear();

  // JSON ({"context": {...}, "metrics": [...]}), walking the cell map in
  // key order: byte-identical across same-seed runs. write_json returns
  // false (and prints to stderr) on I/O failure so smoke runs notice a
  // missing artifact.
  std::string to_json(std::string_view suite = "lo_obs") const;
  bool write_json(const std::string& path,
                  std::string_view suite = "lo_obs") const;

 private:
  Cell& cell(std::string_view name, const Labels& labels, MetricKind kind);

  Snapshot cells_;
};

// The "global scope" view of a labeled snapshot: strips labels and sums
// same-named cells (e.g. "lo.retries{node=3}" and "lo.retries{node=7}" fold
// into "lo.retries"): counters and histogram buckets add, and gauges add
// (the aggregate of per-node gauges is their sum, e.g. total mempool size).
// Kind conflicts across a name throw.
Registry::Snapshot rollup(const Registry::Snapshot& snap);

// A label-scoped view of a registry: every metric created through the scope
// carries the scope's labels (e.g. {node=3}) plus any call-site extras. A
// default-constructed Scope is detached — it lazily owns a private registry
// so instrumented components work unconditionally (their metrics just stay
// local until someone attaches them to a shared registry).
class Scope {
 public:
  Scope() = default;
  Scope(Registry* reg, Labels labels)
      : reg_(reg), labels_(std::move(labels)) {}

  bool attached() const noexcept { return reg_ != nullptr; }
  const Labels& labels() const noexcept { return labels_; }

  std::uint64_t& counter(std::string_view name, const Labels& extra = {}) {
    return registry().counter(name, merged(extra));
  }
  double& gauge(std::string_view name, const Labels& extra = {}) {
    return registry().gauge(name, merged(extra));
  }
  LogHistogram& histogram(std::string_view name, const Labels& extra = {}) {
    return registry().histogram(name, merged(extra));
  }

  Registry& registry();

 private:
  Labels merged(const Labels& extra) const;

  Registry* reg_ = nullptr;
  Labels labels_;
  // Fallback storage for detached scopes; shared so Scope copies alias the
  // same cells (handles handed out before a copy stay coherent).
  std::shared_ptr<Registry> fallback_;
};

}  // namespace lo::obs
