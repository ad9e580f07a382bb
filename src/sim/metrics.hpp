// Lightweight metric collectors shared by experiments and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace lo::sim {

// A bag of scalar samples with summary statistics and a fixed-bin histogram
// (used for the Fig. 7 latency density plot).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  // Linear-interpolated percentile, q in [0, 1].
  double percentile(double q) const;

  struct HistogramBin {
    double lo;
    double hi;
    std::size_t count;
    double density;  // count / (total * width)
  };
  std::vector<HistogramBin> histogram(std::size_t bins, double lo, double hi) const;

  // Log-bucketed histogram of the same samples (obs::LogHistogram buckets:
  // exponent e spans [2^e, 2^(e+1)), v <= 0 in a dedicated bucket). Keeps the
  // latency *tails* resolvable where the fixed-bin histogram clips at `hi`.
  obs::LogHistogram histogram_log() const;

  // Appends the other bag's samples (per-node bags -> one global
  // distribution before computing percentiles).
  void merge(const Samples& other);

  const std::vector<double>& values() const noexcept { return values_; }
  void clear() noexcept { values_.clear(); }
  bool operator==(const Samples&) const = default;

 private:
  std::vector<double> values_;
};

}  // namespace lo::sim
