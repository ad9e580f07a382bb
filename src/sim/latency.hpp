// Network latency models.
//
// The paper emulates realistic latencies with netem and ping statistics from
// 32 cities of the WonderNetwork dataset, assigning miners to cities
// round-robin (Sec. 6.1). That dataset is not available offline, so
// CityLatencyModel substitutes a great-circle-distance model over 32 real
// city coordinates: one-way latency = distance / (0.66 c) * route_factor
// + last-mile constant, plus lognormal jitter per message. This preserves the
// relevant property — heterogeneous pairwise latencies from ~1 ms to
// ~300 ms RTT with geographic clustering (see DESIGN.md, substitution 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lo::sim {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  // One-way delivery latency in microseconds for a message from a to b.
  virtual std::int64_t latency_us(std::uint32_t from, std::uint32_t to,
                                  util::Rng& rng) = 0;
};

class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(std::int64_t us) : us_(us) {}
  std::int64_t latency_us(std::uint32_t, std::uint32_t, util::Rng&) override {
    return us_;
  }

 private:
  std::int64_t us_;
};

class CityLatencyModel final : public LatencyModel {
 public:
  // jitter_frac: lognormal jitter multiplier sigma (0 disables jitter).
  explicit CityLatencyModel(double jitter_frac = 0.05);

  std::int64_t latency_us(std::uint32_t from, std::uint32_t to,
                          util::Rng& rng) override;

  static std::size_t city_count() noexcept;
  static std::string city_name(std::size_t i);
  // Base one-way latency between two cities, microseconds, no jitter.
  std::int64_t base_us(std::size_t city_a, std::size_t city_b) const;

 private:
  std::vector<std::int64_t> matrix_;  // city_count x city_count, one-way us
  double jitter_frac_;
};

}  // namespace lo::sim
