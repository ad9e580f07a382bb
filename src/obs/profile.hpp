// Zero-cost-when-disabled scoped profiling hooks (observability layer,
// part 4).
//
// Hot paths (Ed25519 verify, sketch decode, reconcile rounds) are annotated
// with ScopedProfile markers that count calls and work items into a global
// fixed-size table. The counters are *deterministic* — they count work, not
// time (no clocks anywhere in src/obs/; lolint enforces it) — so profiling
// can stay on in determinism tests. When disabled (the default) the entire
// cost is one load + predictable branch per site. e2ebench's untraced runs
// pay exactly that, so a slower disabled path shows as a lower `sim_speed`
// on every workload; its traced run measures the enabled cost
// (`obs.trace_ns_per_event`, `obs.trace_setup_s`).
//
// The table is process-global rather than per-registry because the hooks sit
// in layers (crypto, gf) that know nothing about which simulation is
// running; publish() copies the table into a Registry for export.
#pragma once

#include <array>
#include <cstdint>

namespace lo::obs {

class Registry;

enum class ProfileSite : std::size_t {
  kEd25519Verify = 0,
  kEd25519Sign,
  kSketchDecode,
  kSketchAddAll,
  kReconcileRound,
  kVerifyCacheProbe,
  kCount,
};

const char* profile_site_name(ProfileSite s) noexcept;

struct ProfileCounters {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  // site-defined work units (bytes, elements, ...)
};

namespace profile {

// lolint:allow(mutable-static) reason=process-global profile table for hooks in layers (crypto, gf) that know no simulation; it counts work and feeds no protocol decision, and a caller that reads it resets it around the one simulation it measures
extern bool g_enabled;
// lolint:allow(mutable-static) reason=process-global profile table for hooks in layers (crypto, gf) that know no simulation; it counts work and feeds no protocol decision, and a caller that reads it resets it around the one simulation it measures
extern std::array<ProfileCounters,
                  static_cast<std::size_t>(ProfileSite::kCount)>
    g_counters;

inline void hit(ProfileSite s, std::uint64_t items = 1) noexcept {
  if (!g_enabled) return;  // the entire cost when profiling is off
  auto& c = g_counters[static_cast<std::size_t>(s)];
  ++c.calls;
  c.items += items;
}

void set_enabled(bool on) noexcept;
bool enabled() noexcept;
void reset() noexcept;
ProfileCounters counters(ProfileSite s) noexcept;

// Copies the table into `reg` as profile.calls{site=...} /
// profile.items{site=...} counters (cumulative totals, idempotent via
// assignment rather than addition).
void publish(Registry& reg);

}  // namespace profile

// RAII marker: charges the site on destruction, so a scope with early
// returns is counted exactly once, after the work it measures.
class ScopedProfile {
 public:
  explicit ScopedProfile(ProfileSite site, std::uint64_t items = 1) noexcept
      : site_(site), items_(items) {}
  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;
  ~ScopedProfile() { profile::hit(site_, items_); }

  void add_items(std::uint64_t n) noexcept { items_ += n; }

 private:
  ProfileSite site_;
  std::uint64_t items_;
};

}  // namespace lo::obs
