#include "obs/profile.hpp"

#include "obs/metrics.hpp"

namespace lo::obs {

const char* profile_site_name(ProfileSite s) noexcept {
  switch (s) {
    case ProfileSite::kEd25519Verify: return "ed25519_verify";
    case ProfileSite::kEd25519Sign: return "ed25519_sign";
    case ProfileSite::kSketchDecode: return "sketch_decode";
    case ProfileSite::kSketchAddAll: return "sketch_add_all";
    case ProfileSite::kReconcileRound: return "reconcile_round";
    case ProfileSite::kVerifyCacheProbe: return "verify_cache_probe";
    case ProfileSite::kCount: break;
  }
  return "unknown";
}

namespace profile {

// lolint:allow(mutable-static) reason=process-global profile table for hooks in layers (crypto, gf) that know no simulation; written only while profiling is on, which only single-threaded runs turn on
bool g_enabled = false;
// lolint:allow(mutable-static) reason=process-global profile table for hooks in layers (crypto, gf) that know no simulation; written only while profiling is on, which only single-threaded runs turn on
std::array<ProfileCounters, static_cast<std::size_t>(ProfileSite::kCount)>
    g_counters{};

void set_enabled(bool on) noexcept { g_enabled = on; }

bool enabled() noexcept { return g_enabled; }

void reset() noexcept { g_counters.fill(ProfileCounters{}); }

ProfileCounters counters(ProfileSite s) noexcept {
  return g_counters[static_cast<std::size_t>(s)];
}

void publish(Registry& reg) {
  for (std::size_t i = 0; i < g_counters.size(); ++i) {
    const auto site = static_cast<ProfileSite>(i);
    const Labels labels{{"site", profile_site_name(site)}};
    reg.counter("profile.calls", labels) = g_counters[i].calls;
    reg.counter("profile.items", labels) = g_counters[i].items;
  }
}

}  // namespace profile
}  // namespace lo::obs
