// lolint corpus: mutable process-global state fires [mutable-static] at
// namespace scope, for extern declarations, for class-level statics and for
// function-local statics and thread_locals (`static thread_local` counts
// once, not once per storage keyword). Constants stay silent.
#include <cstdint>

extern std::uint64_t g_total_bytes;  // fires: extern mutable declaration
std::uint64_t g_total_msgs = 0;      // fires: namespace-scope global
static int g_retry_budget = 3;       // fires: internal-linkage global
constexpr int kWindow = 16;          // silent: constant
const int kDepth = 4;                // silent: constant

struct Telemetry {
  static std::uint64_t inflight;   // fires: class-level static
  static constexpr int kMax = 8;   // silent: constant
  int local_counter = 0;           // silent: plain instance member
};

int bump() {
  static int calls = 0;       // fires: function-local mutable static
  static const int base = 7;  // silent: function-local constant
  return ++calls + base;
}

struct Workspace {
  std::uint64_t scratch[64];
};

Workspace& local_workspace() {
  thread_local Workspace ws;  // fires: shared by every simulation on the thread
  return ws;
}

std::uint64_t bump_epoch() {
  static thread_local std::uint64_t epoch = 0;  // fires exactly once
  return ++epoch;
}
