// lolint corpus: every [mutable-static] site from mutable_static.cpp, each
// carrying a well-formed allow — the fixture must lint completely clean.
#include <cstdint>

// lolint:allow(mutable-static) reason=corpus fixture exercising the annotation
extern std::uint64_t g_total_bytes;
// lolint:allow(mutable-static) reason=corpus fixture exercising the annotation
std::uint64_t g_total_msgs = 0;
static int g_retry_budget = 3;  // lolint:allow(mutable-static) reason=same-line form

struct Telemetry {
  // lolint:allow(mutable-static) reason=corpus fixture exercising the annotation
  static std::uint64_t inflight;
};

int bump() {
  // lolint:allow(mutable-static) reason=corpus fixture exercising the annotation
  static int calls = 0;
  return ++calls;
}

struct Workspace {
  std::uint64_t scratch[64];
};

Workspace& local_workspace() {
  // lolint:allow(mutable-static) reason=corpus fixture exercising the annotation
  thread_local Workspace ws;
  return ws;
}

std::uint64_t bump_epoch() {
  // lolint:allow(mutable-static) reason=corpus fixture exercising the annotation
  static thread_local std::uint64_t epoch = 0;
  return ++epoch;
}
