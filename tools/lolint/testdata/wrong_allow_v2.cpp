// lolint corpus: a well-formed allow naming a *sibling* v2 rule does not
// suppress — the thread_local's mutable-static finding must survive the
// hot-path-alloc allow, and no bad-allow may appear (the annotation itself is
// valid).
struct Workspace {
  int scratch;
};

Workspace& local_workspace() {
  // lolint:allow(hot-path-alloc) reason=names the wrong rule on purpose
  thread_local Workspace ws;
  return ws;
}
