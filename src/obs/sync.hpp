// Annotated mutex for the observability layer.
//
// obs::Mutex is a std::mutex carrying the Clang capability attribute, and
// MutexLock is the scoped guard the thread-safety analysis understands. The
// simulator is single-threaded, so inside one run every acquisition is
// uncontended; the lock guards Registry/Tracer state for callers that share
// a registry across threads (Registry::merge aggregation, DESIGN.md §4d).
//
// Locking stays out of the per-event hot paths: Registry hands out stable
// cell addresses once (registration locks, bumps do not — single-writer by
// design), and Tracer::emit is one predictable branch while disabled.
#pragma once

#include <mutex>

#include "util/thread_annotations.hpp"

namespace lo::obs {

class LO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LO_ACQUIRE() { mu_.lock(); }
  void unlock() LO_RELEASE() { mu_.unlock(); }
  bool try_lock() LO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

class LO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() LO_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace lo::obs
