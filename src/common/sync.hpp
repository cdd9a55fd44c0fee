// Annotated synchronization primitives — the capability-carrying
// wrappers behind every NCFN_GUARDED_BY in the tree.
//
// libstdc++'s std::mutex carries no thread-safety attributes, so
// clang's analysis cannot see a std::lock_guard acquire it. These thin
// wrappers re-export exactly the primitives the repo sanctions (a plain
// mutex, a scoped lock, a condition variable, and a zero-cost logical
// Role) with the capability annotations attached, at zero runtime cost.
// This header and the worker pool are the only files allowed to name
// the std primitives directly (ncfn-lint raw-thread rule); everything
// else locks through common::Mutex so the `analyze` preset can prove
// lock discipline at compile time.
//
// NCFN_NO_THREAD_SAFETY_ANALYSIS appears ONLY here, on the bodies that
// bridge into the un-annotated standard library; the annotations on the
// declarations are what user code is checked against.
#pragma once

#include <condition_variable>  // ncfn-lint: allow(raw-thread) — sanctioned primitive home
#include <mutex>  // ncfn-lint: allow(raw-thread) — sanctioned primitive home

#include "common/thread_annotations.hpp"

namespace ncfn::common {

/// An annotated std::mutex. Lock it through MutexLock; bare
/// lock()/unlock() exist for the pool's structured scopes and for
/// CondVar, which needs a BasicLockable.
class NCFN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NCFN_ACQUIRE() { mu_.lock(); }
  void unlock() NCFN_RELEASE() { mu_.unlock(); }
  bool try_lock() NCFN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tell the analysis this thread holds the mutex (checked only by the
  /// caller's reasoning, not at runtime). Prefer structured MutexLock
  /// scopes; this exists for call paths the analysis cannot follow.
  void assert_held() const NCFN_ASSERT_CAPABILITY(this) {}

 private:
  // ncfn-lint: allow(raw-thread) — the one sanctioned std::mutex
  std::mutex mu_;  // ncfn-lint: allow(mutex-unannotated) — wrapper storage, nothing to guard
};

/// RAII lock with the std::lock_guard shape, visible to the analysis as
/// a scoped capability: the constructor acquires, the destructor
/// releases, and guarded fields are accessible for exactly the scope.
class NCFN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NCFN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NCFN_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over common::Mutex. wait() requires the mutex
/// held (the analysis enforces it at every call site) and is the
/// bare-wait building block: ALWAYS call it from a predicate loop —
///     while (!ready) cv.wait(mu);
/// ncfn-lint's cv-wait-no-predicate rule flags naked waits that are not
/// wrapped this way.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and re-acquire before returning.
  /// Spurious wakeups happen; re-check the predicate (see class doc).
  void wait(Mutex& mu) NCFN_REQUIRES(mu) NCFN_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu);  // ncfn-lint: allow(cv-wait-no-predicate) — the predicate loop lives at the annotated call site
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // _any: waits on any BasicLockable, so it can release common::Mutex
  // directly instead of forcing an std::unique_lock the analysis
  // cannot see through.
  // ncfn-lint: allow(raw-thread) — the one sanctioned condition variable
  std::condition_variable_any cv_;
};

/// A phantom capability naming a LOGICAL ownership domain — no lock at
/// runtime, zero bytes of behavior. The scenario runner transfers
/// shard ownership structurally (lane k % W builds and runs shard k;
/// after the pool barrier the caller owns all of them), so there is no
/// mutex for the analysis to track. Instead the
/// shard's fields are NCFN_GUARDED_BY(owner) and every code path that
/// legitimately holds the domain states so with assert_held(): the
/// compiler then rejects any NEW code path that touches shard state
/// without declaring how it came to own it.
class NCFN_CAPABILITY("role") Role {
 public:
  Role() = default;
  Role(const Role&) = delete;
  Role& operator=(const Role&) = delete;

  /// Caller asserts it owns the domain (it is the lane the barrier
  /// handed this state to, or the single post-barrier thread).
  void assert_held() const NCFN_ASSERT_CAPABILITY(this) {}
};

}  // namespace ncfn::common
