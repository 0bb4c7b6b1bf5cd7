// Clang Thread Safety Analysis attribute macros, plus the repo's own
// static-contract markers.
//
// Under clang, -Wthread-safety turns GUARDED_BY/REQUIRES/ACQUIRE/...
// into *compile-time* lock-discipline checking: accessing a
// MFA_GUARDED_BY(mu) member without holding `mu`, or calling a
// MFA_REQUIRES(mu) function from an unlocked context, is a build error
// in CI (-Werror=thread-safety). Under every other compiler the macros
// expand to nothing, so gcc builds are unaffected.
//
// The annotations only bite on capability-annotated types: use
// mfa::Mutex / mfa::LockGuard / mfa::CondVar (support/mutex.hpp), never
// raw std::mutex (mfa_lint rule mutex-hygiene enforces this outside the
// wrapper itself).
//
// MFA_WARM_PATH is *not* a compiler attribute: it marks functions on
// the steady-state event path (AllocServer numeric-event dispatch →
// CompositeBuilder coefficient/RHS deltas) that must not allocate.
// tools/mfa_lint walks the lexical call graph from every MFA_WARM_PATH
// function and rejects reachable allocating calls (rule
// warm-path-alloc) — the static face of the zero-allocation gate, next
// to the runtime `service_churn --check` gate.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define MFA_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MFA_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define MFA_CAPABILITY(x) MFA_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type that acquires on construction / releases on
/// destruction (LockGuard).
#define MFA_SCOPED_CAPABILITY MFA_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define MFA_GUARDED_BY(x) MFA_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x` (the pointer itself
/// may be read freely).
#define MFA_PT_GUARDED_BY(x) MFA_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering edges (deadlock detection).
#define MFA_ACQUIRED_BEFORE(...) \
  MFA_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define MFA_ACQUIRED_AFTER(...) \
  MFA_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function precondition: the caller must hold the capabilities
/// (exclusively / shared).
#define MFA_REQUIRES(...) \
  MFA_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define MFA_REQUIRES_SHARED(...) \
  MFA_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires/releases the capabilities (must not already hold /
/// must hold them).
#define MFA_ACQUIRE(...) \
  MFA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define MFA_ACQUIRE_SHARED(...) \
  MFA_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define MFA_RELEASE(...) \
  MFA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define MFA_RELEASE_SHARED(...) \
  MFA_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function tries to acquire and reports success as `ret`.
#define MFA_TRY_ACQUIRE(...) \
  MFA_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function must be called *without* the capabilities held (it acquires
/// them itself — the public-API side of a REQUIRES helper).
#define MFA_EXCLUDES(...) MFA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trusted by analysis).
#define MFA_ASSERT_CAPABILITY(x) \
  MFA_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define MFA_RETURN_CAPABILITY(x) MFA_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch. Allowed only at documented callback boundaries — every
/// use must carry a comment explaining why the analysis cannot see the
/// invariant (mfa_lint does not count these, but reviewers do).
#define MFA_NO_THREAD_SAFETY_ANALYSIS \
  MFA_THREAD_ANNOTATION__(no_thread_safety_analysis)

/// Marks a function as part of the steady-state (warm) event path: no
/// allocation may be reachable from it through the in-tree call graph.
/// Checked by tools/mfa_lint (rule warm-path-alloc), not by the
/// compiler. There is an `allow(...)`-comment suppression syntax for
/// deliberate cold branches, but src/ must stay suppression-free for
/// this rule (CI runs mfa_lint --forbid-suppression warm-path-alloc):
/// restructure so sizing happens at setup instead — see
/// service::CompositeBuilder::reprioritize, which only stores into
/// kernel slots sized when the pipeline was added. The runtime
/// half of the same contract is support/alloc_count.hpp's counting
/// interposer, gated by bench/service_churn --check.
#define MFA_WARM_PATH
