// Clang Thread Safety Analysis attribute macros.
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
