// Clang thread-safety analysis macros (no-ops on GCC/MSVC).
//
// These wrap clang's -Wthread-safety attributes so the locking contracts
// (the obs registry's barrier-published totals, the FedEt eval mutex, the
// thread-pool queue) are compiler-checked invariants
// instead of comments: a clang build with `-Wthread-safety
// -Werror=thread-safety` (added automatically when CMake detects clang,
// exercised by `tools/check.sh --wthread-safety`) refuses to compile code
// that touches an MHB_GUARDED_BY field without holding its mutex.
//
// Annotations attach to the *capability type*, so they only bite when used
// with core::Mutex / core::MutexLock (core/mutex.h), not raw std::mutex —
// libstdc++'s std::mutex carries no capability attributes.  Conventions in
// DESIGN.md §5f.
#pragma once

#if defined(__clang__)
#define MHB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MHB_THREAD_ANNOTATION(x)  // not clang: analysis unavailable
#endif

// On a class: instances are a lockable capability ("mutex").
#define MHB_CAPABILITY(x) MHB_THREAD_ANNOTATION(capability(x))

// On a class: RAII object that acquires in its ctor, releases in its dtor.
#define MHB_SCOPED_CAPABILITY MHB_THREAD_ANNOTATION(scoped_lockable)

// On a data member: reads/writes require holding `x`.
#define MHB_GUARDED_BY(x) MHB_THREAD_ANNOTATION(guarded_by(x))

// On a pointer member: the *pointee* is protected by `x`.
#define MHB_PT_GUARDED_BY(x) MHB_THREAD_ANNOTATION(pt_guarded_by(x))

// On a function: caller must hold the capability (e.g. private *Locked()
// helpers called under the lock).
#define MHB_REQUIRES(...) \
  MHB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// On a function: acquires / releases the capability.
#define MHB_ACQUIRE(...) \
  MHB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MHB_RELEASE(...) \
  MHB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// On a function: caller must NOT hold the capability (deadlock guard for
// functions that take the lock themselves).
#define MHB_EXCLUDES(...) MHB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On a function: returns a reference to a capability-protected object.
#define MHB_RETURN_CAPABILITY(x) MHB_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for functions whose safety argument the analysis cannot see
// (serial-phase accessors, owner-thread-only data).  Every use must carry a
// comment saying why it is safe.
#define MHB_NO_THREAD_SAFETY_ANALYSIS \
  MHB_THREAD_ANNOTATION(no_thread_safety_analysis)
