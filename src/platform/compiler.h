/**
 * @file
 * Compiler-specific attribute shims.
 */
#ifndef RCHDROID_PLATFORM_COMPILER_H
#define RCHDROID_PLATFORM_COMPILER_H

/**
 * Disable -fsanitize=null instrumentation for one function.
 *
 * Applied to the tiny accessors that read/write the simulator's
 * thread-local seams (Looper::current_, obs::detail::g_head, the
 * log quiet flag). The address of a thread_local can never be null, so
 * the check is vacuous — and GCC 12 miscompiles it: the address test
 * is emitted as `lea` (which leaves EFLAGS untouched) followed by a
 * conditional jump, so the branch consumes stale flags from whatever
 * compare preceded it. For a constant-initialized extern thread_local
 * the preceding compare is `cmp $0, _ZTH...@GOT` (null — no dynamic
 * init exists), making the bogus "null pointer load" fire every time.
 */
#if defined(RCHDROID_SANITIZING) && defined(__GNUC__) && !defined(__clang__)
// noinline matters: GCC drops the attribute when it inlines the accessor
// into an instrumented caller, re-adding the broken check at the use site.
// Only sanitized builds pay the call; plain builds keep the accessors
// inline (the define comes from the RCHDROID_SANITIZE CMake preset).
#define RCHDROID_NO_SANITIZE_NULL __attribute__((no_sanitize("null"), noinline))
#elif defined(RCHDROID_SANITIZING) && defined(__clang__)
#define RCHDROID_NO_SANITIZE_NULL __attribute__((no_sanitize("null")))
#else
#define RCHDROID_NO_SANITIZE_NULL
#endif

#endif // RCHDROID_PLATFORM_COMPILER_H
