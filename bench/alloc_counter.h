/**
 * @file
 * Heap allocation counting for bench_mc: alloc_counter.cc replaces the
 * global operator new with one that counts its calls and forwards to
 * malloc. Only bench_mc links it; the test binaries keep the standard
 * allocator (and the sanitizers' own).
 */
#ifndef RCHDROID_BENCH_ALLOC_COUNTER_H
#define RCHDROID_BENCH_ALLOC_COUNTER_H

#include <cstdint>

namespace rchdroid::bench {

/** operator new calls since the process started, on every thread. */
std::uint64_t allocationCount();

} // namespace rchdroid::bench

#endif // RCHDROID_BENCH_ALLOC_COUNTER_H
