#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

/** One counter per thread slot, each on its own cache line, so threads
 * counting at once do not contend. */
constexpr unsigned kShards = 16;

struct alignas(64) Shard
{
    std::atomic<std::uint64_t> count{0};
};

Shard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};

void
countAllocation()
{
    thread_local const unsigned shard =
        g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
    g_shards[shard].count.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

namespace rchdroid::bench {

std::uint64_t
allocationCount()
{
    std::uint64_t total = 0;
    for (const Shard &shard : g_shards)
        total += shard.count.load(std::memory_order_relaxed);
    return total;
}

} // namespace rchdroid::bench

// The standard library's array and nothrow forms call this one, and its
// operator delete frees with std::free.
void *
operator new(std::size_t size)
{
    countAllocation();
    for (;;) {
        if (void *memory = std::malloc(size == 0 ? 1 : size))
            return memory;
        const std::new_handler handler = std::get_new_handler();
        if (handler == nullptr)
            throw std::bad_alloc();
        handler();
    }
}

void
operator delete(void *memory) noexcept
{
    std::free(memory);
}

void
operator delete(void *memory, std::size_t) noexcept
{
    std::free(memory);
}
