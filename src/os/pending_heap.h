/**
 * @file
 * PendingHeap: the one pending-work container of the discrete-event
 * core. SimScheduler keeps its events in one, and every Looper keeps
 * its MessageQueue (a PendingHeap<Message>) in another.
 *
 * Entries leave in the os/dispatch_order.h order (when, ticket):
 * earliest delivery time first, FIFO among equal times by the arrival
 * ticket push() hands out. The ticket also names the entry for take(),
 * which removes it at once, so no cancelled entry is ever left behind
 * for the head to skip.
 *
 * The binary min-heap orders 24-byte POD keys that point into a slab of
 * payloads: a sift copies keys, never a payload (a std::function
 * closure plus a tag string), and each payload is moved once in and
 * once out. push and popDue are O(log n). take is O(n): a scan for the
 * ticket, then a heap rebuild. That suits the one caller that takes,
 * the scheduler, whose pending set holds one wakeup per looper plus the
 * binder legs in flight.
 */
#ifndef RCHDROID_OS_PENDING_HEAP_H
#define RCHDROID_OS_PENDING_HEAP_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "os/dispatch_order.h"
#include "platform/time.h"

namespace rchdroid {

/** A (when, FIFO)-ordered set of pending payloads. See file comment. */
template <typename Payload>
class PendingHeap
{
  public:
    /** Arrival ticket: the FIFO tie-break and the handle take() needs.
     *  Tickets count up from 1, so 0 never names an entry. */
    using Ticket = std::uint64_t;

    /** Insert `payload` for delivery at `when`; returns its ticket. */
    Ticket
    push(SimTime when, Payload payload)
    {
        std::uint32_t slot;
        if (free_slots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back(std::move(payload));
        } else {
            slot = free_slots_.back();
            free_slots_.pop_back();
            slots_[slot].emplace(std::move(payload));
        }
        const Ticket ticket = ++last_ticket_;
        heap_.push_back(Entry{when, ticket, slot});
        std::push_heap(heap_.begin(), heap_.end(), laterThan);
        return ticket;
    }

    /** Delivery time of the head entry, if any. */
    std::optional<SimTime>
    nextWhen() const
    {
        if (heap_.empty())
            return std::nullopt;
        return heap_.front().when;
    }

    /** Remove and return the head if it is due at or before `now`. */
    std::optional<Payload>
    popDue(SimTime now)
    {
        if (heap_.empty() || heap_.front().when > now)
            return std::nullopt;
        std::pop_heap(heap_.begin(), heap_.end(), laterThan);
        return removeBack();
    }

    /**
     * Remove the entry `ticket` names, wherever it sits in the order.
     * @return its payload, or nullopt when the ticket is not pending
     *         (never issued, already popped or already taken).
     */
    std::optional<Payload>
    take(Ticket ticket)
    {
        const auto it = std::find_if(
            heap_.begin(), heap_.end(),
            [ticket](const Entry &entry) { return entry.ticket == ticket; });
        if (it == heap_.end())
            return std::nullopt;
        std::iter_swap(it, heap_.end() - 1);
        std::optional<Payload> payload = removeBack();
        std::make_heap(heap_.begin(), heap_.end(), laterThan);
        return payload;
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Visit every entry as fn(when, ticket, payload), in no set order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Entry &entry : heap_)
            fn(entry.when, entry.ticket, *slots_[entry.slot]);
    }

    /**
     * Visit every entry as fn(when, ticket, payload) in delivery order,
     * without disturbing the heap. O(n log n): the heap array's order is
     * not canonical, and the model checker fingerprints queue contents.
     */
    template <typename Fn>
    void
    forEachInOrder(Fn &&fn) const
    {
        std::vector<Entry> ordered = heap_;
        std::sort(ordered.begin(), ordered.end(), firesBefore);
        for (const Entry &entry : ordered)
            fn(entry.when, entry.ticket, *slots_[entry.slot]);
    }

  private:
    /** Heap key: delivery order + the slab slot holding the payload. */
    struct Entry
    {
        SimTime when;
        Ticket ticket;
        std::uint32_t slot;
    };

    static bool
    firesBefore(const Entry &a, const Entry &b)
    {
        return dispatch_order::firesBefore({a.when, a.ticket},
                                           {b.when, b.ticket});
    }

    /** The std heap algorithms build max-heaps; invert for a min-heap. */
    static bool
    laterThan(const Entry &a, const Entry &b)
    {
        return firesBefore(b, a);
    }

    /** Drop the last heap entry and move its payload out of the slab. */
    std::optional<Payload>
    removeBack()
    {
        const std::uint32_t slot = heap_.back().slot;
        heap_.pop_back();
        free_slots_.push_back(slot);
        return std::exchange(slots_[slot], std::nullopt);
    }

    std::vector<Entry> heap_;
    /** Payload slab; the slots listed in free_slots_ are empty. */
    std::vector<std::optional<Payload>> slots_;
    std::vector<std::uint32_t> free_slots_;
    Ticket last_ticket_ = 0;
};

} // namespace rchdroid

#endif // RCHDROID_OS_PENDING_HEAP_H
