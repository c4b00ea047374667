#include "os/message_queue.h"

#include <algorithm>

#include "platform/logging.h"

namespace rchdroid {

void
MessageQueue::enqueue(Message msg)
{
    RCH_ASSERT(msg.callback != nullptr, "message without callback: ", msg.tag);
    msg.seq = next_seq_++;
    const SimTime when = msg.when;
    const std::uint64_t seq = msg.seq;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(msg);
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(msg));
    }
    heap_.push_back(HeapEntry{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), laterThan);
}

std::optional<SimTime>
MessageQueue::nextWhen() const
{
    if (heap_.empty())
        return std::nullopt;
    return heap_.front().when;
}

std::optional<Message>
MessageQueue::popDue(SimTime now_or_later)
{
    if (heap_.empty() || heap_.front().when > now_or_later)
        return std::nullopt;
    return takeHead();
}

std::optional<Message>
MessageQueue::popFront()
{
    if (heap_.empty())
        return std::nullopt;
    return takeHead();
}

Message
MessageQueue::takeHead()
{
    std::uint32_t slot;
    if (heap_.size() == 1) {
        slot = heap_.front().slot;
        heap_.clear();
    } else {
        std::pop_heap(heap_.begin(), heap_.end(), laterThan);
        slot = heap_.back().slot;
        heap_.pop_back();
    }
    Message msg = std::move(slots_[slot]);
    if (heap_.empty()) {
        // Quiescent: drop the (moved-from) slab shells so long-lived
        // queues do not accumulate slots; capacity is retained.
        slots_.clear();
        free_slots_.clear();
    } else {
        free_slots_.push_back(slot);
    }
    return msg;
}

void
MessageQueue::forEachPendingInOrder(
    const std::function<void(const Message &)> &fn) const
{
    std::vector<HeapEntry> ordered = heap_;
    std::sort(ordered.begin(), ordered.end(),
              [](const HeapEntry &a, const HeapEntry &b) {
                  return dispatch_order::firesBefore({a.when, a.seq},
                                                     {b.when, b.seq});
              });
    for (const HeapEntry &entry : ordered)
        fn(slots_[entry.slot]);
}

} // namespace rchdroid
