/**
 * @file
 * Parked waiters of one synchronization variable, released by
 * threshold.
 *
 * A wait on a register image or at a sync module parks until its
 * variable reaches a threshold. A commit of value v must wake exactly
 * the waiters whose threshold is at most v, in the order they parked:
 * the wake order feeds the event queue's tie-breaking sequence, so
 * every simulated statistic depends on it. Rescanning a park-ordered
 * list on every commit costs O(waiters) even when nothing wakes, and
 * at P = 1024 a hot counter has hundreds of waiters and thousands of
 * commits. WaiterQueue keeps the waiters in a binary min-heap on
 * (threshold, park seq) instead: a commit that meets no threshold
 * returns after one comparison, and one that meets k thresholds pops
 * only those k and sorts them back into park order. The waiters
 * themselves, which carry the completion handler, rest in a
 * free-listed slab, so heap moves shift 24-byte entries only.
 */

#ifndef PSYNC_SIM_WAITER_QUEUE_HH
#define PSYNC_SIM_WAITER_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace psync {
namespace sim {

/** Waiters of one variable, min-ordered on (threshold, park seq). */
template <typename T>
class WaiterQueue
{
  public:
    /** Park `waiter` until the variable reaches `threshold`. */
    void
    park(SyncWord threshold, T waiter)
    {
        std::uint32_t slot;
        if (freeSlot_ != noSlot) {
            slot = freeSlot_;
            freeSlot_ = slab_[slot].next;
            slab_[slot].waiter = std::move(waiter);
        } else {
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(Slot{std::move(waiter), noSlot});
        }
        heap_.push_back(Entry{threshold, nextSeq_++, slot});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /**
     * The variable now holds `value`: remove every waiter whose
     * threshold is at most `value` and hand each to `wake(T &&)`, in
     * park order. `wake` must not park on or release this queue.
     */
    template <typename Wake>
    void
    release(SyncWord value, Wake &&wake)
    {
        // Popped entries collect behind the shrinking heap.
        auto ready = heap_.end();
        while (ready != heap_.begin() &&
               heap_.front().threshold <= value) {
            std::pop_heap(heap_.begin(), ready, later);
            --ready;
        }
        if (ready == heap_.end())
            return;
        std::sort(ready, heap_.end(),
                  [](const Entry &a, const Entry &b) {
            return a.seq < b.seq;
        });
        for (auto it = ready; it != heap_.end(); ++it) {
            Slot &slot = slab_[it->slot];
            T waiter = std::move(slot.waiter);
            slot.next = freeSlot_;
            freeSlot_ = it->slot;
            wake(std::move(waiter));
        }
        heap_.erase(ready, heap_.end());
    }

  private:
    struct Entry
    {
        SyncWord threshold;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Slot
    {
        T waiter;
        std::uint32_t next;
    };

    static constexpr std::uint32_t noSlot = ~0u;

    /** Heap order: `a` leaves after `b`. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.threshold != b.threshold)
            return a.threshold > b.threshold;
        return a.seq > b.seq;
    }

    std::vector<Entry> heap_;
    std::vector<Slot> slab_;
    std::uint32_t freeSlot_ = noSlot;
    std::uint64_t nextSeq_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_WAITER_QUEUE_HH
