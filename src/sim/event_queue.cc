#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

const char *
eventCoreKindName(EventCoreKind kind)
{
    switch (kind) {
      case EventCoreKind::calendar:
        return "calendar";
      case EventCoreKind::heap:
        return "heap";
    }
    return "unknown";
}

std::size_t
EventQueue::occupiedBuckets() const
{
    std::size_t buckets = 0;
    for (std::uint64_t word : occupied_) {
        while (word) {
            word &= word - 1;
            ++buckets;
        }
    }
    return buckets;
}

void
EventQueue::pushFar(Event event)
{
    far_.push_back(std::move(event));
    std::push_heap(far_.begin(), far_.end(),
                   [](const Event &a, const Event &b) {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    });
}

EventQueue::Event
EventQueue::popFar()
{
    std::pop_heap(far_.begin(), far_.end(),
                  [](const Event &a, const Event &b) {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    });
    Event event = std::move(far_.back());
    far_.pop_back();
    return event;
}

void
EventQueue::schedule(Tick when, Handler handler)
{
    if (when < curTick_)
        panic("scheduling event in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    if (handler.onHeap())
        ++heapFallbacks_;
    Event event{when, nextSeq_++, std::move(handler)};
    if (core_ == EventCoreKind::heap ||
        when - curTick_ >= ringSize) {
        pushFar(std::move(event));
        return;
    }
    auto &bucket = ring_[when & ringMask];
    bucket.push_back(std::move(event));
    occupied_[(when & ringMask) / 64] |=
        std::uint64_t{1} << ((when & ringMask) % 64);
    ++ringCount_;
}

void
EventQueue::migrateFar()
{
    while (!far_.empty() &&
           far_.front().when - curTick_ < ringSize) {
        Event event = popFar();
        auto &bucket = ring_[event.when & ringMask];
        std::uint64_t idx = event.when & ringMask;
        bucket.push_back(std::move(event));
        occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
        ++ringCount_;
        // A migrated event was scheduled while its tick was outside
        // the window, so its seq precedes any event the window
        // already holds for the same tick; restore seq order.
        if (bucket.size() > 1 &&
            bucket[bucket.size() - 2].seq > bucket.back().seq) {
            std::sort(bucket.begin(), bucket.end(),
                      [](const Event &a, const Event &b) {
                return a.seq < b.seq;
            });
        }
    }
}

void
EventQueue::drainBucket(Tick tick)
{
    std::uint64_t idx = tick & ringMask;
    auto &bucket = ring_[idx];
    // Handlers may append same-tick events to this bucket while it
    // drains; indexed iteration with a size recheck picks them up,
    // and they arrive in seq order by construction.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        Handler handler = std::move(bucket[i].handler);
        curTick_ = tick;
        ++executed_;
        handler();
    }
    ringCount_ -= bucket.size();
    bucket.clear();
    occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
}

Tick
EventQueue::nextRingTick() const
{
    if (ringCount_ == 0)
        return maxTick;
    // Scan the occupancy bitmap circularly from curTick_'s bucket;
    // the window invariant (every ring event is within ringSize of
    // curTick_) makes the first occupied bucket the earliest tick.
    std::uint64_t base = curTick_ & ringMask;
    for (std::uint64_t step = 0; step < occupied_.size() + 1;
         ++step) {
        std::uint64_t word_idx =
            ((base / 64) + step) % occupied_.size();
        std::uint64_t word = occupied_[word_idx];
        if (step == 0) {
            // Mask off buckets before base in the first word.
            word &= ~std::uint64_t{0} << (base % 64);
        } else if (step == occupied_.size()) {
            // Wrapped back to the first word: only buckets before
            // base remain.
            word = occupied_[word_idx] &
                   ~(~std::uint64_t{0} << (base % 64));
        }
        if (word == 0)
            continue;
        std::uint64_t bucket_idx =
            word_idx * 64 + std::countr_zero(word);
        return ring_[bucket_idx].front().when;
    }
    panic("ring count %zu but no occupied bucket", ringCount_);
    return maxTick;
}

bool
EventQueue::runCalendar(Tick limit)
{
    for (;;) {
        Tick ring_next = nextRingTick();
        Tick far_next = far_.empty() ? maxTick : far_.front().when;
        Tick next = std::min(ring_next, far_next);
        if (next == maxTick)
            return true;
        if (next > limit) {
            curTick_ = limit;
            return false;
        }
        curTick_ = next;
        if (far_next != maxTick)
            migrateFar();
        drainBucket(next);
    }
}

bool
EventQueue::runHeap(Tick limit)
{
    while (!far_.empty()) {
        if (far_.front().when > limit) {
            curTick_ = limit;
            return false;
        }
        Event event = popFar();
        curTick_ = event.when;
        ++executed_;
        event.handler();
    }
    return true;
}

bool
EventQueue::run(Tick limit)
{
    return core_ == EventCoreKind::calendar ? runCalendar(limit)
                                            : runHeap(limit);
}

void
EventQueue::clear()
{
    for (auto &bucket : ring_)
        bucket.clear();
    occupied_.fill(0);
    ringCount_ = 0;
    far_.clear();
}

} // namespace sim
} // namespace psync
