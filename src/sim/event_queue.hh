/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * Events are closures scheduled at absolute ticks. Ties are broken
 * by insertion order (a monotonically increasing sequence number),
 * which makes every simulation bit-for-bit reproducible regardless
 * of host scheduling.
 *
 * Two interchangeable cores implement that contract:
 *
 *  - `calendar` (default): a bucketed near-future calendar ring for
 *    the short-delta schedules that dominate simulation (issue
 *    costs, poll intervals, bus slots), falling back to a far-future
 *    binary heap for everything past the ring window. Handlers use
 *    a small-buffer-optimized callable, so the steady state does
 *    zero heap allocations.
 *  - `heap`: the classic single binary heap. Kept as the reference
 *    implementation; the equivalence suite asserts both cores yield
 *    bit-identical simulations.
 *
 * Both cores execute the same (when, seq) order, so results never
 * depend on which one runs.
 */

#ifndef PSYNC_SIM_EVENT_QUEUE_HH
#define PSYNC_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** Which event-core implementation drives a simulation. */
enum class EventCoreKind
{
    /** Calendar ring + far-future heap (the fast default). */
    calendar,
    /** Single binary heap (reference for equivalence tests). */
    heap,
};

/** Printable event-core name. */
const char *eventCoreKindName(EventCoreKind kind);

/** The global event queue driving one simulation. */
class EventQueue
{
  public:
    using Handler = InlineFunction<void()>;

    explicit EventQueue(EventCoreKind core = EventCoreKind::calendar)
        : core_(core)
    {
    }

    ~EventQueue() { clear(); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Which core this queue runs on. */
    EventCoreKind core() const { return core_; }

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /** Total events executed so far (for diagnostics). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Events whose handler capture spilled to the heap. */
    std::uint64_t heapFallbackEvents() const { return heapFallbacks_; }

    /**
     * Schedule a handler at an absolute tick.
     * @pre when >= now(), except during the pre-run setup phase.
     */
    void schedule(Tick when, Handler handler);

    /** Schedule a handler `delta` ticks from now. */
    void
    scheduleIn(Tick delta, Handler handler)
    {
        schedule(curTick_ + delta, std::move(handler));
    }

    /**
     * Run until the queue drains or `limit` is reached.
     * @return true if the queue drained; false if the tick limit was
     *         hit first (usually a deadlock or livelock in the
     *         simulated synchronization).
     */
    bool run(Tick limit = maxTick);

    /**
     * Drop every pending event without executing it. A limit-hit
     * run leaves undrained handlers whose captures point into the
     * machine being torn down; Machine::~Machine calls this before
     * any component is destroyed so those captures never outlive
     * their targets.
     */
    void clear();

    /** True if no events are pending. */
    bool
    empty() const
    {
        return ringCount_ == 0 && far_.empty();
    }

    /** Number of pending events (diagnostics). */
    std::size_t pendingEvents() const { return ringCount_ + far_.size(); }

    /** Non-empty calendar buckets (0 on the heap core). */
    std::size_t occupiedBuckets() const;

    /** Events parked in the far-future heap. */
    std::size_t farEvents() const { return far_.size(); }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Handler handler;
    };

    /**
     * Ring window, in ticks. Every pending event with
     * when - now() < ringSize lives in bucket (when % ringSize);
     * the window invariant guarantees each bucket holds at most one
     * tick's events at a time.
     */
    static constexpr unsigned ringBits = 10;
    static constexpr unsigned ringSize = 1u << ringBits;
    static constexpr Tick ringMask = ringSize - 1;

    bool runCalendar(Tick limit);
    bool runHeap(Tick limit);

    void pushFar(Event event);
    Event popFar();

    /** Move far events entering the ring window into their buckets. */
    void migrateFar();

    /** Execute every event in `tick`'s bucket, in seq order. */
    void drainBucket(Tick tick);

    /**
     * Earliest tick with a ring event at or after curTick_
     * (maxTick when the ring is empty).
     */
    Tick nextRingTick() const;

    EventCoreKind core_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t heapFallbacks_ = 0;

    /** Calendar buckets; vectors keep their capacity across ticks. */
    std::vector<std::vector<Event>> ring_{ringSize};
    /** One bit per non-empty bucket, for fast next-tick scans. */
    std::array<std::uint64_t, ringSize / 64> occupied_{};
    std::size_t ringCount_ = 0;

    /**
     * Far-future events as a binary min-heap on (when, seq). The
     * heap core stores everything here.
     */
    std::vector<Event> far_;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_EVENT_QUEUE_HH
