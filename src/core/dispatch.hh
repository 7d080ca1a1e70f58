/**
 * @file
 * How iterations reach lanes, defined once for the simulator's
 * processors and the native executor's threads. Each lane holds a
 * *cursor* of iterations it runs without claiming; a drained one
 * refills from claims, each a fetch&add of claimSize(old) on one
 * shared counter that takes the block from `old`, so blocks go out
 * in counter order. An executor binds only the claim itself.
 */

#ifndef PSYNC_CORE_DISPATCH_HH
#define PSYNC_CORE_DISPATCH_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace psync {
namespace core {

/** How iterations are handed to processors. */
enum class SchedulePolicy
{
    /**
     * Shared iteration counter advanced by fetch&add in memory —
     * the dynamic self-scheduling of [Tang, Yew & Zhu], assumed by
     * all the paper's examples. Dispatch order equals iteration
     * order, which the PC-folding ownership chain relies on.
     */
    selfScheduling,
    /**
     * Self-scheduling, but each fetch&add claims a fixed block of
     * `chunkSize` consecutive iterations: one dispatch RMW per
     * chunk instead of per iteration, at the price of coarser load
     * balancing and chunk-serialized pipelining.
     */
    chunkedSelfScheduling,
    /**
     * Guided self-scheduling: each claim takes
     * max(1, remaining / (2P)) iterations — large chunks early,
     * single iterations near the end.
     */
    guidedSelfScheduling,
    /** Iteration k runs on processor (k-1) mod P, no shared state. */
    staticCyclic,
};

/** Printable schedule-policy name. */
inline const char *
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::selfScheduling:
        return "self";
      case SchedulePolicy::chunkedSelfScheduling:
        return "chunked";
      case SchedulePolicy::guidedSelfScheduling:
        return "guided";
      case SchedulePolicy::staticCyclic:
        return "static";
    }
    return "unknown";
}

/** The iterations next, next + stride, ... below end. */
struct Cursor
{
    std::uint64_t next = 0, end = 0, stride = 1;

    bool empty() const { return next >= end; }

    /** The next iteration; the cursor moves past it. */
    std::uint64_t take() { return (next += stride) - stride; }
};

/** One run's dispatch over its lanes. */
class Dispatch
{
  public:
    /** `total` iterations dealt to `lanes` (at least one) lanes. */
    Dispatch(SchedulePolicy policy, std::uint64_t chunk_size,
             std::uint64_t total, unsigned lanes)
        : policy_(policy), chunkSize_(chunk_size), total_(total),
          lanes_(std::max(1u, lanes))
    {
    }

    /** A per-lane pool: lane p runs [bounds[p], bounds[p + 1]). */
    explicit Dispatch(const std::vector<std::size_t> &bounds)
        : lanes_(bounds.empty() ? 0 : unsigned(bounds.size() - 1)),
          bounds_(&bounds)
    {
    }

    unsigned lanes() const { return lanes_; }

    /** Whether a drained cursor claims again, or its lane halts. */
    bool
    claims() const
    {
        return !bounds_ && policy_ != SchedulePolicy::staticCyclic;
    }

    /** Whether claimSize() ignores the counter. */
    bool
    fixedClaims() const
    {
        return policy_ != SchedulePolicy::guidedSelfScheduling;
    }

    /** Iterations a claim takes when it finds the counter at `old`. */
    std::uint64_t
    claimSize(std::uint64_t old) const
    {
        if (policy_ == SchedulePolicy::chunkedSelfScheduling)
            return std::max<std::uint64_t>(1, chunkSize_);
        if (policy_ != SchedulePolicy::guidedSelfScheduling)
            return 1;
        const std::uint64_t remaining = old < total_ ? total_ - old : 0;
        return std::max<std::uint64_t>(1, remaining / (2 * lanes_));
    }

    /** Lane `lane`'s first cursor: full, or empty if it claims. */
    Cursor
    start(unsigned lane) const
    {
        if (bounds_)
            return {(*bounds_)[lane], (*bounds_)[lane + 1], 1};
        if (policy_ == SchedulePolicy::staticCyclic)
            return {lane, total_, lanes_};
        return {};
    }

    /**
     * Point `cursor` at the block a claim that found the counter at
     * `old` took. @return false once the pool is drained.
     */
    bool
    refill(Cursor &cursor, std::uint64_t old) const
    {
        if (old >= total_)
            return false;
        cursor = {old, std::min(total_, old + claimSize(old)), 1};
        return true;
    }

  private:
    SchedulePolicy policy_ = SchedulePolicy::selfScheduling;
    std::uint64_t chunkSize_ = 1;
    std::uint64_t total_ = 0;
    unsigned lanes_ = 1;
    /** Lane bounds of a per-lane pool (not owned); null if shared. */
    const std::vector<std::size_t> *bounds_ = nullptr;
};

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_DISPATCH_HH
