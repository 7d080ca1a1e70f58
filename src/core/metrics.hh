/**
 * @file
 * Run-result metrics: everything the paper argues about, snapshot
 * from a machine after a run — cycle counts by category, bus
 * traffic, memory-module hot spots, and synchronization-fabric
 * activity.
 */

#ifndef PSYNC_CORE_METRICS_HH
#define PSYNC_CORE_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hh"
#include "sim/machine.hh"

namespace psync {
namespace core {

/**
 * Fixed-bucket log2 histogram of non-negative durations (cycles or
 * nanoseconds). Bucket i holds the values of bit-width i: bucket 0
 * is exactly {0}, bucket i >= 1 covers [2^(i-1), 2^i - 1]. The last
 * bucket is an overflow bucket absorbing everything at or above
 * 2^(kBuckets-2), so record() never drops a sample. Recording is
 * two integer ops and an increment — cheap enough for per-wait host
 * instrumentation — and exact count/sum/min/max ride along so the
 * summary quantiles can be clamped to observed values.
 */
class LogHistogram
{
  public:
    /** Bucket 48 is the overflow bucket (values >= 2^47). */
    static constexpr unsigned kBuckets = 49;

    void
    record(std::uint64_t value)
    {
        unsigned b = bucketOf(value);
        ++buckets_[b];
        ++count_;
        sum_ += value;
        if (count_ == 1 || value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    /** Fold another histogram into this one. */
    void
    merge(const LogHistogram &other)
    {
        if (other.count_ == 0)
            return;
        for (unsigned i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
        count_ += other.count_;
        sum_ += other.sum_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    std::uint64_t
    bucketCount(unsigned bucket) const
    {
        return bucket < kBuckets ? buckets_[bucket] : 0;
    }

    /** Bucket a value lands in (tests pin the bucketing scheme). */
    static unsigned
    bucketOf(std::uint64_t value)
    {
        unsigned width = 0;
        while (value) {
            ++width;
            value >>= 1;
        }
        return width < kBuckets ? width : kBuckets - 1;
    }

    /**
     * Quantile estimate, q in [0, 1]: the inclusive upper bound of
     * the first bucket whose cumulative count reaches q*count,
     * clamped to the exact [min, max] observed. Zero when empty.
     * With log2 buckets the estimate is within 2x of the true
     * quantile, which is the resolution the latency tables need.
     */
    std::uint64_t percentile(double q) const;

    /**
     * Summary object `{count, sum, min, max, p50, p95, p99}` —
     * insertion order is fixed so trajectory diffs stay readable.
     */
    json::Value toJson() const;

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** Aggregated outcome of one simulation. */
struct RunResult
{
    /** False on a tick-limit stop (deadlock) or a failed run. */
    bool completed = false;

    /** Tick at which the last processor drained. */
    sim::Tick cycles = 0;

    unsigned numProcs = 0;

    /** Sum over processors. */
    sim::Tick computeCycles = 0;
    sim::Tick spinCycles = 0;
    sim::Tick syncOverheadCycles = 0;
    sim::Tick stallCycles = 0;

    std::uint64_t syncOps = 0;
    std::uint64_t marksSkipped = 0;
    std::uint64_t programsRun = 0;

    /** Simulation events the machine's event core executed. */
    std::uint64_t eventsExecuted = 0;

    /**
     * Events whose handler capture spilled to the heap. Nonzero
     * means an InlineFunction capture outgrew the small buffer — a
     * silent allocation regression the bench sweep gates on.
     */
    std::uint64_t heapFallbackEvents = 0;

    /** Event-core kind that ran the simulation ("calendar"/"heap"). */
    std::string eventCore;

    std::uint64_t dataBusTransactions = 0;
    sim::Tick dataBusQueueDelay = 0;
    double dataBusUtilization = 0.0;

    std::uint64_t syncBusBroadcasts = 0;
    std::uint64_t coalescedWrites = 0;
    double syncBusUtilization = 0.0;

    std::uint64_t memAccesses = 0;
    std::uint64_t hottestModuleAccesses = 0;
    double hotSpotRatio = 1.0;
    sim::Tick moduleQueueDelay = 0;

    /** Memory-fabric spin polls (each is bus+module traffic). */
    std::uint64_t syncMemPolls = 0;

    /** Private data-cache activity (zero when caches disabled). */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheInvalidations = 0;

    /**
     * Combining-network activity (combining fabric only). Empty
     * vectors elsewhere; toJson omits the whole block then, so
     * records of the other fabrics are unchanged byte for byte.
     */
    std::uint64_t netPackets = 0;
    std::uint64_t netCombined = 0;
    /** Fraction of injected packets absorbed in the switches. */
    double netCombineRate = 0.0;
    sim::Tick netQueueDelay = 0;
    std::uint64_t fabricParkedWaits = 0;
    sim::Tick syncModuleQueueDelay = 0;
    /** Sync-module skew, busiest over uniform (data memory aside). */
    double syncHotSpotRatio = 0.0;
    std::vector<std::uint64_t> netStageConflicts;
    std::vector<sim::Tick> netStageConflictCycles;
    std::vector<std::uint64_t> netStageCombines;
    /** Busy fraction per stage (stage busy / switches * cycles). */
    std::vector<double> netStageUtilization;

    /**
     * Cluster shape and hierarchy activity (hierarchical fabric
     * only; numClusters == 0 elsewhere and the block is omitted
     * from toJson). The global stage's utilization rides in
     * syncBusUtilization — the global bus *is* the machine syncBus.
     */
    unsigned numClusters = 0;
    unsigned procsPerCluster = 0;
    std::uint64_t localBroadcasts = 0;
    std::uint64_t globalBroadcasts = 0;
    std::uint64_t coalescedLocal = 0;
    std::uint64_t coalescedGlobal = 0;
    std::uint64_t combinedIncs = 0;
    std::vector<double> clusterBusUtilization;

    /**
     * Distribution of satisfied-wait durations in cycles, filled
     * from the trace recorder when the run was profiled; empty (and
     * omitted from toJson) otherwise.
     */
    LogHistogram waitLatency;

    /** Protocol errors that failed the run, as the native backend's. */
    std::vector<std::string> errors;

    /** Fraction of processor-cycles spent computing. */
    double
    utilization() const
    {
        if (cycles == 0 || numProcs == 0)
            return 0.0;
        return static_cast<double>(computeCycles) /
               (static_cast<double>(cycles) * numProcs);
    }

    /** Fraction of processor-cycles spent busy-waiting. */
    double
    spinFraction() const
    {
        if (cycles == 0 || numProcs == 0)
            return 0.0;
        return static_cast<double>(spinCycles) /
               (static_cast<double>(cycles) * numProcs);
    }

    double
    speedupOver(sim::Tick sequential_cycles) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(sequential_cycles) /
               static_cast<double>(cycles);
    }

    /**
     * Machine-readable dump: every raw field plus the derived
     * utilization/spin fractions. Keys are stable snake_case and
     * always emitted in the same order (new fields append after the
     * existing block), so trajectory diffs line up; tools should
     * treat absent keys as zero. `wait_latency` appears only when
     * the run was profiled, `errors` only when the run failed.
     */
    json::Value toJson() const;
};

/** Snapshot a machine's statistics into a RunResult. */
RunResult collectResult(sim::Machine &machine, bool completed);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_METRICS_HH
