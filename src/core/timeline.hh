/**
 * @file
 * Time-series telemetry built from fixed-interval timeline samples.
 *
 * A sampled run (MachineConfig::timeline) records one batch of
 * sample events per boundary into its sim::TraceLog, at most
 * sim::timelineSampleBudget batches. buildTimeline turns them into
 * per-interval series — occupancy and queue depth per bus,
 * per-module traffic and backlog, per-sync-var waiter counts and
 * traffic, the processor-state mix, and the event core's
 * self-metrics — and runs a hot-spot detector over the traffic
 * series: sustained windows where one module or variable absorbs a
 * disproportionate share of its family's traffic, reported with
 * onset cycle, duration and peak share. The result exports as JSON
 * (full series or the compact trajectory summary) and as a
 * terminal sparkline report.
 */

#ifndef PSYNC_CORE_TIMELINE_HH
#define PSYNC_CORE_TIMELINE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"

namespace psync {
namespace core {

/** Hot-spot detector tuning. */
struct TimelineConfig
{
    /**
     * Minimum share of one interval's family traffic a single
     * entity must absorb for the interval to count as hot.
     */
    double hotShare = 0.5;

    /** Consecutive hot intervals required to report a hot spot. */
    unsigned hotMinIntervals = 3;

    /**
     * Intervals with less family traffic than this are never hot
     * (a lone request trivially has 100% share).
     */
    double minEventsPerInterval = 8;
};

/**
 * One per-boundary series. values[k] belongs to sampling boundary
 * boundaries[k] of the owning Timeline: instantaneous streams hold
 * the state at that boundary, differenced streams hold the activity
 * inside the interval ending at that boundary (values[0] is then 0,
 * the zero-width baseline).
 */
struct TimelineSeries
{
    std::string name;
    std::vector<double> values;

    double peak() const;
    /** Index of the first peak value (0 when empty). */
    std::size_t peakIndex() const;
    double total() const;
};

/**
 * Element-wise sum of several component series (e.g. per-module
 * traffic into total module traffic). Tolerates ragged lengths: the
 * result has the longest input's length, missing elements count 0.
 */
TimelineSeries mergeSeries(const std::string &name,
                           const std::vector<const TimelineSeries *>
                               &parts);

/**
 * A sustained window in which one entity absorbed at least
 * TimelineConfig::hotShare of its family's traffic.
 */
struct HotSpot
{
    /** Entity family: "module" or "sync_var". */
    std::string kind;
    /** Module number or sync-variable id. */
    std::uint32_t index = 0;
    /** Sync-var label when one was recorded ("ctr[0]", ...). */
    std::string label;
    /** Cycle the hot window opened at. */
    sim::Tick onset = 0;
    /** Length of the hot window, cycles. */
    sim::Tick duration = 0;
    /** Largest per-interval traffic share inside the window. */
    double peakShare = 0;
    /** Boundary tick of the peak-share interval. */
    sim::Tick peakAt = 0;
    /** Traffic the entity absorbed during the window. */
    double events = 0;

    json::Value toJson() const;
};

/** One run's assembled timeline. */
struct Timeline
{
    /** Nominal sampling interval (0 when fewer than two samples). */
    sim::Tick interval = 0;

    /** Sampling boundary ticks, ascending (one per sample batch). */
    std::vector<sim::Tick> boundaries;

    /**
     * Bus occupancy in [0, 1] per interval, one series per bus in
     * trace-id order (data bus, sync or global bus, cluster buses),
     * each named after its bus.
     */
    std::vector<TimelineSeries> busOccupancy;
    /** Instantaneous queue depth (queued + in flight), per bus. */
    std::vector<TimelineSeries> busQueue;

    /** Requests serviced per interval, one series per module. */
    std::vector<TimelineSeries> moduleTraffic;
    /** Instantaneous per-module backlog, in requests. */
    std::vector<TimelineSeries> moduleBacklog;

    /**
     * Combining-network switch-conflict wait cycles per interval,
     * one series per stage (combining-fabric runs only).
     */
    std::vector<TimelineSeries> netStageWait;
    /** Packets absorbed by combining per interval, per stage. */
    std::vector<TimelineSeries> netStageCombines;

    /** Blocked waiters per sync var (sorted by descending total). */
    std::vector<std::pair<sim::SyncVarId, TimelineSeries>> varWaiters;
    /**
     * Sync ops per interval per variable, bucketed from the log's
     * sync-op events (sorted by descending total).
     */
    std::vector<std::pair<sim::SyncVarId, TimelineSeries>> varTraffic;

    /** Processors in each ProcActivity state at each boundary. */
    std::array<TimelineSeries, sim::numProcActivities> procStateMix;

    /** Event-core self-metrics. */
    TimelineSeries eventsPerInterval;
    TimelineSeries pendingEvents;
    TimelineSeries ringBuckets;
    TimelineSeries farHeap;
    TimelineSeries heapFallbacks;

    std::vector<HotSpot> hotspots;

    std::size_t numSamples() const { return boundaries.size(); }
    bool empty() const { return boundaries.empty(); }

    /** Full series document (for --timeline-json). */
    json::Value toJson() const;

    /**
     * Compact summary for trajectory records (schema v6): peak bus
     * occupancy/queue, peak module backlog, peak waiter count, peak
     * event rate, heap-fallback total and the hot-spot records.
     */
    json::Value summaryJson() const;

    /** Terminal sparkline/peak report. */
    void writeText(std::ostream &os, std::size_t width = 56) const;
};

/**
 * Assemble a timeline from a log's sample events (and its sync-op
 * events, which provide per-variable traffic without a dedicated
 * stream). Returns an empty Timeline when the run was not sampled.
 * Series names use the log's sync-variable labels and bus names.
 */
Timeline buildTimeline(const sim::TraceLog &log,
                       const TimelineConfig &cfg = TimelineConfig());

/**
 * Render `values` as a fixed-width unicode sparkline, max-pooling
 * when there are more values than columns. Zero renders as a
 * space; the peak renders as a full block.
 */
std::string sparkline(const std::vector<double> &values,
                      std::size_t width);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_TIMELINE_HH
