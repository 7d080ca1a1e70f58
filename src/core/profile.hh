/**
 * @file
 * Causal critical-path profiler.
 *
 * Replays one run's recorded trace — per-op execution spans, wait
 * events and sync-variable accesses (sim::TraceLog) — into the
 * *achieved* critical path: the longest weighted chain of actually
 * executed op instances through per-processor program order plus
 * the observed cross-processor waits. The reconstruction walks
 * backward from the op that finished last; whenever the current op
 * was gated by a satisfied wait, the path hops to the producing op
 * on the writer's processor, charging the gap between the
 * producer's completion and the waiter's wake-up to the sync
 * variable (fabric propagation). The resulting segments tile
 * [0, cycles) exactly, so the achieved path length equals total
 * cycles and every cycle of the run is attributed to an op, a wait
 * on a named sync variable, or dispatch.
 *
 * Alongside the path, the profiler reduces the waits into
 * fixed-bucket log2 latency histograms (core/metrics): overall, per
 * sync variable, and per emitting op kind. Both views answer the
 * question the analytical bound (core/critical_path) cannot: not
 * just *how far* a scheme is from its floor, but *which ops* and
 * *which variables* the lost cycles sit on.
 */

#ifndef PSYNC_CORE_PROFILE_HH
#define PSYNC_CORE_PROFILE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/metrics.hh"
#include "sim/tracing.hh"

namespace psync {
namespace core {

/** Achieved critical path plus latency distributions of one run. */
struct CriticalPathProfile
{
    enum class SegmentKind
    {
        /** An executed op instance on the path. */
        op,
        /** Fabric propagation: producer completion to waiter wake. */
        wait,
        /** Scheduler dispatch / between-program gap. */
        dispatch,
        /** Lead-in before the first op of the path's first proc. */
        start,
    };

    /** One tile of the achieved path; segments cover [0, cycles). */
    struct Segment
    {
        SegmentKind kind = SegmentKind::op;
        /** Executing processor (waiter, for wait segments). */
        sim::ProcId proc = 0;
        /** Stable IR op id (0 = hand-built program). */
        std::uint32_t opId = 0;
        ir::OpKind opKind = ir::OpKind::compute;
        std::uint64_t iter = 0;
        /** Sync variable charged (wait segments and sync ops). */
        sim::SyncVarId var = 0;
        bool hasVar = false;
        sim::Tick start = 0;
        sim::Tick end = 0;

        /** Phase decomposition of [start, end) on `proc`. */
        sim::Tick compute = 0;
        sim::Tick spin = 0;
        sim::Tick sync = 0;
        sim::Tick stall = 0;
        sim::Tick dispatch = 0;
        sim::Tick other = 0;

        sim::Tick cycles() const { return end - start; }
    };

    struct VarShare
    {
        sim::SyncVarId var = 0;
        std::string label;
        sim::Tick cycles = 0;
    };

    struct ProcShare
    {
        sim::ProcId proc = 0;
        sim::Tick cycles = 0;
    };

    struct ModuleShare
    {
        unsigned module = 0;
        sim::Tick cycles = 0;
    };

    /** Path tiles in ascending time order. */
    std::vector<Segment> segments;

    /** Sum of segment lengths == run cycles when fully tiled. */
    sim::Tick achievedCycles = 0;

    /** Analytical floor the gap is measured against. */
    sim::Tick boundCycles = 0;

    /** Walk hit its step cap; the early prefix is unattributed. */
    bool truncated = false;

    /** Path-cycle totals by phase (sum == achievedCycles). */
    sim::Tick computeCycles = 0;
    sim::Tick spinCycles = 0;
    sim::Tick syncCycles = 0;
    sim::Tick stallCycles = 0;
    sim::Tick dispatchCycles = 0;
    /** Wait-segment cycles: value propagation through the fabric. */
    sim::Tick propagationCycles = 0;
    sim::Tick otherCycles = 0;

    /** Propagation cycles charged per sync var, descending. */
    std::vector<VarShare> varShares;
    /** On-path execution cycles per processor, descending. */
    std::vector<ProcShare> procShares;
    /** Memory-module busy time overlapping path op segments. */
    std::vector<ModuleShare> moduleShares;

    /** All satisfied waits (cycles), regardless of path. */
    LogHistogram waitAll;
    /** Wait durations keyed by the blocking op's kind name. */
    std::map<std::string, LogHistogram> waitByKind;
    /** Wait durations per sync variable. */
    std::map<sim::SyncVarId, LogHistogram> waitByVar;

    /** Achieved overshoot vs. the bound, in percent (0 at floor). */
    double
    gapPct() const
    {
        if (boundCycles == 0)
            return 0.0;
        return 100.0 *
               (static_cast<double>(achievedCycles) -
                static_cast<double>(boundCycles)) /
               static_cast<double>(boundCycles);
    }

    /**
     * Full machine-readable profile: achieved/bound/gap, phase
     * composition, top shares, histogram summaries and the whole
     * segment list. Key order is fixed.
     */
    json::Value toJson() const;

    /**
     * Human-readable report: path summary, composition, hottest
     * variables/processors/modules, latency percentiles and the
     * first segments of the path (capped; the cap is printed).
     */
    void writeText(std::ostream &os, const std::string &label) const;

    /**
     * Chrome trace events for a "critical path" track (pid 2):
     * one complete event per segment. Append to a chromeTrace()
     * document's "traceEvents" array to view the
     * path against the per-processor phase tracks in Perfetto.
     */
    json::Value perfettoEvents() const;
};

/**
 * Reconstruct the achieved critical path of a recorded run.
 * `bound_cycles` is the analytical floor (CriticalPath::
 * achievableBound) used for gap reporting; pass 0 when unknown.
 * Requires the run to have been traced (op spans come from any
 * run recorded into a sim::TraceLog); returns an empty profile when
 * the trace has no spans.
 */
CriticalPathProfile
buildCriticalPathProfile(const sim::TraceLog &log,
                         sim::Tick run_cycles,
                         sim::Tick bound_cycles);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_PROFILE_HH
