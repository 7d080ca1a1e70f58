/**
 * @file
 * Contention blame attribution.
 *
 * Reduces a recorded trace (sim::TraceLog) plus the run's metrics
 * into an explanation of *where the cycles went*: which
 * synchronization variables blocked which processors for how long
 * (from the processors' wait events), which memory modules were
 * hot (from module busy events), and how far the achieved
 * time sits above the dependence-limited critical-path bound. The
 * report is emitted both as an aligned text table and as JSON, and
 * is what `psync_bench --report` prints.
 */

#ifndef PSYNC_CORE_BLAME_HH
#define PSYNC_CORE_BLAME_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/critical_path.hh"
#include "core/json.hh"
#include "core/metrics.hh"
#include "sim/tracing.hh"

namespace psync {
namespace core {

/** Wait-chain attribution and slack breakdown of one traced run. */
struct BlameReport
{
    /** Blocking attributed to one synchronization variable. */
    struct VarBlame
    {
        sim::SyncVarId var = 0;
        /** Scheme-assigned label ("pc[3]", "key[17]"), if any. */
        std::string label;
        /** Satisfied waits that actually blocked. */
        std::uint64_t waits = 0;
        /** Sum of blocked cycles over those waits. */
        sim::Tick blockedCycles = 0;
        /** Longest single wait. */
        sim::Tick maxWait = 0;
        /** Blocked cycles per blocked processor. */
        std::map<sim::ProcId, sim::Tick> perProc;

        /** Display name: the label, or "v<id>" when unlabeled. */
        std::string name() const;
    };

    /**
     * Blocking attributed to one emitting wait *site*: a (variable,
     * IR op id) pair, aggregated across iterations. Op ids are the
     * stable ids ir::ProgramBuilder stamps at lowering time, so a
     * site survives IR passes deleting or merging its neighbors and
     * can be correlated with `--dump-ir` output. Id 0 collects
     * waits of hand-built programs.
     */
    struct SiteBlame
    {
        sim::SyncVarId var = 0;
        std::uint32_t opId = 0;
        /** Scheme-assigned variable label, if any. */
        std::string label;
        std::uint64_t waits = 0;
        sim::Tick blockedCycles = 0;
        sim::Tick maxWait = 0;

        /** Display name: "<var-name>@op<id>". */
        std::string name() const;
    };

    /** Occupancy of one memory module. */
    struct ModuleHeat
    {
        unsigned module = 0;
        /** Cycles the module spent servicing requests. */
        sim::Tick busyCycles = 0;
        /** Requests serviced. */
        std::uint64_t accesses = 0;
    };

    /** Contention at one combining-network switch stage. */
    struct StageHeat
    {
        unsigned stage = 0;
        /** Packets that found their switch busy. */
        std::uint64_t conflicts = 0;
        /** Cycles those packets waited for the switch. */
        sim::Tick conflictCycles = 0;
        /** Packets absorbed by combining at this stage. */
        std::uint64_t combines = 0;
        /** Stage busy fraction of the run. */
        double utilization = 0.0;
    };

    /** Activity of one cluster's local synchronization bus. */
    struct ClusterHeat
    {
        unsigned cluster = 0;
        /** Local-bus busy fraction of the run. */
        double busUtilization = 0.0;
    };

    /** Sorted by descending blockedCycles. */
    std::vector<VarBlame> vars;

    /** Per-wait-site attribution, sorted by descending cycles. */
    std::vector<SiteBlame> sites;

    /** One entry per module that appears in the trace. */
    std::vector<ModuleHeat> modules;

    /** Per-stage network contention (combining fabric runs only). */
    std::vector<StageHeat> netStages;

    /** Per-cluster bus heat (hierarchical fabric runs only). */
    std::vector<ClusterHeat> clusters;

    /** Spin cycles covered by wait events (<= totalSpinCycles). */
    sim::Tick attributedSpinCycles = 0;

    /** The run's total spin cycles (summed over processors). */
    sim::Tick totalSpinCycles = 0;

    /** Achieved completion time. */
    sim::Tick achievedCycles = 0;

    /** Dependence-or-work bound on this processor count (0 = n/a). */
    sim::Tick boundCycles = 0;

    /** The run's cycle split, for the slack breakdown. */
    RunResult run;

    /** Fraction of spin cycles attributed to a wait event. */
    double
    spinCoverage() const
    {
        if (totalSpinCycles == 0)
            return 1.0;
        return static_cast<double>(attributedSpinCycles) /
               static_cast<double>(totalSpinCycles);
    }

    /** achieved / bound (1.0 = running at the bound). */
    double
    slackFactor() const
    {
        if (boundCycles == 0)
            return 0.0;
        return static_cast<double>(achievedCycles) /
               static_cast<double>(boundCycles);
    }

    /** Machine-readable dump (stable snake_case keys). */
    json::Value toJson() const;

    /** Aligned human-readable report. */
    void writeText(std::ostream &os) const;
};

/**
 * Reduce a recorded trace into a blame report.
 * @param log      trace of the run (wait events, module busy
 *        events, sync-variable labels)
 * @param run      the run's collected metrics
 * @param bound    optional achievable bound in cycles (pass the
 *        critical path's achievableBound; 0 disables the slack
 *        section)
 */
BlameReport buildBlameReport(const sim::TraceLog &log,
                             const RunResult &run,
                             sim::Tick bound = 0);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_BLAME_HH
