/**
 * @file
 * Doacross runtime: plans a scheme for a loop on a machine, lowers
 * the transformed iterations into an iteration pool (one body per
 * iteration class, ir/pool.hh), schedules them on processors
 * (processor self-scheduling by default, as the paper assumes for
 * all its examples), runs the simulation, and verifies the
 * execution trace against the dependences the scheme claims.
 */

#ifndef PSYNC_CORE_RUNTIME_HH
#define PSYNC_CORE_RUNTIME_HH

#include <string>
#include <vector>

#include "core/dispatch.hh"
#include "core/metrics.hh"
#include "core/trace_check.hh"
#include "dep/dep_graph.hh"
#include "ir/passes.hh"
#include "ir/pool.hh"
#include "sim/machine.hh"
#include "sync/scheme.hh"

namespace psync {
namespace core {

/** Everything configuring one Doacross run. */
struct RunConfig
{
    sim::MachineConfig machine;
    sync::SchemeConfig scheme;
    SchedulePolicy schedule = SchedulePolicy::selfScheduling;
    /** Iterations per claim under chunkedSelfScheduling. */
    std::uint64_t chunkSize = 4;
    /**
     * Run redundant-arc (coverage) elimination on the dependence
     * graph before planning. Off = synchronize every arc, the
     * ablation baseline for the Fig. 2.1 observation.
     */
    bool eliminateCoveredDeps = true;
    /**
     * IR pass pipeline run over the lowered iterations inside
     * planDoacross (see ir/passes.hh). Defaults keep the verifier
     * on and every transform off, so lowered iterations reach the
     * executors byte-identical to the schemes' raw emission.
     */
    ir::PassConfig passes;
    /** Verify the trace after the run (costs host time only). */
    bool checkTrace = true;
    /** Abort threshold for deadlocked synchronization. */
    sim::Tick tickLimit = 1000000000ull;
    /**
     * Optional trace log attached to the machine (and handed to
     * the scheme for sync-variable labeling). Null — the default —
     * records nothing and costs one branch per event site. Not
     * owned.
     */
    sim::TraceLog *tracer = nullptr;
    /**
     * Optional extra trace sink fed the same access stream as the
     * trace checker (e.g. a ValueTrace computing the functional
     * memory image for sim-vs-native comparison). Pure observer:
     * attaching one never changes simulated cycles. Not owned.
     */
    sim::TraceSink *extraSink = nullptr;
};

/** Outcome of one Doacross run. */
struct DoacrossResult
{
    RunResult run;
    sync::SchemePlan plan;
    /** Dependence violations found in the trace (empty = correct). */
    std::vector<std::string> violations;
    /** Dependence instances the checker examined. */
    std::uint64_t instancesChecked = 0;
    /**
     * Analytic cost of initializing the scheme's synchronization
     * variables (the paper's initialization-overhead axis): the
     * writes serialize on the relevant bus, spread over P
     * processors for the module-service part.
     */
    sim::Tick initCycles = 0;
    /** Effect of the IR pass pipeline, over every iteration. */
    ir::PassStats passStats;

    bool correct() const { return violations.empty(); }
};

/** Plan + emit + schedule + run + verify one Doacross loop. */
DoacrossResult runDoacross(const dep::Loop &loop,
                           sync::SchemeKind kind,
                           const RunConfig &cfg);

/**
 * A planned loop before execution: the scheme's plan (with its
 * synchronization variables allocated and initialized on the given
 * fabric), its iterations lowered into a pool, and the data image
 * its accesses touch. Shared by the simulator runtime and the
 * native execution backend, so both run exactly the same
 * transformed iterations.
 */
struct PlannedDoacross
{
    sync::SchemePlan plan;
    ir::IterationPool pool;
    /** The layout's arrays from address 0, then renamed copies. */
    ir::DataImage image;
    /** Effect of the IR pass pipeline, over every iteration. */
    ir::PassStats passStats;
};

/**
 * Plan `kind` for `loop` against `fabric` (applies the same
 * covered-arc elimination rule runDoacross uses) and lower its
 * iterations with ir::lowerPool, which runs the configured IR pass
 * pipeline per class body. An IR verifier failure is fatal: a wait
 * no signal can satisfy means the plan would deadlock.
 */
PlannedDoacross planDoacross(const dep::Loop &loop,
                             sync::SchemeKind kind,
                             const RunConfig &cfg,
                             sim::SyncFabric &fabric);

/**
 * Cycles of the loop executed sequentially on one processor of the
 * same machine (speedup baseline).
 */
sim::Tick sequentialCycles(const dep::Loop &loop,
                           const sim::MachineConfig &machine_cfg);

/**
 * Run a shared iteration pool on an already-built machine:
 * processors pull iterations in pool order under `policy`
 * (core/dispatch.hh), each claim a fetch&add on a simulated memory
 * word. Used by runDoacross and by the hand-transformed section 5
 * workloads (whose schemes allocate fabric variables before
 * emission).
 */
RunResult runProgramPool(sim::Machine &machine,
                         const ir::IterationPool &pool,
                         SchedulePolicy policy,
                         sim::Tick tick_limit = 1000000000ull,
                         std::uint64_t chunk_size = 4);

/** runProgramPool over hand-built programs (one-member classes). */
RunResult runProgramPool(sim::Machine &machine,
                         const std::vector<sim::Program> &programs,
                         SchedulePolicy policy,
                         sim::Tick tick_limit = 1000000000ull,
                         std::uint64_t chunk_size = 4);

/**
 * Run a per-processor pool (barrier, FFT and wavefront workloads):
 * processor p executes its lane's iterations in order.
 */
RunResult runPerProcessorPrograms(sim::Machine &machine,
                                  const ir::IterationPool &pool,
                                  sim::Tick tick_limit = 1000000000ull);

/** runPerProcessorPrograms over hand-built program lists. */
RunResult runPerProcessorPrograms(
    sim::Machine &machine,
    const std::vector<std::vector<sim::Program>> &per_proc,
    sim::Tick tick_limit = 1000000000ull);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_RUNTIME_HH
