#include "core/runtime.hh"

#include "core/value_trace.hh"
#include "sim/logging.hh"

namespace psync {
namespace core {

namespace {

/** Shared-memory word used by the self-scheduling dispatcher. */
constexpr sim::Addr dispatchCounterAddr = sim::Addr(1) << 39;

/** Analytic initialization cost of a scheme's sync variables. */
sim::Tick
initCost(const sync::SchemePlan &plan, const sim::MachineConfig &mc)
{
    if (plan.initWrites == 0)
        return 0;
    if (mc.fabric == sim::FabricKind::registers)
        return plan.initWrites * mc.syncBusCycles;
    // Hierarchical: init writes serialize on at least their local
    // cluster bus (worst case all from one cluster is more, so this
    // stays a lower bound).
    if (mc.fabric == sim::FabricKind::hierarchical)
        return plan.initWrites * mc.clusterBusCycles;
    // Combining fabric: writes from one port serialize at the
    // injection port and the slowest one still crosses a stage.
    if (mc.fabric == sim::FabricKind::combining)
        return plan.initWrites * mc.netPortCycles + mc.netStageCycles;
    // Memory-resident variables: the writes serialize on the data
    // bus; module service overlaps across interleaved modules.
    return plan.initWrites * mc.dataBusCycles + mc.memory.serviceCycles;
}

/**
 * Run `pool` on `machine` under `dispatch`: a processor whose cursor
 * is drained claims with a fetch&add on the dispatch counter, priced
 * by the memory system, when the dispatch claims.
 */
RunResult
runDispatched(sim::Machine &machine, const ir::IterationPool &pool,
              const Dispatch &dispatch, sim::Tick tick_limit)
{
    using Callback = std::function<void(const ir::Iteration *)>;
    std::vector<Cursor> cursors;
    for (unsigned p = 0; p < dispatch.lanes(); ++p)
        cursors.push_back(dispatch.start(p));

    auto hand = [&pool](Cursor &cursor, const Callback &cb) {
        if (cursor.empty())
            return cb(nullptr);
        const ir::Iteration it = pool.at(cursor.take());
        cb(&it);
    };
    auto next = [&](sim::ProcId who, Callback cb) {
        if (!cursors[who].empty() || !dispatch.claims())
            return hand(cursors[who], cb);
        machine.memory().rmw(
            who, dispatchCounterAddr,
            [&dispatch](sim::SyncWord old) {
                return old + dispatch.claimSize(old);
            },
            [&, who, cb = std::move(cb)](sim::SyncWord old) {
                Cursor &cursor = cursors[who];
                if (dispatch.refill(cursor, old))
                    PSYNC_DPRINTF(machine.eventq(), Sched,
                                  "proc %u claims iters [%llu, %llu]", who,
                                  static_cast<unsigned long long>(old + 1),
                                  static_cast<unsigned long long>(
                                      cursor.end));
                hand(cursor, cb);
            });
    };
    return collectResult(machine, machine.run(next, tick_limit));
}

} // namespace

PlannedDoacross
planDoacross(const dep::Loop &loop, sync::SchemeKind kind,
             const RunConfig &cfg, sim::SyncFabric &fabric)
{
    PlannedDoacross planned;

    // Coverage elimination justifies dropped arcs by chains that
    // may pass through linearization-only boundary arcs; exact-
    // boundary codegen skips those waits, so the two cannot be
    // combined.
    bool eliminate_covered =
        cfg.eliminateCoveredDeps && !cfg.scheme.exactBoundaries;
    dep::DepGraph graph(loop, eliminate_covered);
    dep::DataLayout layout(loop, cfg.machine.memory.wordBytes);

    std::unique_ptr<sync::Scheme> scheme = sync::makeScheme(kind);
    sync::SchemeConfig scheme_cfg = cfg.scheme;
    if (scheme_cfg.tracer == nullptr)
        scheme_cfg.tracer = cfg.tracer;
    planned.plan = scheme->plan(graph, layout, fabric, scheme_cfg);

    planned.pool = ir::lowerPool(
        *scheme, loop.iterations(),
        static_cast<std::uint64_t>(loop.innerTrip()), cfg.passes,
        [&fabric](sim::SyncVarId var) { return fabric.peek(var); },
        planned.passStats);

    // DataLayout puts array element k at k * wordBytes.
    const sim::Addr word_bytes = cfg.machine.memory.wordBytes;
    if (word_bytes == 0 || (word_bytes & (word_bytes - 1)) != 0)
        sim::fatal("data word size %llu is not a power of two",
                   static_cast<unsigned long long>(word_bytes));
    unsigned shift = 0;
    while ((sim::Addr{1} << shift) < word_bytes)
        ++shift;
    planned.image.addRegion(0, layout.totalElements(), shift);
    scheme->addRenamedRegions(planned.image);

    if (cfg.passes.enabled && cfg.passes.verify &&
        !planned.passStats.verified) {
        sim::fatal("IR verifier rejected the %s plan for %s: %s%s",
                   sync::schemeKindName(kind), loop.name.c_str(),
                   planned.passStats.verifierErrors[0].c_str(),
                   planned.passStats.verifierErrors.size() > 1
                       ? " (more errors follow)"
                       : "");
    }
    return planned;
}

DoacrossResult
runDoacross(const dep::Loop &loop, sync::SchemeKind kind,
            const RunConfig &cfg)
{
    DoacrossResult result;

    TraceChecker checker;
    TeeSink tee(&checker, cfg.extraSink);
    sim::TraceSink *sink = nullptr;
    if (cfg.checkTrace)
        sink = cfg.extraSink ? static_cast<sim::TraceSink *>(&tee)
                             : &checker;
    else
        sink = cfg.extraSink;
    sim::Machine machine(cfg.machine, sink, cfg.tracer);

    PlannedDoacross planned =
        planDoacross(loop, kind, cfg, machine.fabric());
    result.plan = std::move(planned.plan);
    result.passStats = planned.passStats;
    result.initCycles = initCost(result.plan, cfg.machine);

    result.run = runProgramPool(machine, planned.pool,
                                cfg.schedule, cfg.tickLimit,
                                cfg.chunkSize);
    if (cfg.checkTrace) {
        result.violations =
            checker.verify(loop, result.plan.depsVerified);
        result.instancesChecked = checker.instancesChecked();
    }
    return result;
}

RunResult
runProgramPool(sim::Machine &machine,
               const std::vector<sim::Program> &programs,
               SchedulePolicy policy, sim::Tick tick_limit,
               std::uint64_t chunk_size)
{
    return runProgramPool(machine, ir::IterationPool::borrow(programs),
                          policy, tick_limit, chunk_size);
}

RunResult
runProgramPool(sim::Machine &machine, const ir::IterationPool &pool,
               SchedulePolicy policy, sim::Tick tick_limit,
               std::uint64_t chunk_size)
{
    return runDispatched(
        machine, pool,
        Dispatch(policy, chunk_size, pool.size(), machine.numProcs()),
        tick_limit);
}

sim::Tick
sequentialCycles(const dep::Loop &loop,
                 const sim::MachineConfig &machine_cfg)
{
    RunConfig cfg;
    cfg.machine = machine_cfg;
    cfg.machine.numProcs = 1;
    cfg.schedule = SchedulePolicy::staticCyclic;
    cfg.checkTrace = false;
    DoacrossResult r = runDoacross(loop, sync::SchemeKind::none, cfg);
    if (!r.run.completed)
        sim::panic("sequential run hit the tick limit");
    return r.run.cycles;
}

RunResult
runPerProcessorPrograms(
    sim::Machine &machine,
    const std::vector<std::vector<sim::Program>> &per_proc,
    sim::Tick tick_limit)
{
    return runPerProcessorPrograms(
        machine, ir::IterationPool::borrow(per_proc), tick_limit);
}

RunResult
runPerProcessorPrograms(sim::Machine &machine,
                        const ir::IterationPool &pool,
                        sim::Tick tick_limit)
{
    const std::vector<std::size_t> &lanes = pool.lanes();
    if (lanes.size() != machine.numProcs() + 1u)
        sim::fatal("program lists (%zu) != processors (%u)",
                   lanes.empty() ? std::size_t{0} : lanes.size() - 1,
                   machine.numProcs());

    return runDispatched(machine, pool, Dispatch(lanes), tick_limit);
}

} // namespace core
} // namespace psync
