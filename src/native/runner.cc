#include "native/runner.hh"

#include "core/value_rule.hh"
#include "core/value_trace.hh"
#include "sim/machine.hh"

namespace psync {
namespace native {

NativeDoacrossResult
runDoacrossNative(const dep::Loop &loop, sync::SchemeKind kind,
                  const core::RunConfig &cfg,
                  const NativeConfig &ncfg)
{
    NativeDoacrossResult result;

    // Planning-only machine: schemes allocate and initialize their
    // sync variables against its fabric; nothing is simulated.
    sim::Machine planning(cfg.machine);
    core::PlannedDoacross planned =
        core::planDoacross(loop, kind, cfg, planning.fabric());
    result.plan = std::move(planned.plan);

    NativeSyncFabric fabric(planning.fabric(), ncfg.spinLimit);
    NativeDataMemory data(planned.image);
    NativeExecutor executor(fabric, data, ncfg);
    result.run = executor.runPool(planned.pool, cfg.schedule, cfg.chunkSize);

    if (cfg.checkTrace && ncfg.recordAccesses) {
        core::TraceChecker checker;
        executor.replayAccesses(checker);
        result.violations =
            checker.verify(loop, result.plan.depsVerified);
        result.instancesChecked = checker.instancesChecked();
        result.valueMismatches = executor.verifyValues();

        core::ValueTrace values;
        executor.replayAccesses(values);
        result.memory = values.memory();
        result.reads = values.reads();
    }
    return result;
}

} // namespace native
} // namespace psync
