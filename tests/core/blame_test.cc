/** @file Blame reducer: wait-chain attribution from trace events. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/blame.hh"
#include "core/runtime.hh"
#include "sync/barrier.hh"
#include "workloads/butterfly.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

/** Log pre-loaded with a known wait/heat pattern. */
void
handBuiltTrace(sim::TraceLog &log)
{
    using sim::TraceEvent;
    log.nameSyncVar(3, "pc[0]");
    log.nameSyncVar(7, "sc[2]");

    // var 3: proc 1 blocked twice (30 + 10), proc 2 once (60).
    log.push(TraceEvent::wait(1, 3, 11, 100, 130));
    log.push(TraceEvent::wait(1, 3, 11, 200, 210));
    log.push(TraceEvent::wait(2, 3, 11, 100, 160));
    // var 7: one short wait.
    log.push(TraceEvent::wait(0, 7, 12, 50, 55));
    // var 9: unlabeled.
    log.push(TraceEvent::wait(3, 9, 13, 10, 12));

    log.push(TraceEvent::busy(sim::Resource::module, 0, 1, 0, 40));
    log.push(TraceEvent::busy(sim::Resource::module, 0, 2, 40, 60));
    log.push(TraceEvent::busy(sim::Resource::module, 5, 1, 0, 10));
    // Non-module resources must not leak into the heatmap.
    log.push(TraceEvent::busy(sim::Resource::bus, 0, 1, 0, 500));
}

} // namespace

TEST(BlameTest, AttributesWaitEdgesPerVariable)
{
    sim::TraceLog rec;
    handBuiltTrace(rec);
    core::RunResult run;
    run.numProcs = 4;
    run.cycles = 250;
    run.spinCycles = 30 + 10 + 60 + 5 + 2;

    core::BlameReport report =
        core::buildBlameReport(rec, run, 200);

    ASSERT_EQ(report.vars.size(), 3u);
    // Sorted by descending blocked cycles: var 3 (100) first.
    EXPECT_EQ(report.vars[0].var, 3u);
    EXPECT_EQ(report.vars[0].name(), "pc[0]");
    EXPECT_EQ(report.vars[0].waits, 3u);
    EXPECT_EQ(report.vars[0].blockedCycles, 100u);
    EXPECT_EQ(report.vars[0].maxWait, 60u);
    ASSERT_EQ(report.vars[0].perProc.size(), 2u);
    EXPECT_EQ(report.vars[0].perProc.at(1), 40u);
    EXPECT_EQ(report.vars[0].perProc.at(2), 60u);

    EXPECT_EQ(report.vars[1].var, 7u);
    EXPECT_EQ(report.vars[1].name(), "sc[2]");
    EXPECT_EQ(report.vars[1].blockedCycles, 5u);

    EXPECT_EQ(report.vars[2].var, 9u);
    EXPECT_EQ(report.vars[2].name(), "v9");
    EXPECT_EQ(report.vars[2].blockedCycles, 2u);

    // The same events attribute per wait site.
    ASSERT_EQ(report.sites.size(), 3u);
    EXPECT_EQ(report.sites[0].name(), "pc[0]@op11");
    EXPECT_EQ(report.sites[0].waits, 3u);
    EXPECT_EQ(report.sites[0].blockedCycles, 100u);

    // Every spin cycle in the hand-built run is covered.
    EXPECT_EQ(report.attributedSpinCycles, 107u);
    EXPECT_EQ(report.totalSpinCycles, run.spinCycles);
    EXPECT_DOUBLE_EQ(report.spinCoverage(), 1.0);
    EXPECT_DOUBLE_EQ(report.slackFactor(), 250.0 / 200.0);
}

TEST(BlameTest, ModuleHeatmapCountsOnlyMemoryModules)
{
    sim::TraceLog rec;
    handBuiltTrace(rec);
    core::RunResult run;
    run.numProcs = 4;
    run.cycles = 250;

    core::BlameReport report = core::buildBlameReport(rec, run);

    ASSERT_EQ(report.modules.size(), 2u);
    EXPECT_EQ(report.modules[0].module, 0u);
    EXPECT_EQ(report.modules[0].busyCycles, 60u);
    EXPECT_EQ(report.modules[0].accesses, 2u);
    EXPECT_EQ(report.modules[1].module, 5u);
    EXPECT_EQ(report.modules[1].busyCycles, 10u);
    // bound = 0 disables the slack factor.
    EXPECT_DOUBLE_EQ(report.slackFactor(), 0.0);
}

TEST(BlameTest, JsonAndTextCarryTheAttribution)
{
    sim::TraceLog rec;
    handBuiltTrace(rec);
    core::RunResult run;
    run.numProcs = 4;
    run.cycles = 250;
    run.spinCycles = 107;

    core::BlameReport report =
        core::buildBlameReport(rec, run, 200);

    core::json::Value j = report.toJson();
    const core::json::Value *vars = j.find("vars");
    ASSERT_NE(vars, nullptr);
    ASSERT_TRUE(vars->isArray());
    ASSERT_EQ(vars->asArray().size(), 3u);
    const core::json::Value &top = vars->asArray()[0];
    EXPECT_EQ(top.find("label")->asString(), "pc[0]");
    EXPECT_EQ(top.find("blocked_cycles")->asNumber(), 100);
    const core::json::Value *coverage = j.find("spin_coverage");
    ASSERT_NE(coverage, nullptr);
    EXPECT_DOUBLE_EQ(coverage->asNumber(), 1.0);

    std::ostringstream os;
    report.writeText(os);
    EXPECT_NE(os.str().find("contention blame"), std::string::npos);
    EXPECT_NE(os.str().find("pc[0]"), std::string::npos);
    EXPECT_NE(os.str().find("memory-module heat"),
              std::string::npos);
}

// End-to-end guarantee behind `psync_bench --report`: on the
// Fig. 3.2 jitter workload, the processors' wait events must
// account for at least 95% of their accumulated spin cycles.
TEST(BlameTest, SpinCoverageOnFig32JitterRun)
{
    dep::Loop loop =
        workloads::makeFig21JitterLoop(256, 8, 800, 0.15, 1234);
    sim::TraceLog rec;
    core::RunConfig cfg;
    cfg.machine.numProcs = 8;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 22;
    cfg.scheme.numPcs = 16;
    cfg.tracer = &rec;

    auto r = core::runDoacross(
        loop, sync::SchemeKind::statementOriented, cfg);
    ASSERT_TRUE(r.run.completed);
    ASSERT_GT(r.run.spinCycles, 0u);

    core::BlameReport report =
        core::buildBlameReport(rec, r.run);
    EXPECT_GE(report.spinCoverage(), 0.95);
    EXPECT_LE(report.spinCoverage(), 1.0 + 1e-9);
    EXPECT_FALSE(report.vars.empty());
}

// Counter barriers book the fetch&add leg of an arrival as spin;
// the processor's wait event starts where that spin does, so every
// spin cycle is attributed on both fabric organizations.
TEST(BlameTest, CounterBarrierSpinIsFullyAttributed)
{
    for (auto fabric :
         {sim::FabricKind::registers, sim::FabricKind::memory}) {
        sim::MachineConfig mcfg;
        mcfg.numProcs = 8;
        mcfg.fabric = fabric;
        sim::TraceLog log;
        sim::Machine machine(mcfg, nullptr, &log);
        workloads::BarrierSpec spec;
        spec.numProcs = 8;
        sync::CounterBarrier barrier(machine.fabric(), 8);
        auto progs =
            workloads::buildCounterBarrierPrograms(barrier, spec);
        core::RunResult run =
            core::runPerProcessorPrograms(machine, progs);
        ASSERT_TRUE(run.completed) << sim::fabricKindName(fabric);
        ASSERT_GT(run.spinCycles, 0u) << sim::fabricKindName(fabric);

        core::BlameReport report = core::buildBlameReport(log, run);
        EXPECT_EQ(report.attributedSpinCycles, run.spinCycles)
            << sim::fabricKindName(fabric);
        EXPECT_DOUBLE_EQ(report.spinCoverage(), 1.0)
            << sim::fabricKindName(fabric);
    }
}
