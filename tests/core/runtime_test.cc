/** @file Scheduling policies, baselines, init-cost accounting. */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

core::RunConfig
regConfig(unsigned procs = 4)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1024;
    cfg.tickLimit = 20000000;
    return cfg;
}

} // namespace

TEST(RuntimeTest, SequentialBaselineMatchesHandCount)
{
    // 4 iterations x 5 statements x (cost 8 + one access of 1 bus +
    // 4 service cycles) = 4 * 5 * 13 = 260, plus dispatch RMWs.
    dep::Loop loop = workloads::makeFig21Loop(4);
    sim::MachineConfig mc = regConfig(1).machine;
    sim::Tick seq = core::sequentialCycles(loop, mc);
    EXPECT_GE(seq, 260u);
    EXPECT_LE(seq, 300u);
}

TEST(RuntimeTest, SelfSchedulingGeneratesDispatchTraffic)
{
    dep::Loop loop = workloads::makeFig21Loop(32);
    auto dynamic_cfg = regConfig();
    auto static_cfg = regConfig();
    static_cfg.schedule = core::SchedulePolicy::staticCyclic;

    auto dyn = core::runDoacross(
        loop, sync::SchemeKind::processImproved, dynamic_cfg);
    auto sta = core::runDoacross(
        loop, sync::SchemeKind::processImproved, static_cfg);
    ASSERT_TRUE(dyn.run.completed);
    ASSERT_TRUE(sta.run.completed);
    // Dynamic scheduling pays one shared-counter RMW per program
    // (plus final empty fetches).
    EXPECT_GE(dyn.run.memAccesses,
              sta.run.memAccesses + loop.iterations());
}

TEST(RuntimeTest, EveryIterationRunsExactlyOnce)
{
    dep::Loop loop = workloads::makeFig21Loop(40);
    for (auto policy : {core::SchedulePolicy::selfScheduling,
                        core::SchedulePolicy::staticCyclic}) {
        auto cfg = regConfig(3);
        cfg.schedule = policy;
        auto r = core::runDoacross(
            loop, sync::SchemeKind::processImproved, cfg);
        ASSERT_TRUE(r.run.completed);
        EXPECT_EQ(r.run.programsRun, 40u);
    }
}

TEST(RuntimeTest, InitCostScalesWithSyncVars)
{
    dep::Loop loop = workloads::makeFig21Loop(128);
    auto cfg = regConfig(4);
    cfg.scheme.numPcs = 8;
    auto process = core::runDoacross(
        loop, sync::SchemeKind::processImproved, cfg);

    auto mem_cfg = regConfig(4);
    mem_cfg.machine.fabric = sim::FabricKind::memory;
    auto reference = core::runDoacross(
        loop, sync::SchemeKind::referenceBased, mem_cfg);

    EXPECT_LT(process.initCycles, 20u);
    // One key per element (131): init dwarfs the PC scheme's.
    EXPECT_GT(reference.initCycles, 100u);
}

TEST(RuntimeTest, DeadlockReportsIncomplete)
{
    // A machine with one processor and a loop with a genuine
    // cross-iteration dependence chain cannot deadlock; instead
    // build an artificial wait-on-nothing via per-processor
    // programs.
    sim::MachineConfig mc = regConfig(2).machine;
    sim::Machine machine(mc);
    sim::SyncVarId v = machine.fabric().allocate(1, 0);
    std::vector<std::vector<sim::Program>> progs(2);
    progs[0].resize(1);
    progs[0][0].iter = 1;
    progs[0][0].ops = {sim::Op::mkWaitGE(v, 1)};
    progs[1].resize(1);
    progs[1][0].iter = 2;
    progs[1][0].ops = {sim::Op::mkCompute(5)};
    auto r = core::runPerProcessorPrograms(machine, progs, 10000);
    EXPECT_FALSE(r.completed);
}

TEST(RuntimeTest, MoreProcessorsDoNotSlowDown)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    sim::Tick prev = sim::maxTick;
    for (unsigned p : {1u, 2u, 4u, 8u}) {
        auto cfg = regConfig(p);
        auto r = core::runDoacross(
            loop, sync::SchemeKind::processImproved, cfg);
        ASSERT_TRUE(r.run.completed);
        EXPECT_LE(r.run.cycles, prev + prev / 10)
            << "P=" << p;
        prev = r.run.cycles;
    }
}

TEST(RuntimeTest, UtilizationBounded)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    auto r = core::runDoacross(loop,
                               sync::SchemeKind::processImproved,
                               regConfig(4));
    ASSERT_TRUE(r.run.completed);
    EXPECT_GT(r.run.utilization(), 0.0);
    EXPECT_LE(r.run.utilization(), 1.0);
    EXPECT_LE(r.run.spinFraction(), 1.0);
}
