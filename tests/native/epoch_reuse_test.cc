/**
 * @file
 * Epoch-based sync-variable reuse on the native fabric.
 *
 * The load-bearing property: a fabric that serves N submissions of
 * one cached plan through beginEpoch() (no per-word reinit) must
 * produce N memory/read images bit-identical to N fresh-init runs
 * of the same plan — across every scheme.
 * Plus the recovery path a long-lived fabric needs: a watchdog
 * timeout aborts the fabric, and the next beginEpoch() clears the
 * abort so a clean plan runs to completion on the same arena.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>

#include "core/plan_cache.hh"
#include "core/value_trace.hh"
#include "native/executor.hh"
#include "workloads/fig21.hh"

using namespace psync;
using namespace std::chrono_literals;

namespace {

core::RunConfig
configFor(sync::SchemeKind kind)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = 4;
    if (kind == sync::SchemeKind::referenceBased ||
        kind == sync::SchemeKind::instanceBased)
        cfg.machine.fabric = sim::FabricKind::memory;
    else
        cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 20;
    cfg.scheme.numPcs = 16;
    cfg.scheme.numScs = 1u << 20;
    return cfg;
}

struct RunImage
{
    std::map<sim::Addr, std::uint64_t> memory;
    std::map<std::uint64_t, std::uint64_t> reads;
    std::map<sim::Addr, std::uint64_t> rawWords;
};

RunImage
imageOf(native::NativeExecutor &exec, native::NativeDataMemory &data)
{
    core::ValueTrace values;
    exec.replayAccesses(values);
    return {values.memory(), values.reads(), data.snapshot()};
}

/**
 * N epoch-reused rounds vs N fresh-init rounds of one cached plan;
 * every round's functional image, read values and raw final data
 * words must be pairwise identical.
 */
void
epochRoundsMatchFresh(sync::SchemeKind kind, int rounds)
{
    const char *name = sync::schemeKindName(kind);
    dep::Loop loop = workloads::makeFig21Loop(20);
    core::RunConfig cfg = configFor(kind);

    core::PlanCache cache(4);
    auto plan = cache.get(loop, kind, cfg);
    ASSERT_FALSE(plan->initWords.empty()) << name;

    native::NativeConfig ncfg;
    ncfg.numThreads = 4;

    // The long-lived arena: one fabric, one data memory, one
    // executor; each round pays one epoch bump, never a reinit.
    native::NativeSyncFabric fabric(plan->initWords, ncfg.spinLimit);
    fabric.enableEpochReuse();
    native::NativeDataMemory data(plan->image);
    native::NativeExecutor exec(fabric, data, ncfg);

    for (int round = 0; round < rounds; ++round) {
        fabric.beginEpoch();
        data.clearAll();
        auto run =
            exec.runPool(plan->pool, core::SchedulePolicy::selfScheduling);
        ASSERT_TRUE(run.completed)
            << name << " epoch round " << round;
        ASSERT_TRUE(run.errors.empty()) << name;
        EXPECT_TRUE(exec.verifyValues().empty()) << name;
        RunImage reused = imageOf(exec, data);

        // The throwaway path: fresh fabric, fresh data, fresh
        // executor — what every round would cost without epochs.
        native::NativeSyncFabric fresh_fabric(plan->initWords,
                                              ncfg.spinLimit);
        native::NativeDataMemory fresh_data(plan->image);
        native::NativeExecutor fresh_exec(fresh_fabric, fresh_data,
                                          ncfg);
        auto fresh_run = fresh_exec.runPool(
            plan->pool, core::SchedulePolicy::selfScheduling);
        ASSERT_TRUE(fresh_run.completed)
            << name << " fresh round " << round;
        RunImage fresh = imageOf(fresh_exec, fresh_data);

        EXPECT_EQ(reused.memory, fresh.memory)
            << name << " round " << round
            << ": functional memory image diverged";
        EXPECT_EQ(reused.reads, fresh.reads)
            << name << " round " << round
            << ": observed read values diverged";
        EXPECT_EQ(reused.rawWords, fresh.rawWords)
            << name << " round " << round
            << ": raw data words diverged";
    }
    EXPECT_EQ(fabric.epoch(), static_cast<std::uint64_t>(rounds));
}

} // namespace

TEST(EpochReuseTest, LoadSeesInitImageAfterBeginEpoch)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(3, 7));
    const sim::SyncVarId v = 0;
    fabric.poke(v + 2, 41);
    fabric.enableEpochReuse();

    // Epoch 1: writes land normally.
    fabric.store(v, 100);
    EXPECT_EQ(fabric.load(v), 100u);
    EXPECT_EQ(fabric.load(v + 1), 7u);
    EXPECT_EQ(fabric.load(v + 2), 41u);

    // Epoch 2: every word logically reverts to the init image.
    fabric.beginEpoch();
    EXPECT_EQ(fabric.load(v), 7u);
    EXPECT_EQ(fabric.load(v + 1), 7u);
    EXPECT_EQ(fabric.load(v + 2), 41u);

    // fetchAdd on a stale word starts from the init value.
    EXPECT_EQ(fabric.fetchAdd(v, 5), 7u);
    EXPECT_EQ(fabric.load(v), 12u);
}

TEST(EpochReuseTest, AllSchemesShardedRoundsMatchFresh)
{
    for (sync::SchemeKind kind : sync::allSyncSchemes())
        epochRoundsMatchFresh(kind, 3);
}

TEST(EpochReuseTest, TimeoutAbortsThenEpochClearsForCleanRerun)
{
    // A program that waits on a threshold nothing ever writes: the
    // watchdog deadline must turn it into completed=false via
    // abortAll, and beginEpoch() must clear the abort so a healthy
    // program then runs clean on the very same fabric.
    // spin_limit 0: park fast.
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0), 0);
    const sim::SyncVarId v = 0;
    fabric.enableEpochReuse();

    sim::Program stuck;
    stuck.iter = 1;
    stuck.ops = {sim::Op::mkWaitGE(v, 99)};
    sim::Program healthy;
    healthy.iter = 2;
    healthy.ops = {sim::Op::mkWrite(v, 1), sim::Op::mkCompute(1)};

    native::NativeConfig ncfg;
    ncfg.numThreads = 2;
    ncfg.timeoutMs = 200;
    {
        const std::vector<sim::Program> programs = {stuck};
        const ir::IterationPool pool = ir::IterationPool::borrow(programs);
        native::NativeDataMemory data(ir::DataImage::numbered(pool));
        native::NativeExecutor exec(fabric, data, ncfg);
        auto run = exec.runPool(pool, core::SchedulePolicy::selfScheduling);
        EXPECT_FALSE(run.completed);
        EXPECT_TRUE(fabric.aborted());
    }

    // Without an epoch bump the fabric stays poisoned: an
    // unsatisfied wait bails out aborted instead of blocking.
    // (A satisfied wait still succeeds — the value check runs
    // before the abort check — so probe with an unmet threshold.)
    EXPECT_FALSE(fabric.waitGE(v, 99,
                               std::chrono::steady_clock::now() +
                                   100ms)
                     .satisfied);

    fabric.beginEpoch();
    EXPECT_FALSE(fabric.aborted());
    {
        const std::vector<sim::Program> programs = {healthy};
        const ir::IterationPool pool = ir::IterationPool::borrow(programs);
        native::NativeDataMemory data(ir::DataImage::numbered(pool));
        native::NativeExecutor exec(fabric, data, ncfg);
        auto run = exec.runPool(pool, core::SchedulePolicy::selfScheduling);
        EXPECT_TRUE(run.completed);
        EXPECT_TRUE(run.errors.empty());
    }
}
