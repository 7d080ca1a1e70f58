/** @file Cedar-style combined keyed accesses (section 3.1, [26]). */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "sim/machine.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"

using namespace psync;

namespace {

core::RunConfig
memConfig(bool combining, unsigned procs = 4)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = sim::FabricKind::memory;
    cfg.scheme.cedarCombining = combining;
    cfg.tickLimit = 50000000;
    return cfg;
}

} // namespace

TEST(CedarCombiningTest, CorrectOnFig21)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    auto r = core::runDoacross(
        loop, sync::SchemeKind::referenceBased, memConfig(true));
    ASSERT_TRUE(r.run.completed);
    EXPECT_TRUE(r.correct())
        << (r.violations.empty() ? "" : r.violations.front());
}

TEST(CedarCombiningTest, CorrectOnNestedAndBranches)
{
    dep::Loop nested = workloads::makeNestedLoop(8, 8);
    auto r1 = core::runDoacross(
        nested, sync::SchemeKind::referenceBased, memConfig(true));
    ASSERT_TRUE(r1.run.completed);
    EXPECT_TRUE(r1.correct());
}

TEST(CedarCombiningTest, OneTransactionPerAccess)
{
    // Split mode: wait polls + access + RMW per reference.
    // Combined mode: one interconnect transaction per reference
    // (plus module-local retries that never touch the bus).
    dep::Loop loop = workloads::makeFig21Loop(64);
    auto split = core::runDoacross(
        loop, sync::SchemeKind::referenceBased, memConfig(false));
    auto combined = core::runDoacross(
        loop, sync::SchemeKind::referenceBased, memConfig(true));
    ASSERT_TRUE(split.run.completed);
    ASSERT_TRUE(combined.run.completed);
    EXPECT_LT(combined.run.dataBusTransactions,
              split.run.dataBusTransactions / 2);
    EXPECT_LT(combined.run.cycles, split.run.cycles);
}

TEST(CedarCombiningTest, KeyedOpsCounted)
{
    dep::Loop loop = workloads::makeFig21Loop(32);
    core::TraceChecker checker;
    auto cfg = memConfig(true);
    sim::Machine machine(cfg.machine, &checker);
    auto *fab = dynamic_cast<sim::MemorySyncFabric *>(
        &machine.fabric());
    ASSERT_NE(fab, nullptr);

    dep::DepGraph graph(loop);
    dep::DataLayout layout(loop);
    auto scheme = sync::makeScheme(sync::SchemeKind::referenceBased);
    scheme->plan(graph, layout, machine.fabric(), cfg.scheme);
    std::vector<sim::Program> programs;
    for (std::uint64_t i = 1; i <= 32; ++i)
        programs.push_back(scheme->emit(i));
    auto r = core::runProgramPool(
        machine, programs, core::SchedulePolicy::selfScheduling);
    ASSERT_TRUE(r.completed);
    // 5 references per iteration.
    EXPECT_EQ(fab->keyedOps(), 5u * 32u);
}

TEST(CedarCombiningTest, RegisterFabricRejectsKeyedOps)
{
    sim::MachineConfig mc;
    mc.numProcs = 1;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 16;
    sim::Machine m(mc);
    m.fabric().allocate(1, 0);
    std::vector<sim::Program> progs(1);
    progs[0].iter = 1;
    progs[0].ops = {sim::Op::mkKeyed(false, 0, 0, 8, 0)};
    // The plan is at fault, not the simulator: the run fails with a
    // message instead of aborting the process.
    core::RunResult r = core::runProgramPool(
        m, progs, core::SchedulePolicy::staticCyclic);
    EXPECT_FALSE(r.completed);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors[0].find("memory-resident keys"),
              std::string::npos);
}

TEST(CedarCombiningTest, ParkedRequestsRetryAtModuleOnly)
{
    // Force parking: a keyed request whose key starts below the
    // threshold, satisfied later by another keyed access.
    core::RunConfig cfg = memConfig(true, 2);
    sim::Machine m(cfg.machine);
    auto *fab = dynamic_cast<sim::MemorySyncFabric *>(&m.fabric());
    ASSERT_NE(fab, nullptr);
    fab->allocate(1, 0);

    std::vector<std::vector<sim::Program>> progs(2);
    progs[0].resize(1);
    progs[0][0].iter = 1;
    progs[0][0].ops = {sim::Op::mkKeyed(false, 0, 1, 8, 0)};
    progs[1].resize(1);
    progs[1][0].iter = 2;
    progs[1][0].ops = {sim::Op::mkCompute(100),
                       sim::Op::mkKeyed(true, 0, 0, 8, 0)};
    auto r = core::runPerProcessorPrograms(m, progs);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(fab->keyedRetries(), 1u);
    EXPECT_EQ(fab->peek(0), 2u); // both accesses incremented
}
