/** @file Machine assembly and configuration. */

#include <gtest/gtest.h>

#include "sim/machine.hh"

using namespace psync::sim;
using psync::ir::Iteration;

TEST(MachineTest, BusMachineExposesDataBus)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    Machine m(cfg);
    EXPECT_NE(m.dataBus(), nullptr);
    EXPECT_EQ(&m.dataNet(), m.dataBus());
    EXPECT_EQ(m.numProcs(), 4u);
}

TEST(MachineTest, OmegaMachineHasNoBus)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.interconnect = InterconnectKind::omega;
    Machine m(cfg);
    EXPECT_EQ(m.dataBus(), nullptr);
}

TEST(MachineTest, RegisterFabricHasSyncBus)
{
    MachineConfig cfg;
    cfg.fabric = FabricKind::registers;
    Machine reg(cfg);
    EXPECT_NE(reg.syncBus(), nullptr);
    EXPECT_EQ(reg.fabric().kind(), FabricKind::registers);

    cfg.fabric = FabricKind::memory;
    Machine mem(cfg);
    EXPECT_EQ(mem.syncBus(), nullptr);
    EXPECT_EQ(mem.fabric().kind(), FabricKind::memory);
}

TEST(MachineTest, ZeroProcessorsFatal)
{
    MachineConfig cfg;
    cfg.numProcs = 0;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "at least one processor");
}

TEST(MachineTest, CompletionTickIsLastHalt)
{
    MachineConfig cfg;
    cfg.numProcs = 3;
    Machine m(cfg);
    std::vector<std::vector<Program>> progs(3);
    for (unsigned p = 0; p < 3; ++p) {
        progs[p].resize(1);
        progs[p][0].iter = p + 1;
        progs[p][0].ops = {Op::mkCompute(10 * (p + 1))};
    }
    std::vector<size_t> next(3, 0);
    auto dispatch = [&](ProcId who,
                        std::function<void(const Iteration *)> cb) {
        if (next[who] >= progs[who].size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(progs[who][next[who]++]);
        cb(&it);
    };
    ASSERT_TRUE(m.run(dispatch));
    EXPECT_EQ(m.completionTick(), 30u);
}

TEST(MachineTest, KindNames)
{
    EXPECT_STREQ(interconnectKindName(InterconnectKind::bus), "bus");
    EXPECT_STREQ(interconnectKindName(InterconnectKind::omega),
                 "omega");
    EXPECT_STREQ(fabricKindName(FabricKind::registers), "registers");
    EXPECT_STREQ(fabricKindName(FabricKind::memory), "memory");
}

TEST(MachineTest, RunReportsBlockedProcessorsAsIncomplete)
{
    MachineConfig cfg;
    cfg.numProcs = 1;
    Machine m(cfg);
    SyncVarId v = m.fabric().allocate(1, 0);
    std::vector<Program> progs(1);
    progs[0].iter = 1;
    progs[0].ops = {Op::mkWaitGE(v, 1)};
    size_t next = 0;
    auto dispatch = [&](ProcId, std::function<void(const Iteration *)> cb) {
        if (next >= progs.size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(progs[next++]);
        cb(&it);
    };
    // Register-fabric waiter parks; the queue drains but the
    // processor never halts.
    EXPECT_FALSE(m.run(dispatch, 100000));
}
