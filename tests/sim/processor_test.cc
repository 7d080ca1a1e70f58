/** @file Processor op interpretation and cycle accounting. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hh"

using namespace psync::sim;
using psync::ir::Iteration;

namespace {

/** Dispatch a fixed program list to processor 0, nothing to rest. */
Processor::Dispatch
oneProcDispatch(const std::vector<Program> &programs, size_t &next)
{
    return [&programs, &next](ProcId who,
                              std::function<void(const Iteration *)> cb) {
        if (who != 0 || next >= programs.size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(programs[next++]);
        cb(&it);
    };
}

MachineConfig
regConfig(unsigned procs = 2)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.fabric = FabricKind::registers;
    cfg.syncRegisters = 64;
    return cfg;
}

} // namespace

TEST(ProcessorTest, ComputeAccumulatesBusyCycles)
{
    Machine m(regConfig(1));
    std::vector<Program> progs(1);
    progs[0].iter = 1;
    progs[0].ops = {Op::mkCompute(10), Op::mkCompute(5)};
    size_t next = 0;
    ASSERT_TRUE(m.run(oneProcDispatch(progs, next)));
    EXPECT_EQ(m.proc(0).computeCycles(), 15u);
    EXPECT_EQ(m.proc(0).programsRun(), 1u);
    EXPECT_EQ(m.completionTick(), 15u);
}

TEST(ProcessorTest, DataAccessCountsStall)
{
    Machine m(regConfig(1));
    std::vector<Program> progs(1);
    progs[0].iter = 1;
    progs[0].ops = {Op::mkData(false, 64, 0),
                    Op::mkData(true, 128, 0)};
    size_t next = 0;
    ASSERT_TRUE(m.run(oneProcDispatch(progs, next)));
    // Each access: 1 bus + 4 service cycles.
    EXPECT_EQ(m.proc(0).stallCycles(), 10u);
    EXPECT_EQ(m.memory().totalAccesses(), 2u);
}

TEST(ProcessorTest, WaitGESpinsUntilSignaled)
{
    Machine m(regConfig(2));
    SyncVarId v = m.fabric().allocate(1, 0);

    std::vector<Program> p0(1), p1(1);
    p0[0].iter = 1;
    p0[0].ops = {Op::mkWaitGE(v, 1), Op::mkCompute(1)};
    p1[0].iter = 2;
    p1[0].ops = {Op::mkCompute(50), Op::mkWrite(v, 1)};

    std::vector<std::vector<Program> *> lists{&p0, &p1};
    std::vector<size_t> next(2, 0);
    auto dispatch = [&](ProcId who,
                        std::function<void(const Iteration *)> cb) {
        auto &list = *lists[who];
        if (next[who] >= list.size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(list[next[who]++]);
        cb(&it);
    };
    ASSERT_TRUE(m.run(dispatch));
    EXPECT_GE(m.proc(0).spinCycles(), 48u);
    EXPECT_EQ(m.proc(0).syncOpsIssued(), 1u);
}

TEST(ProcessorTest, PcMarkSkipsWhenNotOwned)
{
    Machine m(regConfig(1));
    SyncVarId v = m.fabric().allocate(1, 0);
    // PC owned by process 1; process 5 marks without owning.
    m.fabric().poke(v, PcWord::pack(1, 0));

    std::vector<Program> progs(1);
    progs[0].iter = 5;
    progs[0].ops = {Op::mkPcMark(v, PcWord::pack(5, 1))};
    size_t next = 0;
    ASSERT_TRUE(m.run(oneProcDispatch(progs, next)));
    EXPECT_EQ(m.proc(0).marksSkipped(), 1u);
    EXPECT_EQ(m.fabric().peek(v), PcWord::pack(1, 0));
}

TEST(ProcessorTest, PcMarkWritesWhenTransferred)
{
    Machine m(regConfig(1));
    SyncVarId v = m.fabric().allocate(1, 0);
    m.fabric().poke(v, PcWord::pack(5, 0)); // transferred to 5

    std::vector<Program> progs(1);
    progs[0].iter = 5;
    progs[0].ops = {Op::mkPcMark(v, PcWord::pack(5, 2)),
                    Op::mkPcMark(v, PcWord::pack(5, 3))};
    size_t next = 0;
    ASSERT_TRUE(m.run(oneProcDispatch(progs, next)));
    EXPECT_EQ(m.proc(0).marksSkipped(), 0u);
    EXPECT_EQ(m.fabric().peek(v), PcWord::pack(5, 3));
}

TEST(ProcessorTest, PcTransferAcquiresThenHandsOff)
{
    Machine m(regConfig(2));
    SyncVarId v = m.fabric().allocate(1, 0);
    m.fabric().poke(v, PcWord::pack(1, 0));

    // Process 1 (proc 0) releases late; process 3 (proc 1, X=2)
    // must wait for ownership before transferring to process 5.
    std::vector<Program> p0(1), p1(1);
    p0[0].iter = 1;
    p0[0].ops = {Op::mkCompute(30),
                 Op::mkPcTransfer(v, PcWord::pack(3, 0),
                                  PcWord::pack(1, 0))};
    p1[0].iter = 3;
    p1[0].ops = {Op::mkPcTransfer(v, PcWord::pack(5, 0),
                                  PcWord::pack(3, 0))};

    std::vector<std::vector<Program> *> lists{&p0, &p1};
    std::vector<size_t> next(2, 0);
    auto dispatch = [&](ProcId who,
                        std::function<void(const Iteration *)> cb) {
        auto &list = *lists[who];
        if (next[who] >= list.size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(list[next[who]++]);
        cb(&it);
    };
    ASSERT_TRUE(m.run(dispatch));
    EXPECT_EQ(m.fabric().peek(v), PcWord::pack(5, 0));
    EXPECT_GE(m.proc(1).spinCycles(), 25u);
}

TEST(ProcessorTest, CtrBarrierReleasesAllArrivals)
{
    Machine m(regConfig(4));
    SyncVarId ctr = m.fabric().allocate(1, 0);
    SyncVarId rel = m.fabric().allocate(1, 0);

    std::vector<std::vector<Program>> lists(4,
                                            std::vector<Program>(1));
    for (unsigned p = 0; p < 4; ++p) {
        lists[p][0].iter = p + 1;
        lists[p][0].ops = {Op::mkCompute(p * 10),
                           Op::mkCtrBarrier(ctr, rel, 1, 4),
                           Op::mkCompute(1)};
    }
    std::vector<size_t> next(4, 0);
    auto dispatch = [&](ProcId who,
                        std::function<void(const Iteration *)> cb) {
        if (next[who] >= lists[who].size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(lists[who][next[who]++]);
        cb(&it);
    };
    ASSERT_TRUE(m.run(dispatch));
    EXPECT_EQ(m.fabric().peek(ctr), 4u);
    EXPECT_EQ(m.fabric().peek(rel), 1u);
    // Everyone halts after the slowest arrival (30 cycles of work).
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_GE(m.proc(p).haltTick(), 30u);
}

TEST(ProcessorTest, HaltsWhenDispatchReturnsNull)
{
    Machine m(regConfig(2));
    auto dispatch = [](ProcId, std::function<void(const Iteration *)> cb) {
        cb(nullptr);
    };
    ASSERT_TRUE(m.run(dispatch));
    EXPECT_TRUE(m.proc(0).halted());
    EXPECT_TRUE(m.proc(1).halted());
    EXPECT_EQ(m.completionTick(), 0u);
}
