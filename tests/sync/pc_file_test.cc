/** @file Raw PC-file primitive builders. */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sync/pc_file.hh"

using namespace psync;
using psync::ir::Iteration;
using sim::PcWord;

namespace {

sim::MachineConfig
regConfig()
{
    sim::MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fabric = sim::FabricKind::registers;
    cfg.syncRegisters = 64;
    return cfg;
}

} // namespace

TEST(PcFileTest, InitialOwnershipByResidue)
{
    sim::Machine m(regConfig());
    sync::PcFile pcs(m.fabric(), 4);
    EXPECT_EQ(m.fabric().peek(pcs.varOf(1)), PcWord::pack(1, 0));
    EXPECT_EQ(m.fabric().peek(pcs.varOf(4)), PcWord::pack(4, 0));
    EXPECT_EQ(pcs.varOf(1), pcs.varOf(5));
    EXPECT_EQ(pcs.varOf(4), pcs.varOf(8));
    EXPECT_NE(pcs.varOf(1), pcs.varOf(2));
}

TEST(PcFileTest, OpBuildersEncodeOwnerStep)
{
    sim::Machine m(regConfig());
    sync::PcFile pcs(m.fabric(), 8);

    sim::Op wait = pcs.opWait(10, 2, 5);
    EXPECT_EQ(wait.kind, sim::OpKind::syncWaitGE);
    EXPECT_EQ(wait.var, pcs.varOf(8));
    EXPECT_EQ(wait.value, PcWord::pack(8, 5));

    sim::Op set = pcs.opSet(10, 3);
    EXPECT_EQ(set.kind, sim::OpKind::syncWrite);
    EXPECT_EQ(set.value, PcWord::pack(10, 3));

    sim::Op rel = pcs.opRelease(10);
    EXPECT_EQ(rel.value, PcWord::pack(18, 0));

    sim::Op get = pcs.opGet(10);
    EXPECT_EQ(get.value, PcWord::pack(10, 0));

    sim::Op mark = pcs.opMark(10, 2);
    EXPECT_EQ(mark.kind, sim::OpKind::pcMark);
    EXPECT_EQ(mark.value, PcWord::pack(10, 2));

    sim::Op xfer = pcs.opTransfer(10);
    EXPECT_EQ(xfer.kind, sim::OpKind::pcTransfer);
    EXPECT_EQ(xfer.value, PcWord::pack(18, 0));
    EXPECT_EQ(xfer.aux, PcWord::pack(10, 0));
}

TEST(PcFileTest, OwnershipChainAcrossFolding)
{
    // Processes 1 and 3 share PC[1] with X=2; run 1's transfer then
    // 3's transfer through real processors.
    sim::Machine m(regConfig());
    sync::PcFile pcs(m.fabric(), 2);

    std::vector<sim::Program> p0(1), p1(1);
    p0[0].iter = 1;
    p0[0].ops = {sim::Op::mkCompute(20), pcs.opTransfer(1)};
    p1[0].iter = 3;
    p1[0].ops = {pcs.opMark(3, 1), sim::Op::mkCompute(1),
                 pcs.opTransfer(3)};

    std::vector<size_t> next(2, 0);
    std::vector<std::vector<sim::Program> *> lists{&p0, &p1};
    auto dispatch = [&](sim::ProcId who,
                        std::function<void(const Iteration *)> cb) {
        if (next[who] >= lists[who]->size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of((*lists[who])[next[who]++]);
        cb(&it);
    };
    ASSERT_TRUE(m.run(dispatch));
    // After both transfers, PC[1] belongs to process 5.
    EXPECT_EQ(m.fabric().peek(pcs.varOf(1)), PcWord::pack(5, 0));
    // Process 3's early mark was skipped (not yet owner).
    EXPECT_EQ(m.proc(1).marksSkipped(), 1u);
}
