/**
 * @file
 * The process-oriented scheme's codegen must reproduce the
 * transformed loop of Fig. 4.2b, step numbering and all.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hh"
#include "sync/process_oriented.hh"
#include "workloads/fig21.hh"

using namespace psync;
using sim::Op;
using sim::OpKind;
using sim::PcWord;

namespace {

struct Rig
{
    sim::Machine machine;
    dep::Loop loop;
    dep::DepGraph graph;
    dep::DataLayout layout;
    sync::ProcessOrientedScheme scheme;
    sync::SchemePlan plan;

    explicit Rig(bool improved, unsigned num_pcs = 4, long n = 32)
        : machine(makeConfig()),
          loop(workloads::makeFig21Loop(n)),
          graph(loop),
          layout(loop),
          scheme(improved)
    {
        sync::SchemeConfig cfg;
        cfg.numPcs = num_pcs;
        plan = scheme.plan(graph, layout, machine.fabric(), cfg);
    }

    static sim::MachineConfig
    makeConfig()
    {
        sim::MachineConfig cfg;
        cfg.numProcs = 2;
        cfg.fabric = sim::FabricKind::registers;
        cfg.syncRegisters = 64;
        return cfg;
    }
};

std::vector<OpKind>
kindsOf(const sim::Program &prog)
{
    std::vector<OpKind> kinds;
    for (const auto &op : prog.ops)
        kinds.push_back(op.kind);
    return kinds;
}

std::vector<const Op *>
opsOfKind(const sim::Program &prog, OpKind kind)
{
    std::vector<const Op *> out;
    for (const auto &op : prog.ops) {
        if (op.kind == kind)
            out.push_back(&op);
    }
    return out;
}

} // namespace

TEST(ProcessOrientedTest, StepNumberingFollowsSourceOrder)
{
    Rig rig(true);
    // Sources in Fig. 2.1: S1 (step 1), S2 (step 2), S3 (step 3),
    // S4 (step 4); S5 is never a source.
    EXPECT_EQ(rig.scheme.stepOf(0), 1u);
    EXPECT_EQ(rig.scheme.stepOf(1), 2u);
    EXPECT_EQ(rig.scheme.stepOf(2), 3u);
    EXPECT_EQ(rig.scheme.stepOf(3), 4u);
    EXPECT_EQ(rig.scheme.stepOf(4), 0u);
}

TEST(ProcessOrientedTest, PlanUsesExactlyXCounters)
{
    Rig rig(true, 8);
    EXPECT_EQ(rig.plan.numSyncVars, 8u);
    EXPECT_EQ(rig.plan.syncStorageBytes, 64u);
    EXPECT_EQ(rig.plan.initWrites, 8u);
    EXPECT_EQ(rig.scheme.numPcs(), 8u);
}

TEST(ProcessOrientedTest, InitialOwnership)
{
    Rig rig(true, 4);
    sim::SyncFabric &fab = rig.machine.fabric();
    // PC[1..3] owned by processes 1..3; PC[0] by process 4.
    EXPECT_EQ(fab.peek(rig.scheme.pcVarOf(1)), PcWord::pack(1, 0));
    EXPECT_EQ(fab.peek(rig.scheme.pcVarOf(2)), PcWord::pack(2, 0));
    EXPECT_EQ(fab.peek(rig.scheme.pcVarOf(3)), PcWord::pack(3, 0));
    EXPECT_EQ(fab.peek(rig.scheme.pcVarOf(4)), PcWord::pack(4, 0));
}

TEST(ProcessOrientedTest, BasicEmissionMatchesFig42b)
{
    // Fig. 4.2b for iteration i (deep inside the loop):
    //   S1(i); get_PC; set_PC(1); wait_PC(2,1);
    //   S2(i); set_PC(2); wait_PC(1,1);
    //   S3(i); set_PC(3); wait_PC(1,2); wait_PC(2,3);
    //   S4(i); release_PC; wait_PC(1,4);
    //   S5(i);
    // Our emission puts each statement's waits immediately before
    // its body (sink first), so the same ops appear as:
    //   [S1] get set(1) | wait(2,1) [S2] set(2) | wait(1,1) [S3]
    //   set(3) | wait(1,2) wait(2,3) [S4] release | wait(1,4) [S5]
    Rig rig(false, 4);
    sim::Program prog = rig.scheme.emit(10);

    auto waits = opsOfKind(prog, OpKind::syncWaitGE);
    // get_PC + 5 dependence waits.
    ASSERT_EQ(waits.size(), 6u);
    // get_PC waits for ownership <10, 0> on PC[10 mod 4].
    EXPECT_EQ(waits[0]->var, rig.scheme.pcVarOf(10));
    EXPECT_EQ(waits[0]->value, PcWord::pack(10, 0));
    // S2 waits for source S1 two iterations back at step 1.
    EXPECT_EQ(waits[1]->var, rig.scheme.pcVarOf(8));
    EXPECT_EQ(waits[1]->value, PcWord::pack(8, 1));
    // S3 waits for S1 one back, step 1.
    EXPECT_EQ(waits[2]->value, PcWord::pack(9, 1));
    // S4 waits for S2 one back (step 2) and S3 two back (step 3).
    EXPECT_EQ(waits[3]->value, PcWord::pack(9, 2));
    EXPECT_EQ(waits[4]->value, PcWord::pack(8, 3));
    // S5 waits for S4 one back, step 4.
    EXPECT_EQ(waits[5]->value, PcWord::pack(9, 4));

    auto sets = opsOfKind(prog, OpKind::syncWrite);
    ASSERT_EQ(sets.size(), 4u);
    EXPECT_EQ(sets[0]->value, PcWord::pack(10, 1));
    EXPECT_EQ(sets[1]->value, PcWord::pack(10, 2));
    EXPECT_EQ(sets[2]->value, PcWord::pack(10, 3));
    // release_PC hands the counter to process 14 = 10 + X.
    EXPECT_EQ(sets[3]->value, PcWord::pack(14, 0));
}

TEST(ProcessOrientedTest, ImprovedEmissionUsesMarkAndTransfer)
{
    Rig rig(true, 4);
    sim::Program prog = rig.scheme.emit(10);

    auto marks = opsOfKind(prog, OpKind::pcMark);
    ASSERT_EQ(marks.size(), 3u);
    EXPECT_EQ(marks[0]->value, PcWord::pack(10, 1));
    EXPECT_EQ(marks[2]->value, PcWord::pack(10, 3));

    auto transfers = opsOfKind(prog, OpKind::pcTransfer);
    ASSERT_EQ(transfers.size(), 1u);
    EXPECT_EQ(transfers[0]->value, PcWord::pack(14, 0));
    EXPECT_EQ(transfers[0]->aux, PcWord::pack(10, 0));

    // No blocking get_PC anywhere.
    for (const auto &op : prog.ops) {
        if (op.kind == OpKind::syncWaitGE) {
            EXPECT_NE(op.value, PcWord::pack(10, 0));
        }
    }
}

TEST(ProcessOrientedTest, EarlyIterationsSkipOutOfRangeWaits)
{
    Rig rig(true, 4);
    sim::Program first = rig.scheme.emit(1);
    EXPECT_TRUE(opsOfKind(first, OpKind::syncWaitGE).empty());

    // Iteration 2: only distance-1 deps apply.
    sim::Program second = rig.scheme.emit(2);
    auto waits = opsOfKind(second, OpKind::syncWaitGE);
    ASSERT_EQ(waits.size(), 3u); // S1->S3, S2->S4, S4->S5 (d=1)
    for (const auto *w : waits)
        EXPECT_EQ(PcWord::owner(w->value), 1u);
}

TEST(ProcessOrientedTest, SinkBeforeSourceWithinStatement)
{
    // S4 is both sink (of S2, S3) and source (of S5): its waits
    // must precede its body, the set must follow it.
    Rig rig(false, 4);
    sim::Program prog = rig.scheme.emit(10);
    auto kinds = kindsOf(prog);

    // Find S4's stmtStart and check neighborhood.
    size_t s4_start = 0;
    for (size_t k = 0; k < prog.ops.size(); ++k) {
        if (prog.ops[k].kind == OpKind::stmtStart &&
            prog.ops[k].stmt == 3) {
            s4_start = k;
        }
    }
    ASSERT_GT(s4_start, 1u);
    EXPECT_EQ(kinds[s4_start - 1], OpKind::syncWaitGE);
    EXPECT_EQ(kinds[s4_start - 2], OpKind::syncWaitGE);

    // Release comes after S4's stmtEnd.
    size_t s4_end = 0;
    for (size_t k = s4_start; k < prog.ops.size(); ++k) {
        if (prog.ops[k].kind == OpKind::stmtEnd &&
            prog.ops[k].stmt == 3) {
            s4_end = k;
        }
    }
    EXPECT_EQ(kinds[s4_end + 1], OpKind::syncWrite);
}

TEST(ProcessOrientedTest, DoallLoopEmitsNoSyncOps)
{
    // Independent iterations: no sources, no waits, no transfers.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 8};
    dep::Statement s;
    s.label = "S1";
    s.cost = 4;
    dep::ArrayRef w;
    w.array = "A";
    w.subs = {dep::Subscript{1, 0, 0}};
    w.isWrite = true;
    s.refs = {w};
    loop.body = {s};

    sim::MachineConfig mc = Rig::makeConfig();
    sim::Machine machine(mc);
    dep::DepGraph graph(loop);
    dep::DataLayout layout(loop);
    sync::ProcessOrientedScheme scheme(true);
    sync::SchemeConfig cfg;
    scheme.plan(graph, layout, machine.fabric(), cfg);

    sim::Program prog = scheme.emit(3);
    for (const auto &op : prog.ops) {
        EXPECT_NE(op.kind, OpKind::syncWaitGE);
        EXPECT_NE(op.kind, OpKind::pcMark);
        EXPECT_NE(op.kind, OpKind::pcTransfer);
        EXPECT_NE(op.kind, OpKind::syncWrite);
    }
}
