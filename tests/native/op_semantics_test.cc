/**
 * @file
 * One definition of each sync op (ir/semantics.hh), walked by both
 * executors: every kind, run from hand-built per-processor pools on
 * the simulator and natively, must leave the same sync words, data
 * image and counts, and change only the variables its effects name.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "core/value_rule.hh"
#include "core/value_trace.hh"
#include "ir/semantics.hh"
#include "native/executor.hh"

using namespace psync;
using sim::Op;
using sim::PcWord;
using sim::Program;

namespace {

/** Per-processor programs over a few sync variables. */
struct Case
{
    std::string name;
    /** Initial value of each variable, ids 0.. in order. */
    std::vector<sim::SyncWord> init;
    /** Ops of each processor, one program per processor. */
    std::vector<std::vector<Op>> ops;
    /** Expected final value of each variable. */
    std::vector<sim::SyncWord> final;
    std::uint64_t marksSkipped = 0;
    /** Keyed ops need memory-resident keys: no register run. */
    bool keyed = false;
};

/** What one backend left behind. */
struct Outcome
{
    bool completed = false;
    std::vector<sim::SyncWord> words;
    std::map<sim::Addr, std::uint64_t> image;
    std::uint64_t syncOps = 0;
    std::uint64_t marksSkipped = 0;
    std::vector<std::string> errors;
    std::uint64_t eventsExecuted = 0;
};

/** Processor p's program is process p + 1 (the paper's lpid). */
std::vector<std::vector<Program>>
programsOf(const std::vector<std::vector<Op>> &ops)
{
    std::vector<std::vector<Program>> per_proc(ops.size());
    for (std::size_t p = 0; p < ops.size(); ++p) {
        per_proc[p].resize(1);
        per_proc[p][0].iter = p + 1;
        per_proc[p][0].ops = ops[p];
    }
    return per_proc;
}

Outcome
runSim(const std::vector<sim::SyncWord> &init,
       const std::vector<std::vector<Program>> &per_proc,
       sim::FabricKind fabric, bool cached_spinning = true)
{
    sim::MachineConfig mc;
    mc.numProcs = static_cast<unsigned>(per_proc.size());
    mc.fabric = fabric;
    mc.syncRegisters = 64;
    mc.cachedSpinning = cached_spinning;
    core::ValueTrace values;
    sim::Machine machine(mc, &values);
    machine.fabric().allocate(static_cast<unsigned>(init.size()), 0);
    for (std::size_t v = 0; v < init.size(); ++v)
        machine.fabric().poke(static_cast<sim::SyncVarId>(v), init[v]);
    core::RunResult r = core::runPerProcessorPrograms(machine, per_proc);
    Outcome out;
    out.completed = r.completed;
    for (std::size_t v = 0; v < init.size(); ++v)
        out.words.push_back(
            machine.fabric().peek(static_cast<sim::SyncVarId>(v)));
    out.image = values.memory();
    out.syncOps = r.syncOps;
    out.marksSkipped = r.marksSkipped;
    out.errors = r.errors;
    out.eventsExecuted = r.eventsExecuted;
    return out;
}

Outcome
runNative(const std::vector<sim::SyncWord> &init,
          const std::vector<std::vector<Program>> &per_proc)
{
    native::NativeSyncFabric fabric(init);
    const ir::IterationPool pool = ir::IterationPool::borrow(per_proc);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    cfg.timeoutMs = 10000;
    native::NativeExecutor exec(fabric, data, cfg);
    native::NativeRunResult r = exec.runPerProcessor(pool);
    Outcome out;
    out.completed = r.completed;
    for (std::size_t v = 0; v < init.size(); ++v)
        out.words.push_back(fabric.load(static_cast<sim::SyncVarId>(v)));
    out.image = data.snapshot();
    out.syncOps = r.syncOps;
    out.marksSkipped = r.marksSkipped;
    out.errors = r.errors;
    return out;
}

/** Variables some op's write, maybe-write or increment names. */
std::set<std::uint64_t>
signalledVars(const std::vector<std::vector<Op>> &ops)
{
    std::set<std::uint64_t> vars;
    for (const auto &list : ops)
        for (const Op &op : list)
            for (const ir::EffectSpec &e : ir::effectsOf(op.kind))
                if (e.effect == ir::Effect::write ||
                    e.effect == ir::Effect::maybeWrite ||
                    e.effect == ir::Effect::increment)
                    vars.insert(ir::field(op, e.on));
    return vars;
}

std::vector<Case>
cases()
{
    const sim::Addr a = 64;
    std::vector<Case> all;
    // Processor 1 waits for processor 0's write, then reads the
    // datum written before it.
    all.push_back({"wait_ge_after_write",
                   {0},
                   {{Op::mkData(true, a, 0), Op::mkWrite(0, 1)},
                    {Op::mkWaitGE(0, 1), Op::mkData(false, a, 1)}},
                   {1}});
    all.push_back({"write",
                   {0},
                   {{Op::mkWrite(0, 5), Op::mkWrite(0, 7)}},
                   {7}});
    all.push_back({"fetch_inc",
                   {10},
                   {{Op::mkFetchInc(0), Op::mkFetchInc(0)},
                    {Op::mkFetchInc(0)},
                    {Op::mkFetchInc(0), Op::mkFetchInc(0)}},
                   {15}});
    // The PC has not reached process 1 yet: skip, no write.
    all.push_back({"pc_mark_skipped",
                   {PcWord::pack(0, 3)},
                   {{Op::mkPcMark(0, PcWord::pack(1, 1))}},
                   {PcWord::pack(0, 3)},
                   1});
    // Ownership was just transferred to process 1: take it, write.
    all.push_back({"pc_mark_just_transferred",
                   {PcWord::pack(1, 0)},
                   {{Op::mkPcMark(0, PcWord::pack(1, 1))}},
                   {PcWord::pack(1, 1)}});
    all.push_back({"pc_mark_owned",
                   {PcWord::pack(1, 0)},
                   {{Op::mkPcMark(0, PcWord::pack(1, 1)),
                     Op::mkPcMark(0, PcWord::pack(1, 2))}},
                   {PcWord::pack(1, 2)}});
    all.push_back({"pc_transfer_owned",
                   {PcWord::pack(1, 0)},
                   {{Op::mkPcMark(0, PcWord::pack(1, 1)),
                     Op::mkPcTransfer(0, PcWord::pack(2, 0),
                                      PcWord::pack(1, 0))}},
                   {PcWord::pack(2, 0)}});
    // Process 2 waits until process 1 hands the PC on.
    all.push_back({"pc_transfer_waiting",
                   {PcWord::pack(1, 0)},
                   {{Op::mkPcTransfer(0, PcWord::pack(2, 0),
                                      PcWord::pack(1, 0))},
                    {Op::mkPcTransfer(0, PcWord::pack(3, 0),
                                      PcWord::pack(2, 0))}},
                   {PcWord::pack(3, 0)}});
    // Two episodes: every processor arrives early in one and the
    // last one releases each generation.
    for (unsigned procs : {2u, 3u}) {
        Case c{std::string("ctr_barrier_p").append(std::to_string(procs)),
               {0, 0},
               {},
               {2 * procs, 2}};
        for (unsigned p = 0; p < procs; ++p)
            c.ops.push_back({Op::mkCtrBarrier(0, 1, 1, procs),
                             Op::mkCtrBarrier(0, 1, 2, procs)});
        all.push_back(c);
    }
    // Process 2's keyed read waits for process 1's keyed write.
    all.push_back({"keyed_write_then_read",
                   {0},
                   {{Op::mkKeyed(true, 0, 0, a, 0)},
                    {Op::mkKeyed(false, 0, 1, a, 1)}},
                   {2},
                   0,
                   true});
    all.push_back({"keyed_read_then_write",
                   {0},
                   {{Op::mkKeyed(false, 0, 0, a, 0)},
                    {Op::mkKeyed(true, 0, 1, a, 1)}},
                   {2},
                   0,
                   true});
    return all;
}

} // namespace

TEST(OpSemanticsTest, EveryKindAgreesOnBothBackends)
{
    std::set<sim::OpKind> covered;
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        const auto per_proc = programsOf(c.ops);
        std::vector<std::pair<std::string, Outcome>> runs;
        if (!c.keyed)
            runs.emplace_back("sim-registers",
                              runSim(c.init, per_proc,
                                     sim::FabricKind::registers));
        runs.emplace_back("sim-memory",
                          runSim(c.init, per_proc,
                                 sim::FabricKind::memory));
        runs.emplace_back("native", runNative(c.init, per_proc));

        std::uint64_t sync_ops = 0;
        for (const auto &list : c.ops)
            for (const Op &op : list) {
                sync_ops += ir::isSync(op.kind);
                covered.insert(op.kind);
            }
        const std::set<std::uint64_t> signalled = signalledVars(c.ops);
        // Every address is stored at most once per case.
        std::map<sim::Addr, std::uint64_t> image;
        for (std::size_t p = 0; p < c.ops.size(); ++p)
            for (const Op &op : c.ops[p])
                if (ir::has(op.kind, ir::Effect::data) &&
                    ir::storesData(op.kind))
                    image[op.addr] =
                        core::valueOfWrite(op.stmt, op.ref, p + 1);
        for (const auto &[backend, out] : runs) {
            SCOPED_TRACE(backend);
            EXPECT_TRUE(out.completed);
            EXPECT_TRUE(out.errors.empty());
            EXPECT_EQ(out.words, c.final);
            EXPECT_EQ(out.image, image);
            EXPECT_EQ(out.syncOps, sync_ops);
            EXPECT_EQ(out.marksSkipped, c.marksSkipped);
            for (std::size_t v = 0; v < c.init.size(); ++v) {
                if (out.words[v] != c.init[v]) {
                    EXPECT_TRUE(signalled.count(v))
                        << "var " << v << " changed, but no effect "
                        << "writes or increments it";
                }
            }
        }
    }
    for (sim::OpKind kind :
         {sim::OpKind::syncWaitGE, sim::OpKind::syncWrite,
          sim::OpKind::syncFetchInc, sim::OpKind::pcMark,
          sim::OpKind::pcTransfer, sim::OpKind::ctrBarrier,
          sim::OpKind::keyedRead, sim::OpKind::keyedWrite})
        EXPECT_TRUE(covered.count(kind)) << ir::opKindName(kind);
}

TEST(OpSemanticsTest, OwnershipViolationFailsTheRunOnBothBackends)
{
    // The PC already belongs to process 9 when process 5 marks it;
    // process 6 waits on a PC value nobody will write.
    const std::vector<sim::SyncWord> init = {PcWord::pack(9, 0)};
    std::vector<std::vector<Program>> per_proc(2);
    per_proc[0].resize(1);
    per_proc[0][0].iter = 5;
    per_proc[0][0].ops = {Op::mkPcMark(0, PcWord::pack(5, 1))};
    per_proc[1].resize(1);
    per_proc[1][0].iter = 6;
    per_proc[1][0].ops = {Op::mkWaitGE(0, PcWord::pack(10, 0))};
    const std::string message =
        "PC 0 owned by 9 past process 5: ownership protocol violated";

    // A failed processor stops the machine: even the polling waiter
    // of the memory fabric runs no later event, so the run ends long
    // before its 10^9-cycle tick limit.
    for (bool polling : {false, true}) {
        for (sim::FabricKind fabric :
             {sim::FabricKind::registers, sim::FabricKind::memory}) {
            if (polling && fabric != sim::FabricKind::memory)
                continue;
            SCOPED_TRACE(sim::fabricKindName(fabric));
            Outcome out = runSim(init, per_proc, fabric, !polling);
            EXPECT_FALSE(out.completed);
            EXPECT_EQ(out.errors, std::vector<std::string>{message});
            EXPECT_LT(out.eventsExecuted, 100u);
        }
    }

    Outcome out = runNative(init, per_proc);
    EXPECT_FALSE(out.completed);
    EXPECT_EQ(out.errors, std::vector<std::string>{message});
}
