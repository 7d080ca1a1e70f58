/**
 * @file
 * Negative verification: a deliberately under-synchronized "scheme"
 * must produce a reported dependence violation on BOTH backends.
 *
 * The stub mimics a broken signal-before-write compiler bug: the
 * producer posts its synchronization variable *before* performing
 * the guarded write (with work in between), so the consumer's
 * awaited read can start while the write is still pending. Both
 * backends make the race deterministic: on the simulator the
 * producer's delay is simulated time, so the read always lands
 * inside the window; natively a test-only handshake variable holds
 * the write back until the read is done. If the TraceChecker ever
 * stops catching this, these tests fail — the checker, not luck,
 * is the correctness gate.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "core/trace_check.hh"
#include "native/executor.hh"
#include "sim/machine.hh"

using namespace psync;

namespace {

constexpr sim::Addr kAddr = 8192;

/**
 * The under-synchronized pair. Producer (iter 1): signal, THEN the
 * `window` ops, THEN the write the signal was supposed to order.
 * Consumer (iter 2): await the signal, read, THEN the `after_read`
 * ops. A correct scheme emits the signal after the write; this stub
 * has them swapped.
 */
std::vector<sim::Program>
brokenPrograms(sim::SyncVarId v, const std::vector<sim::Op> &window,
               const std::vector<sim::Op> &after_read = {})
{
    sim::Program producer;
    producer.iter = 1;
    producer.ops = {sim::Op::mkWrite(v, 1)}; // bug: signal first
    producer.ops.insert(producer.ops.end(), window.begin(),
                        window.end());
    producer.ops.insert(producer.ops.end(),
                        {sim::Op::mkStmtStart(0),
                         sim::Op::mkData(true, kAddr, 0, 0),
                         sim::Op::mkStmtEnd(0)});
    sim::Program consumer;
    consumer.iter = 2;
    consumer.ops = {sim::Op::mkWaitGE(v, 1),
                    sim::Op::mkStmtStart(1),
                    sim::Op::mkData(false, kAddr, 1, 0),
                    sim::Op::mkStmtEnd(1)};
    consumer.ops.insert(consumer.ops.end(), after_read.begin(),
                        after_read.end());
    return {producer, consumer};
}

/** Loop shape matching the stub: S0 writes A[i], S1 reads A[i-1]. */
dep::Loop
brokenLoop()
{
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 2};
    dep::Statement s0, s1;
    s0.label = "S0";
    s1.label = "S1";
    dep::ArrayRef w, r;
    w.array = "A";
    w.subs = {dep::Subscript{1, 0, 0}};
    w.isWrite = true;
    r.array = "A";
    r.subs = {dep::Subscript{1, 0, -1}};
    r.isWrite = false;
    s0.refs = {w};
    s1.refs = {r};
    loop.body = {s0, s1};
    return loop;
}

dep::Dep
flowDep()
{
    dep::Dep dep;
    dep.src = 0;
    dep.dst = 1;
    dep.type = dep::DepType::flow;
    dep.d1 = 1;
    return dep;
}

} // namespace

TEST(TraceCheckNegativeTest, SimBackendReportsViolation)
{
    sim::MachineConfig mc;
    mc.numProcs = 2;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 64;
    core::TraceChecker checker;
    sim::Machine machine(mc, &checker);
    sim::SyncVarId v = machine.fabric().allocate(1, 0);

    // 500 simulated cycles between signal and write: the awaited
    // read deterministically lands inside the window.
    auto programs = brokenPrograms(v, {sim::Op::mkCompute(500)});
    auto result = core::runProgramPool(
        machine, programs, core::SchedulePolicy::staticCyclic);
    ASSERT_TRUE(result.completed);

    auto violations = checker.verify(brokenLoop(), {flowDep()});
    ASSERT_FALSE(violations.empty())
        << "under-synchronized stub passed the sim checker";
    EXPECT_NE(violations[0].find("violated"), std::string::npos);
}

TEST(TraceCheckNegativeTest, NativeBackendReportsViolation)
{
    // The native window is real time, so the test forces the bad
    // interleaving: the consumer signals `read_done` after its read
    // and the producer awaits it between its early signal and its
    // write. Every run orders the read before the write.
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(2, 0));
    const sim::SyncVarId v = 0;
    const sim::SyncVarId read_done = 1;
    auto programs =
        brokenPrograms(v, {sim::Op::mkWaitGE(read_done, 1)},
                       {sim::Op::mkWrite(read_done, 1)});
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    cfg.numThreads = 2;
    native::NativeExecutor exec(fabric, data, cfg);
    auto result = exec.runPool(pool, core::SchedulePolicy::staticCyclic);
    ASSERT_TRUE(result.completed);

    core::TraceChecker checker;
    exec.replayAccesses(checker);
    auto violations = checker.verify(brokenLoop(), {flowDep()});
    ASSERT_FALSE(violations.empty())
        << "under-synchronized stub passed the native checker";
    EXPECT_NE(violations[0].find("violated"), std::string::npos);
}
