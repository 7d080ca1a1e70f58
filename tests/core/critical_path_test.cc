/** @file The dependence-limited lower bound. */

#include <gtest/gtest.h>

#include "core/critical_path.hh"
#include "core/runtime.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"
#include "workloads/relaxation.hh"

using namespace psync;

namespace {

core::CriticalPathCosts
unitCosts(sim::Tick access = 5)
{
    core::CriticalPathCosts c;
    c.accessCycles = access;
    return c;
}

} // namespace

TEST(CriticalPathTest, DoallIsOneIteration)
{
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 100};
    dep::Statement s;
    s.label = "S1";
    s.cost = 7;
    dep::ArrayRef w;
    w.array = "A";
    w.subs = {dep::Subscript{1, 0, 0}};
    w.isWrite = true;
    s.refs = {w};
    loop.body = {s};

    dep::DepGraph graph(loop);
    auto cp = core::criticalPath(graph, unitCosts());
    EXPECT_EQ(cp.cycles, 12u); // 7 + one access
    EXPECT_EQ(cp.totalWork, 1200u);
    EXPECT_DOUBLE_EQ(cp.maxUsefulParallelism(), 100.0);
}

TEST(CriticalPathTest, PureRecurrenceIsSequential)
{
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 50};
    const dep::ArrayRef rd{.array = "A",
                           .subs = {dep::Subscript{1, 0, -1}},
                           .isWrite = false};
    const dep::ArrayRef wr{.array = "A",
                           .subs = {dep::Subscript{1, 0, 0}},
                           .isWrite = true};
    loop.body = {dep::Statement{
        .label = "S1", .cost = 3, .refs = {rd, wr}, .guard = {}}};

    dep::DepGraph graph(loop);
    auto cp = core::criticalPath(graph, unitCosts());
    // Every instance chains: 50 * (3 + 2*5).
    EXPECT_EQ(cp.cycles, 50u * 13u);
    EXPECT_NEAR(cp.maxUsefulParallelism(), 1.0, 1e-9);
}

TEST(CriticalPathTest, DistanceStretchesParallelism)
{
    // A[I] = A[I-4]: chains of length N/4 -> parallelism ~4.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 40};
    const dep::ArrayRef rd{.array = "A",
                           .subs = {dep::Subscript{1, 0, -4}},
                           .isWrite = false};
    const dep::ArrayRef wr{.array = "A",
                           .subs = {dep::Subscript{1, 0, 0}},
                           .isWrite = true};
    loop.body = {dep::Statement{
        .label = "S1", .cost = 3, .refs = {rd, wr}, .guard = {}}};

    dep::DepGraph graph(loop);
    auto cp = core::criticalPath(graph, unitCosts());
    EXPECT_EQ(cp.cycles, 10u * 13u);
    EXPECT_NEAR(cp.maxUsefulParallelism(), 4.0, 1e-9);
}

TEST(CriticalPathTest, SimulationNeverBeatsTheBound)
{
    for (long n : {16L, 64L}) {
        dep::Loop loop = workloads::makeFig21Loop(n);
        dep::DepGraph graph(loop);

        core::RunConfig cfg;
        cfg.machine.numProcs = 16;
        cfg.machine.fabric = sim::FabricKind::registers;
        cfg.machine.syncRegisters = 1024;
        auto bound = core::criticalPath(
            graph,
            core::CriticalPathCosts::fromMachine(cfg.machine));
        auto r = core::runDoacross(
            loop, sync::SchemeKind::processImproved, cfg);
        ASSERT_TRUE(r.run.completed);
        EXPECT_GE(r.run.cycles, bound.cycles) << "N=" << n;
    }
}

TEST(CriticalPathTest, RelaxationBoundMatchesWavefrontDepth)
{
    // The 2-D relaxation's chain is the (N-1)+(N-1)-step staircase
    // through the corner: 2(N-1) - 1 instances.
    long n = 10;
    dep::Loop loop = workloads::makeRelaxationLoop(n, 4);
    dep::DepGraph graph(loop);
    auto cp = core::criticalPath(graph, unitCosts(0));
    sim::Tick per_instance = 4; // cost only, free accesses
    EXPECT_EQ(cp.cycles, per_instance * (2 * (n - 1) - 1));
}

TEST(CriticalPathTest, BranchGuardsShortenChains)
{
    // The same loop with the expensive statement guarded off most
    // of the time has a shorter critical path.
    dep::Loop always = workloads::makeFig21JitterLoop(
        64, 4, 100, 1.0, 5);
    dep::Loop never = workloads::makeFig21JitterLoop(
        64, 4, 100, 0.0, 5);
    dep::DepGraph g_always(always);
    dep::DepGraph g_never(never);
    auto cp_always = core::criticalPath(g_always, unitCosts());
    auto cp_never = core::criticalPath(g_never, unitCosts());
    EXPECT_GT(cp_always.totalWork, cp_never.totalWork);
}
