/**
 * @file
 * Hierarchical cluster fabric semantics: same-cluster wakeups stay
 * on the local bus, cross-cluster writes propagate through the
 * global stage, fetch&add batches decombine to the serialized
 * pre-value sequence, and pending-write coalescing absorbs bursts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "sim/bus.hh"
#include "sim/cluster_fabric.hh"
#include "sim/event_queue.hh"

using namespace psync::sim;

namespace {

/** Test rig owning the buses a fabric needs. */
struct Rig
{
    EventQueue eq;
    std::vector<std::unique_ptr<Bus>> buses;
    std::unique_ptr<Bus> global;
    std::unique_ptr<HierarchicalSyncFabric> fab;

    Rig(unsigned procs, unsigned clusters, unsigned capacity = 64)
    {
        std::vector<Bus *> refs;
        for (unsigned c = 0; c < clusters; ++c) {
            buses.push_back(std::make_unique<Bus>(
                eq, "cluster_bus" + std::to_string(c), 1));
            refs.push_back(buses.back().get());
        }
        global = std::make_unique<Bus>(eq, "global_bus", 1);
        fab = std::make_unique<HierarchicalSyncFabric>(
            eq, refs, *global, procs, capacity);
    }
};

} // namespace

TEST(ClusterFabricTest, ClusterAssignmentSplitsEvenly)
{
    Rig rig(16, 4);
    EXPECT_EQ(rig.fab->numClusters(), 4u);
    EXPECT_EQ(rig.fab->procsPerCluster(), 4u);
    EXPECT_EQ(rig.fab->clusterOf(0), 0u);
    EXPECT_EQ(rig.fab->clusterOf(3), 0u);
    EXPECT_EQ(rig.fab->clusterOf(4), 1u);
    EXPECT_EQ(rig.fab->clusterOf(15), 3u);
}

TEST(ClusterFabricTest, CrossClusterWriteWakesRemoteWaiter)
{
    Rig rig(8, 2);
    SyncVarId var = rig.fab->allocate(1, 0);

    Tick woken_at = 0;
    Tick waited = 0;
    rig.eq.schedule(0, [&]() {
        // Proc 7 lives in cluster 1; the writer in cluster 0.
        rig.fab->waitGE(7, var, 1, [&](Tick w) {
            woken_at = rig.eq.now();
            waited = w;
        });
    });
    rig.eq.schedule(30, [&]() {
        rig.fab->write(0, var, 1, []() {});
    });
    rig.eq.run();

    EXPECT_GE(woken_at, 30u);
    EXPECT_GT(waited, 0u);
    EXPECT_EQ(rig.fab->peek(var), 1u);
    // The commit crossed the global stage to reach cluster 1.
    EXPECT_GE(rig.fab->globalBroadcasts(), 1u);
}

TEST(ClusterFabricTest, SameClusterWakeupUsesLocalBus)
{
    Rig rig(8, 2);
    SyncVarId var = rig.fab->allocate(1, 0);

    unsigned woken = 0;
    rig.eq.schedule(0, [&]() {
        rig.fab->waitGE(1, var, 1, [&](Tick) { ++woken; });
    });
    rig.eq.schedule(10, [&]() {
        rig.fab->write(0, var, 1, []() {});
    });
    rig.eq.run();

    EXPECT_EQ(woken, 1u);
    EXPECT_GE(rig.fab->localBroadcasts(), 1u);
}

TEST(ClusterFabricTest, FetchIncBatchesDecombineToSerialSequence)
{
    // 32 processors over 4 clusters all advancing one counter in
    // the same cycle: pre-values must be exactly 0..31 (each once)
    // and same-cluster increments must have batched.
    Rig rig(32, 4);
    SyncVarId var = rig.fab->allocate(1, 0);

    std::multiset<SyncWord> pre;
    rig.eq.schedule(0, [&]() {
        for (ProcId p = 0; p < 32; ++p)
            rig.fab->fetchInc(p, var,
                              [&](SyncWord v) { pre.insert(v); });
    });
    rig.eq.run();

    ASSERT_EQ(pre.size(), 32u);
    SyncWord expect = 0;
    for (SyncWord v : pre)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(rig.fab->peek(var), 32u);
    EXPECT_GT(rig.fab->combinedIncs(), 0u);
}

TEST(ClusterFabricTest, HotCounterRoundsStayOrderedAcrossClusters)
{
    // Several staggered rounds: batching must never duplicate or
    // drop a pre-value even when batches from different clusters
    // are in flight at once.
    Rig rig(16, 2);
    SyncVarId var = rig.fab->allocate(1, 0);

    std::multiset<SyncWord> pre;
    for (unsigned round = 0; round < 4; ++round) {
        rig.eq.schedule(round * 3, [&]() {
            for (ProcId p = 0; p < 16; ++p)
                rig.fab->fetchInc(p, var, [&](SyncWord v) {
                    pre.insert(v);
                });
        });
    }
    rig.eq.run();

    ASSERT_EQ(pre.size(), 64u);
    SyncWord expect = 0;
    for (SyncWord v : pre)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(rig.fab->peek(var), 64u);
}

TEST(ClusterFabricTest, PendingWriteCoalescingAbsorbsBursts)
{
    Rig rig(8, 2);
    SyncVarId var = rig.fab->allocate(1, 0);

    unsigned done = 0;
    rig.eq.schedule(0, [&]() {
        for (SyncWord v = 1; v <= 6; ++v)
            rig.fab->write(0, var, v, [&]() { ++done; });
    });
    rig.eq.run();

    EXPECT_EQ(done, 6u);
    // The burst collapsed into fewer broadcasts than writes.
    EXPECT_GT(rig.fab->coalescedLocal(), 0u);
    // Monotone writes: the last value wins everywhere.
    EXPECT_EQ(rig.fab->peek(var), 6u);
}

TEST(ClusterFabricTest, WaitersAcrossThresholdsReleaseInOrder)
{
    Rig rig(8, 2);
    SyncVarId var = rig.fab->allocate(1, 0);

    std::vector<unsigned> order;
    rig.eq.schedule(0, [&]() {
        rig.fab->waitGE(5, var, 2, [&](Tick) { order.push_back(2); });
        rig.fab->waitGE(2, var, 1, [&](Tick) { order.push_back(1); });
    });
    rig.eq.schedule(20, [&]() {
        rig.fab->write(0, var, 1, []() {});
    });
    rig.eq.schedule(60, [&]() {
        rig.fab->write(7, var, 2, []() {});
    });

    // One write meeting several thresholds parked out of order
    // (3, 1, 2, 5) wakes the satisfied ones in park order, not
    // threshold order; the waiter above the value stays parked
    // until a later write reaches it.
    SyncVarId mixed = rig.fab->allocate(1, 0);
    std::vector<SyncWord> woke;
    std::vector<SyncWord> woke_by_first;
    rig.eq.schedule(100, [&]() {
        const SyncWord thresholds[] = {3, 1, 2, 5};
        for (ProcId p = 4; p < 8; ++p) {
            SyncWord th = thresholds[p - 4];
            rig.fab->waitGE(p, mixed, th,
                            [&woke, th](Tick) { woke.push_back(th); });
        }
    });
    rig.eq.schedule(120, [&]() {
        rig.fab->write(0, mixed, 3, []() {});
    });
    rig.eq.schedule(160, [&]() {
        woke_by_first = woke;
        rig.fab->write(0, mixed, 5, []() {});
    });
    rig.eq.run();

    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 2u);
    EXPECT_EQ(woke_by_first, (std::vector<SyncWord>{3, 1, 2}));
    EXPECT_EQ(woke, (std::vector<SyncWord>{3, 1, 2, 5}));
}
