/**
 * @file
 * Combining sync fabric semantics: fetch&add decombining hands out
 * the serialized pre-value sequence, parked polls survive until
 * their release, and combining changes timing but never values.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/combining_fabric.hh"
#include "sim/event_queue.hh"

using namespace psync::sim;

TEST(CombiningFabricTest, FetchIncBurstHandsOutUniquePreValues)
{
    EventQueue eq;
    CombiningSyncFabric fab(eq, 256, 8, 1, 1, 4);
    SyncVarId var = fab.allocate(1, 0);

    std::multiset<SyncWord> pre;
    eq.schedule(0, [&]() {
        for (ProcId p = 0; p < 256; ++p) {
            fab.fetchInc(p, var,
                         [&](SyncWord v) { pre.insert(v); });
        }
    });
    eq.run();

    ASSERT_EQ(pre.size(), 256u);
    SyncWord expect = 0;
    for (SyncWord v : pre)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(fab.peek(var), 256u);
    // The burst actually combined in the network: far fewer module
    // visits than transactions.
    EXPECT_GT(fab.net().combinedTotal(), 0u);
    EXPECT_LT(fab.moduleOps(fab.moduleOf(var)),
              fab.net().transactions());
}

TEST(CombiningFabricTest, CombiningCollapsesTheSerialBottleneck)
{
    // 256 fetch&adds of one word. Serialized at a 4-cycle module
    // they would cost over 1000 cycles; the combine tree needs one
    // module visit plus the network round trip.
    EventQueue eq;
    CombiningSyncFabric fab(eq, 256, 8, 1, 1, 4);
    SyncVarId var = fab.allocate(1, 0);
    unsigned done = 0;
    eq.schedule(0, [&]() {
        for (ProcId p = 0; p < 256; ++p)
            fab.fetchInc(p, var, [&](SyncWord) { ++done; });
    });
    eq.run();
    EXPECT_EQ(done, 256u);
    EXPECT_LT(eq.now(), 256u * 4u);
}

TEST(CombiningFabricTest, WaitParksUntilReleasingWrite)
{
    EventQueue eq;
    CombiningSyncFabric fab(eq, 4, 2, 1, 1, 2);
    SyncVarId var = fab.allocate(1, 0);

    Tick woken_at = 0;
    Tick waited = 0;
    eq.schedule(0, [&]() {
        fab.waitGE(0, var, 1, [&](Tick w) {
            woken_at = eq.now();
            waited = w;
        });
    });
    bool was_parked = false;
    eq.schedule(20, [&]() { was_parked = fab.isParked(0); });
    eq.schedule(50, [&]() { fab.write(1, var, 1, []() {}); });
    eq.run();

    EXPECT_TRUE(was_parked);
    EXPECT_FALSE(fab.isParked(0));
    EXPECT_GE(woken_at, 50u);
    EXPECT_GT(waited, 0u);
    EXPECT_EQ(fab.parkedWaits(), 1u);
}

TEST(CombiningFabricTest, MassWakeupReleasesEveryWaiter)
{
    EventQueue eq;
    CombiningSyncFabric fab(eq, 512, 8, 1, 1, 4);
    SyncVarId var = fab.allocate(1, 0);

    unsigned woken = 0;
    eq.schedule(0, [&]() {
        for (ProcId p = 1; p < 512; ++p)
            fab.waitGE(p, var, 1, [&](Tick) { ++woken; });
    });
    eq.schedule(100, [&]() { fab.write(0, var, 1, []() {}); });
    eq.run();

    EXPECT_EQ(woken, 511u);
    EXPECT_EQ(fab.parkedWaits(), 511u);
    for (ProcId p = 1; p < 512; ++p)
        EXPECT_FALSE(fab.isParked(p));
}

TEST(CombiningFabricTest, ThresholdsReleaseInOrder)
{
    // Waiters with ascending thresholds wake as successive writes
    // pass them; a write below a threshold must not wake it.
    EventQueue eq;
    CombiningSyncFabric fab(eq, 8, 2, 1, 1, 2);
    SyncVarId var = fab.allocate(1, 0);

    std::vector<unsigned> order;
    eq.schedule(0, [&]() {
        fab.waitGE(1, var, 2, [&](Tick) { order.push_back(2); });
        fab.waitGE(2, var, 1, [&](Tick) { order.push_back(1); });
    });
    eq.schedule(40, [&]() { fab.write(0, var, 1, []() {}); });
    eq.schedule(80, [&]() { fab.write(0, var, 2, []() {}); });

    // One write meeting several thresholds parked out of order
    // (3, 1, 2, 5) wakes the satisfied ones in park order, not
    // threshold order; the waiter above the value stays parked
    // until a later write reaches it.
    SyncVarId mixed = fab.allocate(1, 0);
    std::vector<SyncWord> woke;
    std::vector<SyncWord> woke_by_first;
    eq.schedule(100, [&]() {
        const SyncWord thresholds[] = {3, 1, 2, 5};
        for (ProcId p = 1; p <= 4; ++p) {
            SyncWord th = thresholds[p - 1];
            fab.waitGE(p, mixed, th,
                       [&woke, th](Tick) { woke.push_back(th); });
        }
    });
    eq.schedule(140, [&]() { fab.write(0, mixed, 3, []() {}); });
    eq.schedule(180, [&]() {
        woke_by_first = woke;
        EXPECT_TRUE(fab.isParked(4));
        fab.write(0, mixed, 5, []() {});
    });
    eq.run();

    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 2u);
    EXPECT_EQ(woke_by_first, (std::vector<SyncWord>{3, 1, 2}));
    EXPECT_EQ(woke, (std::vector<SyncWord>{3, 1, 2, 5}));
    EXPECT_FALSE(fab.isParked(4));
}

TEST(CombiningFabricTest, ValuesSurviveCombiningUnderInterleaving)
{
    // Mixed traffic: increments and polls of the same hot word,
    // issued over several cycles so merges chain through held
    // wait-buffer entries. The pre-value sequence must still be
    // exactly 0..N-1.
    EventQueue eq;
    CombiningSyncFabric fab(eq, 64, 4, 1, 1, 3);
    SyncVarId var = fab.allocate(1, 0);

    std::multiset<SyncWord> pre;
    unsigned woken = 0;
    for (unsigned round = 0; round < 4; ++round) {
        eq.schedule(round * 2, [&, round]() {
            for (ProcId p = 0; p < 16; ++p) {
                ProcId who = round * 16 + p;
                fab.fetchInc(who, var,
                             [&](SyncWord v) { pre.insert(v); });
            }
        });
    }
    eq.schedule(1, [&]() {
        fab.waitGE(0, var, 64, [&](Tick) { ++woken; });
    });
    eq.run();

    ASSERT_EQ(pre.size(), 64u);
    SyncWord expect = 0;
    for (SyncWord v : pre)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(fab.peek(var), 64u);
    EXPECT_EQ(woken, 1u);
}
