/** @file Both fabrics: waits, posted broadcasts, coalescing, RMW. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/sync_fabric.hh"

using namespace psync::sim;

namespace {

struct RegRig
{
    EventQueue eq;
    Bus bus;
    RegisterSyncFabric fab;

    explicit RegRig(unsigned capacity = 32, bool coalesce = true,
                    Tick bus_cycles = 1)
        : bus(eq, "sync_bus", bus_cycles),
          fab(eq, bus, capacity, coalesce)
    {}
};

struct MemRig
{
    EventQueue eq;
    Bus bus;
    Memory mem;
    MemorySyncFabric fab;

    explicit MemRig(Tick poll = 4, bool cached = false)
        : bus(eq, "data_bus", 1), mem(eq, bus, MemoryConfig{}),
          fab(eq, mem, Addr(1) << 40, poll, cached)
    {}
};

} // namespace

TEST(RegisterFabricTest, AllocateInitializes)
{
    RegRig rig;
    SyncVarId base = rig.fab.allocate(4, 7);
    for (unsigned v = 0; v < 4; ++v)
        EXPECT_EQ(rig.fab.peek(base + v), 7u);
    EXPECT_EQ(rig.fab.allocated(), 4u);
}

TEST(RegisterFabricTest, CapacityEnforced)
{
    RegRig rig(4);
    rig.fab.allocate(4, 0);
    EXPECT_EXIT(rig.fab.allocate(1, 0),
                ::testing::ExitedWithCode(1), "out of registers");
}

TEST(RegisterFabricTest, ImmediateWaitWhenSatisfied)
{
    RegRig rig;
    SyncVarId v = rig.fab.allocate(1, 10);
    Tick waited = maxTick;
    rig.eq.schedule(0, [&]() {
        rig.fab.waitGE(0, v, 5, [&](Tick w) { waited = w; });
    });
    rig.eq.run();
    EXPECT_EQ(waited, 0u);
}

TEST(RegisterFabricTest, WaiterWakesOnBroadcast)
{
    RegRig rig;
    SyncVarId v = rig.fab.allocate(1, 0);
    Tick waited = maxTick;
    Tick woke_at = 0;
    rig.eq.schedule(0, [&]() {
        rig.fab.waitGE(1, v, 3, [&](Tick w) {
            waited = w;
            woke_at = rig.eq.now();
        });
    });
    rig.eq.schedule(10, [&]() { rig.fab.write(0, v, 3, []() {}); });
    rig.eq.run();
    // Broadcast commits at 11 (grant 10 + 1 bus cycle).
    EXPECT_EQ(woke_at, 11u);
    EXPECT_EQ(waited, 11u);
    EXPECT_EQ(rig.fab.broadcasts(), 1u);
}

TEST(RegisterFabricTest, WaiterStaysWhenThresholdUnmet)
{
    RegRig rig;
    SyncVarId v = rig.fab.allocate(1, 0);
    bool woke = false;
    rig.eq.schedule(0, [&]() {
        rig.fab.waitGE(1, v, 5, [&](Tick) { woke = true; });
    });
    rig.eq.schedule(10, [&]() { rig.fab.write(0, v, 3, []() {}); });
    // The event queue drains (the waiter is parked, not polling),
    // but the wait never completes.
    EXPECT_TRUE(rig.eq.run(1000));
    EXPECT_FALSE(woke);
}

TEST(RegisterFabricTest, OneWriteWakesSatisfiedWaitersInParkOrder)
{
    // Thresholds parked out of order (3, 1, 2, 5): the write of 3
    // wakes the first three in park order, not threshold order, and
    // leaves the 5 parked until the write of 5 reaches it.
    RegRig rig;
    SyncVarId v = rig.fab.allocate(1, 0);
    std::vector<SyncWord> woke;
    std::vector<SyncWord> woke_by_first;
    rig.eq.schedule(0, [&]() {
        const SyncWord thresholds[] = {3, 1, 2, 5};
        for (ProcId p = 1; p <= 4; ++p) {
            SyncWord th = thresholds[p - 1];
            rig.fab.waitGE(p, v, th,
                           [&woke, th](Tick) { woke.push_back(th); });
        }
    });
    rig.eq.schedule(10, [&]() { rig.fab.write(0, v, 3, []() {}); });
    rig.eq.schedule(20, [&]() {
        woke_by_first = woke;
        rig.fab.write(0, v, 5, []() {});
    });
    rig.eq.run();
    EXPECT_EQ(woke_by_first, (std::vector<SyncWord>{3, 1, 2}));
    EXPECT_EQ(woke, (std::vector<SyncWord>{3, 1, 2, 5}));
}

TEST(RegisterFabricTest, CoalescingCollapsesPendingWrites)
{
    RegRig rig(32, true, 8); // slow bus so writes pile up
    SyncVarId v = rig.fab.allocate(1, 0);
    rig.eq.schedule(0, [&]() {
        rig.fab.write(0, v, 1, []() {});
        rig.fab.write(0, v, 2, []() {});
        rig.fab.write(0, v, 3, []() {});
    });
    rig.eq.run();
    // First write wins the bus immediately; writes 2 and 3 coalesce
    // into one pending broadcast carrying the final value.
    EXPECT_EQ(rig.fab.peek(v), 3u);
    EXPECT_EQ(rig.fab.broadcasts(), 2u);
    EXPECT_EQ(rig.fab.coalescedWrites(), 1u);
}

TEST(RegisterFabricTest, NoCoalescingBroadcastsEverything)
{
    RegRig rig(32, false, 8);
    SyncVarId v = rig.fab.allocate(1, 0);
    rig.eq.schedule(0, [&]() {
        rig.fab.write(0, v, 1, []() {});
        rig.fab.write(0, v, 2, []() {});
        rig.fab.write(0, v, 3, []() {});
    });
    rig.eq.run();
    EXPECT_EQ(rig.fab.peek(v), 3u);
    EXPECT_EQ(rig.fab.broadcasts(), 3u);
    EXPECT_EQ(rig.fab.coalescedWrites(), 0u);
}

TEST(RegisterFabricTest, DifferentProcessorsDoNotCoalesce)
{
    RegRig rig(32, true, 8);
    SyncVarId v = rig.fab.allocate(2, 0);
    rig.eq.schedule(0, [&]() {
        rig.fab.write(0, v, 1, []() {});
        rig.fab.write(1, v, 2, []() {});
    });
    rig.eq.run();
    EXPECT_EQ(rig.fab.broadcasts(), 2u);
    EXPECT_EQ(rig.fab.coalescedWrites(), 0u);
}

TEST(RegisterFabricTest, FetchIncSerializesOnBus)
{
    RegRig rig;
    SyncVarId v = rig.fab.allocate(1, 0);
    std::vector<SyncWord> olds;
    rig.eq.schedule(0, [&]() {
        for (unsigned p = 0; p < 4; ++p) {
            rig.fab.fetchInc(p, v, [&](SyncWord o) {
                olds.push_back(o);
            });
        }
    });
    rig.eq.run();
    ASSERT_EQ(olds.size(), 4u);
    for (SyncWord k = 0; k < 4; ++k)
        EXPECT_EQ(olds[k], k);
}

TEST(MemoryFabricTest, WaitPollsUntilSatisfied)
{
    MemRig rig(4);
    SyncVarId v = rig.fab.allocate(1, 0);
    Tick waited = 0;
    bool woke = false;
    rig.eq.schedule(0, [&]() {
        rig.fab.waitGE(0, v, 1, [&](Tick w) {
            waited = w;
            woke = true;
        });
    });
    rig.eq.schedule(40, [&]() { rig.fab.write(1, v, 1, []() {}); });
    rig.eq.run();
    EXPECT_TRUE(woke);
    EXPECT_GE(waited, 40u);
    EXPECT_GT(rig.fab.polls(), 3u); // several polls = real traffic
}

TEST(MemoryFabricTest, CachedSpinOnlyRefetchesOnInvalidation)
{
    MemRig rig(4, true);
    SyncVarId v = rig.fab.allocate(1, 0);
    bool woke = false;
    rig.eq.schedule(0, [&]() {
        rig.fab.waitGE(0, v, 1, [&](Tick) { woke = true; });
    });
    // Long quiet period: a polling spinner would issue ~25 reads;
    // a cached spinner issues one, parks, and re-fetches once.
    rig.eq.schedule(100, [&]() { rig.fab.write(1, v, 1, []() {}); });
    rig.eq.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(rig.fab.polls(), 2u);
}

TEST(MemoryFabricTest, CachedSpinStaysParkedOnInsufficientWrite)
{
    MemRig rig(4, true);
    SyncVarId v = rig.fab.allocate(1, 0);
    bool woke = false;
    rig.eq.schedule(0, [&]() {
        rig.fab.waitGE(0, v, 5, [&](Tick) { woke = true; });
    });
    rig.eq.schedule(50, [&]() { rig.fab.write(1, v, 2, []() {}); });
    rig.eq.run();
    EXPECT_FALSE(woke);
    EXPECT_EQ(rig.fab.polls(), 2u); // initial + one refill

    // A later sufficient write releases it.
    rig.eq.schedule(rig.eq.now() + 1, [&]() {
        rig.fab.write(1, v, 7, []() {});
    });
    rig.eq.run();
    EXPECT_TRUE(woke);
}

TEST(MemoryFabricTest, ReleaseBurstQueuesAtHotModule)
{
    MemRig rig(4, true);
    SyncVarId v = rig.fab.allocate(1, 0);
    unsigned woke = 0;
    rig.eq.schedule(0, [&]() {
        for (unsigned p = 0; p < 8; ++p)
            rig.fab.waitGE(p, v, 1, [&](Tick) { ++woke; });
    });
    rig.eq.schedule(60, [&]() { rig.fab.write(8, v, 1, []() {}); });
    rig.eq.run();
    EXPECT_EQ(woke, 8u);
    // The 8 simultaneous refills serialize at the word's module.
    EXPECT_GT(rig.mem.moduleQueueDelay(), 0u);
}

TEST(MemoryFabricTest, ParkedWaitersWakeInParkOrder)
{
    MemRig rig(4, true);
    SyncVarId v = rig.fab.allocate(1, 0);
    std::vector<unsigned> woken;
    rig.eq.schedule(0, [&]() {
        for (unsigned p = 0; p < 8; ++p) {
            rig.fab.waitGE(p, v, 1, [&woken, p](Tick) {
                woken.push_back(p);
            });
        }
    });
    rig.eq.schedule(60, [&]() { rig.fab.write(8, v, 1, []() {}); });
    rig.eq.run();
    // The wait list is FIFO: spinners re-fetch (and so complete) in
    // the order they parked, which is the order they first polled.
    ASSERT_EQ(woken.size(), 8u);
    for (unsigned p = 0; p < 8; ++p)
        EXPECT_EQ(woken[p], p);
}

TEST(MemoryFabricTest, ReparkedWaitersKeepFifoOrder)
{
    MemRig rig(4, true);
    SyncVarId v = rig.fab.allocate(1, 0);
    std::vector<unsigned> woken;
    rig.eq.schedule(0, [&]() {
        for (unsigned p = 0; p < 4; ++p) {
            rig.fab.waitGE(p, v, 5, [&woken, p](Tick) {
                woken.push_back(p);
            });
        }
    });
    // An insufficient write wakes every spinner for a refill; all
    // re-park, and a later sufficient write must still release them
    // in the original order.
    rig.eq.schedule(50, [&]() { rig.fab.write(4, v, 2, []() {}); });
    rig.eq.schedule(200, [&]() { rig.fab.write(4, v, 9, []() {}); });
    rig.eq.run();
    ASSERT_EQ(woken.size(), 4u);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_EQ(woken[p], p);
}

TEST(MemoryFabricTest, KeyedRetriesWakeInParkOrder)
{
    MemRig rig(4, true);
    SyncVarId key = rig.fab.allocate(1, 0);
    std::vector<unsigned> done;
    rig.eq.schedule(0, [&]() {
        // All six waiters need key >= 1; the key starts at 0, so
        // all park at the module.
        for (unsigned p = 0; p < 6; ++p) {
            rig.fab.keyedAccess(p, key, 1, [&done, p](Tick) {
                done.push_back(p);
            });
        }
    });
    // A releasing access passes immediately (threshold 0) and bumps
    // the key; each retried waiter then passes in FIFO park order,
    // bumping the key again for the next.
    rig.eq.schedule(80, [&]() {
        rig.fab.keyedAccess(6, key, 0, [&done](Tick) {
            done.push_back(99);
        });
    });
    rig.eq.run();
    ASSERT_EQ(done.size(), 7u);
    EXPECT_EQ(done[0], 99u);
    for (unsigned p = 0; p < 6; ++p)
        EXPECT_EQ(done[p + 1], p);
    EXPECT_EQ(rig.fab.peek(key), 7u);
}

TEST(MemoryFabricTest, WriteIsGloballyVisibleAtCompletion)
{
    MemRig rig;
    SyncVarId v = rig.fab.allocate(1, 0);
    SyncWord seen = 123;
    rig.eq.schedule(0, [&]() {
        rig.fab.write(0, v, 9, [&]() { seen = rig.fab.peek(v); });
    });
    rig.eq.run();
    EXPECT_EQ(seen, 9u);
}

TEST(MemoryFabricTest, FetchIncAtomicAcrossProcessors)
{
    MemRig rig;
    SyncVarId v = rig.fab.allocate(1, 0);
    std::vector<SyncWord> olds;
    rig.eq.schedule(0, [&]() {
        for (unsigned p = 0; p < 6; ++p) {
            rig.fab.fetchInc(p, v, [&](SyncWord o) {
                olds.push_back(o);
            });
        }
    });
    rig.eq.run();
    ASSERT_EQ(olds.size(), 6u);
    for (SyncWord k = 0; k < 6; ++k)
        EXPECT_EQ(olds[k], k);
    EXPECT_EQ(rig.fab.peek(v), 6u);
}

TEST(PcWordOrdering, WaitGEUsesPackedLexOrder)
{
    RegRig rig;
    SyncVarId v = rig.fab.allocate(1, PcWord::pack(3, 5));
    Tick waited = maxTick;
    rig.eq.schedule(0, [&]() {
        // <3,5> >= <3,2> holds; <3,5> >= <4,0> does not.
        rig.fab.waitGE(0, v, PcWord::pack(3, 2),
                       [&](Tick w) { waited = w; });
    });
    rig.eq.run();
    EXPECT_EQ(waited, 0u);

    bool woke = false;
    rig.eq.schedule(rig.eq.now(), [&]() {
        rig.fab.waitGE(0, v, PcWord::pack(4, 0),
                       [&](Tick) { woke = true; });
    });
    rig.eq.run(rig.eq.now() + 100);
    EXPECT_FALSE(woke);
}
