/** @file NativeSyncFabric: stores, waits, parking, abort. */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "native/fabric.hh"
#include "sim/machine.hh"

using namespace psync;
using namespace std::chrono_literals;

namespace {

native::Deadline
soon(std::chrono::milliseconds ms = 5000ms)
{
    return std::chrono::steady_clock::now() + ms;
}

} // namespace

TEST(NativeFabricTest, AllocateLoadStoreFetchAdd)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(3, 7));
    const sim::SyncVarId base = 0;
    EXPECT_EQ(fabric.allocated(), 3u);
    EXPECT_EQ(fabric.load(base + 2), 7u);

    fabric.store(base, 42);
    EXPECT_EQ(fabric.load(base), 42u);

    EXPECT_EQ(fabric.fetchAdd(base + 1, 5), 7u);
    EXPECT_EQ(fabric.load(base + 1), 12u);
}

TEST(NativeFabricTest, MirrorsPlannedSimFabric)
{
    sim::MachineConfig mc;
    mc.numProcs = 4;
    sim::Machine machine(mc);
    sim::SyncVarId a = machine.fabric().allocate(2, 11);
    sim::SyncVarId b = machine.fabric().allocate(1, 0);
    machine.fabric().poke(b, 99);

    native::NativeSyncFabric mirror(machine.fabric());
    ASSERT_EQ(mirror.allocated(), machine.fabric().allocated());
    EXPECT_EQ(mirror.load(a), 11u);
    EXPECT_EQ(mirror.load(a + 1), 11u);
    EXPECT_EQ(mirror.load(b), 99u);
}

TEST(NativeFabricTest, WaitAlreadySatisfiedReturnsImmediately)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 10));
    const sim::SyncVarId v = 0;
    auto outcome = fabric.waitGE(v, 10, soon());
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_EQ(outcome.parks, 0u);
}

TEST(NativeFabricTest, WaiterSeesConcurrentStore)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0));
    const sim::SyncVarId v = 0;
    std::thread writer([&] {
        std::this_thread::sleep_for(10ms);
        fabric.store(v, 3);
    });
    auto outcome = fabric.waitGE(v, 3, soon());
    writer.join();
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_EQ(fabric.load(v), 3u);
}

TEST(NativeFabricTest, ZeroSpinLimitParksAndStillWakes)
{
    // spin_limit 0 forces the park path on every wait.
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0), 0);
    const sim::SyncVarId v = 0;
    std::thread writer([&] {
        std::this_thread::sleep_for(20ms);
        fabric.store(v, 1);
    });
    auto outcome = fabric.waitGE(v, 1, soon());
    writer.join();
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_GE(outcome.parks, 1u);
}

TEST(NativeFabricTest, DeadlineAbortsFabric)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0), 4);
    const sim::SyncVarId v = 0;
    auto outcome = fabric.waitGE(v, 1, soon(50ms));
    EXPECT_FALSE(outcome.satisfied);
    EXPECT_TRUE(fabric.aborted());
    // Later waits fail fast once aborted.
    auto after = fabric.waitGE(v, 1, soon());
    EXPECT_FALSE(after.satisfied);
}

TEST(NativeFabricTest, AbortReleasesParkedWaiters)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0), 0);
    const sim::SyncVarId v = 0;
    std::vector<std::thread> waiters;
    std::vector<native::WaitOutcome> outcomes(4);
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([&, i] {
            outcomes[i] = fabric.waitGE(v, 100, soon(60s));
        });
    }
    std::this_thread::sleep_for(20ms);
    fabric.abortAll();
    for (auto &t : waiters)
        t.join();
    for (const auto &o : outcomes)
        EXPECT_FALSE(o.satisfied);
}

TEST(NativeFabricTest, ManyWaitersOneVariable)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0), 8);
    const sim::SyncVarId v = 0;
    std::vector<std::thread> waiters;
    std::atomic<unsigned> satisfied{0};
    for (int i = 0; i < 8; ++i) {
        waiters.emplace_back([&] {
            if (fabric.waitGE(v, 5, soon()).satisfied)
                satisfied.fetch_add(1);
        });
    }
    for (sim::SyncWord w = 1; w <= 5; ++w) {
        std::this_thread::sleep_for(2ms);
        fabric.store(v, w);
    }
    for (auto &t : waiters)
        t.join();
    EXPECT_EQ(satisfied.load(), 8u);
}

TEST(NativeFabricTest, FetchAddChainWakesThresholdWaiter)
{
    // Barrier-arrival shape: waiter needs the count to reach N via
    // increments from several threads.
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0), 0);
    const sim::SyncVarId v = 0;
    std::thread waiter_thread;
    native::WaitOutcome outcome;
    waiter_thread = std::thread(
        [&] { outcome = fabric.waitGE(v, 6, soon()); });
    std::vector<std::thread> adders;
    for (int i = 0; i < 3; ++i)
        adders.emplace_back([&] { fabric.fetchAdd(v, 2); });
    for (auto &t : adders)
        t.join();
    waiter_thread.join();
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_EQ(fabric.load(v), 6u);
}

TEST(NativeFabricTest, AbortWakesParkedWaitersOnEveryShard)
{
    // Waiters park on mutex+condvar shards keyed by variable id;
    // abortAll must sweep every shard, not just the one the
    // deadline-hitting thread was parked on. Park one waiter per
    // distinct shard (consecutive ids map to consecutive shards)
    // and require that a single abort releases them all promptly —
    // a missed shard would hold its waiter until the 5 s deadline.
    constexpr unsigned kWaiters = 16;
    // No spin: park immediately.
    native::NativeSyncFabric fabric(
        std::vector<sim::SyncWord>(kWaiters, 0), 0);
    const sim::SyncVarId base = 0;

    std::vector<std::thread> waiters;
    std::vector<native::WaitOutcome> outcomes(kWaiters);
    std::atomic<unsigned> parked{0};
    for (unsigned i = 0; i < kWaiters; ++i) {
        waiters.emplace_back([&, i] {
            parked.fetch_add(1);
            outcomes[i] = fabric.waitGE(base + i, 1, soon());
        });
    }
    while (parked.load() < kWaiters)
        std::this_thread::yield();
    std::this_thread::sleep_for(20ms); // let the last ones park

    auto t0 = std::chrono::steady_clock::now();
    fabric.abortAll();
    for (auto &t : waiters)
        t.join();
    auto woke = std::chrono::steady_clock::now() - t0;

    for (unsigned i = 0; i < kWaiters; ++i)
        EXPECT_FALSE(outcomes[i].satisfied) << i;
    // Generous for a loaded CI host, but far below the deadline a
    // missed shard would burn.
    EXPECT_LT(woke, 2s);
}
