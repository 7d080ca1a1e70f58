/** @file FIFO bus arbitration, occupancy and queue statistics. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/bus.hh"

using namespace psync::sim;

TEST(BusTest, SingleTransactionTiming)
{
    EventQueue eq;
    Bus bus(eq, "bus", 3);
    Tick done = 0;
    eq.schedule(10, [&]() {
        bus.transact(0, [&](Tick grant) {
            EXPECT_EQ(grant, 10u);
            done = eq.now();
        });
    });
    eq.run();
    EXPECT_EQ(done, 13u);
    EXPECT_EQ(bus.transactions(), 1u);
    EXPECT_EQ(bus.busyCycles(), 3u);
}

TEST(BusTest, BackToBackSerializes)
{
    EventQueue eq;
    Bus bus(eq, "bus", 2);
    std::vector<Tick> grants;
    eq.schedule(0, [&]() {
        for (int k = 0; k < 4; ++k)
            bus.transact(0, [&](Tick g) { grants.push_back(g); });
    });
    eq.run();
    ASSERT_EQ(grants.size(), 4u);
    EXPECT_EQ(grants[0], 0u);
    EXPECT_EQ(grants[1], 2u);
    EXPECT_EQ(grants[2], 4u);
    EXPECT_EQ(grants[3], 6u);
    EXPECT_EQ(bus.queueDelay(), 0u + 2u + 4u + 6u);
    EXPECT_GE(bus.maxQueueDepth(), 3u);
}

TEST(BusTest, FifoOrderAcrossRequesters)
{
    EventQueue eq;
    Bus bus(eq, "bus", 1);
    std::vector<int> order;
    eq.schedule(0, [&]() {
        bus.transact(2, [&](Tick) { order.push_back(2); });
    });
    eq.schedule(0, [&]() {
        bus.transact(1, [&](Tick) { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(BusTest, UtilizationFraction)
{
    EventQueue eq;
    Bus bus(eq, "bus", 5);
    eq.schedule(0, [&]() { bus.transact(0, [](Tick) {}); });
    eq.schedule(20, [&]() { bus.transact(0, [](Tick) {}); });
    eq.run();
    EXPECT_DOUBLE_EQ(bus.utilization(25), 10.0 / 25.0);
}

TEST(BusTest, IdleGapThenNewGrant)
{
    EventQueue eq;
    Bus bus(eq, "bus", 2);
    Tick second_done = 0;
    eq.schedule(0, [&]() { bus.transact(0, [](Tick) {}); });
    eq.schedule(50, [&]() {
        bus.transact(0, [&](Tick g) {
            EXPECT_EQ(g, 50u);
            second_done = eq.now();
        });
    });
    eq.run();
    EXPECT_EQ(second_done, 52u);
}

// A busy-cycle sample backs out the unelapsed tail of the transaction
// on the bus, so consecutive samples difference to the cycles spent
// inside each interval; the queue depth counts that transaction too.
TEST(BusTest, TimelineSampleBacksOutInFlightTail)
{
    EventQueue eq;
    Bus bus(eq, "bus", 4);
    TraceLog log;
    eq.schedule(0, [&]() { bus.transact(0, [](Tick) {}); });
    eq.schedule(1, [&]() { bus.sampleTimeline(log, 1); });
    // Queued behind the first transaction, granted at tick 4.
    eq.schedule(1, [&]() { bus.transact(1, [](Tick) {}); });
    // Runs before the first transaction's done event at tick 4.
    eq.schedule(4, [&]() { bus.sampleTimeline(log, 4); });
    eq.schedule(6, [&]() { bus.sampleTimeline(log, 6); });
    eq.run();

    std::vector<double> busy, depth;
    log.forEach([&](const TraceEvent &e) {
        EXPECT_EQ(e.kind, TraceKind::sample);
        if (e.codeAs<SampleStream>() == SampleStream::busBusyCycles)
            busy.push_back(e.value());
        else
            depth.push_back(e.value());
    });
    EXPECT_EQ(busy, (std::vector<double>{1, 4, 4 + 2}));
    EXPECT_EQ(depth, (std::vector<double>{1, 2, 1}));
    EXPECT_EQ(bus.busyCycles(), 8u);
}
