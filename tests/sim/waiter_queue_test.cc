/** @file Waiter queue: threshold release in park order, slot reuse. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/waiter_queue.hh"

using namespace psync::sim;

TEST(WaiterQueueTest, ReusedSlotsKeepParkOrder)
{
    WaiterQueue<std::string> q;
    std::vector<std::string> woke;
    auto wake = [&](std::string &&w) { woke.push_back(w); };
    q.park(5, "a");
    q.park(1, "b");
    q.release(1, wake);
    EXPECT_EQ(woke, (std::vector<std::string>{"b"}));
    // "c" takes the slot "b" left and has the lowest threshold, but
    // it parked after "a", so it wakes after "a".
    q.park(1, "c");
    q.park(9, "d");
    q.release(5, wake);
    EXPECT_EQ(woke, (std::vector<std::string>{"b", "a", "c"}));
    q.release(9, wake);
    EXPECT_EQ(woke, (std::vector<std::string>{"b", "a", "c", "d"}));
}
