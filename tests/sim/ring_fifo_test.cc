/** @file Ring FIFO: order across wraparound and growth, pop-time destruction. */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/ring_fifo.hh"

using namespace psync::sim;

namespace {

/**
 * Keeps its token even when moved from, so a ring slot that held on
 * to a popped (moved-from) element would keep the token alive.
 */
struct Sticky
{
    std::shared_ptr<int> token;

    explicit Sticky(std::shared_ptr<int> t) : token(std::move(t)) {}
    Sticky(Sticky &&other) noexcept : token(other.token) {}

    Sticky &
    operator=(Sticky &&other) noexcept
    {
        token = other.token;
        return *this;
    }
};

} // namespace

TEST(RingFifoTest, OrderSurvivesWraparoundAndGrowth)
{
    RingFifo<std::unique_ptr<int>> fifo;
    int next_in = 0;
    int next_out = 0;
    // Move the head into the middle of the first ring, then push
    // past its end (wraparound) and past its capacity (growth).
    for (int i = 0; i < 6; ++i)
        fifo.push(std::make_unique<int>(next_in++));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(*fifo.pop(), next_out++);
    for (int i = 0; i < 30; ++i)
        fifo.push(std::make_unique<int>(next_in++));
    EXPECT_EQ(fifo.size(), 32u);
    while (!fifo.empty())
        EXPECT_EQ(*fifo.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(RingFifoTest, PopDestroysTheSlot)
{
    auto token = std::make_shared<int>(7);
    RingFifo<Sticky> fifo;
    fifo.push(Sticky(token));
    EXPECT_EQ(token.use_count(), 2);
    {
        Sticky popped = fifo.pop();
        // Only the popped element refers to the token now.
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(fifo.empty());
}
