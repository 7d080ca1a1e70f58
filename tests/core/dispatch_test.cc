/**
 * @file
 * core::Dispatch walked with a plain counter as the claim: every
 * policy hands out each iteration once, in counter order, in the
 * block sizes its definition gives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch.hh"

using namespace psync;

namespace {

/** What one walk handed out. */
struct Walk
{
    /** Iterations each lane ran, in the order it ran them. */
    std::vector<std::vector<std::uint64_t>> byLane;
    /** Claimed blocks [begin, end), in claim order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
};

/**
 * Round-robin over the live lanes: each turn a lane takes one
 * iteration from its cursor, claiming from `counter` first when the
 * cursor is drained and the dispatch claims; a lane that gets
 * nothing halts.
 */
Walk
walk(const core::Dispatch &dispatch)
{
    Walk w;
    w.byLane.resize(dispatch.lanes());
    std::vector<core::Cursor> cursors;
    for (unsigned p = 0; p < dispatch.lanes(); ++p)
        cursors.push_back(dispatch.start(p));
    std::vector<bool> halted(dispatch.lanes(), false);
    std::uint64_t counter = 0;
    unsigned live = dispatch.lanes();
    while (live > 0) {
        for (unsigned p = 0; p < dispatch.lanes(); ++p) {
            if (halted[p])
                continue;
            core::Cursor &cursor = cursors[p];
            if (cursor.empty()) {
                bool refilled = false;
                if (dispatch.claims()) {
                    const std::uint64_t old = counter;
                    counter += dispatch.claimSize(old);
                    refilled = dispatch.refill(cursor, old);
                    if (refilled)
                        w.blocks.emplace_back(cursor.next, cursor.end);
                }
                if (!refilled) {
                    halted[p] = true;
                    --live;
                    continue;
                }
            }
            w.byLane[p].push_back(cursor.take());
        }
    }
    return w;
}

const core::SchedulePolicy kPolicies[] = {
    core::SchedulePolicy::selfScheduling,
    core::SchedulePolicy::chunkedSelfScheduling,
    core::SchedulePolicy::guidedSelfScheduling,
    core::SchedulePolicy::staticCyclic,
};

} // namespace

TEST(DispatchTest, SharedPoolsHandOutEachIterationOnceInCounterOrder)
{
    for (core::SchedulePolicy policy : kPolicies) {
        for (std::uint64_t chunk : {0u, 3u}) {
            for (unsigned lanes : {1u, 2u, 3u, 8u}) {
                for (std::uint64_t total : {0u, 1u, 3u, 17u, 100u}) {
                    SCOPED_TRACE(std::string("policy ")
                                     .append(std::to_string(
                                         static_cast<int>(policy)))
                                     .append(" chunk ")
                                     .append(std::to_string(chunk))
                                     .append(" lanes ")
                                     .append(std::to_string(lanes))
                                     .append(" total ")
                                     .append(std::to_string(total)));
                    const core::Dispatch dispatch(policy, chunk, total,
                                                  lanes);
                    ASSERT_EQ(dispatch.lanes(), lanes);
                    const Walk w = walk(dispatch);

                    // Every iteration exactly once; each lane's in
                    // increasing order.
                    std::vector<std::uint64_t> all;
                    for (const auto &ran : w.byLane) {
                        EXPECT_TRUE(
                            std::is_sorted(ran.begin(), ran.end()) &&
                            std::adjacent_find(ran.begin(), ran.end()) ==
                                ran.end());
                        all.insert(all.end(), ran.begin(), ran.end());
                    }
                    std::sort(all.begin(), all.end());
                    ASSERT_EQ(all.size(), total);
                    for (std::uint64_t i = 0; i < total; ++i)
                        ASSERT_EQ(all[i], i);

                    if (policy == core::SchedulePolicy::staticCyclic) {
                        EXPECT_FALSE(dispatch.claims());
                        EXPECT_TRUE(w.blocks.empty());
                        for (unsigned p = 0; p < lanes; ++p) {
                            std::vector<std::uint64_t> expected;
                            for (std::uint64_t i = p; i < total;
                                 i += lanes)
                                expected.push_back(i);
                            EXPECT_EQ(w.byLane[p], expected)
                                << "lane " << p;
                        }
                        continue;
                    }

                    // Blocks go out in counter order, each the size
                    // its policy defines.
                    EXPECT_TRUE(dispatch.claims());
                    std::uint64_t at = 0;
                    for (const auto &[begin, end] : w.blocks) {
                        ASSERT_EQ(begin, at);
                        ASSERT_LT(begin, end);
                        const std::uint64_t remaining = total - begin;
                        std::uint64_t size = 1;
                        if (policy ==
                            core::SchedulePolicy::guidedSelfScheduling)
                            size = std::max<std::uint64_t>(
                                1, remaining / (2 * lanes));
                        else if (policy == core::SchedulePolicy::
                                               chunkedSelfScheduling)
                            size = std::min(
                                std::max<std::uint64_t>(1, chunk),
                                remaining);
                        EXPECT_EQ(end - begin, size)
                            << "block at " << begin;
                        at = end;
                    }
                    EXPECT_EQ(at, total);
                }
            }
        }
    }
}

TEST(DispatchTest, PerLanePoolRunsEachLanesOwnRange)
{
    // Lanes of 3, 0, 1 and 5 iterations.
    const std::vector<std::size_t> bounds = {0, 3, 3, 4, 9};
    const core::Dispatch dispatch(bounds);
    ASSERT_EQ(dispatch.lanes(), 4u);
    EXPECT_FALSE(dispatch.claims());
    const Walk w = walk(dispatch);
    EXPECT_TRUE(w.blocks.empty());
    for (unsigned p = 0; p < dispatch.lanes(); ++p) {
        std::vector<std::uint64_t> expected;
        for (std::size_t i = bounds[p]; i < bounds[p + 1]; ++i)
            expected.push_back(i);
        EXPECT_EQ(w.byLane[p], expected) << "lane " << p;
    }
}
