/**
 * @file
 * Lean gang rounds on the serve campaign's plans. A round that does
 * not record draws no access tickets, so it no longer takes a
 * fenced RMW at every data access; these tests check that two-lane
 * lean rounds still reach each plan's oracle image, and that a
 * recording round after lean rounds on the same executor — the
 * service's sampled verification — numbers its tickets from 1 with
 * no gaps and passes the trace checker and the value audit.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bench/registry.hh"
#include "core/trace_check.hh"
#include "serve/service.hh"

using namespace psync;

namespace {

using PlanPtr = std::shared_ptr<const core::CachedPlan>;

/**
 * The serve campaign's plans: every fig21-n256 scenario with the
 * transform passes on, planned through a cache that can build
 * renamed-storage (instance-based) references.
 */
std::vector<PlanPtr>
campaignPlans(core::PlanCache &cache)
{
    std::vector<PlanPtr> plans;
    for (const bench::Scenario *s :
         bench::matchScenariosGlob("fig21-n256/*")) {
        core::RunConfig cfg = s->config;
        cfg.passes.enabled = true;
        cfg.passes.verify = true;
        cfg.passes.eliminateRedundantWaits = true;
        cfg.passes.peephole = true;
        plans.push_back(cache.get(s->loop(), s->kind, cfg));
    }
    return plans;
}

std::size_t
dataAccesses(const ir::IterationPool &pool)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const ir::Iteration it = pool.at(i);
        for (std::size_t k = 0; k < it.size; ++k) {
            const sim::OpKind kind = it.ops[k].kind;
            n += kind == sim::OpKind::dataRead ||
                 kind == sim::OpKind::dataWrite ||
                 kind == sim::OpKind::keyedRead ||
                 kind == sim::OpKind::keyedWrite;
        }
    }
    return n;
}

/** One plan's two-lane arena, driven round by round as a gang. */
class Arena
{
  public:
    static constexpr unsigned kLanes = 2;

    explicit Arena(const core::CachedPlan &plan)
        : plan_(plan), fabric_(plan.initWords), data_(plan.image),
          executor_(fabric_, data_, config())
    {
        fabric_.enableEpochReuse();
    }

    native::NativeRunResult
    round(bool record)
    {
        fabric_.beginEpoch();
        data_.clearAll();
        executor_.beginRun(
            core::Dispatch(core::SchedulePolicy::selfScheduling, 1,
                           plan_.pool.size(), kLanes),
            record);
        const native::Deadline deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(20);
        std::thread member([&] {
            executor_.runLane(plan_.pool, 1, deadline);
        });
        executor_.runLane(plan_.pool, 0, deadline);
        member.join();
        return executor_.finishRun(0);
    }

    native::NativeExecutor &executor() { return executor_; }
    const native::NativeDataMemory &data() const { return data_; }

  private:
    static native::NativeConfig
    config()
    {
        native::NativeConfig cfg;
        cfg.numThreads = kLanes;
        return cfg;
    }

    const core::CachedPlan &plan_;
    native::NativeSyncFabric fabric_;
    native::NativeDataMemory data_;
    native::NativeExecutor executor_;
};

} // namespace

TEST(NativeLeanRoundTest, TwoLaneLeanRoundsReachTheOracleImage)
{
    core::PlanCache cache(
        64, serve::renamedReferenceBuilder(serve::ServeConfig{}));
    std::vector<PlanPtr> plans = campaignPlans(cache);
    ASSERT_EQ(plans.size(), 6u);
    for (const PlanPtr &plan : plans) {
        const core::ReferenceImage *ref = plan->reference();
        ASSERT_NE(ref, nullptr) << plan->key;
        Arena arena(*plan);
        for (int round = 0; round < 50; ++round) {
            native::NativeRunResult result = arena.round(false);
            ASSERT_TRUE(result.completed)
                << plan->key << " round " << round;
            EXPECT_EQ(result.accessesLogged, 0u);
            EXPECT_TRUE(arena.executor().log().empty());
            ASSERT_EQ(arena.data().snapshot(), ref->memory)
                << plan->key << " round " << round;
        }
    }
}

TEST(NativeLeanRoundTest, RecordingRoundAfterLeanRoundsVerifies)
{
    core::PlanCache cache(
        64, serve::renamedReferenceBuilder(serve::ServeConfig{}));
    for (const PlanPtr &plan : campaignPlans(cache)) {
        const std::size_t accesses = dataAccesses(plan->pool);
        Arena arena(*plan);
        // Lean and recording rounds interleave as the service
        // interleaves unsampled and sampled requests.
        for (bool record : {false, false, false, true, false, true,
                            true, false, true}) {
            native::NativeRunResult result = arena.round(record);
            ASSERT_TRUE(result.completed) << plan->key;
            const auto &log = arena.executor().log();
            if (!record) {
                EXPECT_TRUE(log.empty()) << plan->key;
                continue;
            }
            ASSERT_EQ(log.size(), accesses) << plan->key;
            std::set<std::uint64_t> tickets;
            for (const auto &rec : log) {
                tickets.insert(rec.start);
                tickets.insert(rec.end);
            }
            ASSERT_EQ(tickets.size(), 2 * accesses) << plan->key;
            EXPECT_EQ(*tickets.begin(), 1u) << plan->key;
            EXPECT_EQ(*tickets.rbegin(), 2 * accesses) << plan->key;

            core::TraceChecker checker;
            arena.executor().replayAccesses(checker);
            std::vector<std::string> violations =
                checker.verify(plan->loop, plan->plan.depsVerified);
            EXPECT_TRUE(violations.empty())
                << plan->key << ": " << violations.front();
            std::vector<std::string> mismatches =
                arena.executor().verifyValues();
            EXPECT_TRUE(mismatches.empty())
                << plan->key << ": " << mismatches.front();
        }
    }
}
