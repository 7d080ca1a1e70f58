/**
 * @file
 * DoacrossService end-to-end: persistent gangs serving cached plans
 * with epoch-reused fabrics, sampled verification, watchdog
 * recovery (a deadlocked request fails alone — the next request on
 * the same arena runs clean), and a four-lane gang that verifies
 * every request.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "serve/service.hh"
#include "workloads/fig21.hh"
#include "workloads/relaxation.hh"

using namespace psync;

namespace {

core::RunConfig
configFor(sync::SchemeKind kind)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = 4;
    if (kind == sync::SchemeKind::referenceBased ||
        kind == sync::SchemeKind::instanceBased)
        cfg.machine.fabric = sim::FabricKind::memory;
    else
        cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 20;
    cfg.scheme.numPcs = 16;
    cfg.scheme.numScs = 1u << 20;
    return cfg;
}

serve::ServeConfig
smallService()
{
    serve::ServeConfig cfg;
    cfg.gangs = 1;
    cfg.gangSize = 2;
    cfg.verifySampleEvery = 2;
    cfg.requestTimeoutMs = 10000;
    return cfg;
}

/** A plan whose only program waits on a threshold nothing writes. */
std::shared_ptr<core::CachedPlan>
stuckPlan()
{
    auto plan = std::make_shared<core::CachedPlan>();
    plan->key = "test/stuck-plan";
    plan->loopText = "(handcrafted deadlock)";
    plan->kind = sync::SchemeKind::none;
    plan->initWords = {0};
    static const std::vector<sim::Program> programs = [] {
        sim::Program stuck;
        stuck.iter = 1;
        stuck.ops = {sim::Op::mkWaitGE(0, 99)};
        return std::vector<sim::Program>{stuck};
    }();
    plan->pool = ir::IterationPool::borrow(programs);
    return plan;
}

} // namespace

TEST(ServiceTest, ServesRepeatSubmissionsFromOneArena)
{
    serve::DoacrossService service(smallService());
    dep::Loop loop = workloads::makeFig21Loop(16);
    core::RunConfig cfg =
        configFor(sync::SchemeKind::processImproved);

    constexpr int kRequests = 8;
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_NE(service.submit(
                      loop, sync::SchemeKind::processImproved, cfg),
                  0u);
    }
    service.waitIdle();
    auto completions = service.takeCompletions();
    ASSERT_EQ(completions.size(),
              static_cast<std::size_t>(kRequests));
    for (const auto &c : completions) {
        EXPECT_TRUE(c.completed)
            << (c.problems.empty() ? "" : c.problems.front());
        EXPECT_TRUE(c.verifyOk)
            << (c.problems.empty() ? "" : c.problems.front());
        EXPECT_GT(c.latencyNanos, 0u);
        EXPECT_GT(c.programsRun, 0u);
    }

    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(stats.completedOk,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(stats.failed, 0u);
    // One miss (first request plans), then hits.
    EXPECT_EQ(stats.planCacheMisses, 1u);
    EXPECT_EQ(stats.planCacheHits,
              static_cast<std::uint64_t>(kRequests - 1));
    // verifySampleEvery = 2: half the requests were fully verified.
    EXPECT_GE(stats.verifySamples, 2u);
    EXPECT_EQ(stats.verifyFailures, 0u);
    // Every request began a fresh epoch on its arena.
    EXPECT_EQ(stats.epochsBegun,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(stats.latencyNs.count(),
              static_cast<std::uint64_t>(kRequests));
    service.stop();
}

TEST(ServiceTest, MixedPlansAndSchemesAllVerify)
{
    serve::ServeConfig cfg = smallService();
    cfg.verifySampleEvery = 1; // verify everything
    serve::DoacrossService service(cfg);
    dep::Loop fig21 = workloads::makeFig21Loop(12);
    dep::Loop relax = workloads::makeRelaxationLoop(10);

    for (int round = 0; round < 2; ++round) {
        for (sync::SchemeKind kind : sync::allSyncSchemes()) {
            service.submit(fig21, kind, configFor(kind));
            service.submit(relax, kind, configFor(kind));
        }
    }
    service.waitIdle();
    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.verifyFailures, 0u);
    EXPECT_EQ(stats.verifySamples, stats.submitted);
    // Round 2 resubmits round 1's (loop, scheme, config) triples.
    EXPECT_GE(stats.planCacheHits, stats.planCacheMisses);
    service.stop();
}

TEST(ServiceTest, FourLaneGangServesAndVerifiesEveryRequest)
{
    serve::ServeConfig cfg = smallService();
    cfg.gangSize = 4;
    cfg.verifySampleEvery = 1;
    serve::DoacrossService service(cfg);
    dep::Loop loop = workloads::makeFig21Loop(16);
    for (int i = 0; i < 6; ++i)
        service.submit(loop, sync::SchemeKind::statementOriented,
                       configFor(sync::SchemeKind::statementOriented));
    service.waitIdle();
    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completedOk, 6u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.verifyFailures, 0u);
    service.stop();
}

TEST(ServiceTest, WatchdogFailsStuckRequestAndArenaRecovers)
{
    serve::ServeConfig cfg = smallService();
    cfg.gangSize = 2;
    cfg.requestTimeoutMs = 300;
    serve::DoacrossService service(cfg);

    // The stuck plan burns its watchdog deadline and must come back
    // as a failed completion — not a hung service.
    auto stuck = stuckPlan();
    std::uint64_t stuck_id = service.submitPlan(stuck);
    EXPECT_NE(stuck_id, 0u);
    service.waitIdle();
    auto completions = service.takeCompletions();
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(completions[0].requestId, stuck_id);
    EXPECT_FALSE(completions[0].completed);
    ASSERT_FALSE(completions[0].problems.empty());

    // Same gang, new request: the healthy plan must run clean (the
    // arena's epoch bump cleared the abort), and a resubmission of
    // the *stuck plan's own arena* must fail again rather than
    // corrupt anything.
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig rcfg =
        configFor(sync::SchemeKind::processImproved);
    service.submit(loop, sync::SchemeKind::processImproved, rcfg);
    service.submitPlan(stuck);
    service.submit(loop, sync::SchemeKind::processImproved, rcfg);
    service.waitIdle();
    completions = service.takeCompletions();
    ASSERT_EQ(completions.size(), 3u);
    int ok = 0, failed = 0;
    for (const auto &c : completions) {
        if (c.completed)
            ++ok;
        else
            ++failed;
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(failed, 1);

    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.completedOk, 2u);
    service.stop();
}

TEST(ServiceTest, CompletionIsPublishedBeforeTheNextRequestFinishes)
{
    serve::ServeConfig cfg = smallService();
    cfg.requestTimeoutMs = 2000;
    serve::DoacrossService service(cfg);
    auto healthy = service.plan(
        workloads::makeFig21Loop(16), sync::SchemeKind::processImproved,
        configFor(sync::SchemeKind::processImproved));
    std::uint64_t healthy_id = service.submitPlan(healthy);
    std::uint64_t stuck_id = service.submitPlan(stuckPlan());
    ASSERT_NE(healthy_id, 0u);
    ASSERT_NE(stuck_id, 0u);

    // The healthy request's completion must appear on its own while
    // the stuck request behind it is still inside its watchdog: the
    // gang does not hold a served request back while it serves the
    // next one. The check is on order, not on speed.
    std::vector<serve::Completion> seen;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (seen.empty()) {
        ASSERT_LT(std::chrono::steady_clock::now(), give_up)
            << "nothing was ever published";
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        seen = service.takeCompletions();
    }
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].requestId, healthy_id);
    EXPECT_TRUE(seen[0].completed);
    EXPECT_EQ(service.stats().failed, 0u);

    service.waitIdle();
    auto rest = service.takeCompletions();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].requestId, stuck_id);
    EXPECT_FALSE(rest[0].completed);
    EXPECT_EQ(service.stats().failed, 1u);
    service.stop();
}

TEST(ServiceTest, StopIsIdempotentAndRejectsLateSubmissions)
{
    serve::DoacrossService service(smallService());
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig cfg =
        configFor(sync::SchemeKind::processImproved);
    EXPECT_NE(service.submit(
                  loop, sync::SchemeKind::processImproved, cfg),
              0u);
    service.waitIdle();
    service.stop();
    service.stop(); // idempotent
    EXPECT_EQ(service.submit(
                  loop, sync::SchemeKind::processImproved, cfg),
              0u);
}

TEST(ServiceTest, MultiGangTrafficSpreadsAndCompletes)
{
    serve::ServeConfig cfg = smallService();
    cfg.gangs = 3;
    cfg.gangSize = 2;
    serve::DoacrossService service(cfg);
    dep::Loop loop = workloads::makeFig21Loop(16);
    core::RunConfig rcfg =
        configFor(sync::SchemeKind::processImproved);
    constexpr int kRequests = 30;
    for (int i = 0; i < kRequests; ++i)
        service.submit(loop, sync::SchemeKind::processImproved,
                       rcfg);
    service.waitIdle();
    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completedOk,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.verifyFailures, 0u);
    service.stop();
}

TEST(ServiceTest, ArenaCapRetiresOnlyTheLeastRecentlyUsedArena)
{
    // planCacheCapacity 2 caps the gang at max(8, 2) = 8 arenas. The
    // ninth distinct plan must retire the first plan's arena alone;
    // the other seven arenas keep their plans alive, long after the
    // cache has dropped them.
    serve::ServeConfig cfg = smallService();
    cfg.planCacheCapacity = 2;
    serve::DoacrossService service(cfg);
    core::RunConfig rcfg =
        configFor(sync::SchemeKind::processImproved);
    std::vector<std::weak_ptr<const core::CachedPlan>> plans;
    for (int i = 0; i < 9; ++i) {
        auto plan =
            service.plan(workloads::makeFig21Loop(8 + i),
                         sync::SchemeKind::processImproved, rcfg);
        plans.push_back(plan);
        ASSERT_NE(service.submitPlan(std::move(plan)), 0u);
    }
    service.waitIdle();
    // Joins the gang and releases the retired arena's plan.
    service.stop();
    for (const auto &c : service.takeCompletions())
        EXPECT_TRUE(c.completed);
    EXPECT_TRUE(plans[0].expired());
    for (std::size_t i = 1; i < plans.size(); ++i)
        EXPECT_FALSE(plans[i].expired()) << "plan " << i;
}
