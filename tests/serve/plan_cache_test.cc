/**
 * @file
 * PlanCache keying, hit/miss accounting, LRU eviction, entry
 * immutability, and the on-demand reference oracle. The keying
 * property under test: two (loop, scheme, config) triples that can
 * produce different plans always produce different keys, and the
 * canonical printLoop round-trip text — not the loop object's
 * identity — is what the key carries, so a loop parsed back from
 * its own text hits the cache. The oracle property: a miss builds
 * no reference; the first request builds it once, for every thread
 * and every later call, even after its service is gone.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/plan_cache.hh"
#include "dep/loop_text.hh"
#include "serve/service.hh"
#include "workloads/fig21.hh"
#include "workloads/relaxation.hh"

using namespace psync;

namespace {

core::RunConfig
baseConfig()
{
    core::RunConfig cfg;
    cfg.machine.numProcs = 4;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 20;
    cfg.scheme.numPcs = 16;
    cfg.scheme.numScs = 1u << 20;
    return cfg;
}

/** baseConfig on the memory fabric, as instance-based plans run. */
core::RunConfig
memoryConfig()
{
    core::RunConfig cfg = baseConfig();
    cfg.machine.fabric = sim::FabricKind::memory;
    return cfg;
}

/** A one-gang service that verifies every other request. */
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

/** A renamed-storage builder that counts its calls. */
core::ReferenceBuilder
countingBuilder(std::atomic<int> &calls)
{
    return [&calls](const core::CachedPlan &,
                    core::ReferenceImage &image) {
        calls.fetch_add(1);
        image.reads[7] = 42;
        return true;
    };
}

} // namespace

TEST(PlanCacheTest, SecondGetOfSameKeyHits)
{
    core::PlanCache cache(8);
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig cfg = baseConfig();

    auto a = cache.get(loop, sync::SchemeKind::processImproved, cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    auto b = cache.get(loop, sync::SchemeKind::processImproved, cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // Same immutable entry, not a replan.
    EXPECT_EQ(a.get(), b.get());
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(PlanCacheTest, CanonicalLoopTextIsTheKey)
{
    // A loop parsed back from its own canonical text is a different
    // dep::Loop object with the same text — it must hit.
    core::PlanCache cache(8);
    dep::Loop loop = workloads::makeFig21Loop(12);
    dep::ParsedLoop reparsed = dep::parseLoop(dep::printLoop(loop));
    ASSERT_TRUE(reparsed.ok) << reparsed.error;

    core::RunConfig cfg = baseConfig();
    auto a = cache.get(loop, sync::SchemeKind::statementOriented,
                       cfg);
    auto b = cache.get(reparsed.loop,
                       sync::SchemeKind::statementOriented, cfg);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a->loopText, dep::printLoop(reparsed.loop));
}

TEST(PlanCacheTest, DistinctPlanningInputsNeverCollide)
{
    // Every planning-relevant variation must produce a distinct
    // key. Execution-time knobs (schedule policy, chunk size, tick
    // limit) deliberately do not.
    dep::Loop loop = workloads::makeFig21Loop(12);
    dep::Loop other = workloads::makeRelaxationLoop(12);
    core::RunConfig cfg = baseConfig();

    const std::string base = core::PlanCache::makeKey(
        loop, sync::SchemeKind::processImproved, cfg);

    // Different loop text.
    EXPECT_NE(base,
              core::PlanCache::makeKey(
                  other, sync::SchemeKind::processImproved, cfg));
    // Different scheme.
    EXPECT_NE(base,
              core::PlanCache::makeKey(
                  loop, sync::SchemeKind::statementOriented, cfg));

    // Each planning-relevant config field, varied one at a time.
    auto keyWith = [&](auto mutate) {
        core::RunConfig c = baseConfig();
        mutate(c);
        return core::PlanCache::makeKey(
            loop, sync::SchemeKind::processImproved, c);
    };
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.machine.numProcs = 8;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.machine.fabric = sim::FabricKind::memory;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.scheme.numPcs = 32;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.scheme.exactBoundaries = true;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.scheme.cedarCombining = true;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.eliminateCoveredDeps = !c.eliminateCoveredDeps;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.passes.eliminateRedundantWaits = true;
              }));
    EXPECT_NE(base, keyWith([](core::RunConfig &c) {
                  c.passes.peephole = true;
              }));

    // Execution-time knobs share the plan.
    EXPECT_EQ(base, keyWith([](core::RunConfig &c) {
                  c.schedule =
                      core::SchedulePolicy::staticCyclic;
              }));
    EXPECT_EQ(base, keyWith([](core::RunConfig &c) {
                  c.chunkSize = 99;
              }));
    EXPECT_EQ(base, keyWith([](core::RunConfig &c) {
                  c.tickLimit = 123456;
              }));
}

TEST(PlanCacheTest, DistinctConfigsGetDistinctEntries)
{
    core::PlanCache cache(8);
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig cfg = baseConfig();
    core::RunConfig wide = baseConfig();
    wide.machine.numProcs = 8;

    auto a = cache.get(loop, sync::SchemeKind::processImproved, cfg);
    auto b = cache.get(loop, sync::SchemeKind::processImproved,
                       wide);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, LruEvictionKeepsRecentlyUsed)
{
    core::PlanCache cache(2);
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig cfg = baseConfig();

    auto a = cache.get(loop, sync::SchemeKind::processImproved, cfg);
    auto b = cache.get(loop, sync::SchemeKind::statementOriented,
                       cfg);
    // Touch A so B is the least recently used entry.
    cache.get(loop, sync::SchemeKind::processImproved, cfg);

    auto c = cache.get(loop, sync::SchemeKind::referenceBased, cfg);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.contains(a->key));
    EXPECT_TRUE(cache.contains(c->key));
    EXPECT_FALSE(cache.contains(b->key));

    // The evicted entry's shared_ptr stays valid — eviction never
    // invalidates a plan a gang is still executing.
    EXPECT_FALSE(b->programs.empty());

    // Re-requesting the evicted key replans (miss, not a hit).
    std::uint64_t misses = cache.misses();
    cache.get(loop, sync::SchemeKind::statementOriented, cfg);
    EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(PlanCacheTest, EntryCarriesInitImageAndVerifiedPlan)
{
    core::PlanCache cache(8);
    dep::Loop loop = workloads::makeFig21Loop(12);
    auto plan = cache.get(loop, sync::SchemeKind::processImproved,
                          baseConfig());
    EXPECT_FALSE(plan->programs.empty());
    EXPECT_FALSE(plan->initWords.empty());
    EXPECT_FALSE(plan->plan.depsVerified.empty());
}

TEST(PlanCacheTest, MissBuildsNoReference)
{
    std::atomic<int> calls{0};
    core::PlanCache cache(8, countingBuilder(calls));
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig cfg = baseConfig();

    cache.get(loop, sync::SchemeKind::instanceBased, cfg);
    cache.get(loop, sync::SchemeKind::instanceBased, cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(calls.load(), 0);
}

TEST(PlanCacheTest, FirstRequestBuildsTheReferenceOnceForAllThreads)
{
    std::atomic<int> calls{0};
    core::PlanCache cache(8, countingBuilder(calls));
    dep::Loop loop = workloads::makeFig21Loop(12);
    auto plan = cache.get(loop, sync::SchemeKind::instanceBased,
                          baseConfig());

    // Four threads ask at once; exactly one builds, every one sees
    // the same image.
    constexpr int kThreads = 4;
    std::atomic<bool> go{false};
    std::vector<const core::ReferenceImage *> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            seen[t] = plan->reference();
        });
    }
    go.store(true);
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(calls.load(), 1);
    ASSERT_NE(seen[0], nullptr);
    for (const core::ReferenceImage *ref : seen)
        EXPECT_EQ(ref, seen[0]);
    EXPECT_EQ(seen[0]->reads.at(7), 42u);

    // Later calls reuse it too.
    EXPECT_EQ(plan->reference(), seen[0]);
    EXPECT_EQ(calls.load(), 1);
}

TEST(PlanCacheTest, InPlaceReferenceIsTheSequentialOracle)
{
    std::atomic<int> calls{0};
    core::PlanCache cache(8, countingBuilder(calls));
    dep::Loop loop = workloads::makeFig21Loop(12);
    auto plan = cache.get(loop, sync::SchemeKind::processImproved,
                          baseConfig());
    const core::ReferenceImage *ref = plan->reference();
    ASSERT_NE(ref, nullptr);
    core::SequentialImage seq = core::sequentialImage(loop);
    EXPECT_FALSE(ref->memory.empty());
    EXPECT_EQ(ref->memory, seq.memory);
    EXPECT_EQ(ref->reads, seq.reads);
    EXPECT_EQ(plan->reference(), ref);
    // The renamed-storage builder is for instance-based plans only.
    EXPECT_EQ(calls.load(), 0);
}

TEST(PlanCacheTest, PlansWithoutAnOracleHaveNoReference)
{
    dep::Loop loop = workloads::makeFig21Loop(12);
    core::RunConfig cfg = baseConfig();

    // No builder: a renamed-storage plan has nothing to compare to.
    core::PlanCache bare(8);
    EXPECT_EQ(bare.get(loop, sync::SchemeKind::instanceBased, cfg)
                  ->reference(),
              nullptr);
    // The unsynchronized baseline promises no image at all.
    EXPECT_EQ(bare.get(loop, sync::SchemeKind::none, cfg)->reference(),
              nullptr);

    // A builder that fails leaves the plan without one, too.
    core::PlanCache failing(
        8, [](const core::CachedPlan &, core::ReferenceImage &) {
            return false;
        });
    EXPECT_EQ(failing.get(loop, sync::SchemeKind::instanceBased, cfg)
                  ->reference(),
              nullptr);
}

TEST(PlanCacheTest, PlanYieldsItsReferenceAfterItsServiceIsGone)
{
    dep::Loop loop = workloads::makeFig21Loop(12);
    std::shared_ptr<const core::CachedPlan> plan;
    {
        auto service =
            std::make_unique<serve::DoacrossService>(smallService());
        plan = service->plan(loop, sync::SchemeKind::instanceBased,
                             memoryConfig());
        service->stop();
    }
    // The service's builder captured values only, so building the
    // reference now touches nothing the service owned.
    const core::ReferenceImage *ref = plan->reference();
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(ref->reads, core::sequentialImage(loop).reads);
    EXPECT_FALSE(ref->memory.empty());
}

TEST(PlanCacheTest, TwoGangsVerifyingOneFreshPlanBuildItsReferenceOnce)
{
    serve::ServeConfig scfg = smallService();
    scfg.gangs = 2;
    scfg.verifySampleEvery = 1;

    // The service's own builder, counted, and slowed so the second
    // gang reaches the plan while the first is still building.
    std::atomic<int> calls{0};
    core::ReferenceBuilder real = serve::renamedReferenceBuilder(scfg);
    core::PlanCache cache(
        8, [&calls, real](const core::CachedPlan &plan,
                          core::ReferenceImage &image) {
            calls.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return real(plan, image);
        });
    dep::Loop loop = workloads::makeFig21Loop(12);
    auto plan = cache.get(loop, sync::SchemeKind::instanceBased,
                          memoryConfig());
    EXPECT_EQ(calls.load(), 0);

    serve::DoacrossService service(scfg);

    service.submitPlan(plan);
    service.submitPlan(plan);
    service.waitIdle();
    std::vector<serve::Completion> done = service.takeCompletions();
    ASSERT_EQ(done.size(), 2u);
    for (const serve::Completion &c : done) {
        EXPECT_TRUE(c.completed);
        EXPECT_TRUE(c.verified);
        EXPECT_TRUE(c.verifyOk)
            << (c.problems.empty() ? "" : c.problems.front());
    }
    EXPECT_EQ(calls.load(), 1);
    service.stop();
}
