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
 * and every later call, even after its service is gone. The pool
 * properties: instantiating every iteration of a lowered pool equals
 * emitting and transforming every program, and a plan holds class
 * bodies whose size does not grow with the loop's trip count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench/registry.hh"
#include "core/plan_cache.hh"
#include "dep/loop_text.hh"
#include "serve/service.hh"
#include "workloads/branches.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"
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

/** Every field of an op, for exact comparison. */
auto
fieldsOf(const ir::Op &op)
{
    return std::tie(op.kind, op.cycles, op.addr, op.var, op.value,
                    op.aux, op.stmt, op.ref, op.id, op.iterTag);
}

std::vector<dep::Loop>
corpusLoops()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             PSYNC_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() == ".loop")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::vector<dep::Loop> loops;
    for (const auto &file : files) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        dep::ParsedLoop parsed = dep::parseLoop(text.str());
        EXPECT_TRUE(parsed.ok) << file << ": " << parsed.error;
        if (parsed.ok)
            loops.push_back(std::move(parsed.loop));
    }
    return loops;
}

/**
 * Plan `kind` for `loop` once, then under passes off, verify only and
 * everything on require ir::lowerPool's pool to instantiate, at every
 * iteration, exactly the program Scheme::emit gives after
 * ir::runPasses over all of them: ops with ids, every PassStats
 * field, the verifier's errors in order. Returns the most classes any
 * config needed.
 */
std::size_t
expectPoolMatchesEmission(const dep::Loop &loop, sync::SchemeKind kind,
                          const sync::SchemeConfig &scfg,
                          const std::string &what)
{
    sim::MachineConfig mc;
    mc.numProcs = 4;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 1u << 20;
    sim::Machine machine(mc);
    dep::DepGraph graph(loop, !scfg.exactBoundaries);
    dep::DataLayout layout(loop, mc.memory.wordBytes);
    std::unique_ptr<sync::Scheme> scheme = sync::makeScheme(kind);
    scheme->plan(graph, layout, machine.fabric(), scfg);
    sim::SyncFabric &fabric = machine.fabric();
    ir::InitValueFn init = [&fabric](ir::SyncVarId var) {
        return fabric.peek(var);
    };

    ir::PassConfig off;
    off.enabled = false;
    ir::PassConfig verify_only;
    ir::PassConfig all;
    all.eliminateRedundantWaits = true;
    all.peephole = true;
    const std::pair<const char *, ir::PassConfig> configs[] = {
        {"off", off}, {"verify", verify_only}, {"all", all}};

    std::size_t classes = 0;
    for (const auto &[name, cfg] : configs) {
        SCOPED_TRACE(what + " passes=" + name);
        std::vector<ir::Program> programs;
        for (std::uint64_t lpid = 1; lpid <= loop.iterations(); ++lpid)
            programs.push_back(scheme->emit(lpid));
        ir::PassStats want = ir::runPasses(programs, cfg, init);
        ir::PassStats got;
        ir::IterationPool pool = ir::lowerPool(
            *scheme, loop.iterations(),
            static_cast<std::uint64_t>(loop.innerTrip()), cfg, init,
            got);
        classes = std::max(classes, pool.numClasses());
        std::vector<bool> used(pool.numClasses(), false);
        for (std::size_t i = 0; i < pool.size(); ++i)
            used[pool.classOf(i)] = true;
        EXPECT_TRUE(std::all_of(used.begin(), used.end(),
                                [](bool u) { return u; }))
            << "a class no iteration uses";

        EXPECT_EQ(got.opsBefore, want.opsBefore);
        EXPECT_EQ(got.opsAfter, want.opsAfter);
        EXPECT_EQ(got.waitsBefore, want.waitsBefore);
        EXPECT_EQ(got.waitsAfter, want.waitsAfter);
        EXPECT_EQ(got.waitsEliminated, want.waitsEliminated);
        EXPECT_EQ(got.opsMerged, want.opsMerged);
        EXPECT_EQ(got.verified, want.verified);
        EXPECT_EQ(got.verifierErrors, want.verifierErrors);

        EXPECT_EQ(pool.size(), programs.size());
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const ir::Program made = pool.program(i);
            bool same = made.iter == programs[i].iter &&
                        made.ops.size() == programs[i].ops.size();
            for (std::size_t k = 0; same && k < made.ops.size(); ++k)
                same = fieldsOf(made.ops[k]) ==
                       fieldsOf(programs[i].ops[k]);
            if (!same) {
                ADD_FAILURE() << "iteration " << programs[i].iter
                              << " differs:\n"
                              << ir::disassemble(made, true)
                              << "emitted:\n"
                              << ir::disassemble(programs[i], true);
                break;
            }
        }
    }
    return classes;
}

/** The serve campaign's config of a registry scenario: passes on. */
core::RunConfig
campaignConfig(const bench::Scenario &s)
{
    core::RunConfig cfg = s.config;
    cfg.passes.enabled = true;
    cfg.passes.verify = true;
    cfg.passes.eliminateRedundantWaits = true;
    cfg.passes.peephole = true;
    return cfg;
}

} // namespace

TEST(PlanCachePoolTest, InstantiatedIterationsEqualEmittedPrograms)
{
    struct Case
    {
        std::string name;
        dep::Loop loop;
    };
    std::vector<Case> cases;
    for (dep::Loop &loop : corpusLoops())
        cases.push_back({"corpus " + loop.name, std::move(loop)});
    for (long n : {1L, 3L, 16L, 17L, 64L, 257L})
        cases.push_back({"fig21 N=" + std::to_string(n),
                         workloads::makeFig21Loop(n)});
    cases.push_back({"jitter", workloads::makeFig21JitterLoop(
                                   96, 8, 40, 0.15, 7)});
    cases.push_back({"nested 8x12", workloads::makeNestedLoop(8, 12)});
    cases.push_back({"nested 12x8", workloads::makeNestedLoop(12, 8)});
    cases.push_back({"branches", workloads::makeBranchLoop(128, 0.5)});
    // A[i] and A[2i - 16] name the same element, and so the same
    // reference-scheme key, at i = 16 only: the elimination pass
    // decides differently there, so that class must be split.
    dep::ParsedLoop crossing = dep::parseLoop("psync-loop v1\n"
                                              "name crossing\n"
                                              "depth 1\n"
                                              "outer 1 32\n"
                                              "seed 1\n"
                                              "stmt S1 cost 2\n"
                                              "ref read A sub 1 0 0\n"
                                              "ref read A sub 2 0 -16\n"
                                              "ref write A sub 1 0 1\n"
                                              "end\n");
    ASSERT_TRUE(crossing.ok) << crossing.error;
    cases.push_back({"crossing", crossing.loop});

    const sync::SchemeKind kinds[] = {
        sync::SchemeKind::none, sync::SchemeKind::referenceBased,
        sync::SchemeKind::instanceBased,
        sync::SchemeKind::statementOriented,
        sync::SchemeKind::processBasic,
        sync::SchemeKind::processImproved};
    for (const Case &c : cases) {
        bool guarded = false;
        for (const dep::Statement &stmt : c.loop.body)
            guarded = guarded || stmt.guard.conditional();
        for (sync::SchemeKind kind : kinds) {
            if (guarded && kind == sync::SchemeKind::instanceBased)
                continue; // the scheme rejects guarded bodies
            const std::string what =
                c.name + " " + sync::schemeKindName(kind);
            sync::SchemeConfig scfg;
            scfg.numPcs = 16;
            scfg.numScs = 1u << 20;
            const std::size_t classes =
                expectPoolMatchesEmission(c.loop, kind, scfg, what);
            if (c.name == "fig21 N=257") {
                EXPECT_LE(classes, 18u) << what;
            }
            if (kind == sync::SchemeKind::referenceBased) {
                scfg.cedarCombining = true;
                expectPoolMatchesEmission(c.loop, kind, scfg,
                                          what + " cedar");
                scfg.cedarCombining = false;
            }
            if (guarded) {
                scfg.earlyBranchSignals = false;
                expectPoolMatchesEmission(c.loop, kind, scfg,
                                          what + " late signals");
                scfg.earlyBranchSignals = true;
            }
            if (c.loop.depth == 2) {
                scfg.exactBoundaries = true;
                expectPoolMatchesEmission(c.loop, kind, scfg,
                                          what + " exact");
            }
        }
    }
}

TEST(PlanCachePoolTest, VerifierErrorsMatchEmittedProgramsInOrder)
{
    // Iteration lpid waits on counter lpid mod 4 for 3 * lpid and
    // then writes 3 * lpid - 1, so the last iteration on each counter
    // waits for more than any write reaches. The pool's verifier must
    // name the same waits, in the same words and order, as the
    // verifier over every emitted program.
    struct Crafted : ir::IterationSource
    {
        void
        classKey(std::uint64_t lpid,
                 std::vector<std::uint64_t> &key) const override
        {
            key.push_back(lpid % 4);
        }

        ir::Program
        emit(std::uint64_t lpid) const override
        {
            ir::Program program;
            program.iter = lpid;
            ir::ProgramBuilder b(program);
            const auto var = static_cast<ir::SyncVarId>(lpid % 4);
            b.waitGE(var, 3 * lpid);
            b.compute(2);
            b.write(var, 3 * lpid - 1);
            return program;
        }
    };
    const Crafted source;
    const std::uint64_t n = 30;
    ir::InitValueFn init = [](ir::SyncVarId) { return ir::SyncWord{0}; };
    ir::PassConfig cfg;
    cfg.eliminateRedundantWaits = true;
    cfg.peephole = true;

    std::vector<ir::Program> programs;
    for (std::uint64_t lpid = 1; lpid <= n; ++lpid)
        programs.push_back(source.emit(lpid));
    const ir::PassStats want = ir::runPasses(programs, cfg, init);
    ir::PassStats got;
    const ir::IterationPool pool =
        ir::lowerPool(source, n, 1, cfg, init, got);
    EXPECT_EQ(pool.numClasses(), 4u);
    ASSERT_EQ(want.verifierErrors.size(), 4u);
    EXPECT_EQ(got.verifierErrors, want.verifierErrors);
    EXPECT_FALSE(got.verified);
}

TEST(PlanCacheTest, PlansHoldClassBodiesThatDoNotGrowWithN)
{
    // serve-miss's plans: every fig21-n256 scenario, passes on, at
    // N = 257..320.
    core::PlanCache cache(8);
    std::size_t body_ops = 0, iteration_ops = 0;
    for (const bench::Scenario *s :
         bench::matchScenariosGlob("fig21-n256/*")) {
        const core::RunConfig cfg = campaignConfig(*s);
        std::size_t first_ops = 0, first_classes = 0, first_bytes = 0;
        for (long n = 257; n <= 320; ++n) {
            auto plan = cache.get(workloads::makeFig21Loop(n), s->kind,
                                  cfg);
            ASSERT_EQ(plan->pool.size(), static_cast<std::size_t>(n));
            if (n == 257) {
                first_ops = plan->pool.bodyOps();
                first_classes = plan->pool.numClasses();
                first_bytes = plan->pool.bytes();
            }
            EXPECT_EQ(plan->pool.bodyOps(), first_ops)
                << s->id << " N=" << n;
            EXPECT_EQ(plan->pool.numClasses(), first_classes)
                << s->id << " N=" << n;
            // All that grows is one 4-byte class index per iteration.
            EXPECT_LE(plan->pool.bytes(),
                      first_bytes + (n - 257) * sizeof(std::uint32_t))
                << s->id << " N=" << n;
            body_ops += plan->pool.bodyOps();
            iteration_ops += plan->passStats.opsAfter;
        }
        EXPECT_LE(first_classes, 18u) << s->id;
    }
    // The ops of one program per iteration, which the 384 plans held
    // before they were lowered by class, against what they hold now.
    EXPECT_EQ(iteration_ops, 3026944u);
    EXPECT_EQ(body_ops, 93376u);
}

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
    EXPECT_NE(b->pool.size(), 0u);

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
    EXPECT_EQ(plan->pool.size(), 12u);
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
