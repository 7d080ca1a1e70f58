/**
 * @file
 * Backend cross-validation: the same planned (loop, scheme) runs on
 * the simulator and on real threads, and both must compute the same
 * thing.
 *
 * "Same thing" is exact under the value rule: every write stores
 * valueOfWrite(stmt, ref, iter), so the final memory image and the
 * per-read observed values are a pure function of the inter-access
 * ordering the scheme enforced. Identical images means the native
 * backend ordered every dependence the simulator did. On top of
 * that, every native run replays its ticket-stamped log through the
 * same TraceChecker that gates simulator runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <map>

#include "core/value_trace.hh"
#include "native/runner.hh"
#include "sync/barrier.hh"
#include "workloads/branches.hh"
#include "workloads/butterfly.hh"
#include "workloads/fft.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"
#include "workloads/relaxation.hh"

using namespace psync;

namespace {

/** Sim-side machine shaped like the scheme wants (bench defaults). */
core::RunConfig
configFor(sync::SchemeKind kind, unsigned procs = 4)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    if (kind == sync::SchemeKind::referenceBased ||
        kind == sync::SchemeKind::instanceBased)
        cfg.machine.fabric = sim::FabricKind::memory;
    else
        cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 20;
    cfg.scheme.numPcs = 16;
    cfg.scheme.numScs = 1u << 20;
    cfg.tickLimit = 2000000000ull;
    // PSYNC_TEST_PASSES=1 runs the whole suite with the IR
    // transform passes enabled, so CI cross-validates both the raw
    // lowering and the optimized programs (both backends execute
    // the same transformed plan either way).
    if (const char *p = std::getenv("PSYNC_TEST_PASSES")) {
        if (p[0] == '1') {
            cfg.passes.eliminateRedundantWaits = true;
            cfg.passes.peephole = true;
        }
    }
    return cfg;
}

struct SimReference
{
    std::map<sim::Addr, std::uint64_t> memory;
    std::map<std::uint64_t, std::uint64_t> reads;
};

/** Run the loop on the simulator, collecting the value image. */
SimReference
simReference(const dep::Loop &loop, sync::SchemeKind kind,
             core::RunConfig cfg)
{
    core::ValueTrace values;
    cfg.extraSink = &values;
    auto r = core::runDoacross(loop, kind, cfg);
    EXPECT_TRUE(r.run.completed);
    EXPECT_TRUE(r.violations.empty());
    return {values.memory(), values.reads()};
}

/** Cross-validate one (loop, scheme) at one native thread count. */
void
crossValidate(const dep::Loop &loop, sync::SchemeKind kind,
              unsigned threads, std::uint64_t timing_seed = 0)
{
    core::RunConfig cfg = configFor(kind);
    SimReference sim_ref = simReference(loop, kind, cfg);

    native::NativeConfig ncfg;
    ncfg.numThreads = threads;
    ncfg.timingSeed = timing_seed;
    auto nat = native::runDoacrossNative(loop, kind, cfg, ncfg);
    const char *name = sync::schemeKindName(kind);
    ASSERT_TRUE(nat.run.completed)
        << name << ": native run did not complete";
    EXPECT_TRUE(nat.run.errors.empty()) << name;
    EXPECT_TRUE(nat.violations.empty())
        << name << ": " << nat.violations.front();
    EXPECT_TRUE(nat.valueMismatches.empty())
        << name << ": " << nat.valueMismatches.front();
    EXPECT_EQ(nat.memory, sim_ref.memory)
        << name << ": final memory images differ";
    EXPECT_EQ(nat.reads, sim_ref.reads)
        << name << ": observed read values differ";
}

const sync::SchemeKind kAllKinds[] = {
    sync::SchemeKind::referenceBased,
    sync::SchemeKind::instanceBased,
    sync::SchemeKind::statementOriented,
    sync::SchemeKind::processBasic,
    sync::SchemeKind::processImproved,
};

} // namespace

TEST(CrossValidationTest, Fig21AllSchemes)
{
    dep::Loop loop = workloads::makeFig21Loop(24);
    for (auto kind : kAllKinds)
        crossValidate(loop, kind, 4);
}

TEST(CrossValidationTest, RelaxationAllSchemes)
{
    dep::Loop loop = workloads::makeRelaxationLoop(16);
    for (auto kind : kAllKinds)
        crossValidate(loop, kind, 4);
}

TEST(CrossValidationTest, NestedAllSchemes)
{
    dep::Loop loop = workloads::makeNestedLoop(4, 5);
    for (auto kind : kAllKinds)
        crossValidate(loop, kind, 4);
}

TEST(CrossValidationTest, BranchesAllSchemes)
{
    dep::Loop loop = workloads::makeBranchLoop(24, 0.4);
    for (auto kind : kAllKinds) {
        // The instance-based scheme rejects branch-guarded
        // statements by design (no reaching definitions across
        // renamed instances).
        if (kind == sync::SchemeKind::instanceBased)
            continue;
        crossValidate(loop, kind, 4);
    }
}

TEST(CrossValidationTest, TwoThreadAndEightThreadPools)
{
    dep::Loop loop = workloads::makeFig21Loop(20);
    for (unsigned threads : {2u, 8u}) {
        crossValidate(loop, sync::SchemeKind::processImproved,
                      threads);
        crossValidate(loop, sync::SchemeKind::statementOriented,
                      threads);
    }
}

/**
 * The randomized-timing axis: >= 100 native repetitions with seeded
 * interleaving jitter, rotating through every scheme. The sim
 * reference for each scheme is computed once; every native rep must
 * reproduce it exactly and pass the trace-checker replay.
 */
TEST(CrossValidationTest, HundredRandomizedTimingRepetitions)
{
    dep::Loop loop = workloads::makeFig21Loop(12);
    constexpr int kReps = 100;

    std::map<int, SimReference> refs;
    for (std::size_t k = 0; k < std::size(kAllKinds); ++k)
        refs[static_cast<int>(k)] = simReference(
            loop, kAllKinds[k], configFor(kAllKinds[k]));

    for (int rep = 0; rep < kReps; ++rep) {
        std::size_t k = static_cast<std::size_t>(rep) %
                        std::size(kAllKinds);
        sync::SchemeKind kind = kAllKinds[k];
        core::RunConfig cfg = configFor(kind);
        native::NativeConfig ncfg;
        ncfg.numThreads = 4;
        ncfg.timingSeed = static_cast<std::uint64_t>(rep) + 1;
        auto nat = native::runDoacrossNative(loop, kind, cfg, ncfg);
        ASSERT_TRUE(nat.run.completed)
            << "rep " << rep << " " << sync::schemeKindName(kind);
        ASSERT_TRUE(nat.violations.empty())
            << "rep " << rep << ": " << nat.violations.front();
        ASSERT_TRUE(nat.valueMismatches.empty())
            << "rep " << rep << ": " << nat.valueMismatches.front();
        const SimReference &ref = refs[static_cast<int>(k)];
        ASSERT_EQ(nat.memory, ref.memory) << "rep " << rep;
        ASSERT_EQ(nat.reads, ref.reads) << "rep " << rep;
    }
}

namespace {

/**
 * Run an FFT sync mode on both backends from one planned program
 * set and compare value images. The native fabric is mirrored
 * before the sim run so both start from the same initialized
 * barrier state.
 */
void
crossValidateFft(workloads::FftSync mode)
{
    workloads::FftSpec spec;
    spec.numProcs = 4;
    spec.rounds = 3;

    sim::MachineConfig mc;
    mc.numProcs = spec.numProcs;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 4096;
    core::ValueTrace sim_values;
    sim::Machine machine(mc, &sim_values);

    std::vector<std::vector<sim::Program>> progs;
    switch (mode) {
      case workloads::FftSync::pairwise: {
        sim::SyncVarId base =
            machine.fabric().allocate(spec.numProcs, 0);
        progs = workloads::buildFftPairwise(base, spec);
        break;
      }
      case workloads::FftSync::butterflyBarrier: {
        sync::ButterflyBarrier barrier(machine.fabric(),
                                       spec.numProcs);
        progs = workloads::buildFftButterfly(barrier, spec);
        break;
      }
      case workloads::FftSync::counterBarrier: {
        sync::CounterBarrier barrier(machine.fabric(),
                                     spec.numProcs);
        progs = workloads::buildFftCounter(barrier, spec);
        break;
      }
    }

    // Mirror the fabric before the sim run mutates it.
    native::NativeSyncFabric fabric(machine.fabric());

    auto sim_result = core::runPerProcessorPrograms(machine, progs);
    ASSERT_TRUE(sim_result.completed);

    const ir::IterationPool pool = ir::IterationPool::borrow(progs);

    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig ncfg;
    native::NativeExecutor exec(fabric, data, ncfg);
    auto nat = exec.runPerProcessor(pool);
    ASSERT_TRUE(nat.completed);
    EXPECT_TRUE(exec.verifyValues().empty());

    // Every native read must have seen the partner's write — a
    // barrier that failed to order the exchange would read 0.
    for (const auto &rec : exec.log()) {
        if (!rec.isWrite) {
            EXPECT_NE(rec.value, 0u);
        }
    }

    core::ValueTrace nat_values;
    exec.replayAccesses(nat_values);
    EXPECT_EQ(nat_values.memory(), sim_values.memory());
}

} // namespace

TEST(CrossValidationTest, FftPairwiseMatchesSim)
{
    crossValidateFft(workloads::FftSync::pairwise);
}

TEST(CrossValidationTest, FftButterflyBarrierMatchesSim)
{
    crossValidateFft(workloads::FftSync::butterflyBarrier);
}

TEST(CrossValidationTest, FftCounterBarrierMatchesSim)
{
    crossValidateFft(workloads::FftSync::counterBarrier);
}

TEST(CrossValidationTest, ButterflyBarrierEpisodesMatchSim)
{
    const unsigned procs = 4;
    sim::MachineConfig mc;
    mc.numProcs = procs;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 4096;
    core::ValueTrace sim_values;
    sim::Machine machine(mc, &sim_values);
    sync::ButterflyBarrier barrier(machine.fabric(), procs);
    workloads::BarrierSpec spec;
    spec.numProcs = procs;
    spec.episodes = 5;
    spec.workCost = 10;
    auto progs = workloads::buildButterflyPrograms(barrier, spec);

    native::NativeSyncFabric fabric(machine.fabric());

    auto sim_result = core::runPerProcessorPrograms(machine, progs);
    ASSERT_TRUE(sim_result.completed);

    const ir::IterationPool pool = ir::IterationPool::borrow(progs);

    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig ncfg;
    native::NativeExecutor exec(fabric, data, ncfg);
    auto nat = exec.runPerProcessor(pool);
    ASSERT_TRUE(nat.completed);
    EXPECT_TRUE(exec.verifyValues().empty());

    core::ValueTrace nat_values;
    exec.replayAccesses(nat_values);
    EXPECT_EQ(nat_values.memory(), sim_values.memory());
}
