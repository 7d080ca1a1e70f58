/** @file NativeExecutor: scheduling, values, timeouts, replay. */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "core/plan_cache.hh"
#include "core/value_rule.hh"
#include "native/executor.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

/**
 * A producer/consumer pair: iteration 1 writes A then signals;
 * iteration 2 awaits the signal and reads A. The pool claims in
 * increasing order, so this is deadlock-free on any thread count.
 */
std::vector<sim::Program>
producerConsumer(sim::SyncVarId v, sim::Addr a)
{
    sim::Program p1;
    p1.iter = 1;
    p1.ops = {sim::Op::mkStmtStart(0),
              sim::Op::mkData(true, a, 0, 0),
              sim::Op::mkStmtEnd(0),
              sim::Op::mkWrite(v, 1)};
    sim::Program p2;
    p2.iter = 2;
    p2.ops = {sim::Op::mkWaitGE(v, 1),
              sim::Op::mkStmtStart(1),
              sim::Op::mkData(false, a, 1, 0),
              sim::Op::mkStmtEnd(1)};
    return {p1, p2};
}

/** N independent programs, each writing its own word. */
std::vector<sim::Program>
independent(std::uint64_t n)
{
    std::vector<sim::Program> programs;
    for (std::uint64_t i = 1; i <= n; ++i) {
        sim::Program p;
        p.iter = i;
        p.ops = {sim::Op::mkCompute(1),
                 sim::Op::mkData(true, 1000 + i * 8, 0, 0)};
        programs.push_back(p);
    }
    return programs;
}

/**
 * Every word of a NativeDataMemory over `image` starts a cache line,
 * and no two words share one.
 */
void
expectOneLinePerWord(const ir::DataImage &image)
{
    native::NativeDataMemory data(image);
    std::set<std::uintptr_t> lines;
    for (const ir::DataImage::Region &r : image.regions()) {
        for (std::uint64_t k = 0; k < r.words; ++k) {
            const sim::Addr addr = r.base + (k << r.shift);
            const auto at =
                reinterpret_cast<std::uintptr_t>(&data.word(addr));
            EXPECT_EQ(at % native::kCacheLine, 0u) << "addr " << addr;
            lines.insert(at / native::kCacheLine);
        }
    }
    EXPECT_EQ(lines.size(), image.words());
}

} // namespace

TEST(NativeDataMemoryTest, EveryWordHasItsOwnCacheLine)
{
    // A hand-built pool over three regions: words 8 bytes apart, the
    // FFT chunk region (1 << 34) and the renamed-copy region
    // (1 << 36), 16 bytes apart.
    std::vector<sim::Program> programs;
    for (std::uint64_t i = 1; i <= 12; ++i) {
        sim::Program p;
        p.iter = i;
        p.ops = {sim::Op::mkData(true, 1000 + i * 8, 0, 0),
                 sim::Op::mkData(false, (sim::Addr(1) << 34) + i * 8,
                                 1, 0),
                 sim::Op::mkData(true, (sim::Addr(1) << 36) + i * 16,
                                 2, 0)};
        programs.push_back(p);
    }
    const ir::DataImage hand =
        ir::DataImage::numbered(ir::IterationPool::borrow(programs));
    ASSERT_EQ(hand.regions().size(), 3u);
    expectOneLinePerWord(hand);

    // A cached instance-scheme plan, whose image adds its renamed
    // copies' regions to the loop's arrays.
    core::RunConfig cfg;
    cfg.machine.numProcs = 4;
    cfg.machine.fabric = sim::FabricKind::memory;
    core::PlanCache cache(1);
    auto plan = cache.get(workloads::makeFig21Loop(20),
                          sync::SchemeKind::instanceBased, cfg);
    ASSERT_GE(plan->image.regions().size(), 2u);
    expectOneLinePerWord(plan->image);
}

TEST(NativeDataMemoryTest, ScansEveryReferencedAddress)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0));
    const sim::SyncVarId v = 0;
    auto programs = producerConsumer(v, 640);
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    EXPECT_EQ(data.size(), 1u); // one distinct address
    EXPECT_EQ(data.word(640).load(), 0u);
}

TEST(NativeDataMemoryTest, HandBuiltImageSpansChunkAndCopyRegions)
{
    // Iterations that write words of FFT's chunk region (1 << 34),
    // 8 bytes apart, and of the renamed-copy region (1 << 36), 16
    // bytes apart, and read a chunk word the next iteration writes.
    // The pool numbers the addresses once; snapshot() must report
    // every written word at its address, as a memory keyed by
    // address would, and skip the words never written.
    const sim::Addr chunk = sim::Addr(1) << 34;
    const sim::Addr copies = sim::Addr(1) << 36;
    const std::uint64_t n = 6;
    std::vector<sim::Program> programs;
    std::map<sim::Addr, std::uint64_t> expected;
    for (std::uint64_t i = 1; i <= n; ++i) {
        sim::Program p;
        p.iter = i;
        p.ops = {sim::Op::mkData(false, chunk + i * 8, 0, 1),
                 sim::Op::mkData(true, chunk + (i - 1) * 8, 0, 0),
                 sim::Op::mkData(true, copies + (i - 1) * 16, 1, 0)};
        programs.push_back(p);
        expected[chunk + (i - 1) * 8] = core::valueOfWrite(0, 0, i);
        expected[copies + (i - 1) * 16] = core::valueOfWrite(1, 0, i);
    }
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    const ir::DataImage image = ir::DataImage::numbered(pool);
    ASSERT_EQ(image.regions().size(), 2u);
    EXPECT_EQ(image.words(), 2 * n + 1); // chunk + n*8 is only read

    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>{});
    native::NativeDataMemory data(image);
    native::NativeConfig cfg;
    cfg.numThreads = 1;
    native::NativeExecutor exec(fabric, data, cfg);
    ASSERT_TRUE(
        exec.runPool(pool, core::SchedulePolicy::selfScheduling).completed);
    EXPECT_EQ(data.snapshot(), expected);
    EXPECT_TRUE(exec.verifyValues().empty());
}

TEST(NativeExecutorTest, ProducerConsumerObservesWrittenValue)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0));
    const sim::SyncVarId v = 0;
    auto programs = producerConsumer(v, 640);
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    cfg.numThreads = 2;
    native::NativeExecutor exec(fabric, data, cfg);
    auto result = exec.runPool(pool, core::SchedulePolicy::selfScheduling);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.programsRun, 2u);

    // The read (stmt 1, ref 0, iter 2) must have loaded the value
    // the write (stmt 0, ref 0, iter 1) produced.
    bool saw_read = false;
    for (const auto &rec : exec.log()) {
        if (!rec.isWrite) {
            saw_read = true;
            EXPECT_EQ(rec.value, core::valueOfWrite(0, 0, 1));
        }
    }
    EXPECT_TRUE(saw_read);
    EXPECT_TRUE(exec.verifyValues().empty());
    EXPECT_EQ(data.word(640).load(), core::valueOfWrite(0, 0, 1));
}

TEST(NativeExecutorTest, EveryPolicyRunsEachProgramOnce)
{
    for (auto policy :
         {core::SchedulePolicy::selfScheduling,
          core::SchedulePolicy::chunkedSelfScheduling,
          core::SchedulePolicy::guidedSelfScheduling,
          core::SchedulePolicy::staticCyclic}) {
        native::NativeSyncFabric fabric(std::vector<sim::SyncWord>{});
        auto programs = independent(23);
        const ir::IterationPool pool = ir::IterationPool::borrow(programs);
        native::NativeDataMemory data(ir::DataImage::numbered(pool));
        native::NativeConfig cfg;
        cfg.numThreads = 4;
        native::NativeExecutor exec(fabric, data, cfg);
        auto result = exec.runPool(pool, policy);
        ASSERT_TRUE(result.completed);
        EXPECT_EQ(result.programsRun, 23u);
        // Exactly-once: every word written exactly its own value.
        auto image = data.snapshot();
        EXPECT_EQ(image.size(), 23u);
    }
}

TEST(NativeExecutorTest, LogIsSortedByUniqueEndTickets)
{
    // Four lanes through the gang API, several rounds on one
    // executor. finishRun merges the lane logs instead of sorting
    // them, so the merged log must be what a sort would give: every
    // access once, in strictly increasing end-ticket order, with
    // every ticket of the round drawn exactly once. Static cyclic
    // dispatch gives every lane a log, and the lanes start together
    // so their tickets interleave.
    constexpr unsigned kLanes = 4;
    constexpr std::uint64_t kPrograms = 4096;
    std::vector<sim::Program> programs;
    std::set<std::tuple<std::uint64_t, std::uint32_t, sim::Addr>>
        expected;
    for (std::uint64_t i = 1; i <= kPrograms; ++i) {
        sim::Program p;
        p.iter = i;
        p.ops = {sim::Op::mkData(true, 1000 + i * 8, 0, 0),
                 sim::Op::mkData(false, 8, 1, 0),
                 sim::Op::mkData(true, 64000 + i * 8, 2, 0)};
        for (const auto &op : p.ops)
            expected.emplace(i, op.stmt, op.addr);
        programs.push_back(p);
    }
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>{});
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    native::NativeExecutor exec(fabric, data, native::NativeConfig{});

    for (int round = 0; round < 3; ++round) {
        exec.beginRun(core::Dispatch(core::SchedulePolicy::staticCyclic,
                                     1, pool.size(), kLanes),
                      true);
        const native::Deadline deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        std::atomic<unsigned> started{0};
        std::vector<std::thread> lanes;
        for (unsigned t = 0; t < kLanes; ++t) {
            lanes.emplace_back([&, t] {
                started.fetch_add(1);
                while (started.load() < kLanes)
                    std::this_thread::yield();
                exec.runLane(pool, t, deadline);
            });
        }
        for (auto &lane : lanes)
            lane.join();
        auto result = exec.finishRun(0);
        ASSERT_TRUE(result.completed) << "round " << round;
        // Lane state starts over each round.
        EXPECT_EQ(result.programsRun, kPrograms);

        const auto &log = exec.log();
        ASSERT_EQ(log.size(), expected.size()) << "round " << round;
        std::set<std::tuple<std::uint64_t, std::uint32_t, sim::Addr>>
            seen;
        std::set<std::uint64_t> tickets;
        for (std::size_t i = 0; i < log.size(); ++i) {
            ASSERT_LT(log[i].start, log[i].end);
            if (i) {
                ASSERT_LT(log[i - 1].end, log[i].end)
                    << "round " << round << " record " << i;
            }
            seen.emplace(log[i].iter, log[i].stmt, log[i].addr);
            tickets.insert(log[i].start);
            tickets.insert(log[i].end);
        }
        EXPECT_EQ(seen, expected) << "round " << round;
        ASSERT_EQ(tickets.size(), 2 * log.size());
        EXPECT_EQ(*tickets.begin(), 1u);
        EXPECT_EQ(*tickets.rbegin(), 2 * log.size());
    }
}

TEST(NativeExecutorTest, PerProcessorBarrierCompletes)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(2, 0));
    const sim::SyncVarId counter = 0;
    const sim::SyncVarId release = 1;
    const unsigned procs = 4;
    std::vector<std::vector<sim::Program>> per_proc(procs);
    for (unsigned p = 0; p < procs; ++p) {
        sim::Program prog;
        prog.iter = p + 1;
        for (sim::SyncWord gen = 1; gen <= 3; ++gen) {
            prog.ops.push_back(
                sim::Op::mkData(true, 4096 + (p * 3 + gen) * 8,
                                p, static_cast<std::uint16_t>(gen)));
            prog.ops.push_back(sim::Op::mkCtrBarrier(
                counter, release, gen, procs));
        }
        per_proc[p] = {prog};
    }
    const ir::IterationPool pool = ir::IterationPool::borrow(per_proc);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    native::NativeExecutor exec(fabric, data, cfg);
    auto result = exec.runPerProcessor(pool);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.numThreads, procs);
    EXPECT_EQ(result.programsRun, procs);
    EXPECT_EQ(fabric.load(counter), 3u * procs);
    EXPECT_EQ(fabric.load(release), 3u);
}

TEST(NativeExecutorDeathTest, LaneThatCannotStartFailsTheRun)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer's shadow memory outgrows the cap";
#else
    // 64 lanes meet at one barrier, so each lane that starts keeps
    // its stack until the run aborts. The child caps its address
    // space 48 MB above what it uses, room for a few 8 MB stacks:
    // a later lane cannot start, and the run must fail with that
    // reason instead of terminating.
    constexpr unsigned kLanes = 64;
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(2, 0));
    std::vector<std::vector<sim::Program>> per_proc(kLanes);
    for (unsigned p = 0; p < kLanes; ++p) {
        sim::Program prog;
        prog.iter = p + 1;
        prog.ops = {sim::Op::mkCtrBarrier(0, 1, 1, kLanes)};
        per_proc[p] = {prog};
    }
    const ir::IterationPool pool = ir::IterationPool::borrow(per_proc);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeExecutor exec(fabric, data, native::NativeConfig{});
    EXPECT_EXIT(
        {
            std::ifstream status("/proc/self/status");
            std::uint64_t vm_kb = 0;
            for (std::string line; std::getline(status, line);) {
                if (line.rfind("VmSize:", 0) == 0)
                    vm_kb = std::stoull(line.substr(7));
            }
            rlimit cap{};
            getrlimit(RLIMIT_AS, &cap);
            cap.rlim_cur = (vm_kb << 10) + (std::uint64_t{48} << 20);
            if (vm_kb == 0 || setrlimit(RLIMIT_AS, &cap) != 0)
                std::exit(2);
            const native::NativeRunResult result =
                exec.runPerProcessor(pool);
            for (const std::string &error : result.errors)
                std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(!result.completed && result.errors.size() == 1
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0),
        "could not start lane [0-9]+ of 64: ");
#endif
}

TEST(NativeExecutorTest, JitteredRunsStayCorrect)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0));
        const sim::SyncVarId v = 0;
        auto programs = producerConsumer(v, 640);
        const ir::IterationPool pool = ir::IterationPool::borrow(programs);
        native::NativeDataMemory data(ir::DataImage::numbered(pool));
        native::NativeConfig cfg;
        cfg.numThreads = 2;
        cfg.timingSeed = seed;
        native::NativeExecutor exec(fabric, data, cfg);
        auto result = exec.runPool(pool, core::SchedulePolicy::selfScheduling);
        ASSERT_TRUE(result.completed) << "seed " << seed;
        EXPECT_TRUE(exec.verifyValues().empty()) << "seed " << seed;
        EXPECT_EQ(data.word(640).load(),
                  core::valueOfWrite(0, 0, 1));
    }
}

TEST(NativeExecutorTest, DeadlockTurnsIntoFailureNotHang)
{
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>(1, 0));
    const sim::SyncVarId v = 0;
    sim::Program stuck;
    stuck.iter = 1;
    stuck.ops = {sim::Op::mkWaitGE(v, 1)}; // never satisfied
    std::vector<sim::Program> programs = {stuck};
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    cfg.numThreads = 1;
    cfg.timeoutMs = 100;
    native::NativeExecutor exec(fabric, data, cfg);
    auto result = exec.runPool(pool, core::SchedulePolicy::selfScheduling);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(fabric.aborted());
}

TEST(NativeExecutorTest, ReplayFeedsEveryRecordToSink)
{
    struct Counter : sim::TraceSink
    {
        unsigned accesses = 0;
        void
        access(std::uint32_t, std::uint16_t, std::uint64_t,
               sim::Addr, bool, sim::Tick, sim::Tick) override
        {
            ++accesses;
        }
    };
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>{});
    auto programs = independent(9);
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    native::NativeExecutor exec(fabric, data, cfg);
    ASSERT_TRUE(
        exec.runPool(pool, core::SchedulePolicy::selfScheduling).completed);
    Counter sink;
    exec.replayAccesses(sink);
    EXPECT_EQ(sink.accesses, 9u);
}

TEST(NativeExecutorTest, GuidedHandlesFewerProgramsThanThreads)
{
    // (total - old) / (2 * num_threads) rounds to 0 whenever the
    // pool is smaller than the thread count; the std::max clamp to
    // a one-iteration claim is what guarantees progress. Run with
    // far more threads than programs and demand exactly-once.
    native::NativeSyncFabric fabric(std::vector<sim::SyncWord>{});
    auto programs = independent(3);
    const ir::IterationPool pool = ir::IterationPool::borrow(programs);
    native::NativeDataMemory data(ir::DataImage::numbered(pool));
    native::NativeConfig cfg;
    cfg.numThreads = 8;
    native::NativeExecutor exec(fabric, data, cfg);
    auto result =
        exec.runPool(pool, core::SchedulePolicy::guidedSelfScheduling);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.programsRun, 3u);
    auto image = data.snapshot();
    EXPECT_EQ(image.size(), 3u);
    EXPECT_TRUE(exec.verifyValues().empty());
}
