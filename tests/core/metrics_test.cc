/** @file RunResult aggregation and derived ratios. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/json.hh"
#include "core/metrics.hh"
#include "core/runtime.hh"
#include "workloads/fig21.hh"

using namespace psync;

TEST(MetricsTest, AggregatesAcrossProcessors)
{
    sim::MachineConfig mc;
    mc.numProcs = 3;
    mc.fabric = sim::FabricKind::registers;
    sim::Machine machine(mc);

    std::vector<std::vector<sim::Program>> progs(3);
    for (unsigned p = 0; p < 3; ++p) {
        progs[p].resize(1);
        progs[p][0].iter = p + 1;
        progs[p][0].ops = {sim::Op::mkCompute(10 * (p + 1))};
    }
    auto r = core::runPerProcessorPrograms(machine, progs);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.numProcs, 3u);
    EXPECT_EQ(r.computeCycles, 60u);
    EXPECT_EQ(r.cycles, 30u);
    EXPECT_DOUBLE_EQ(r.utilization(), 60.0 / 90.0);
}

TEST(MetricsTest, SpeedupOverSequential)
{
    core::RunResult r;
    r.cycles = 100;
    EXPECT_DOUBLE_EQ(r.speedupOver(400), 4.0);
    core::RunResult zero;
    EXPECT_DOUBLE_EQ(zero.speedupOver(400), 0.0);
}

TEST(MetricsTest, FabricCountersLandInResult)
{
    dep::Loop loop = workloads::makeFig21Loop(32);
    core::RunConfig cfg;
    cfg.machine.numProcs = 4;
    cfg.machine.fabric = sim::FabricKind::registers;

    auto reg = core::runDoacross(
        loop, sync::SchemeKind::processImproved, cfg);
    ASSERT_TRUE(reg.run.completed);
    EXPECT_GT(reg.run.syncBusBroadcasts, 0u);
    EXPECT_EQ(reg.run.syncMemPolls, 0u);

    cfg.machine.fabric = sim::FabricKind::memory;
    auto mem = core::runDoacross(
        loop, sync::SchemeKind::processImproved, cfg);
    ASSERT_TRUE(mem.run.completed);
    EXPECT_EQ(mem.run.syncBusBroadcasts, 0u);
    EXPECT_GT(mem.run.syncMemPolls, 0u);
}

// toJson() -> dump -> parse reproduces every field. Each field gets
// a distinct value so a key typo or a copy-paste of the wrong
// member cannot cancel out.
TEST(MetricsTest, JsonRoundTripsEveryField)
{
    core::RunResult r;
    r.completed = true;
    r.cycles = 101;
    r.numProcs = 7;
    r.computeCycles = 103;
    r.spinCycles = 104;
    r.syncOverheadCycles = 105;
    r.stallCycles = 106;
    r.syncOps = 107;
    r.marksSkipped = 108;
    r.programsRun = 109;
    r.eventsExecuted = 124;
    r.heapFallbackEvents = 125;
    r.eventCore = "calendar";
    r.dataBusTransactions = 110;
    r.dataBusQueueDelay = 111;
    r.dataBusUtilization = 0.25;
    r.syncBusBroadcasts = 113;
    r.coalescedWrites = 114;
    r.syncBusUtilization = 0.5;
    r.memAccesses = 116;
    r.hottestModuleAccesses = 117;
    r.hotSpotRatio = 1.75;
    r.moduleQueueDelay = 119;
    r.syncMemPolls = 120;
    r.cacheHits = 121;
    r.cacheMisses = 122;
    r.cacheInvalidations = 123;

    std::ostringstream os;
    r.toJson().dump(os, 2);
    auto parsed = core::json::parse(os.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const core::json::Value &v = parsed.value;

    auto num = [&v](const char *key) {
        const core::json::Value *m = v.find(key);
        EXPECT_NE(m, nullptr) << key;
        EXPECT_TRUE(m && m->isNumber()) << key;
        return m && m->isNumber() ? m->asNumber() : -1.0;
    };
    const core::json::Value *completed = v.find("completed");
    ASSERT_NE(completed, nullptr);
    ASSERT_TRUE(completed->isBool());
    EXPECT_TRUE(completed->asBool());
    EXPECT_EQ(num("cycles"), 101);
    EXPECT_EQ(num("num_procs"), 7);
    EXPECT_EQ(num("compute_cycles"), 103);
    EXPECT_EQ(num("spin_cycles"), 104);
    EXPECT_EQ(num("sync_overhead_cycles"), 105);
    EXPECT_EQ(num("stall_cycles"), 106);
    EXPECT_DOUBLE_EQ(num("utilization"), r.utilization());
    EXPECT_DOUBLE_EQ(num("spin_fraction"), r.spinFraction());
    EXPECT_EQ(num("sync_ops"), 107);
    EXPECT_EQ(num("marks_skipped"), 108);
    EXPECT_EQ(num("programs_run"), 109);
    EXPECT_EQ(num("events_executed"), 124);
    EXPECT_EQ(num("heap_fallback_events"), 125);
    const core::json::Value *event_core = v.find("event_core");
    ASSERT_NE(event_core, nullptr);
    ASSERT_TRUE(event_core->isString());
    EXPECT_EQ(event_core->asString(), "calendar");
    EXPECT_EQ(num("data_bus_transactions"), 110);
    EXPECT_EQ(num("data_bus_queue_delay"), 111);
    EXPECT_DOUBLE_EQ(num("data_bus_utilization"), 0.25);
    EXPECT_EQ(num("sync_bus_broadcasts"), 113);
    EXPECT_EQ(num("coalesced_writes"), 114);
    EXPECT_DOUBLE_EQ(num("sync_bus_utilization"), 0.5);
    EXPECT_EQ(num("mem_accesses"), 116);
    EXPECT_EQ(num("hottest_module_accesses"), 117);
    EXPECT_DOUBLE_EQ(num("hot_spot_ratio"), 1.75);
    EXPECT_EQ(num("module_queue_delay"), 119);
    EXPECT_EQ(num("sync_mem_polls"), 120);
    EXPECT_EQ(num("cache_hits"), 121);
    EXPECT_EQ(num("cache_misses"), 122);
    EXPECT_EQ(num("cache_invalidations"), 123);

    // wait_latency only appears on profiled runs (satellite key
    // order stays stable for unprofiled records).
    EXPECT_EQ(v.find("wait_latency"), nullptr);
}

TEST(MetricsTest, WaitLatencyEmittedWhenRecorded)
{
    core::RunResult r;
    r.waitLatency.record(7);
    r.waitLatency.record(9);
    std::ostringstream os;
    r.toJson().dump(os, 2);
    auto parsed = core::json::parse(os.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const core::json::Value *w = parsed.value.find("wait_latency");
    ASSERT_NE(w, nullptr);
    ASSERT_NE(w->find("count"), nullptr);
    EXPECT_EQ(w->find("count")->asNumber(), 2);
    EXPECT_EQ(w->find("sum")->asNumber(), 16);
    EXPECT_EQ(w->find("min")->asNumber(), 7);
    EXPECT_EQ(w->find("max")->asNumber(), 9);
}

TEST(LogHistogramTest, EmptyReportsZeros)
{
    core::LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
    for (unsigned b = 0; b < core::LogHistogram::kBuckets; ++b)
        EXPECT_EQ(h.bucketCount(b), 0u) << b;
}

TEST(LogHistogramTest, SingleSampleClampsEveryQuantile)
{
    core::LogHistogram h;
    h.record(100);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 100u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 100u);
    // Bucket upper bound is 127, but quantiles clamp to observed.
    EXPECT_EQ(h.percentile(0.5), 100u);
    EXPECT_EQ(h.percentile(0.99), 100u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(LogHistogramTest, BucketingSchemeIsPinned)
{
    using H = core::LogHistogram;
    EXPECT_EQ(H::bucketOf(0), 0u);
    EXPECT_EQ(H::bucketOf(1), 1u);
    EXPECT_EQ(H::bucketOf(2), 2u);
    EXPECT_EQ(H::bucketOf(3), 2u);
    EXPECT_EQ(H::bucketOf(4), 3u);
    EXPECT_EQ(H::bucketOf(7), 3u);
    EXPECT_EQ(H::bucketOf((std::uint64_t{1} << 47) - 1),
              H::kBuckets - 2);
    // Everything at or above 2^47 lands in the overflow bucket.
    EXPECT_EQ(H::bucketOf(std::uint64_t{1} << 47), H::kBuckets - 1);
    EXPECT_EQ(H::bucketOf(~std::uint64_t{0}), H::kBuckets - 1);
}

TEST(LogHistogramTest, OverflowBucketNeverDropsSamples)
{
    core::LogHistogram h;
    h.record(std::uint64_t{1} << 47);
    h.record(std::uint64_t{1} << 60);
    h.record(~std::uint64_t{0});
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.bucketCount(core::LogHistogram::kBuckets - 1), 3u);
    EXPECT_EQ(h.max(), ~std::uint64_t{0});
    EXPECT_EQ(h.min(), std::uint64_t{1} << 47);
    // The overflow bucket has no finite upper bound of its own;
    // every rank inside it reports the observed max.
    EXPECT_EQ(h.percentile(1.0), ~std::uint64_t{0});
    EXPECT_EQ(h.percentile(0.01), ~std::uint64_t{0});
}

TEST(LogHistogramTest, PercentileHitsBucketUpperBound)
{
    core::LogHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10); // bucket 4: [8, 15]
    h.record(1000); // bucket 10: [512, 1023]
    EXPECT_EQ(h.percentile(0.5), 15u);
    EXPECT_EQ(h.percentile(0.95), 15u);
    // Rank 101 falls in the 1000-sample's bucket, clamped to max.
    EXPECT_EQ(h.percentile(1.0), 1000u);
}

TEST(LogHistogramTest, MergeCombinesCountsAndExtremes)
{
    core::LogHistogram a, b, empty;
    a.record(3);
    a.record(100);
    b.record(1);
    b.record(50000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 3u + 100u + 1u + 50000u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 50000u);
    EXPECT_EQ(a.bucketCount(core::LogHistogram::bucketOf(3)), 1u);
    EXPECT_EQ(a.bucketCount(core::LogHistogram::bucketOf(1)), 1u);

    // Merging an empty histogram changes nothing, either way.
    a.merge(empty);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.min(), 1u);
    empty.merge(b);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.min(), 1u);
    EXPECT_EQ(empty.max(), 50000u);
}
