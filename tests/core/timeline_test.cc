/** @file Timeline assembly, hot-spot detection, sampling edges. */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <vector>

#include "core/timeline.hh"
#include "sim/machine.hh"

using namespace psync;
using psync::ir::Iteration;

namespace {

/** Record one sample of `stream[index]`. */
void
sample(sim::TraceLog &rec, sim::SampleStream stream,
       std::uint32_t index, sim::Tick at, double value)
{
    rec.push(sim::TraceEvent::sample(stream, index, at, value));
}

/** Emit one boundary's worth of the event-core streams. */
void
coreBatch(sim::TraceLog &rec, sim::Tick at, double executed)
{
    sample(rec, sim::SampleStream::eventsExecuted, 0, at, executed);
    sample(rec, sim::SampleStream::pendingEvents, 0, at, 1);
}

/** Run `progs[p]` on processor p of `m`, in order, to completion. */
void
runOn(sim::Machine &m,
      const std::vector<std::vector<sim::Program>> &progs)
{
    std::vector<std::size_t> next(progs.size(), 0);
    auto dispatch =
        [&](sim::ProcId who, std::function<void(const Iteration *)> cb) {
            if (next[who] >= progs[who].size()) {
                cb(nullptr);
                return;
            }
            const auto it = Iteration::of(progs[who][next[who]++]);
            cb(&it);
        };
    EXPECT_TRUE(m.run(dispatch));
}

/**
 * Run `progs[p]` per processor on a fresh machine, sampled when a
 * log is given, and return the completion tick.
 */
sim::Tick
runMachine(const std::vector<std::vector<sim::Program>> &progs,
           sim::TraceLog *tracer)
{
    sim::MachineConfig cfg;
    cfg.numProcs = static_cast<unsigned>(progs.size());
    cfg.timeline = true;
    sim::Machine m(cfg, nullptr, tracer);
    runOn(m, progs);
    return m.completionTick();
}

/** One compute-only program of `cycles` cycles. */
std::vector<sim::Program>
computeProgram(std::uint64_t iter, sim::Tick cycles)
{
    std::vector<sim::Program> progs(1);
    progs[0].iter = iter;
    progs[0].ops = {sim::Op::mkCompute(cycles)};
    return progs;
}

} // namespace

TEST(TimelineTest, EmptyRecorderYieldsEmptyTimeline)
{
    sim::TraceLog rec;
    core::Timeline tl = core::buildTimeline(rec);
    EXPECT_TRUE(tl.empty());
    EXPECT_EQ(tl.numSamples(), 0u);
    EXPECT_EQ(tl.interval, 0u);
    EXPECT_TRUE(tl.hotspots.empty());

    std::ostringstream os;
    tl.writeText(os);
    EXPECT_NE(os.str().find("no samples"), std::string::npos);
}

TEST(TimelineTest, DifferencesCumulativeStreams)
{
    sim::TraceLog rec;
    // Running totals 0 / 40 / 90 over boundaries 0 / 100 / 200.
    for (auto [at, busy, executed] :
         {std::tuple<sim::Tick, double, double>{0, 0, 0},
          {100, 40, 12},
          {200, 90, 30}}) {
        sample(rec, sim::SampleStream::busBusyCycles, 0, at, busy);
        coreBatch(rec, at, executed);
    }

    core::Timeline tl = core::buildTimeline(rec);
    ASSERT_EQ(tl.boundaries.size(), 3u);
    EXPECT_EQ(tl.interval, 100u);

    ASSERT_EQ(tl.busOccupancy.size(), 1u);
    const auto &occ = tl.busOccupancy[0].values;
    ASSERT_EQ(occ.size(), 3u);
    // Interval k covers (b[k-1], b[k]]; index 0 is the baseline.
    EXPECT_DOUBLE_EQ(occ[0], 0.0);
    EXPECT_DOUBLE_EQ(occ[1], 0.4);
    EXPECT_DOUBLE_EQ(occ[2], 0.5);

    const auto &ev = tl.eventsPerInterval.values;
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_DOUBLE_EQ(ev[1], 12.0);
    EXPECT_DOUBLE_EQ(ev[2], 18.0);
}

TEST(TimelineTest, SparseWaiterStreamDefaultsToZero)
{
    sim::TraceLog rec;
    rec.nameSyncVar(5, "pc[5]");
    coreBatch(rec, 0, 0);
    coreBatch(rec, 50, 10);
    coreBatch(rec, 100, 20);
    // Var 5 reported only at the middle boundary (sparse stream:
    // missing means zero waiters).
    sample(rec, sim::SampleStream::syncVarWaiters, 5, 50, 3);

    core::Timeline tl = core::buildTimeline(rec);
    ASSERT_EQ(tl.varWaiters.size(), 1u);
    EXPECT_EQ(tl.varWaiters[0].first, 5u);
    const auto &w = tl.varWaiters[0].second;
    EXPECT_NE(w.name.find("pc[5]"), std::string::npos);
    ASSERT_EQ(w.values.size(), 3u);
    EXPECT_DOUBLE_EQ(w.values[0], 0.0);
    EXPECT_DOUBLE_EQ(w.values[1], 3.0);
    EXPECT_DOUBLE_EQ(w.values[2], 0.0);
    EXPECT_DOUBLE_EQ(w.peak(), 3.0);
    EXPECT_EQ(w.peakIndex(), 1u);
}

TEST(TimelineTest, MergeSeriesToleratesRaggedLengths)
{
    core::TimelineSeries a{"a", {1, 2, 3}};
    core::TimelineSeries b{"b", {10, 20}};
    core::TimelineSeries sum = core::mergeSeries("sum", {&a, &b});
    ASSERT_EQ(sum.values.size(), 3u);
    EXPECT_DOUBLE_EQ(sum.values[0], 11.0);
    EXPECT_DOUBLE_EQ(sum.values[1], 22.0);
    EXPECT_DOUBLE_EQ(sum.values[2], 3.0);
    EXPECT_DOUBLE_EQ(sum.total(), 36.0);
}

TEST(TimelineTest, SparklineMapsZeroToSpaceAndPeakToFullBlock)
{
    // No pooling: 4 values into 4 columns.
    std::string s = core::sparkline({0, 1, 2, 4}, 4);
    EXPECT_EQ(s, " ▂▄█");

    // Max-pooling: 4 values into 2 columns keeps each half's max.
    EXPECT_EQ(core::sparkline({0, 4, 1, 2}, 2), "█▄");

    // Degenerate inputs.
    EXPECT_EQ(core::sparkline({}, 8), "");
    EXPECT_EQ(core::sparkline({0, 0}, 2), "  ");
}

TEST(TimelineTest, HotSpotDetectorFindsSustainedWindow)
{
    sim::TraceLog rec;
    // 6 boundaries, 100 cycles apart. Module 0 absorbs ~80% of
    // traffic in intervals 2..4, then cools off.
    double m0 = 0, m1 = 0;
    for (int k = 0; k <= 5; ++k) {
        sim::Tick at = static_cast<sim::Tick>(k) * 100;
        // Interval k's traffic (lands in the running totals).
        if (k >= 2 && k <= 4) {
            m0 += 16;
            m1 += 4;
        } else if (k > 0) {
            // Background: module 0 stays under the 50% share bar.
            m0 += 4;
            m1 += 6;
        }
        sample(rec, sim::SampleStream::moduleAccesses, 0, at, m0);
        sample(rec, sim::SampleStream::moduleAccesses, 1, at, m1);
        coreBatch(rec, at, (m0 + m1));
    }

    core::TimelineConfig cfg;
    cfg.hotShare = 0.5;
    cfg.hotMinIntervals = 3;
    cfg.minEventsPerInterval = 8;
    core::Timeline tl = core::buildTimeline(rec, cfg);

    ASSERT_EQ(tl.hotspots.size(), 1u);
    const core::HotSpot &h = tl.hotspots[0];
    EXPECT_EQ(h.kind, "module");
    EXPECT_EQ(h.index, 0u);
    // Window is intervals 2..4, i.e. (100, 400].
    EXPECT_EQ(h.onset, 100u);
    EXPECT_EQ(h.duration, 300u);
    EXPECT_DOUBLE_EQ(h.peakShare, 0.8);
    EXPECT_DOUBLE_EQ(h.events, 48.0);

    core::json::Value j = h.toJson();
    EXPECT_EQ(j.find("kind")->asString(), "module");
    EXPECT_DOUBLE_EQ(j.find("peak_share")->asNumber(), 0.8);
}

TEST(TimelineTest, HotSpotIgnoresShortBurstsAndQuietIntervals)
{
    sim::TraceLog rec;
    double m0 = 0, m1 = 0;
    for (int k = 0; k <= 5; ++k) {
        sim::Tick at = static_cast<sim::Tick>(k) * 100;
        if (k == 2 || k == 3) {
            // Dominant but only 2 intervals: below hotMinIntervals.
            m0 += 16;
            m1 += 2;
        } else if (k == 5) {
            // 100% share but under minEventsPerInterval.
            m0 += 3;
        } else if (k > 0) {
            // Module 0 under the 50% bar; module 1 over it, but
            // its hot intervals (k=1, k=4) are not consecutive.
            m0 += 4;
            m1 += 6;
        }
        sample(rec, sim::SampleStream::moduleAccesses, 0, at, m0);
        sample(rec, sim::SampleStream::moduleAccesses, 1, at, m1);
        coreBatch(rec, at, m0 + m1);
    }

    core::TimelineConfig cfg;
    cfg.hotShare = 0.5;
    cfg.hotMinIntervals = 3;
    cfg.minEventsPerInterval = 8;
    core::Timeline tl = core::buildTimeline(rec, cfg);
    EXPECT_TRUE(tl.hotspots.empty());
}

TEST(TimelineTest, IntervalLongerThanRunSamplesEndpoints)
{
    sim::TraceLog rec;
    sim::Tick done = runMachine(
        {computeProgram(1, sim::timelineFirstInterval - 6)}, &rec);
    EXPECT_LT(done, sim::timelineFirstInterval) << "fixture drifted";

    core::Timeline tl = core::buildTimeline(rec);
    // One baseline batch at 0 and one final batch at completion.
    ASSERT_EQ(tl.boundaries.size(), 2u);
    EXPECT_EQ(tl.boundaries.front(), 0u);
    EXPECT_EQ(tl.boundaries.back(), done);
    // All events land in the single real interval.
    EXPECT_DOUBLE_EQ(tl.eventsPerInterval.values[0], 0.0);
    EXPECT_GT(tl.eventsPerInterval.values[1], 0.0);
}

TEST(TimelineTest, ZeroCycleRunSamplesOnce)
{
    // All processors dispatch null immediately: the run completes
    // at tick 0, producing exactly one sample batch.
    sim::TraceLog rec;
    sim::Tick done = runMachine({{}, {}}, &rec);
    EXPECT_EQ(done, 0u);

    core::Timeline tl = core::buildTimeline(rec);
    ASSERT_EQ(tl.boundaries.size(), 1u);
    EXPECT_EQ(tl.boundaries[0], 0u);
    EXPECT_EQ(tl.interval, 0u);
    EXPECT_TRUE(tl.hotspots.empty());

    std::ostringstream os;
    tl.writeText(os);
    EXPECT_NE(os.str().find("1 samples"), std::string::npos);
}

TEST(TimelineTest, AlignedBoundariesAreStrictlyIncreasing)
{
    // Run length is an exact multiple of the interval: the final
    // drain tick coincides with the last boundary and must not be
    // sampled twice.
    sim::TraceLog rec;
    sim::Tick done = runMachine(
        {computeProgram(1, 2 * sim::timelineFirstInterval)}, &rec);
    EXPECT_EQ(done % sim::timelineFirstInterval, 0u)
        << "fixture drifted";

    core::Timeline tl = core::buildTimeline(rec);
    for (std::size_t k = 1; k < tl.boundaries.size(); ++k)
        EXPECT_LT(tl.boundaries[k - 1], tl.boundaries[k]);
    EXPECT_EQ(tl.boundaries.back(), done);

    // One eventsExecuted sample per boundary — no duplicates.
    std::size_t executed_samples = 0;
    rec.forEach([&](const sim::TraceEvent &e) {
        if (e.kind == sim::TraceKind::sample &&
            e.codeAs<sim::SampleStream>() ==
                sim::SampleStream::eventsExecuted)
            ++executed_samples;
    });
    EXPECT_EQ(executed_samples, tl.boundaries.size());
}

TEST(TimelineTest, SampledRunMatchesUnsampledCycles)
{
    // Sampling chunks the event-queue run at every boundary; the
    // (when, seq) execution order — and thus the cycle count — must
    // be identical to the unchunked run, including when the
    // interval does not divide the run length.
    std::vector<std::vector<sim::Program>> progs;
    for (unsigned p = 0; p < 3; ++p)
        progs.push_back(computeProgram(p + 1, 17 * (p + 1)));

    sim::Tick plain = runMachine(progs, nullptr);
    sim::TraceLog rec;
    sim::Tick sampled = runMachine(progs, &rec);
    EXPECT_EQ(plain, sampled);
    EXPECT_FALSE(core::buildTimeline(rec).empty());
}

TEST(TimelineTest, SummaryJsonCarriesPeaksAndHotspots)
{
    sim::TraceLog rec;
    rec.nameBus(0, "data_bus");
    double m0 = 0;
    for (int k = 0; k <= 4; ++k) {
        sim::Tick at = static_cast<sim::Tick>(k) * 100;
        if (k > 0)
            m0 += 20;
        sample(rec, sim::SampleStream::moduleAccesses, 0, at, m0);
        sample(rec, sim::SampleStream::busBusyCycles, 0, at,
               static_cast<double>(at) / 2);
        sample(rec, sim::SampleStream::busQueueDepth, 0, at, k);
        coreBatch(rec, at, m0);
    }

    core::Timeline tl = core::buildTimeline(rec);
    core::json::Value sum = tl.summaryJson();
    EXPECT_EQ(sum.find("interval")->asNumber(), 100);
    EXPECT_EQ(sum.find("samples")->asNumber(), 5);
    EXPECT_DOUBLE_EQ(
        sum.find("peak_bus_occupancy")->find("data_bus")->asNumber(),
        0.5);
    EXPECT_DOUBLE_EQ(sum.find("peak_bus_queue")->asNumber(), 4.0);
    const core::json::Value *hot = sum.find("hotspots");
    ASSERT_NE(hot, nullptr);
    // One module with 100% share of every interval.
    ASSERT_TRUE(hot->isArray());
    ASSERT_FALSE(hot->asArray().empty());
    EXPECT_EQ(hot->asArray()[0].find("kind")->asString(), "module");

    // The full document round-trips through the JSON printer.
    auto parsed = core::json::parse(tl.toJson().dump());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.value.find("series")->isObject());
}

// A run far longer than the budget at the first interval: the
// sampler doubles its interval at least three times and thins the
// stored boundaries, so the timeline stays within the budget on a
// uniform grid, and its cumulative series still add up to the
// run's own counters.
TEST(TimelineTest, BudgetDoublesIntervalAndKeepsTotals)
{
    constexpr unsigned procs = 4;
    std::vector<std::vector<sim::Program>> progs(procs);
    for (unsigned p = 0; p < procs; ++p) {
        sim::Program prog;
        prog.iter = p + 1;
        for (unsigned k = 0; k < 4000; ++k) {
            prog.ops.push_back(sim::Op::mkCompute(40));
            prog.ops.push_back(
                sim::Op::mkData(false, 8 * (p * 4000 + k), 0));
        }
        progs[p].push_back(std::move(prog));
    }
    sim::MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.timeline = true;
    sim::TraceLog rec;
    sim::Machine m(cfg, nullptr, &rec);
    runOn(m, progs);

    core::Timeline tl = core::buildTimeline(rec);
    ASSERT_GE(tl.interval, 8 * sim::timelineFirstInterval);
    EXPECT_LE(tl.numSamples(), sim::timelineSampleBudget);
    EXPECT_EQ(tl.boundaries.front(), 0u);
    EXPECT_EQ(tl.boundaries.back(), m.completionTick());
    // Uniform grid; only the final drain interval may be shorter.
    for (std::size_t k = 1; k + 1 < tl.numSamples(); ++k) {
        ASSERT_EQ(tl.boundaries[k] - tl.boundaries[k - 1],
                  tl.interval)
            << "boundary " << k;
    }
    EXPECT_LE(tl.boundaries.back() - tl.boundaries[tl.numSamples() - 2],
              tl.interval);

    double traffic = 0;
    for (const auto &s : tl.moduleTraffic)
        traffic += s.total();
    EXPECT_GT(traffic, 0.0);
    EXPECT_DOUBLE_EQ(traffic,
                     static_cast<double>(m.memory().totalAccesses()));
    EXPECT_DOUBLE_EQ(tl.eventsPerInterval.total(),
                     static_cast<double>(m.eventq().eventsExecuted()));
}

// Every bus keeps its own series under its own name: the global
// stage of a cluster hierarchy is not the flat sync bus, and each
// cluster bus gets occupancy and queue series of its own.
TEST(TimelineTest, HierarchicalBusesAreSampledUnderTheirNames)
{
    constexpr unsigned procs = 4;
    sim::MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.fabric = sim::FabricKind::hierarchical;
    cfg.numClusters = 2;
    cfg.timeline = true;
    sim::TraceLog rec;
    sim::Machine m(cfg, nullptr, &rec);
    sim::SyncVarId vars = m.fabric().allocate(procs, 0);
    std::vector<std::vector<sim::Program>> progs(procs);
    for (unsigned p = 0; p < procs; ++p) {
        sim::Program prog;
        prog.iter = p + 1;
        for (unsigned k = 1; k <= 50; ++k) {
            prog.ops.push_back(sim::Op::mkCompute(3));
            prog.ops.push_back(sim::Op::mkWrite(vars + p, k));
        }
        progs[p].push_back(std::move(prog));
    }
    runOn(m, progs);

    core::Timeline tl = core::buildTimeline(rec);
    std::vector<std::string> occupancy, queue;
    for (const auto &s : tl.busOccupancy)
        occupancy.push_back(s.name);
    for (const auto &s : tl.busQueue)
        queue.push_back(s.name);
    EXPECT_EQ(occupancy,
              (std::vector<std::string>{
                  "data_bus occupancy", "global_bus occupancy",
                  "cluster_bus0 occupancy",
                  "cluster_bus1 occupancy"}));
    EXPECT_EQ(queue, (std::vector<std::string>{
                         "data_bus queue", "global_bus queue",
                         "cluster_bus0 queue", "cluster_bus1 queue"}));
    for (std::size_t b = 1; b < tl.busOccupancy.size(); ++b) {
        EXPECT_GT(tl.busOccupancy[b].total(), 0.0)
            << tl.busOccupancy[b].name;
    }
    core::json::Value peaks =
        *tl.summaryJson().find("peak_bus_occupancy");
    EXPECT_NE(peaks.find("global_bus"), nullptr);
    EXPECT_NE(peaks.find("cluster_bus1"), nullptr);
    EXPECT_EQ(peaks.find("sync_bus"), nullptr);
}
