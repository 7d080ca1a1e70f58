#include "core/timeline.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

namespace psync {
namespace core {

double
TimelineSeries::peak() const
{
    double m = 0;
    for (double v : values)
        m = std::max(m, v);
    return m;
}

std::size_t
TimelineSeries::peakIndex() const
{
    std::size_t idx = 0;
    double m = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < values.size(); ++k) {
        if (values[k] > m) {
            m = values[k];
            idx = k;
        }
    }
    return values.empty() ? 0 : idx;
}

double
TimelineSeries::total() const
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum;
}

TimelineSeries
mergeSeries(const std::string &name,
            const std::vector<const TimelineSeries *> &parts)
{
    TimelineSeries out;
    out.name = name;
    std::size_t longest = 0;
    for (const TimelineSeries *part : parts)
        longest = std::max(longest, part->values.size());
    out.values.assign(longest, 0.0);
    for (const TimelineSeries *part : parts) {
        for (std::size_t k = 0; k < part->values.size(); ++k)
            out.values[k] += part->values[k];
    }
    return out;
}

json::Value
HotSpot::toJson() const
{
    json::Value obj = json::object();
    obj.set("kind", kind);
    obj.set("index", static_cast<std::uint64_t>(index));
    if (!label.empty())
        obj.set("label", label);
    obj.set("onset", static_cast<std::uint64_t>(onset));
    obj.set("duration", static_cast<std::uint64_t>(duration));
    obj.set("peak_share", peakShare);
    obj.set("peak_at", static_cast<std::uint64_t>(peakAt));
    obj.set("events", events);
    return obj;
}

std::string
sparkline(const std::vector<double> &values, std::size_t width)
{
    static const char *blocks[8] = {"▁", "▂", "▃", "▄",
                                    "▅", "▆", "▇", "█"};
    if (values.empty() || width == 0)
        return "";
    std::size_t cols = std::min(width, values.size());
    std::vector<double> pooled(cols, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
        std::size_t lo = c * values.size() / cols;
        std::size_t hi = (c + 1) * values.size() / cols;
        double m = 0;
        for (std::size_t k = lo; k < std::max(hi, lo + 1); ++k)
            m = std::max(m, values[k]);
        pooled[c] = m;
    }
    double peak = 0;
    for (double v : pooled)
        peak = std::max(peak, v);
    std::string out;
    for (double v : pooled) {
        if (peak <= 0 || v <= 0) {
            out += " ";
            continue;
        }
        int level = static_cast<int>(std::ceil(v / peak * 8.0)) - 1;
        level = std::max(0, std::min(7, level));
        out += blocks[level];
    }
    return out;
}

namespace {

/** Raw per-(stream, index) sample vector, one slot per boundary. */
using RawKey = std::pair<int, std::uint32_t>;

constexpr double unsampled = std::numeric_limits<double>::quiet_NaN();

/** Instantaneous stream: missing samples are zero (sparse). */
TimelineSeries
instantSeries(const std::vector<double> *raw, std::size_t n,
              std::string name)
{
    TimelineSeries out;
    out.name = std::move(name);
    out.values.assign(n, 0.0);
    if (raw) {
        for (std::size_t k = 0; k < n; ++k) {
            if (!std::isnan((*raw)[k]))
                out.values[k] = (*raw)[k];
        }
    }
    return out;
}

/**
 * Cumulative stream: difference consecutive samples into
 * per-interval activity. values[0] is the zero-width baseline (0);
 * missing samples carry the previous running total forward.
 */
TimelineSeries
diffSeries(const std::vector<double> *raw, std::size_t n,
           std::string name)
{
    TimelineSeries out;
    out.name = std::move(name);
    out.values.assign(n, 0.0);
    if (!raw || n == 0)
        return out;
    double prev = std::isnan((*raw)[0]) ? 0.0 : (*raw)[0];
    for (std::size_t k = 1; k < n; ++k) {
        double cur = std::isnan((*raw)[k]) ? prev : (*raw)[k];
        out.values[k] = cur - prev;
        prev = cur;
    }
    return out;
}

/** One traffic entity offered to the hot-spot detector. */
struct HotCandidate
{
    std::uint32_t index;
    std::string label;
    const TimelineSeries *series;
};

void
detectHotSpots(const std::string &kind,
               const std::vector<HotCandidate> &entities,
               const std::vector<sim::Tick> &boundaries,
               const TimelineConfig &cfg, std::vector<HotSpot> &out)
{
    std::size_t n = boundaries.size();
    if (n < 2 || entities.empty())
        return;
    std::vector<double> totals(n, 0.0);
    for (const auto &e : entities) {
        for (std::size_t k = 0; k < e.series->values.size(); ++k)
            totals[k] += e.series->values[k];
    }
    for (const auto &e : entities) {
        bool open = false;
        std::size_t start = 0, last = 0, peakAtK = 0;
        double peakShare = 0, events = 0;
        auto close = [&]() {
            if (open && last - start + 1 >= cfg.hotMinIntervals) {
                HotSpot h;
                h.kind = kind;
                h.index = e.index;
                h.label = e.label;
                h.onset = boundaries[start - 1];
                h.duration = boundaries[last] - h.onset;
                h.peakShare = peakShare;
                h.peakAt = boundaries[peakAtK];
                h.events = events;
                out.push_back(std::move(h));
            }
            open = false;
            peakShare = 0;
            events = 0;
        };
        // Interval k covers (boundaries[k-1], boundaries[k]];
        // index 0 is the zero-width baseline and never hot.
        for (std::size_t k = 1; k < n; ++k) {
            double v = k < e.series->values.size()
                           ? e.series->values[k]
                           : 0.0;
            bool hot = totals[k] >= cfg.minEventsPerInterval &&
                       v >= cfg.hotShare * totals[k];
            if (!hot) {
                close();
                continue;
            }
            if (!open) {
                open = true;
                start = k;
            }
            last = k;
            events += v;
            double share = v / totals[k];
            if (share > peakShare) {
                peakShare = share;
                peakAtK = k;
            }
        }
        close();
    }
}

json::Value
seriesJson(const TimelineSeries &s)
{
    json::Value obj = json::object();
    obj.set("name", s.name);
    json::Value vals = json::array();
    for (double v : s.values)
        vals.push(v);
    obj.set("values", std::move(vals));
    return obj;
}

std::string
varName(sim::SyncVarId var, const std::string &label)
{
    std::string name = std::string("v").append(std::to_string(var));
    if (!label.empty())
        name += " (" + label + ")";
    return name;
}

} // namespace

Timeline
buildTimeline(const sim::TraceLog &log, const TimelineConfig &cfg)
{
    Timeline tl;
    log.forEach([&](const sim::TraceEvent &e) {
        if (e.kind == sim::TraceKind::sample)
            tl.boundaries.push_back(e.t0);
    });
    if (tl.boundaries.empty())
        return tl;
    std::sort(tl.boundaries.begin(), tl.boundaries.end());
    tl.boundaries.erase(std::unique(tl.boundaries.begin(),
                                    tl.boundaries.end()),
                        tl.boundaries.end());
    const std::size_t n = tl.boundaries.size();

    auto boundaryIndex = [&](sim::Tick at) -> std::size_t {
        auto it = std::lower_bound(tl.boundaries.begin(),
                                   tl.boundaries.end(), at);
        if (it == tl.boundaries.end())
            return n - 1;
        return static_cast<std::size_t>(it - tl.boundaries.begin());
    };

    // Nominal interval: the most common boundary gap (the final
    // drain sample is usually ragged).
    std::map<sim::Tick, unsigned> gapCounts;
    for (std::size_t k = 1; k < n; ++k)
        ++gapCounts[tl.boundaries[k] - tl.boundaries[k - 1]];
    unsigned best = 0;
    for (const auto &g : gapCounts) {
        if (g.second > best) {
            best = g.second;
            tl.interval = g.first;
        }
    }

    // Raw samples per (stream, id), one slot per boundary; sync-op
    // events bucketed per variable give per-variable traffic
    // without a dedicated stream.
    std::map<RawKey, std::vector<double>> raw;
    std::map<sim::SyncVarId, TimelineSeries> traffic;
    log.forEach([&](const sim::TraceEvent &e) {
        if (e.kind == sim::TraceKind::sample) {
            auto &vec = raw[{static_cast<int>(e.code), e.id}];
            if (vec.empty())
                vec.assign(n, unsampled);
            vec[boundaryIndex(e.t0)] = e.value();
        } else if (e.kind == sim::TraceKind::syncOp) {
            auto it = traffic.find(e.id);
            if (it == traffic.end()) {
                it = traffic
                         .emplace(e.id,
                                  TimelineSeries{
                                      varName(e.id,
                                              log.syncVarLabel(e.id)) +
                                          " traffic",
                                      std::vector<double>(n, 0.0)})
                         .first;
            }
            it->second.values[boundaryIndex(e.t0)] += 1;
        }
    });
    auto rawOf = [&](sim::SampleStream stream,
                     std::uint32_t index) -> const std::vector<double> * {
        auto it = raw.find({static_cast<int>(stream), index});
        return it == raw.end() ? nullptr : &it->second;
    };
    auto indicesOf = [&](sim::SampleStream stream) {
        std::vector<std::uint32_t> indices;
        for (const auto &entry : raw) {
            if (entry.first.first == static_cast<int>(stream))
                indices.push_back(entry.first.second);
        }
        return indices;
    };
    // Cumulative busy cycles -> busy fraction of each interval.
    auto occupancy = [&](const std::vector<double> *busy,
                         std::string name) {
        TimelineSeries occ = diffSeries(busy, n, std::move(name));
        for (std::size_t k = 1; k < n; ++k) {
            sim::Tick span = tl.boundaries[k] - tl.boundaries[k - 1];
            double frac = span
                ? occ.values[k] / static_cast<double>(span)
                : 0.0;
            occ.values[k] = std::max(0.0, std::min(1.0, frac));
        }
        return occ;
    };

    // Buses, each under its own name, in trace-id order.
    for (std::uint32_t b :
         indicesOf(sim::SampleStream::busBusyCycles)) {
        std::string name = log.busName(b);
        tl.busOccupancy.push_back(occupancy(
            rawOf(sim::SampleStream::busBusyCycles, b),
            name + " occupancy"));
        tl.busQueue.push_back(instantSeries(
            rawOf(sim::SampleStream::busQueueDepth, b), n,
            name + " queue"));
    }

    // Memory modules.
    for (std::uint32_t m :
         indicesOf(sim::SampleStream::moduleAccesses)) {
        tl.moduleTraffic.push_back(diffSeries(
            rawOf(sim::SampleStream::moduleAccesses, m), n,
            "module " + std::to_string(m) + " traffic"));
        tl.moduleBacklog.push_back(instantSeries(
            rawOf(sim::SampleStream::moduleBacklog, m), n,
            "module " + std::to_string(m) + " backlog"));
    }

    // Combining-network stages (absent entirely on the other
    // fabrics, so these families stay empty there and every JSON
    // emission below skips them).
    for (std::uint32_t s :
         indicesOf(sim::SampleStream::netStageConflictCycles)) {
        tl.netStageWait.push_back(diffSeries(
            rawOf(sim::SampleStream::netStageConflictCycles, s), n,
            "net stage " + std::to_string(s) + " wait"));
    }
    for (std::uint32_t s :
         indicesOf(sim::SampleStream::netStageCombines)) {
        tl.netStageCombines.push_back(diffSeries(
            rawOf(sim::SampleStream::netStageCombines, s), n,
            "net stage " + std::to_string(s) + " combines"));
    }
    // Sync-variable waiter counts (sparse stream).
    for (std::uint32_t var :
         indicesOf(sim::SampleStream::syncVarWaiters)) {
        tl.varWaiters.emplace_back(
            var, instantSeries(
                     rawOf(sim::SampleStream::syncVarWaiters, var),
                     n,
                     varName(var, log.syncVarLabel(var)) + " waiters"));
    }

    for (auto &entry : traffic)
        tl.varTraffic.emplace_back(entry.first, std::move(entry.second));
    auto byTotalDesc = [](const auto &a, const auto &b) {
        return a.second.total() > b.second.total();
    };
    std::stable_sort(tl.varWaiters.begin(), tl.varWaiters.end(),
                     byTotalDesc);
    std::stable_sort(tl.varTraffic.begin(), tl.varTraffic.end(),
                     byTotalDesc);

    // Processor state mix: count processors per activity at each
    // boundary, carrying a processor's last known state forward.
    for (unsigned a = 0; a < sim::numProcActivities; ++a) {
        tl.procStateMix[a].name = std::string("procs ") +
            sim::procActivityName(
                static_cast<sim::ProcActivity>(a));
        tl.procStateMix[a].values.assign(n, 0.0);
    }
    for (std::uint32_t p :
         indicesOf(sim::SampleStream::procActivity)) {
        const auto *vec = rawOf(sim::SampleStream::procActivity, p);
        double state = 0;
        for (std::size_t k = 0; k < n; ++k) {
            if (!std::isnan((*vec)[k]))
                state = (*vec)[k];
            auto code = static_cast<unsigned>(state);
            if (code < sim::numProcActivities)
                tl.procStateMix[code].values[k] += 1;
        }
    }

    // Event-core self metrics.
    tl.eventsPerInterval =
        diffSeries(rawOf(sim::SampleStream::eventsExecuted, 0), n,
                   "events/interval");
    tl.pendingEvents =
        instantSeries(rawOf(sim::SampleStream::pendingEvents, 0), n,
                      "pending events");
    tl.ringBuckets =
        instantSeries(rawOf(sim::SampleStream::ringBuckets, 0), n,
                      "ring buckets");
    tl.farHeap =
        instantSeries(rawOf(sim::SampleStream::farHeapEvents, 0), n,
                      "far-heap events");
    tl.heapFallbacks =
        diffSeries(rawOf(sim::SampleStream::heapFallbacks, 0), n,
                   "heap fallbacks");

    // Hot spots over the two traffic families.
    std::vector<HotCandidate> modules;
    for (std::size_t m = 0; m < tl.moduleTraffic.size(); ++m) {
        modules.push_back({static_cast<std::uint32_t>(m),
                           std::string(),
                           &tl.moduleTraffic[m]});
    }
    detectHotSpots("module", modules, tl.boundaries, cfg,
                   tl.hotspots);
    std::vector<HotCandidate> vars;
    for (const auto &entry : tl.varTraffic)
        vars.push_back({entry.first, log.syncVarLabel(entry.first),
                        &entry.second});
    detectHotSpots("sync_var", vars, tl.boundaries, cfg,
                   tl.hotspots);
    std::stable_sort(tl.hotspots.begin(), tl.hotspots.end(),
                     [](const HotSpot &a, const HotSpot &b) {
                         return a.events > b.events;
                     });
    return tl;
}

json::Value
Timeline::toJson() const
{
    json::Value doc = json::object();
    doc.set("interval", static_cast<std::uint64_t>(interval));
    json::Value bounds = json::array();
    for (sim::Tick b : boundaries)
        bounds.push(static_cast<std::uint64_t>(b));
    doc.set("boundaries", std::move(bounds));

    auto family = [](const std::vector<TimelineSeries> &list) {
        json::Value arr = json::array();
        for (const auto &s : list)
            arr.push(seriesJson(s));
        return arr;
    };
    json::Value series = json::object();
    series.set("bus_occupancy", family(busOccupancy));
    series.set("bus_queue", family(busQueue));
    series.set("module_traffic", family(moduleTraffic));
    series.set("module_backlog", family(moduleBacklog));
    // Topology families only exist on the composed fabrics; keep
    // flat-fabric documents unchanged by omitting them when empty.
    if (!netStageWait.empty())
        series.set("net_stage_wait", family(netStageWait));
    if (!netStageCombines.empty())
        series.set("net_stage_combines", family(netStageCombines));
    auto varFamily =
        [](const std::vector<std::pair<sim::SyncVarId,
                                       TimelineSeries>> &list) {
            json::Value arr = json::array();
            for (const auto &entry : list) {
                json::Value obj = seriesJson(entry.second);
                obj.set("var",
                        static_cast<std::uint64_t>(entry.first));
                arr.push(std::move(obj));
            }
            return arr;
        };
    series.set("sync_var_waiters", varFamily(varWaiters));
    series.set("sync_var_traffic", varFamily(varTraffic));
    json::Value mix = json::array();
    for (const auto &s : procStateMix)
        mix.push(seriesJson(s));
    series.set("proc_state_mix", std::move(mix));
    series.set("events_per_interval", seriesJson(eventsPerInterval));
    series.set("pending_events", seriesJson(pendingEvents));
    series.set("ring_buckets", seriesJson(ringBuckets));
    series.set("far_heap", seriesJson(farHeap));
    series.set("heap_fallbacks", seriesJson(heapFallbacks));
    doc.set("series", std::move(series));

    json::Value hot = json::array();
    for (const auto &h : hotspots)
        hot.push(h.toJson());
    doc.set("hotspots", std::move(hot));
    doc.set("summary", summaryJson());
    return doc;
}

json::Value
Timeline::summaryJson() const
{
    json::Value sum = json::object();
    sum.set("interval", static_cast<std::uint64_t>(interval));
    sum.set("samples", static_cast<std::uint64_t>(numSamples()));
    json::Value busPeaks = json::object();
    for (const auto &s : busOccupancy) {
        // "data_bus occupancy" -> "data_bus"
        busPeaks.set(s.name.substr(0, s.name.find(' ')), s.peak());
    }
    sum.set("peak_bus_occupancy", std::move(busPeaks));
    double busQ = 0;
    for (const auto &s : busQueue)
        busQ = std::max(busQ, s.peak());
    sum.set("peak_bus_queue", busQ);

    double backlog = 0;
    std::uint64_t backlogModule = 0;
    for (std::size_t m = 0; m < moduleBacklog.size(); ++m) {
        if (moduleBacklog[m].peak() > backlog) {
            backlog = moduleBacklog[m].peak();
            backlogModule = m;
        }
    }
    sum.set("peak_module_backlog", backlog);
    sum.set("peak_backlog_module", backlogModule);

    double waiters = 0;
    for (const auto &entry : varWaiters)
        waiters = std::max(waiters, entry.second.peak());
    sum.set("peak_sync_waiters", waiters);
    if (!netStageWait.empty()) {
        double stage_wait = 0;
        for (const auto &s : netStageWait)
            stage_wait = std::max(stage_wait, s.peak());
        sum.set("peak_net_stage_wait", stage_wait);
        double combines = 0;
        for (const auto &s : netStageCombines)
            combines += s.total();
        sum.set("net_combines", combines);
    }
    sum.set("peak_events_per_interval", eventsPerInterval.peak());
    sum.set("far_heap_peak", farHeap.peak());
    sum.set("heap_fallbacks", heapFallbacks.total());

    json::Value hot = json::array();
    for (const auto &h : hotspots)
        hot.push(h.toJson());
    sum.set("hotspots", std::move(hot));
    return sum;
}

void
Timeline::writeText(std::ostream &os, std::size_t width) const
{
    if (empty()) {
        os << "timeline: no samples recorded\n";
        return;
    }
    os << "timeline: " << numSamples() << " samples, interval "
       << interval << " cycles, span [" << boundaries.front()
       << ", " << boundaries.back() << "]\n";

    char buf[96];
    auto row = [&](const TimelineSeries &s, const char *fmt) {
        double p = s.peak();
        std::snprintf(buf, sizeof(buf), fmt, p);
        os << "  " << s.name;
        for (std::size_t pad = s.name.size(); pad < 24; ++pad)
            os << ' ';
        os << sparkline(s.values, width) << "  peak " << buf
           << " @ " << boundaries[s.peakIndex()] << "\n";
    };

    // The (up to) three buses with the highest peak occupancy, in
    // trace-id order: every bus of a flat machine, the busiest
    // ones of a cluster hierarchy.
    std::vector<std::size_t> buses(busOccupancy.size());
    for (std::size_t b = 0; b < buses.size(); ++b)
        buses[b] = b;
    std::stable_sort(buses.begin(), buses.end(),
                     [&](std::size_t a, std::size_t b) {
                         return busOccupancy[a].peak() >
                                busOccupancy[b].peak();
                     });
    buses.resize(std::min<std::size_t>(buses.size(), 3));
    std::sort(buses.begin(), buses.end());
    for (std::size_t b : buses)
        row(busOccupancy[b], "%.2f");
    for (std::size_t b : buses)
        row(busQueue[b], "%.0f");
    if (!moduleTraffic.empty()) {
        std::vector<const TimelineSeries *> parts;
        for (const auto &s : moduleTraffic)
            parts.push_back(&s);
        row(mergeSeries("module traffic (total)", parts), "%.0f");
        const TimelineSeries *hottest = &moduleTraffic[0];
        for (const auto &s : moduleTraffic) {
            if (s.total() > hottest->total())
                hottest = &s;
        }
        row(*hottest, "%.0f");
        const TimelineSeries *worst = &moduleBacklog[0];
        for (const auto &s : moduleBacklog) {
            if (s.peak() > worst->peak())
                worst = &s;
        }
        row(*worst, "%.1f");
    }
    if (!netStageWait.empty()) {
        std::vector<const TimelineSeries *> parts;
        for (const auto &s : netStageWait)
            parts.push_back(&s);
        row(mergeSeries("net stage wait (total)", parts), "%.0f");
        std::vector<const TimelineSeries *> combine_parts;
        for (const auto &s : netStageCombines)
            combine_parts.push_back(&s);
        row(mergeSeries("net combines (total)", combine_parts),
            "%.0f");
    }
    for (std::size_t i = 0; i < varWaiters.size() && i < 3; ++i)
        row(varWaiters[i].second, "%.0f");
    for (std::size_t i = 0; i < varTraffic.size() && i < 3; ++i)
        row(varTraffic[i].second, "%.0f");

    const auto &computeMix =
        procStateMix[static_cast<unsigned>(
            sim::ProcActivity::compute)];
    if (!computeMix.values.empty()) {
        row(computeMix, "%.0f");
        TimelineSeries blocked = mergeSeries(
            "procs blocked",
            {&procStateMix[static_cast<unsigned>(
                 sim::ProcActivity::spin)],
             &procStateMix[static_cast<unsigned>(
                 sim::ProcActivity::parked)]});
        row(blocked, "%.0f");
    }
    row(eventsPerInterval, "%.0f");
    if (farHeap.peak() > 0)
        row(farHeap, "%.0f");
    if (heapFallbacks.total() > 0)
        row(heapFallbacks, "%.0f");

    if (hotspots.empty()) {
        os << "  no hot spots detected\n";
        return;
    }
    os << "hot spots:\n";
    for (const auto &h : hotspots) {
        os << "  " << h.kind << " " << h.index;
        if (!h.label.empty())
            os << " (" << h.label << ")";
        std::snprintf(buf, sizeof(buf),
                      ": onset %llu, %llu cycles, peak share %.0f%% "
                      "@ %llu (%.0f events)",
                      static_cast<unsigned long long>(h.onset),
                      static_cast<unsigned long long>(h.duration),
                      h.peakShare * 100.0,
                      static_cast<unsigned long long>(h.peakAt),
                      h.events);
        os << buf << "\n";
    }
}

} // namespace core
} // namespace psync
