#include "core/tracing.hh"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace psync {
namespace core {

namespace {

using sim::TraceEvent;
using sim::TraceKind;

// Trace-event pids: processors on one track group, hardware
// resources on another, so Perfetto shows them as two processes.
constexpr int pidProcs = 0;
constexpr int pidResources = 1;

json::Value
metadataEvent(int pid, int tid, const char *what,
              const std::string &name)
{
    json::Value ev = json::object();
    ev.set("name", what);
    ev.set("ph", "M");
    ev.set("pid", pid);
    ev.set("tid", tid);
    json::Value args = json::object();
    args.set("name", name);
    ev.set("args", std::move(args));
    return ev;
}

} // namespace

json::Value
chromeTrace(const sim::TraceLog &log)
{
    json::Value events = json::array();

    events.push(metadataEvent(pidProcs, 0, "process_name",
                              "processors"));
    events.push(metadataEvent(pidResources, 0, "process_name",
                              "resources"));

    // Name one thread per processor that shows up anywhere, and one
    // per distinct resource (bus, memory module k), with resource
    // tids in first-appearance order.
    std::vector<sim::ProcId> procs;
    std::vector<std::pair<sim::Resource, std::uint32_t>> resources;
    auto resourceTid = [&](const TraceEvent &e) {
        auto key = std::make_pair(e.codeAs<sim::Resource>(), e.id);
        auto it = std::find(resources.begin(), resources.end(), key);
        if (it == resources.end()) {
            resources.push_back(key);
            return static_cast<int>(resources.size() - 1);
        }
        return static_cast<int>(it - resources.begin());
    };
    log.forEach([&](const TraceEvent &e) {
        if (e.kind == TraceKind::phase || e.kind == TraceKind::instant)
            procs.push_back(e.proc);
        else if (e.kind == TraceKind::busy)
            resourceTid(e);
    });
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()),
                procs.end());
    for (sim::ProcId p : procs) {
        events.push(metadataEvent(pidProcs, static_cast<int>(p),
                                  "thread_name",
                                  "proc " + std::to_string(p)));
    }
    for (std::size_t i = 0; i < resources.size(); ++i) {
        auto [resource, id] = resources[i];
        std::string label =
            resource == sim::Resource::module
                ? "memory.module[" + std::to_string(id) + "]"
                : log.busName(id);
        events.push(metadataEvent(pidResources, static_cast<int>(i),
                                  "thread_name", label));
    }

    // Phase intervals: complete events, ts/dur in trace µs == ticks.
    log.forEach([&](const TraceEvent &e) {
        if (e.kind != TraceKind::phase)
            return;
        json::Value ev = json::object();
        ev.set("name",
               sim::tracePhaseName(e.codeAs<sim::TracePhase>()));
        ev.set("cat", "phase");
        ev.set("ph", "X");
        ev.set("ts", e.t0);
        ev.set("dur", e.cycles());
        ev.set("pid", pidProcs);
        ev.set("tid", static_cast<int>(e.proc));
        events.push(std::move(ev));
    });

    log.forEach([&](const TraceEvent &e) {
        if (e.kind != TraceKind::instant)
            return;
        json::Value ev = json::object();
        ev.set("name", sim::instantName(e.codeAs<sim::Instant>()));
        ev.set("cat", "instant");
        ev.set("ph", "i");
        ev.set("s", "t");
        ev.set("ts", e.t0);
        ev.set("pid", pidProcs);
        ev.set("tid", static_cast<int>(e.proc));
        events.push(std::move(ev));
    });

    log.forEach([&](const TraceEvent &e) {
        if (e.kind != TraceKind::busy)
            return;
        json::Value ev = json::object();
        ev.set("name", "busy");
        ev.set("cat", "resource");
        ev.set("ph", "X");
        ev.set("ts", e.t0);
        ev.set("dur", e.cycles());
        ev.set("pid", pidResources);
        ev.set("tid", resourceTid(e));
        json::Value args = json::object();
        args.set("proc", e.proc);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    });

    // Timeline sample streams as counter tracks. Cumulative
    // streams are differenced between consecutive samples so
    // Perfetto shows per-interval rates instead of running totals;
    // the activity-code stream is skipped (the phase track already
    // shows processor state as spans).
    std::map<std::pair<int, std::uint32_t>, double> lastCumulative;
    log.forEach([&](const TraceEvent &e) {
        if (e.kind != TraceKind::sample)
            return;
        auto stream = e.codeAs<sim::SampleStream>();
        if (stream == sim::SampleStream::procActivity)
            return;
        double value = e.value();
        if (sim::sampleStreamCumulative(stream)) {
            auto key = std::make_pair(static_cast<int>(stream), e.id);
            auto it = lastCumulative.find(key);
            value -= it == lastCumulative.end() ? 0.0 : it->second;
            lastCumulative[key] = e.value();
        }
        std::string name =
            std::string("timeline.") + sim::sampleStreamName(stream);
        if (sim::sampleStreamIndexed(stream))
            name.append("[").append(std::to_string(e.id)).append("]");
        json::Value ev = json::object();
        ev.set("name", std::move(name));
        ev.set("cat", "timeline");
        ev.set("ph", "C");
        ev.set("ts", e.t0);
        ev.set("pid", pidResources);
        json::Value args = json::object();
        args.set("value", value);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    });

    json::Value doc = json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ns");
    return doc;
}

} // namespace core
} // namespace psync
