#include "sim/machine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace psync {
namespace sim {

const char *
interconnectKindName(InterconnectKind kind)
{
    switch (kind) {
      case InterconnectKind::bus:
        return "bus";
      case InterconnectKind::omega:
        return "omega";
    }
    return "unknown";
}

namespace {

/** Switch stages to reach `endpoints` endpoints. */
unsigned
stagesFor(unsigned endpoints)
{
    unsigned stages = 1;
    while ((1u << stages) < endpoints)
        ++stages;
    return stages;
}

} // namespace

Machine::Machine(const MachineConfig &cfg, TraceSink *trace,
                 TraceLog *tracer)
    : config_(cfg), tracer_(tracer), eventq_(cfg.eventCore)
{
    if (config_.numProcs == 0)
        fatal("machine needs at least one processor");

    switch (config_.interconnect) {
      case InterconnectKind::bus:
        dataNet_ = std::make_unique<Bus>(eventq_, "data_bus",
                                         config_.dataBusCycles,
                                         tracer, /*trace_id=*/0);
        break;
      case InterconnectKind::omega:
        dataNet_ = std::make_unique<OmegaNetwork>(
            eventq_, config_.numProcs,
            stagesFor(std::max(config_.numProcs,
                               config_.memory.numModules)),
            config_.netStageCycles, config_.netPortCycles);
        break;
    }
    memory_ = std::make_unique<Memory>(eventq_, *dataNet_,
                                       config_.memory, tracer);
    caches_ = std::make_unique<CacheSystem>(
        eventq_, *memory_, config_.numProcs, config_.cache);

    FabricAssembly fab = buildSyncFabric(syncTopologyOf(config_),
                                         eventq_, *memory_, tracer);
    syncBus_ = std::move(fab.syncBus);
    clusterBuses_ = std::move(fab.clusterBuses);
    fabric_ = std::move(fab.fabric);

    processors_.reserve(config_.numProcs);
    for (ProcId id = 0; id < config_.numProcs; ++id) {
        processors_.push_back(std::make_unique<Processor>(
            eventq_, id, *fabric_, *caches_, trace, tracer));
    }
}

Machine::~Machine()
{
    // A tick-limit stop (deadlock detection) leaves undrained
    // events whose handler captures point into the components
    // destroyed below; drop them all before any component dies.
    eventq_.clear();
}

bool
Machine::run(Processor::Dispatch dispatch, Tick limit)
{
    for (auto &proc : processors_)
        proc->start(dispatch);
    if (tracer_ && config_.timeline)
        return runSampled(limit);
    bool drained = eventq_.run(limit);
    return drained && allHalted();
}

bool
Machine::allHalted() const
{
    for (const auto &proc : processors_) {
        if (!proc->halted())
            return false;
    }
    return true;
}

bool
Machine::runSampled(Tick limit)
{
    // The resumable event core executes events with when <= chunk
    // limit and pauses with everything else intact, so chunking by
    // interval boundaries observes the exact (when, seq) order of
    // an unchunked run — sampling is passive by construction. The
    // kept boundaries are always origin + k * interval for k <
    // stored, so thinning them to the budget leaves exactly the
    // batches a run sampled at the doubled interval would hold.
    const Tick origin = eventq_.now();
    Tick interval = timelineFirstInterval;
    std::size_t stored = 1;
    sampleTimeline(origin);
    Tick last_sampled = origin;
    for (Tick boundary = origin + interval; boundary < limit;
         boundary = origin + stored * interval) {
        if (eventq_.run(boundary)) {
            // Drained mid-interval: close the timeline with a final
            // (possibly partial) sample at the last executed tick.
            if (eventq_.now() > last_sampled)
                sampleTimeline(eventq_.now());
            return allHalted();
        }
        sampleTimeline(boundary);
        last_sampled = boundary;
        if (++stored == timelineSampleBudget) {
            interval *= 2;
            stored /= 2;
            tracer_->eraseIf([origin, interval](const TraceEvent &e) {
                return e.kind == TraceKind::sample &&
                       (e.t0 - origin) % interval != 0;
            });
        }
    }
    bool drained = eventq_.run(limit);
    if (drained && eventq_.now() > last_sampled)
        sampleTimeline(eventq_.now());
    return drained && allHalted();
}

void
Machine::sampleTimeline(Tick at)
{
    if (!tracer_)
        return;
    TraceLog &t = *tracer_;
    if (Bus *data_bus = dataBus())
        data_bus->sampleTimeline(t, at);
    if (syncBus_)
        syncBus_->sampleTimeline(t, at);
    for (const auto &bus : clusterBuses_)
        bus->sampleTimeline(t, at);
    memory_->sampleTimeline(t, at);
    fabric_->sampleTimeline(t, at);
    auto global = [&](SampleStream stream, std::uint64_t value) {
        t.push(TraceEvent::sample(stream, 0, at,
                                  static_cast<double>(value)));
    };
    global(SampleStream::eventsExecuted, eventq_.eventsExecuted());
    global(SampleStream::pendingEvents, eventq_.pendingEvents());
    global(SampleStream::ringBuckets, eventq_.occupiedBuckets());
    global(SampleStream::farHeapEvents, eventq_.farEvents());
    global(SampleStream::heapFallbacks, eventq_.heapFallbackEvents());
    for (ProcId id = 0; id < config_.numProcs; ++id) {
        ProcActivity a = processors_[id]->activity();
        if (a == ProcActivity::spin && fabric_->isParked(id))
            a = ProcActivity::parked;
        t.push(TraceEvent::sample(SampleStream::procActivity, id, at,
                                  static_cast<double>(a)));
    }
}

Tick
Machine::completionTick() const
{
    Tick last = 0;
    for (const auto &proc : processors_)
        last = std::max(last, proc->haltTick());
    return last;
}

} // namespace sim
} // namespace psync
