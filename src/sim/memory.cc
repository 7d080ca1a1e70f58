#include "sim/memory.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

Memory::Memory(EventQueue &eq, Interconnect &data_net,
               const MemoryConfig &cfg, TraceLog *trace)
    : eventq(eq),
      dataNet(data_net),
      config(cfg),
      tracer(trace),
      moduleFreeAt(cfg.numModules, 0),
      moduleAccesses(cfg.numModules, 0)
{
    if (config.numModules == 0)
        fatal("memory must have at least one module");
}

std::uint32_t
Memory::allocRequest()
{
    if (freeHead != noRequest) {
        std::uint32_t slot = freeHead;
        freeHead = requests[slot].next;
        return slot;
    }
    std::uint32_t slot = static_cast<std::uint32_t>(requests.size());
    requests.emplace_back();
    return slot;
}

void
Memory::freeRequest(std::uint32_t slot)
{
    Request &req = requests[slot];
    req.modify.reset();
    req.onValue.reset();
    req.onAccess.reset();
    req.next = freeHead;
    freeHead = slot;
}

void
Memory::service(std::uint32_t slot)
{
    unsigned module = moduleOf(requests[slot].addr);
    ++moduleAccesses[module];

    dataNet.transact(requests[slot].who,
                     [this, slot](Tick) { arrived(slot); });
}

void
Memory::arrived(std::uint32_t slot)
{
    const Request &req = requests[slot];
    unsigned module = moduleOf(req.addr);
    Tick arrive = eventq.now();
    Tick start = std::max(arrive, moduleFreeAt[module]);
    Tick done = start + req.serviceCycles;
    moduleFreeAt[module] = done;
    queueDelay_ += start - arrive;
    PSYNC_DPRINTF(eventq, Mem,
                  "module %u service proc %u [%llu, %llu)",
                  module, req.who,
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(done));
    trace(tracer, TraceEvent::busy(Resource::module, module, req.who, start,
                                   done));
    eventq.schedule(done, [this, slot]() { complete(slot); });
}

void
Memory::complete(std::uint32_t slot)
{
    Request &req = requests[slot];
    Addr addr = req.addr;
    switch (req.kind) {
      case Request::Kind::read: {
        ValueHandler on_done = std::move(req.onValue);
        freeRequest(slot);
        on_done(peek(addr));
        return;
      }
      case Request::Kind::readDiscard: {
        AccessHandler on_done = std::move(req.onAccess);
        freeRequest(slot);
        on_done();
        return;
      }
      case Request::Kind::write: {
        words[addr] = req.value;
        AccessHandler on_done = std::move(req.onAccess);
        freeRequest(slot);
        on_done();
        return;
      }
      case Request::Kind::rmw: {
        SyncWord old_value = peek(addr);
        words[addr] = req.modify(old_value);
        ValueHandler on_done = std::move(req.onValue);
        freeRequest(slot);
        on_done(old_value);
        return;
      }
    }
}

void
Memory::read(ProcId who, Addr addr, ValueHandler on_done)
{
    std::uint32_t slot = allocRequest();
    Request &req = requests[slot];
    req.kind = Request::Kind::read;
    req.who = who;
    req.addr = addr;
    req.serviceCycles = config.serviceCycles;
    req.onValue = std::move(on_done);
    service(slot);
}

void
Memory::readDiscard(ProcId who, Addr addr, AccessHandler on_done)
{
    std::uint32_t slot = allocRequest();
    Request &req = requests[slot];
    req.kind = Request::Kind::readDiscard;
    req.who = who;
    req.addr = addr;
    req.serviceCycles = config.serviceCycles;
    req.onAccess = std::move(on_done);
    service(slot);
}

void
Memory::write(ProcId who, Addr addr, SyncWord value,
              AccessHandler on_done)
{
    std::uint32_t slot = allocRequest();
    Request &req = requests[slot];
    req.kind = Request::Kind::write;
    req.who = who;
    req.addr = addr;
    req.value = value;
    req.serviceCycles = config.serviceCycles;
    req.onAccess = std::move(on_done);
    service(slot);
}

void
Memory::rmw(ProcId who, Addr addr, Modify modify, ValueHandler on_done)
{
    // An atomic read-modify-write holds the module for a read plus
    // a write; serialized arrivals at one hot word pay the full
    // double service each (the fetch&add funnel of Example 4).
    std::uint32_t slot = allocRequest();
    Request &req = requests[slot];
    req.kind = Request::Kind::rmw;
    req.who = who;
    req.addr = addr;
    req.serviceCycles = 2 * config.serviceCycles;
    req.modify = std::move(modify);
    req.onValue = std::move(on_done);
    service(slot);
}

void
Memory::serviceAtModule(Addr addr, AccessHandler on_done)
{
    unsigned module = moduleOf(addr);
    ++moduleAccesses[module];
    Tick arrive = eventq.now();
    Tick start = std::max(arrive, moduleFreeAt[module]);
    Tick done = start + config.serviceCycles;
    moduleFreeAt[module] = done;
    queueDelay_ += start - arrive;
    trace(tracer, TraceEvent::busy(Resource::module, module, /*who=*/0, start,
                                   done));
    eventq.schedule(done, std::move(on_done));
}

void
Memory::sampleTimeline(TraceLog &t, Tick at) const
{
    for (unsigned m = 0; m < config.numModules; ++m) {
        t.push(TraceEvent::sample(SampleStream::moduleAccesses, m, at,
                                  static_cast<double>(moduleAccesses[m])));
        // The reserved-until horizon divided by the service time is
        // the number of requests queued or in service at the module
        // right now (rmw counts double, matching its occupancy).
        double backlog = 0;
        if (moduleFreeAt[m] > at) {
            backlog = static_cast<double>(moduleFreeAt[m] - at) /
                      static_cast<double>(config.serviceCycles);
        }
        t.push(TraceEvent::sample(SampleStream::moduleBacklog, m, at,
                                  backlog));
    }
}

std::uint64_t
Memory::totalAccesses() const
{
    std::uint64_t total = 0;
    for (std::uint64_t n : moduleAccesses)
        total += n;
    return total;
}

std::uint64_t
Memory::hottestModuleAccesses() const
{
    return *std::max_element(moduleAccesses.begin(), moduleAccesses.end());
}

double
Memory::hotSpotRatio() const
{
    double total = static_cast<double>(totalAccesses());
    if (total == 0)
        return 1.0;
    double uniform = total / config.numModules;
    return static_cast<double>(hottestModuleAccesses()) / uniform;
}

} // namespace sim
} // namespace psync
