#include "sim/omega_network.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

OmegaNetwork::OmegaNetwork(EventQueue &eq, unsigned num_ports,
                           unsigned num_stages, Tick stage_cycles,
                           Tick port_cycles)
    : eventq(eq),
      numStages(num_stages),
      stageCycles(stage_cycles),
      portCycles(port_cycles),
      portFreeAt(num_ports, 0)
{
    if (num_ports == 0)
        fatal("omega network needs at least one port");
    if (num_stages == 0)
        fatal("omega network needs at least one stage");
}

void
OmegaNetwork::transact(ProcId who, GrantHandler on_done)
{
    transact(who, GrantHandler{}, std::move(on_done));
}

void
OmegaNetwork::transact(ProcId who, GrantHandler on_grant,
                       GrantHandler on_done)
{
    if (who >= portFreeAt.size())
        panic("port %u out of range", who);

    Tick now = eventq.now();
    Tick inject = std::max(now, portFreeAt[who]);
    portFreeAt[who] = inject + portCycles;

    ++transactions_;
    queueDelay_ += inject - now;
    portBusy_ += portCycles;

    Tick delivered = inject + numStages * stageCycles;
    if (on_grant) {
        if (inject == now) {
            on_grant(inject);
        } else {
            std::uint32_t slot =
                parkFlight(std::move(on_grant), inject);
            eventq.schedule(inject,
                            [this, slot]() { fireFlight(slot); });
        }
    }
    std::uint32_t slot = parkFlight(std::move(on_done), inject);
    eventq.schedule(delivered, [this, slot]() { fireFlight(slot); });
}

std::uint32_t
OmegaNetwork::parkFlight(GrantHandler handler, Tick inject)
{
    std::uint32_t slot;
    if (freeFlight != noFlight) {
        slot = freeFlight;
        freeFlight = flights[slot].next;
    } else {
        slot = static_cast<std::uint32_t>(flights.size());
        flights.emplace_back();
    }
    flights[slot].handler = std::move(handler);
    flights[slot].inject = inject;
    return slot;
}

void
OmegaNetwork::fireFlight(std::uint32_t slot)
{
    GrantHandler handler = std::move(flights[slot].handler);
    Tick inject = flights[slot].inject;
    flights[slot].next = freeFlight;
    freeFlight = slot;
    handler(inject);
}

CombiningOmegaNetwork::CombiningOmegaNetwork(unsigned num_ports,
                                             unsigned num_endpoints,
                                             Tick stage_cycles,
                                             Tick port_cycles)
    : stageCycles(stage_cycles),
      portCycles(port_cycles),
      portFreeAt(num_ports, 0)
{
    if (num_ports == 0)
        fatal("combining network needs at least one port");
    unsigned endpoints = std::max(num_ports, num_endpoints);
    numStages = 1;
    while ((1u << numStages) < endpoints)
        ++numStages;
    endpointBits = numStages;
    unsigned switches = numStages * ((1u << numStages) / 2);
    switchFreeAt.assign(switches, 0);
    switchBusy.assign(switches, 0);
    residents.resize(switches);
    conflicts_.assign(numStages, 0);
    conflictCycles_.assign(numStages, 0);
    combines_.assign(numStages, 0);
    stageBusy_.assign(numStages, 0);
}

unsigned
CombiningOmegaNetwork::switchAt(ProcId who, unsigned dest,
                                unsigned stage) const
{
    // Omega routing: after stage s the low s+1 position bits are
    // the top s+1 destination bits, the rest still source bits.
    unsigned n = 1u << endpointBits;
    unsigned pos = ((who << (stage + 1)) |
                    (dest >> (endpointBits - stage - 1))) & (n - 1);
    return stage * (n / 2) + (pos >> 1);
}

CombiningOmegaNetwork::Delivery
CombiningOmegaNetwork::inject(ProcId who, unsigned dest,
                              SyncVarId var, CombineClass cls,
                              std::uint64_t packet_id, Tick now)
{
    if (who >= portFreeAt.size())
        panic("port %u out of range", who);

    Tick inject = std::max(now, portFreeAt[who]);
    portFreeAt[who] = inject + portCycles;
    ++transactions_;
    queueDelay_ += inject - now;

    Delivery d;
    Tick t = inject;
    for (unsigned s = 0; s < numStages; ++s) {
        unsigned sw = switchAt(who, dest, s);
        Resident *resident = nullptr;
        if (cls != CombineClass::none) {
            auto &here = residents[sw];
            std::erase_if(here, [now](const Resident &r) {
                return r.departAt <= now;
            });
            for (Resident &r : here) {
                if (r.var == var && r.cls == cls)
                    resident = &r;
            }
            if (resident && resident->departAt > t) {
                // A same-variable packet is still queued in this
                // switch: merge into it instead of going further.
                ++combines_[s];
                d.combined = true;
                d.mergedWith = resident->packet;
                d.stage = s;
                return d;
            }
        }
        if (switchFreeAt[sw] > t) {
            ++conflicts_[s];
            conflictCycles_[s] += switchFreeAt[sw] - t;
            queueDelay_ += switchFreeAt[sw] - t;
            t = switchFreeAt[sw];
        }
        Tick depart = t + stageCycles;
        switchFreeAt[sw] = depart;
        switchBusy[sw] += stageCycles;
        stageBusy_[s] += stageCycles;
        if (resident) {
            resident->packet = packet_id;
            resident->departAt = depart;
        } else if (cls != CombineClass::none) {
            residents[sw].push_back({var, cls, packet_id, depart});
        }
        t = depart;
    }
    d.arrive = t;
    return d;
}

void
CombiningOmegaNetwork::holdResidents(ProcId who, unsigned dest,
                                     SyncVarId var, CombineClass cls,
                                     std::uint64_t packet_id,
                                     Tick until)
{
    if (cls == CombineClass::none)
        return;
    for (unsigned s = 0; s < numStages; ++s) {
        for (Resident &r : residents[switchAt(who, dest, s)]) {
            if (r.var == var && r.cls == cls &&
                r.packet == packet_id && r.departAt < until)
                r.departAt = until;
        }
    }
}

std::uint64_t
CombiningOmegaNetwork::combinedTotal() const
{
    std::uint64_t total = 0;
    for (std::uint64_t n : combines_)
        total += n;
    return total;
}

Tick
CombiningOmegaNetwork::busiestSwitchCycles(unsigned s) const
{
    unsigned per_stage = 1u << (endpointBits - 1);
    Tick best = 0;
    for (unsigned i = 0; i < per_stage; ++i)
        best = std::max(best, switchBusy[s * per_stage + i]);
    return best;
}

void
CombiningOmegaNetwork::sampleTimeline(TraceLog &t, Tick at) const
{
    for (unsigned s = 0; s < numStages; ++s) {
        t.push(TraceEvent::sample(
            SampleStream::netStageConflictCycles, s, at,
            static_cast<double>(conflictCycles_[s])));
        t.push(TraceEvent::sample(SampleStream::netStageCombines, s, at,
                                  static_cast<double>(combines_[s])));
    }
}

double
OmegaNetwork::utilization(Tick end_tick) const
{
    if (end_tick == 0 || portFreeAt.empty())
        return 0.0;
    double capacity =
        static_cast<double>(end_tick) * portFreeAt.size();
    return static_cast<double>(portBusy_) / capacity;
}

} // namespace sim
} // namespace psync
