#include "sim/bus.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

Bus::Bus(EventQueue &eq, std::string bus_name, Tick cycles_per_txn,
         TraceLog *trace_log, std::uint32_t trace_id)
    : eventq(eq),
      name_(std::move(bus_name)),
      cyclesPerTxn(cycles_per_txn),
      tracer(trace_log),
      traceId(trace_id)
{
    if (tracer)
        tracer->nameBus(traceId, name_);
}

void
Bus::transact(ProcId who, GrantHandler on_done)
{
    transact(who, GrantHandler{}, std::move(on_done));
}

void
Bus::transact(ProcId who, GrantHandler on_grant, GrantHandler on_done)
{
    pending.push(Request{who, eventq.now(), std::move(on_grant),
                         std::move(on_done)});
    maxQueue_ = std::max<std::uint64_t>(maxQueue_, pending.size());
    if (!granting)
        grantNext();
}

void
Bus::grantNext()
{
    if (pending.empty()) {
        granting = false;
        return;
    }
    granting = true;

    Request req = pending.pop();

    Tick grant = std::max(eventq.now(), freeAt);
    Tick done = grant + cyclesPerTxn;
    freeAt = done;

    ++transactions_;
    busyCycles_ += cyclesPerTxn;
    queueDelay_ += grant - req.issued;

    PSYNC_DPRINTF(eventq, Bus,
                  "%s grant proc %u (queued %llu cycles)",
                  name_.c_str(), req.who,
                  static_cast<unsigned long long>(grant - req.issued));
    trace(tracer, TraceEvent::busy(Resource::bus, traceId, req.who, grant,
                                   done));

    // grant == now() here: arbitration happens either immediately
    // on request or right as the previous transaction completes.
    if (req.onGrant)
        req.onGrant(grant);

    inflightDone = std::move(req.onDone);
    inflightGrant = grant;
    eventq.schedule(done, [this]() {
        GrantHandler handler = std::move(inflightDone);
        Tick granted = inflightGrant;
        handler(granted);
        grantNext();
    });
}

void
Bus::sampleTimeline(TraceLog &t, Tick at) const
{
    // busyCycles_ books a transaction's full occupancy at grant
    // time; back out the not-yet-elapsed tail of an in-flight
    // transaction so consecutive samples difference to the busy
    // cycles actually inside the interval.
    Tick busy = busyCycles_;
    if (granting && freeAt > at)
        busy -= std::min(busy, freeAt - at);
    t.push(TraceEvent::sample(SampleStream::busBusyCycles, traceId, at,
                              static_cast<double>(busy)));
    t.push(TraceEvent::sample(
        SampleStream::busQueueDepth, traceId, at,
        static_cast<double>(pending.size() + (granting ? 1 : 0))));
}

double
Bus::utilization(Tick end_tick) const
{
    if (end_tick == 0)
        return 0.0;
    return static_cast<double>(busyCycles_) / static_cast<double>(end_tick);
}

} // namespace sim
} // namespace psync
