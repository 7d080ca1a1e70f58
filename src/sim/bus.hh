/**
 * @file
 * A FIFO-arbitrated shared bus.
 *
 * Both the main data bus and the dedicated synchronization bus of
 * section 6 are instances of this model: requesters queue, each
 * granted transaction occupies the bus for a fixed number of
 * cycles, and occupancy/queue-delay statistics are collected so the
 * benches can report traffic the way the paper argues about it.
 */

#ifndef PSYNC_SIM_BUS_HH
#define PSYNC_SIM_BUS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.hh"
#include "sim/interconnect.hh"
#include "sim/ring_fifo.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** A single shared bus with FIFO arbitration. */
class Bus : public Interconnect
{
  public:
    /**
     * @param eq            event queue driving the simulation
     * @param bus_name      name used in trace and debug output
     * @param cycles_per_txn bus occupancy of one transaction
     * @param tracer        optional trace log (may be null)
     * @param trace_id      id of this bus's busy events and timeline
     *                      samples: 0 data bus, 1 sync or global
     *                      bus, 2 + c cluster bus c
     */
    Bus(EventQueue &eq, std::string bus_name, Tick cycles_per_txn,
        TraceLog *tracer = nullptr, std::uint32_t trace_id = 0);

    /**
     * Queue a transaction. `on_done` runs when the transaction has
     * finished driving the bus.
     */
    void transact(ProcId who, GrantHandler on_done) override;

    /**
     * Queue a transaction with a grant-time hook: `on_grant` runs
     * the moment the transaction wins arbitration and starts
     * driving the bus (used for write coalescing, which is only
     * legal before the bus is gained — section 6), `on_done` when
     * it finishes.
     */
    void transact(ProcId who, GrantHandler on_grant,
                  GrantHandler on_done) override;

    /** Number of completed transactions. */
    std::uint64_t transactions() const override { return transactions_; }

    /** Total cycles the bus was busy. */
    Tick busyCycles() const { return busyCycles_; }

    /** Total cycles transactions spent waiting for a grant. */
    Tick queueDelay() const override { return queueDelay_; }

    /** Largest queue depth observed. */
    std::uint64_t maxQueueDepth() const { return maxQueue_; }

    /** Fraction of time busy over [0, end_tick]. */
    double utilization(Tick end_tick) const override;

    /**
     * Record one timeline sample pair (cumulative busy cycles,
     * instantaneous queue depth) under this bus's trace id.
     */
    void sampleTimeline(TraceLog &t, Tick at) const;

    const std::string &name() const { return name_; }

  private:
    struct Request
    {
        ProcId who;
        Tick issued;
        GrantHandler onGrant;
        GrantHandler onDone;
    };

    void grantNext();

    EventQueue &eventq;
    std::string name_;
    Tick cyclesPerTxn;
    TraceLog *tracer;
    std::uint32_t traceId;
    Tick freeAt = 0;
    bool granting = false;
    RingFifo<Request> pending;
    /**
     * The granted transaction's completion callback. At most one
     * transaction drives the bus at a time (`granting`), so its
     * done event only needs to capture `this` — keeping the event
     * inside the queue's inline handler storage.
     */
    GrantHandler inflightDone;
    Tick inflightGrant = 0;

    std::uint64_t transactions_ = 0;
    Tick busyCycles_ = 0;
    Tick queueDelay_ = 0;
    std::uint64_t maxQueue_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_BUS_HH
