/**
 * @file
 * Multistage (Omega-class) interconnection network.
 *
 * The large-scale machines the paper associates with data-oriented
 * schemes — Cedar, the RP3, the NYU Ultracomputer — connect
 * processors to memory through log-depth switching networks: no
 * global arbitration, one injection port per processor, pipelined
 * stages. The model here captures exactly the properties that
 * matter for the synchronization comparison:
 *
 *  - per-processor injection ports (bandwidth scales with P),
 *  - log2(max(P, M)) switch stages of fixed latency each,
 *  - injection-port serialization (one flit per port per
 *    `portCycles`),
 *
 * while memory-module contention is still modeled by Memory. Blocking
 * conflicts inside the switch fabric are *not* modeled; this makes
 * the network optimistic, which only strengthens any result where
 * the bus-based configuration still wins.
 */

#ifndef PSYNC_SIM_OMEGA_NETWORK_HH
#define PSYNC_SIM_OMEGA_NETWORK_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/interconnect.hh"
#include "sim/tracing.hh"

namespace psync {
namespace sim {

/** Log-depth network with per-processor injection ports. */
class OmegaNetwork : public Interconnect
{
  public:
    /**
     * @param eq          event queue
     * @param num_ports   injection ports (= processors)
     * @param num_stages  switch stages (log2 of endpoints)
     * @param stage_cycles latency per stage
     * @param port_cycles  min cycles between injections per port
     */
    OmegaNetwork(EventQueue &eq, unsigned num_ports,
                 unsigned num_stages, Tick stage_cycles,
                 Tick port_cycles = 1);

    void transact(ProcId who, GrantHandler on_done) override;
    void transact(ProcId who, GrantHandler on_grant,
                  GrantHandler on_done) override;

    std::uint64_t transactions() const override { return transactions_; }

    Tick queueDelay() const override { return queueDelay_; }

    /** Aggregate utilization across all injection ports. */
    double utilization(Tick end_tick) const override;

    unsigned stages() const { return numStages; }
    Tick traversalCycles() const { return numStages * stageCycles; }

  private:
    /**
     * An in-flight callback parked in the slab so its delivery
     * event captures only {this, slot}. Unlike the bus, many
     * transactions traverse the network at once.
     */
    struct Flight
    {
        GrantHandler handler;
        Tick inject = 0;
        std::uint32_t next = noFlight;
    };

    static constexpr std::uint32_t noFlight = ~0u;

    std::uint32_t parkFlight(GrantHandler handler, Tick inject);
    void fireFlight(std::uint32_t slot);

    EventQueue &eventq;
    unsigned numStages;
    Tick stageCycles;
    Tick portCycles;
    std::vector<Tick> portFreeAt;
    std::vector<Flight> flights;
    std::uint32_t freeFlight = noFlight;

    std::uint64_t transactions_ = 0;
    Tick queueDelay_ = 0;
    /** Injection-port cycles used, all ports. */
    Tick portBusy_ = 0;
};

/** Combining class of a packet traversing the combining network. */
enum class CombineClass : std::uint8_t
{
    /** Never combined (plain writes). */
    none,
    /** Same-variable reads/polls merge (one fetch, fanned out). */
    read,
    /** Same-variable fetch&adds merge (adds sum on the way up). */
    fetchAdd,
};

/**
 * Omega network with blocking 2x2 switches and in-network combining
 * of matching packets — the NYU Ultracomputer / RP3 design that
 * relieves the hot-spot the optimistic OmegaNetwork above does not
 * model.
 *
 * Unlike OmegaNetwork (whose contract with existing scenarios pins
 * it bit-identical), this model reserves every switch a packet
 * crosses: a packet arriving at a busy switch waits (the per-stage
 * conflict counters), and a combinable packet arriving while a
 * same-variable packet is still queued in the switch merges into it
 * and travels no further (the per-stage combine counters). The whole
 * traversal is computed at injection time from per-switch
 * reservation horizons, so the caller learns the delivery tick (or
 * the combine tree root) synchronously and schedules exactly one
 * completion event per packet — deterministic and event-cheap at
 * P = 1024.
 *
 * The network carries timing and combining structure only; variable
 * semantics (value application, decombined pre-value distribution)
 * stay with the owning fabric (CombiningSyncFabric).
 */
class CombiningOmegaNetwork
{
  public:
    /**
     * @param num_ports    injection ports (= processors)
     * @param num_endpoints memory-side endpoints (sync modules)
     * @param stage_cycles latency per switch stage
     * @param port_cycles  min cycles between injections per port
     */
    CombiningOmegaNetwork(unsigned num_ports, unsigned num_endpoints,
                          Tick stage_cycles, Tick port_cycles = 1);

    /** Outcome of routing one packet, computed at injection. */
    struct Delivery
    {
        /** Absorbed into an in-flight same-variable packet. */
        bool combined = false;
        /** Packet id it merged with (valid when combined). */
        std::uint64_t mergedWith = 0;
        /** Stage index of the merge (valid when combined). */
        unsigned stage = 0;
        /** Arrival tick at the endpoint (valid when !combined). */
        Tick arrive = 0;
    };

    /**
     * Route packet `packet_id` from port `who` to endpoint `dest`,
     * reserving switch occupancy along the way. Pure state update —
     * no events are scheduled; the caller owns completion timing.
     * `var` identifies the combinable quantity; packets only merge
     * with packets of the same (var, cls). `now` must never decrease
     * from one call to the next (it is the event queue's time).
     */
    Delivery inject(ProcId who, unsigned dest, SyncVarId var,
                    CombineClass cls, std::uint64_t packet_id,
                    Tick now);

    /**
     * Extend packet `packet_id`'s wait-buffer residency along its
     * path until `until`. A combining switch holds the entry it
     * recorded at forward time until the reply passes back through
     * it to be decombined, so later same-(var, cls) packets merge
     * during the whole module round trip — without this the
     * combining window is one stage crossing, and staggered
     * arrivals never meet. The owning fabric calls this once it
     * knows the packet's completion tick.
     */
    void holdResidents(ProcId who, unsigned dest, SyncVarId var,
                       CombineClass cls, std::uint64_t packet_id,
                       Tick until);

    unsigned stages() const { return numStages; }
    Tick stageLatency() const { return stageCycles; }

    /** Cycles a reply spends traversing back to its processor. */
    Tick returnCycles() const { return numStages * stageCycles; }

    std::uint64_t transactions() const { return transactions_; }

    /** Packets absorbed by combining, all stages. */
    std::uint64_t combinedTotal() const;

    std::uint64_t stageConflicts(unsigned s) const { return conflicts_[s]; }

    Tick stageConflictCycles(unsigned s) const { return conflictCycles_[s]; }

    std::uint64_t stageCombines(unsigned s) const { return combines_[s]; }

    /** Busy cycles of the single busiest switch of stage `s`. */
    Tick busiestSwitchCycles(unsigned s) const;

    /** Total busy cycles of stage `s` across all its switches. */
    Tick stageBusyCycles(unsigned s) const { return stageBusy_[s]; }

    unsigned switchesPerStage() const
    {
        return (1u << endpointBits) / 2;
    }

    /** Port queueing + switch-conflict wait cycles, total. */
    Tick queueDelay() const { return queueDelay_; }

    /** Emit per-stage conflict/combine samples to `t` at `at`. */
    void sampleTimeline(TraceLog &t, Tick at) const;

  private:
    /**
     * Most recent combinable packet of one (var, cls) routed through
     * a switch: a later same-(var, cls) packet arriving before
     * `departAt` is still queued alongside it and merges.
     */
    struct Resident
    {
        SyncVarId var = 0;
        CombineClass cls = CombineClass::none;
        std::uint64_t packet = 0;
        Tick departAt = 0;
    };

    unsigned switchAt(ProcId who, unsigned dest, unsigned stage) const;

    unsigned numStages;
    unsigned endpointBits;
    Tick stageCycles;
    Tick portCycles;
    std::vector<Tick> portFreeAt;
    /** Reservation horizon per switch, stage-major. */
    std::vector<Tick> switchFreeAt;
    /** Busy cycles per switch, stage-major (heatmap source). */
    std::vector<Tick> switchBusy;
    /**
     * Wait-buffer residents per switch, stage-major, at most one per
     * (var, cls). A probe at time `now` drops the switch's residents
     * with departAt <= now: every later packet reaches the switch at
     * or after `now`, so they can never merge again.
     */
    std::vector<std::vector<Resident>> residents;

    std::uint64_t transactions_ = 0;
    Tick queueDelay_ = 0;
    /** Per-stage counters, indexed by stage. */
    std::vector<std::uint64_t> conflicts_;
    std::vector<Tick> conflictCycles_;
    std::vector<std::uint64_t> combines_;
    std::vector<Tick> stageBusy_;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_OMEGA_NETWORK_HH
