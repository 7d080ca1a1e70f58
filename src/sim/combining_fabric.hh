/**
 * @file
 * Memory-resident synchronization fabric behind a combining omega
 * network.
 *
 * The NYU Ultracomputer answer to the hot-spot problem (section 6 of
 * the paper measures the problem; the in-network-computing lineage
 * supplies the fix): synchronization words live in interleaved sync
 * modules reached through a log-depth network whose switches merge
 * matching fetch&add packets on the forward pass and decombine the
 * replies on the way back. Concurrent increments (and polls) of one
 * hot counter collapse into a single module operation per combining
 * tree, so the module stops serializing P requests per release.
 *
 * Model shape: the network and the module reservation horizons are
 * both advanced synchronously at injection, in event order, so every
 * operation learns its completion tick (or its combining-tree root)
 * immediately and schedules exactly one event. Variable values are
 * applied at injection time in the same order, which keeps fetch&add
 * pre-values deterministic and makes combining purely a *timing*
 * relief — exactly the quantity the scale scenarios measure.
 * Unsatisfied waits park module-side (the wait-in-memory queue of a
 * combining switch design) and are released by the operation that
 * raises the word, completing one network-return after its module
 * service; the return fan-out is not itself a contention point.
 */

#ifndef PSYNC_SIM_COMBINING_FABRIC_HH
#define PSYNC_SIM_COMBINING_FABRIC_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/omega_network.hh"
#include "sim/sync_fabric.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"
#include "sim/waiter_queue.hh"

namespace psync {
namespace sim {

/** Sync variables in modules behind a combining omega network. */
class CombiningSyncFabric : public SyncFabric
{
  public:
    /**
     * @param eq             event queue
     * @param num_ports      injection ports (= processors)
     * @param num_modules    interleaved sync modules
     * @param stage_cycles   network latency per switch stage
     * @param port_cycles    min cycles between injections per port
     * @param service_cycles module service time per operation
     */
    CombiningSyncFabric(EventQueue &eq, unsigned num_ports,
                        unsigned num_modules, Tick stage_cycles,
                        Tick port_cycles, Tick service_cycles,
                        TraceLog *tracer = nullptr);

    FabricKind kind() const override { return FabricKind::combining; }

    SyncVarId allocate(unsigned count, SyncWord init_value) override;
    unsigned allocated() const override { return numVars; }

    void waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                WaitHandler on_done) override;
    void read(ProcId who, SyncVarId var, ValueHandler on_done) override;
    void write(ProcId who, SyncVarId var, SyncWord value,
               DoneHandler on_done) override;
    void fetchInc(ProcId who, SyncVarId var,
                  ValueHandler on_done) override;

    SyncWord peek(SyncVarId var) const override;
    void poke(SyncVarId var, SyncWord value) override;

    Tick issueCost() const override { return 1; }

    /** The sync-side combining network (per-stage counters). */
    const CombiningOmegaNetwork &net() const { return network; }

    /** Module an allocated variable interleaves to. */
    unsigned moduleOf(SyncVarId var) const { return var % numModules_; }

    /** Operations serviced at module `m` (combined trees count 1). */
    std::uint64_t moduleOps(unsigned m) const { return moduleOps_[m]; }

    /** Busiest module's share relative to uniform (1.0 = uniform). */
    double hotSpotRatio() const;

    /** Waits that parked module-side at least once. */
    std::uint64_t parkedWaits() const { return parkedWaits_; }

    /** Cycles operations waited for a busy sync module. */
    Tick moduleQueueDelay() const { return moduleDelay_; }

    void sampleTimeline(TraceLog &t, Tick at) const override;
    bool isParked(ProcId who) const override;

  private:
    /**
     * One in-flight operation parked in a free-listed slab so its
     * single completion event captures only {this, slot}. The slot
     * index doubles as the network packet id, so a combining child
     * can look its tree root up directly.
     */
    struct OpState
    {
        enum class Kind : std::uint8_t
        {
            read,
            write,
            rmw,
            poll,
        };

        Kind kind = Kind::read;
        ProcId who = 0;
        SyncVarId var = 0;
        SyncWord value = 0;
        Tick started = 0;
        /** Completion tick, known at injection. */
        Tick completion = 0;
        /** Ultimate root of the combining tree (self when root). */
        std::uint32_t rootSlot = 0;
        WaitHandler onWait;
        DoneHandler onDone;
        ValueHandler onValue;
        std::uint32_t next = noOp;
    };

    static constexpr std::uint32_t noOp = ~0u;

    std::uint32_t allocOp();
    void freeOp(std::uint32_t slot);
    void fireOp(std::uint32_t slot);

    /**
     * Route one packet and reserve its module service; fills
     * `completion` and `rootSlot` of ops[slot]. Returns true when
     * the packet combined (no module visit).
     */
    bool route(std::uint32_t slot, CombineClass cls);

    /** `var` was raised to `value` by an op completing at `done`. */
    void release(SyncVarId var, SyncWord value, Tick done);

    EventQueue &eventq;
    unsigned numModules_;
    Tick serviceCycles;
    TraceLog *tracer;
    CombiningOmegaNetwork network;
    unsigned numVars = 0;

    std::vector<SyncWord> values;
    std::vector<Tick> moduleFreeAt;
    std::vector<OpState> ops;
    std::uint32_t freeOps = noOp;

    /**
     * Parked poll slots per variable, keyed on their thresholds. A
     * parked poll keeps its slab slot (it anchors the wait handler
     * and any combining references to its packet id) until
     * release() wakes it.
     */
    std::vector<WaiterQueue<std::uint32_t>> parked;
    /**
     * Parked waiters per variable, maintained only while a tracer
     * is attached (timeline sampling), so a sample visits only the
     * variables that have waiters.
     */
    std::unordered_map<SyncVarId, unsigned> activeWaiters;
    /** Processors currently parked (timeline sampling). */
    std::unordered_set<ProcId> parkedProcs;

    std::uint64_t parkedWaits_ = 0;
    Tick moduleDelay_ = 0;
    std::vector<std::uint64_t> moduleOps_;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_COMBINING_FABRIC_HH
