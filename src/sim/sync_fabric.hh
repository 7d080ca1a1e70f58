/**
 * @file
 * Synchronization-variable fabrics.
 *
 * The paper's section 6 argues that process counters can live either
 * in the coherent shared memory (where busy-wait polling consumes
 * data-bus and memory-module bandwidth) or in dedicated
 * synchronization registers with per-processor local images updated
 * over a broadcast synchronization bus (the Alliant FX/8
 * concurrency-control-bus style), where polling is local and free
 * and only updates are broadcast — with write coalescing collapsing
 * back-to-back updates to the same variable before they win bus
 * arbitration.
 *
 * Both organizations are modeled behind one interface so every
 * scheme can run on either fabric.
 */

#ifndef PSYNC_SIM_SYNC_FABRIC_HH
#define PSYNC_SIM_SYNC_FABRIC_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/bus.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/ring_fifo.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"
#include "sim/waiter_queue.hh"

namespace psync {
namespace sim {

/** Where synchronization variables physically live. */
enum class FabricKind
{
    /** Variables in shared memory; polls are memory transactions. */
    memory,
    /** Dedicated registers with broadcast local images. */
    registers,
    /**
     * Variables in memory modules behind a combining omega network
     * that merges matching fetch&add (and poll) packets at switch
     * nodes — the NYU Ultracomputer hot-spot fix. See
     * CombiningSyncFabric (sim/combining_fabric.hh).
     */
    combining,
    /**
     * Two-level cluster fabric: per-cluster register images on
     * local buses plus a global serialization stage, SynCron-style.
     * See HierarchicalSyncFabric (sim/cluster_fabric.hh).
     */
    hierarchical,
};

/** Convert a fabric kind to a short printable name. */
const char *fabricKindName(FabricKind kind);

/**
 * Abstract home of synchronization variables.
 *
 * All runtime operations are asynchronous: completion is delivered
 * through callbacks scheduled on the event queue, and busy-waiting
 * is reported as the number of cycles between the start of a wait
 * and its satisfaction so the processor model can account spin time.
 */
class SyncFabric
{
  public:
    using WaitHandler = InlineFunction<void(Tick waited_cycles)>;
    using DoneHandler = InlineFunction<void()>;
    using ValueHandler = InlineFunction<void(SyncWord value)>;

    virtual ~SyncFabric() = default;

    /** Fabric flavor, for reporting. */
    virtual FabricKind kind() const = 0;

    /**
     * Allocate `count` variables initialized to `init_value`.
     * Setup-time operation; the *simulated* cost of initialization
     * is modeled by the schemes (it is one of the paper's axes).
     * @return the id of the first variable of the block.
     */
    virtual SyncVarId allocate(unsigned count, SyncWord init_value) = 0;

    /** Number of variables allocated so far. */
    virtual unsigned allocated() const = 0;

    /**
     * Spin until value(var) >= threshold. PC words compare with
     * their packed lexicographic order (see PcWord); plain counters
     * compare numerically — both are the same u64 comparison.
     */
    virtual void waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                        WaitHandler on_done) = 0;

    /** Read the current value (local image where one exists). */
    virtual void read(ProcId who, SyncVarId var,
                      ValueHandler on_done) = 0;

    /**
     * Update a variable. On the register fabric the write is
     * *posted*: the issuing processor continues after `issueCost`
     * cycles while the broadcast proceeds asynchronously. On the
     * memory fabric the writer blocks until the word is globally
     * visible, per correctness requirement (1) of section 2.2.
     */
    virtual void write(ProcId who, SyncVarId var, SyncWord value,
                       DoneHandler on_done) = 0;

    /** Atomic increment, returning the pre-increment value. */
    virtual void fetchInc(ProcId who, SyncVarId var,
                          ValueHandler on_done) = 0;

    /** Instantaneous, non-simulated value inspection (tests). */
    virtual SyncWord peek(SyncVarId var) const = 0;

    /** Instantaneous, non-simulated value override (setup). */
    virtual void poke(SyncVarId var, SyncWord value) = 0;

    /** Processor-side cycles to issue one fabric operation. */
    virtual Tick issueCost() const = 0;

    /**
     * Emit per-variable timeline samples (blocked-waiter counts) to
     * `t` at tick `at`. Only variables with at least one blocked
     * waiter are reported, so a missing sample means zero. Default
     * reports nothing.
     */
    virtual void
    sampleTimeline(TraceLog &t, Tick at) const
    {
        (void)t; (void)at;
    }

    /**
     * True if `who` is blocked on a parked (non-polling) wait right
     * now — a cached-spin waiter waiting for an invalidation, or a
     * keyed request parked at its module. Register-fabric waiters
     * spin on free local images and are never parked. Maintained
     * only while a tracer is attached (timeline sampling).
     */
    virtual bool
    isParked(ProcId who) const
    {
        (void)who;
        return false;
    }
};

/**
 * Synchronization variables held in shared memory words.
 *
 * Every poll of a busy-wait loop is a full data-bus + memory-module
 * round trip, repeated every `pollIntervalCycles`. This is the
 * organization the paper attributes to data-oriented schemes (keys
 * stored with their data) and to software-only implementations.
 */
class MemorySyncFabric : public SyncFabric
{
  public:
    /**
     * @param eq     event queue
     * @param mem    backing memory (shared with data accesses)
     * @param base   first byte address used for sync words
     * @param poll_interval cycles between successive spin polls
     * @param cached_spin spin on a coherent cache copy: after a
     *        failed poll the waiter parks and re-fetches only when
     *        the word is written (invalidation), instead of
     *        re-polling memory every interval. Models
     *        test&test&set-style spinning; the re-fetch burst when
     *        a hot word is released still queues at its module.
     */
    MemorySyncFabric(EventQueue &eq, Memory &mem, Addr base,
                     Tick poll_interval, bool cached_spin = true,
                     TraceLog *tracer = nullptr);

    FabricKind kind() const override { return FabricKind::memory; }

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

    /** Total spin polls issued to memory. */
    std::uint64_t polls() const { return polls_; }

    /**
     * Cedar-style combined keyed access (the "synchronization
     * processor in each global memory module" of [26], section
     * 3.1): one interconnect transaction carries the key test, the
     * data access and the key increment to the module where key
     * and datum both live. If key < threshold the request parks
     * *at the module* — no retry traffic — and is re-serviced
     * (module-locally) whenever the key changes.
     */
    void keyedAccess(ProcId who, SyncVarId key, SyncWord threshold,
                     WaitHandler on_done);

    /** Combined keyed accesses serviced. */
    std::uint64_t keyedOps() const { return keyedOps_; }

    /** Module-local retries of parked keyed requests. */
    std::uint64_t keyedRetries() const { return keyedRetries_; }

    void sampleTimeline(TraceLog &t, Tick at) const override;
    bool isParked(ProcId who) const override;

  private:
    /**
     * One in-flight fabric operation (spin wait, keyed access,
     * write or fetch&inc completion), parked in a free-listed slab
     * so every event and memory callback captures only {this, slot}
     * — the user's completion handler rests here, never nested
     * inside another closure.
     */
    struct OpState
    {
        ProcId who = 0;
        SyncVarId var = 0;
        SyncWord threshold = 0;
        Tick started = 0;
        /** FIFO ordering among waiters parked on the same var. */
        std::uint64_t parkSeq = 0;
        WaitHandler onWait;
        DoneHandler onDone;
        ValueHandler onValue;
        std::uint32_t next = noOp;
    };

    static constexpr std::uint32_t noOp = ~0u;

    std::uint32_t allocOp();
    void freeOp(std::uint32_t slot);

    Addr addrOf(SyncVarId var) const;
    /** Issue the next memory poll of the wait parked in `slot`. */
    void pollLoop(std::uint32_t slot);
    /** A poll returned `value`; satisfy, park or re-poll. */
    void pollValue(std::uint32_t slot, SyncWord value);
    /** Wake parked cached-spin waiters of `var` to re-fetch. */
    void invalidate(SyncVarId var);
    /** Module-side key test + access + increment. */
    void keyedService(std::uint32_t slot);
    /** Re-test keyed requests parked on `key`. */
    void wakeKeyed(SyncVarId key);
    void writeDone(std::uint32_t slot);
    void fetchIncDone(std::uint32_t slot, SyncWord old_value);

    EventQueue &eventq;
    Memory &memory;
    Addr baseAddr;
    Tick pollInterval;
    bool cachedSpin;
    TraceLog *tracer;
    unsigned numVars = 0;

    std::vector<OpState> ops;
    std::uint32_t freeOps = noOp;
    std::uint64_t nextParkSeq = 0;

    /** Count a wait (poll loop or keyed) becoming blocked on var. */
    void trackWaitStart(SyncVarId var);
    /** A blocked wait on `var` was satisfied. */
    void trackWaitEnd(SyncVarId var);
    /** `who` parked (cached-spin or keyed) / resumed polling. */
    void trackPark(ProcId who);
    void trackUnpark(ProcId who);

    /** Parked waiter slots per variable, FIFO by parkSeq. */
    std::unordered_map<SyncVarId, std::vector<std::uint32_t>> parked;
    std::unordered_map<SyncVarId, std::vector<std::uint32_t>>
        parkedKeyed;

    /**
     * Timeline-sampling shadow state, maintained only while a
     * tracer is attached: blocked waiters per variable and the set
     * of processors currently parked (as opposed to polling).
     */
    std::unordered_map<SyncVarId, unsigned> activeWaiters;
    std::unordered_set<ProcId> parkedProcs;

    std::uint64_t polls_ = 0;
    std::uint64_t keyedOps_ = 0;
    std::uint64_t keyedRetries_ = 0;
};

/**
 * Dedicated synchronization registers with broadcast images.
 *
 * Reads and spin polls hit the processor-local image at no bus
 * cost. Writes arbitrate for the synchronization bus and are
 * broadcast to all images in one bus transaction. A write that is
 * still waiting for the bus when the same processor writes the same
 * variable again is overwritten in place (coalesced), because each
 * later write covers all previous ones — the optimization section 6
 * describes.
 */
class RegisterSyncFabric : public SyncFabric
{
  public:
    /**
     * @param eq        event queue
     * @param sync_bus  dedicated broadcast bus
     * @param capacity  number of hardware registers available
     * @param coalesce  enable pending-write coalescing
     */
    RegisterSyncFabric(EventQueue &eq, Bus &sync_bus, unsigned capacity,
                       bool coalesce = true, TraceLog *tracer = nullptr);

    FabricKind kind() const override { return FabricKind::registers; }

    SyncVarId allocate(unsigned count, SyncWord init_value) override;
    unsigned allocated() const override { return numVars; }
    unsigned capacity() const { return capacity_; }

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

    /** Broadcast transactions that actually used the bus. */
    std::uint64_t broadcasts() const { return broadcasts_; }

    /** Writes absorbed into a pending broadcast. */
    std::uint64_t coalescedWrites() const { return coalesced_; }

    void sampleTimeline(TraceLog &t, Tick at) const override;

  private:
    /** A processor spinning on its local image of a variable. */
    struct Waiter
    {
        ProcId who = 0;
        Tick started = 0;
        WaitHandler onDone;
    };

    struct PendingWrite
    {
        SyncWord value;
        /** Value captured when the broadcast won the bus. */
        SyncWord latched = 0;
        bool valid = false;
    };

    /**
     * A completion ready to run after the posted-op delay. Wake,
     * local-read and posted-write-done events all capture only
     * {this}; the fat handler waits here. The queue is FIFO and
     * every push pairs with one scheduled event, so pops line up
     * with event order deterministically.
     */
    struct ReadyOp
    {
        enum class Kind : std::uint8_t
        {
            wake,
            readValue,
            writeDone,
        };

        Kind kind = Kind::wake;
        Tick waited = 0;
        SyncWord value = 0;
        WaitHandler onWait;
        ValueHandler onValue;
        DoneHandler onDone;
    };

    void commit(SyncVarId var, SyncWord value);
    /** Run the oldest queued completion (one per scheduled event). */
    void runReady();

    EventQueue &eventq;
    Bus &syncBus;
    unsigned capacity_;
    bool coalesceEnabled;
    TraceLog *tracer;
    unsigned numVars = 0;

    std::vector<SyncWord> values;
    std::vector<WaiterQueue<Waiter>> waiters;
    /**
     * Blocked waiters per variable, maintained only while a tracer
     * is attached (timeline sampling): a sparse mirror of the
     * non-empty `waiters` queues, so a sample never scans the full
     * register file.
     */
    std::unordered_map<SyncVarId, unsigned> activeWaiters;
    /** Pending (not yet granted) write per (proc, var). */
    std::unordered_map<std::uint64_t, PendingWrite> pendingWrites;
    RingFifo<ReadyOp> readyOps;
    /** Fetch&inc completions, FIFO — the bus grants in FIFO order. */
    RingFifo<ValueHandler> pendingIncs;

    std::uint64_t broadcasts_ = 0;
    std::uint64_t coalesced_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_SYNC_FABRIC_HH
