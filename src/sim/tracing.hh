/**
 * @file
 * Cycle-level event trace.
 *
 * Simulator components (processors, buses, memory modules, the
 * synchronization fabrics, the machine's timeline sampler) report
 * what they are doing by pushing TraceEvents to an optional
 * TraceLog: per-processor phase intervals (the compute / spin /
 * sync-overhead / stall split the paper argues about), executed-op
 * spans, satisfied waits, sync-variable accesses, resource
 * occupancy, instants and timeline samples, all stamped with
 * simulator Ticks. Every event has the same 40-byte shape; its
 * `kind` says what the other fields mean.
 *
 * The log pointer is null by default and trace() guards on it, so
 * an untraced run pays one predicted-not-taken branch per event
 * site and records nothing. Recording never touches the event
 * queue, so a traced run produces statistics identical to an
 * untraced one. The reducers reading the log (core/blame,
 * core/profile, core/timeline) and the Chrome trace exporter
 * (core/tracing) live in core.
 */

#ifndef PSYNC_SIM_TRACING_HH
#define PSYNC_SIM_TRACING_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** What a processor was doing over an interval. */
enum class TracePhase : std::uint8_t
{
    /** Executing statement-body work. */
    compute,
    /** Busy-waiting on a synchronization variable. */
    spin,
    /** Issuing/finishing synchronization operations. */
    syncOverhead,
    /** Waiting for a data access (bus + module + cache). */
    stall,
    /** Fetching the next program from the scheduler. */
    dispatch,
};

/** Short printable phase name ("compute", "spin", ...). */
const char *tracePhaseName(TracePhase phase);

/** A sync-variable access a fabric performed. */
enum class SyncOp : std::uint8_t
{
    /** A waitGE call (satisfied or not). */
    wait,
    /** A memory or network poll of the variable. */
    poll,
    /** A write issued to the fabric. */
    write,
    /** A write absorbed into a pending broadcast. */
    coalesced,
    /** A committed broadcast of a written value. */
    broadcast,
    /** A fetch&increment. */
    rmw,
    /** A Cedar keyed access (key test + datum + increment). */
    keyed,
};

/** Short printable access name ("write", "rmw", ...). */
const char *syncOpName(SyncOp op);

/** Hardware resources that report busy intervals. */
enum class Resource : std::uint8_t
{
    /** A memory module; the event id is the module number. */
    module,
    /** A bus; the event id is the bus's trace id (TraceLog). */
    bus,
};

/** Point events on a processor's track. */
enum class Instant : std::uint8_t
{
    /** The processor ran out of work. */
    halt,
    /** A sync-bus broadcast completed. */
    syncBroadcast,
};

/** Short printable instant name ("halt", "sync_broadcast"). */
const char *instantName(Instant what);

/**
 * A fixed-interval timeline counter stream. The machine samples
 * every stream at each interval boundary (plus once before the run
 * and once at drain), so a timeline consumer can difference
 * cumulative streams and read instantaneous ones directly. A
 * sample's `id` selects the entity within a stream (bus trace id,
 * memory module, sync variable, processor, network stage); streams
 * describing a single global quantity use id 0.
 */
enum class SampleStream : std::uint8_t
{
    /** Cumulative busy cycles; id = bus trace id. */
    busBusyCycles,
    /** Queued + in-flight transactions now; id = bus trace id. */
    busQueueDepth,
    /** Cumulative serviced requests; id = memory module. */
    moduleAccesses,
    /** Requests queued at the module now; id = module. */
    moduleBacklog,
    /** Processors blocked on the variable now; id = sync var. */
    syncVarWaiters,
    /** Instantaneous ProcActivity code; id = processor. */
    procActivity,
    /** Cumulative events executed by the event core. */
    eventsExecuted,
    /** Events pending in the queue now. */
    pendingEvents,
    /** Occupied calendar-ring buckets now (0 on the heap core). */
    ringBuckets,
    /** Events parked in the far-future heap now. */
    farHeapEvents,
    /** Cumulative handler captures spilled to the heap. */
    heapFallbacks,
    /** Cumulative switch-conflict wait cycles; id = net stage. */
    netStageConflictCycles,
    /** Cumulative packets absorbed by combining; id = stage. */
    netStageCombines,
};

/** Short printable stream name ("bus_busy_cycles", ...). */
const char *sampleStreamName(SampleStream stream);

/**
 * True for streams whose samples are running totals (difference
 * consecutive samples to get a per-interval rate); false for
 * instantaneous state snapshots.
 */
bool sampleStreamCumulative(SampleStream stream);

/** True for streams indexed by an entity id rather than global. */
bool sampleStreamIndexed(SampleStream stream);

/**
 * What a processor is doing at one sampling instant. Unlike phase
 * intervals (which are emitted retroactively at op completion),
 * this is live state, so a processor blocked across many sampling
 * boundaries shows up in every one of them.
 */
enum class ProcActivity : std::uint8_t
{
    /** Fetching the next program from the scheduler. */
    dispatch,
    /** Executing statement-body work. */
    compute,
    /** Waiting for a data access. */
    stall,
    /** Issuing or finishing a synchronization operation. */
    sync,
    /** Busy-waiting on a synchronization variable. */
    spin,
    /** Blocked on a parked (non-polling) wait. */
    parked,
    /** Out of work. */
    halted,
};

/** Number of ProcActivity states (for state-mix tabulation). */
constexpr unsigned numProcActivities = 7;

/** Short printable activity name ("compute", "parked", ...). */
const char *procActivityName(ProcActivity activity);

/** Which fields of a TraceEvent mean what. */
enum class TraceKind : std::uint8_t
{
    /** `proc` spent [t0, t1) in phase `code` (TracePhase). */
    phase,
    /**
     * `proc` executed op `op` (stable IR id, 0 for hand-built
     * programs) of kind `code` (ir::OpKind) for iteration `iter`
     * over [t0, t1): issue through completion, wait included.
     * `id` is the op's sync variable (0 when it has none).
     */
    span,
    /**
     * `proc` was blocked on sync variable `id` over [t0, t1) by
     * op `op`: the wait began at t0 and the variable reached the
     * awaited threshold at t1. One event per satisfied wait that
     * actually blocked, emitted by the processor.
     */
    wait,
    /** `proc` performed access `code` (SyncOp) on var `id` at t0. */
    syncOp,
    /**
     * Resource `code` (Resource) number `id` was occupied over
     * [t0, t1) on behalf of `proc`.
     */
    busy,
    /** Instant `code` (Instant) on `proc`'s track at t0. */
    instant,
    /** Stream `code` (SampleStream) entity `id` had value() at t0. */
    sample,
};

/**
 * One trace event. A plain 40-byte record: the static constructors
 * below fill the fields each kind uses and zero the rest (point
 * events — sync ops, instants — end where they start).
 */
struct TraceEvent
{
    TraceKind kind;
    /** Kind-specific enum code (TracePhase, ir::OpKind, ...). */
    std::uint8_t code;
    ProcId proc;
    /** Sync variable, module, bus or sample entity. */
    std::uint32_t id;
    /** Stable IR op id (spans and waits). */
    std::uint32_t op;
    std::uint64_t iter;
    Tick t0;
    /** Interval end; a sample stores its value's bits here. */
    Tick t1;

    template <typename Code>
    Code
    codeAs() const
    {
        return static_cast<Code>(code);
    }

    Tick cycles() const { return t1 - t0; }

    /** A sample's value. */
    double value() const { return std::bit_cast<double>(t1); }

    static TraceEvent
    phase(ProcId who, TracePhase what, Tick start, Tick end)
    {
        return {TraceKind::phase, static_cast<std::uint8_t>(what),
                who, 0, 0, 0, start, end};
    }

    static TraceEvent
    span(ProcId who, std::uint64_t iter, std::uint32_t op_id,
         ir::OpKind kind, SyncVarId var, Tick start, Tick end)
    {
        return {TraceKind::span, static_cast<std::uint8_t>(kind),
                who, var, op_id, iter, start, end};
    }

    static TraceEvent
    wait(ProcId who, SyncVarId var, std::uint32_t op_id, Tick start,
         Tick end)
    {
        return {TraceKind::wait, 0, who, var, op_id, 0, start, end};
    }

    static TraceEvent
    syncOp(SyncOp op, SyncVarId var, ProcId who, Tick at)
    {
        return {TraceKind::syncOp, static_cast<std::uint8_t>(op),
                who, var, 0, 0, at, at};
    }

    static TraceEvent
    busy(Resource resource, std::uint32_t index, ProcId who,
           Tick start, Tick end)
    {
        return {TraceKind::busy, static_cast<std::uint8_t>(resource),
                who, index, 0, 0, start, end};
    }

    static TraceEvent
    instant(Instant what, ProcId who, Tick at)
    {
        return {TraceKind::instant, static_cast<std::uint8_t>(what),
                who, 0, 0, 0, at, at};
    }

    static TraceEvent
    sample(SampleStream stream, std::uint32_t index, Tick at,
             double value)
    {
        return {TraceKind::sample, static_cast<std::uint8_t>(stream),
                0, index, 0, 0, at, std::bit_cast<Tick>(value)};
    }
};

static_assert(sizeof(TraceEvent) == 40, "TraceEvent grew");

/**
 * One run's trace: TraceEvents in push order, stored in fixed-size
 * chunks (appending never moves or copies what is already
 * recorded), plus the names the event ids refer to — scheme labels
 * of sync variables and bus names.
 */
class TraceLog
{
  public:
    /** Append one event. */
    void
    push(const TraceEvent &e)
    {
        if (size_ == chunks_.size() * chunkEvents) {
            chunks_.push_back(
                std::make_unique_for_overwrite<TraceEvent[]>(
                    chunkEvents));
        }
        chunks_[size_ / chunkEvents][size_ % chunkEvents] = e;
        ++size_;
    }

    /** Visit every event in push order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < size_; ++i)
            f(chunks_[i / chunkEvents][i % chunkEvents]);
    }

    /**
     * Drop every event `pred` selects, keeping the rest in push
     * order, and release the chunks that empties.
     */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < size_; ++i) {
            const TraceEvent &e = chunks_[i / chunkEvents]
                                         [i % chunkEvents];
            if (!pred(e)) {
                chunks_[kept / chunkEvents][kept % chunkEvents] = e;
                ++kept;
            }
        }
        size_ = kept;
        chunks_.resize((kept + chunkEvents - 1) / chunkEvents);
    }

    std::size_t size() const { return size_; }

    /** Drop all events and names (reuse across runs). */
    void clear();

    /**
     * Label a synchronization variable (the schemes call this at
     * plan time: "pc[3]", "key[17]").
     */
    void nameSyncVar(SyncVarId var, std::string label);

    /** The variable's label, or "" when it has none. */
    const std::string &syncVarLabel(SyncVarId var) const;

    /**
     * Name the bus whose busy events and samples carry trace id
     * `id` (0 data bus, 1 sync or global bus, 2 + c cluster bus c).
     */
    void nameBus(std::uint32_t id, std::string name);

    /** The bus's name, or "bus<id>" when it was never named. */
    std::string busName(std::uint32_t id) const;

  private:
    static constexpr std::size_t chunkEvents = 1 << 14;

    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
    std::size_t size_ = 0;
    std::unordered_map<SyncVarId, std::string> varLabels_;
    std::vector<std::string> busNames_;
};

/** The one event-site entry point: record `e` if a log is attached. */
inline void
trace(TraceLog *log, const TraceEvent &e)
{
    if (log)
        log->push(e);
}

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_TRACING_HH
