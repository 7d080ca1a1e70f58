/**
 * @file
 * In-order processor model.
 *
 * A processor repeatedly fetches an iteration from the runtime's
 * scheduler and interprets its ops, building each from the
 * iteration's class body as it reaches it (ir::Iteration::op). One
 * memory or synchronization operation is outstanding at a time (the
 * machines the paper targets are simple in-order designs), held here
 * while in flight. A sync op is a walk of ir::perform
 * (ir/semantics.hh) whose continuations are the fabric's completion
 * handlers; what stays here is pricing: cycles split into compute,
 * busy-wait (spin), synchronization overhead, and data-access stall,
 * which are the quantities the paper's arguments are about.
 */

#ifndef PSYNC_SIM_PROCESSOR_HH
#define PSYNC_SIM_PROCESSOR_HH

#include <cstdint>
#include <functional>
#include <string>

#include "ir/pool.hh"
#include "ir/semantics.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/program.hh"
#include "sim/sync_fabric.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** One simulated processor. */
class Processor
{
  public:
    /**
     * Scheduler hook: the processor asks for its next iteration and
     * receives it (or nullptr when the work is exhausted) through
     * the callback, possibly after simulated dispatch latency. The
     * processor copies the iteration; the pool it points into must
     * outlive the run.
     */
    using Dispatch =
        std::function<void(ProcId,
                           std::function<void(const ir::Iteration *)>)>;

    Processor(EventQueue &eq, ProcId id, SyncFabric &fabric,
              CacheSystem &caches, TraceSink *sink,
              TraceLog *tracer = nullptr);

    /** Begin the fetch-execute loop. */
    void start(Dispatch dispatch);

    ProcId id() const { return id_; }

    /** Tick at which this processor ran out of work. */
    Tick haltTick() const { return haltTick_; }

    /** True once the processor has drained all its work. */
    bool halted() const { return halted_; }

    /**
     * What this processor is doing right now. Live state for the
     * timeline sampler, maintained only while a tracer is attached
     * (always `dispatch` otherwise); the machine refines `spin`
     * into `parked` by asking the fabric.
     */
    ProcActivity activity() const { return activity_; }

    Tick computeCycles() const { return computeCycles_; }
    Tick spinCycles() const { return spinCycles_; }
    Tick syncOverheadCycles() const { return syncOverheadCycles_; }
    Tick stallCycles() const { return stallCycles_; }

    std::uint64_t syncOpsIssued() const { return syncOpsIssued_; }
    std::uint64_t programsRun() const { return programsRun_; }
    std::uint64_t marksSkipped() const { return marksSkipped_; }

    /** Why this processor failed the run; empty if it did not. */
    const std::string &error() const { return error_; }

  private:
    template <class Lane>
    friend void ir::perform(Lane &lane, const ir::Op &op);

    void fetchNext();
    void beginProgram(const ir::Iteration &iteration);
    void step();

    /** Record a non-empty phase interval. */
    void
    tracePhase(TracePhase phase, Tick start, Tick end)
    {
        if (end > start)
            sim::trace(tracer,
                       TraceEvent::phase(id_, phase, start, end));
    }

    /**
     * Record the op in flight's span (issue through completion), on
     * `var`. Empty spans are dropped, like empty phase intervals.
     */
    void
    traceOpSpan(SyncVarId var, Tick start, Tick end)
    {
        if (end > start) {
            sim::trace(tracer, TraceEvent::span(id_, opIter(), op_.id,
                                                op_.kind, var, start,
                                                end));
        }
    }

    /** Record a wait of the op in flight on `var` that ended now. */
    void
    traceWait(SyncVarId var, Tick start)
    {
        if (eventq.now() > start) {
            sim::trace(tracer, TraceEvent::wait(id_, var, op_.id,
                                                start,
                                                eventq.now()));
        }
    }

    /** Update live activity state (no-op when untraced). */
    void
    setActivity(ProcActivity a)
    {
        if (tracer)
            activity_ = a;
    }

    /** Iteration the op in flight belongs to (iterTag overrides). */
    std::uint64_t
    opIter() const
    {
        return op_.iterTag ? op_.iterTag : current.iter;
    }

    void execCompute();
    void execData();
    /** Every sync op's prologue: book the issue cost, then perform. */
    void issue();
    void chargeWait(SyncVarId var, Tick waited);

    // The primitives ir::perform walks a sync op with. A failure
    // stops the machine: no later event runs.
    template <class K> void waitGE(SyncVarId var, SyncWord t, K k);
    template <class K> void read(SyncVarId var, K k);
    template <class K> void write(SyncVarId var, SyncWord value, K k);
    template <class K> void fetchInc(SyncVarId var, K k);
    template <class K> void keyed(const Op &op, K k);
    bool ownsPc() const { return ownedPc; }
    void ownPc() { ownedPc = true; }
    void skipMark() { ++marksSkipped_; }
    void fail(std::string message);
    void done();

    EventQueue &eventq;
    ProcId id_;
    SyncFabric &fabric;
    /** The fabric, if its keys are memory-resident (keyed ops). */
    MemorySyncFabric *keyedFabric_;
    CacheSystem &caches;
    TraceSink *trace;
    TraceLog *tracer;

    Dispatch dispatch_;
    ir::Iteration current;
    size_t opIndex = 0;
    /** The op in flight; continuations refer to it, never copy it. */
    Op op_;
    /** Tick the op in flight was issued at. */
    Tick opStart_ = 0;

    /** Improved-primitive ownership flag (Fig. 4.3), per program. */
    bool ownedPc = false;
    std::string error_;

    bool halted_ = false;
    Tick haltTick_ = 0;
    ProcActivity activity_ = ProcActivity::dispatch;

    Tick computeCycles_ = 0;
    Tick spinCycles_ = 0;
    Tick syncOverheadCycles_ = 0;
    Tick stallCycles_ = 0;
    std::uint64_t syncOpsIssued_ = 0;
    std::uint64_t programsRun_ = 0;
    std::uint64_t marksSkipped_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_PROCESSOR_HH
