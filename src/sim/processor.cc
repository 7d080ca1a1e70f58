#include "sim/processor.hh"

#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

Processor::Processor(EventQueue &eq, ProcId id, SyncFabric &fab,
                     CacheSystem &cache_sys, TraceSink *sink,
                     TraceLog *event_tracer)
    : eventq(eq), id_(id), fabric(fab),
      keyedFabric_(dynamic_cast<MemorySyncFabric *>(&fab)),
      caches(cache_sys), trace(sink), tracer(event_tracer)
{
}

void
Processor::start(Dispatch dispatch)
{
    dispatch_ = std::move(dispatch);
    // Kick off at tick 0 through the queue so all processors start
    // deterministically interleaved.
    eventq.scheduleIn(0, [this]() { fetchNext(); });
}

void
Processor::fetchNext()
{
    Tick fetch_start = eventq.now();
    setActivity(ProcActivity::dispatch);
    dispatch_(id_, [this, fetch_start](const ir::Iteration *iteration) {
        tracePhase(TracePhase::dispatch, fetch_start, eventq.now());
        if (iteration == nullptr) {
            halted_ = true;
            haltTick_ = eventq.now();
            setActivity(ProcActivity::halted);
            PSYNC_DPRINTF(eventq, Proc, "proc %u halted", id_);
            sim::trace(tracer, TraceEvent::instant(Instant::halt, id_,
                                                   eventq.now()));
            return;
        }
        beginProgram(*iteration);
    });
}

void
Processor::beginProgram(const ir::Iteration &iteration)
{
    current = iteration;
    opIndex = 0;
    ownedPc = false;
    ++programsRun_;
    PSYNC_DPRINTF(eventq, Proc, "proc %u begins program iter %llu",
                  id_,
                  static_cast<unsigned long long>(iteration.iter));
    step();
}

void
Processor::step()
{
    while (opIndex < current.size) {
        op_ = current.op(opIndex);
        ++opIndex;
        switch (op_.kind) {
          case OpKind::stmtStart:
            if (trace)
                trace->stmtStart(op_.stmt, opIter(), eventq.now());
            continue;
          case OpKind::stmtEnd:
            if (trace)
                trace->stmtEnd(op_.stmt, opIter(), eventq.now());
            continue;
          case OpKind::compute:
            execCompute();
            return;
          case OpKind::dataRead:
          case OpKind::dataWrite:
            execData();
            return;
          default:
            issue();
            return;
        }
    }
    fetchNext();
}

void
Processor::execCompute()
{
    setActivity(ProcActivity::compute);
    computeCycles_ += op_.cycles;
    tracePhase(TracePhase::compute, eventq.now(),
               eventq.now() + op_.cycles);
    traceOpSpan(0, eventq.now(), eventq.now() + op_.cycles);
    eventq.scheduleIn(op_.cycles, [this]() { step(); });
}

void
Processor::execData()
{
    setActivity(ProcActivity::stall);
    Tick start = eventq.now();
    auto on_done = [this, start]() {
        Tick end = eventq.now();
        stallCycles_ += end - start;
        tracePhase(TracePhase::stall, start, end);
        traceOpSpan(0, start, end);
        if (trace) {
            trace->access(op_.stmt, op_.ref, opIter(), op_.addr,
                          ir::storesData(op_.kind), start, end);
        }
        step();
    };
    if (ir::storesData(op_.kind))
        caches.write(id_, op_.addr, on_done);
    else
        caches.read(id_, op_.addr, on_done);
}

void
Processor::chargeWait(SyncVarId var, Tick waited)
{
    spinCycles_ += waited;
    tracePhase(TracePhase::spin, eventq.now() - waited, eventq.now());
    traceWait(var, eventq.now() - waited);
}

template <class K>
void
Processor::waitGE(SyncVarId var, SyncWord t, K k)
{
    setActivity(ProcActivity::spin);
    fabric.waitGE(id_, var, t, [this, var, k](Tick waited) {
        // A barrier books its whole wait when it completes.
        if (op_.kind != OpKind::ctrBarrier) {
            chargeWait(var, waited);
            setActivity(ProcActivity::sync);
        }
        k();
    });
}

template <class K>
void
Processor::read(SyncVarId var, K k)
{
    fabric.read(id_, var, std::move(k));
}

template <class K>
void
Processor::write(SyncVarId var, SyncWord value, K k)
{
    fabric.write(id_, var, value, std::move(k));
}

template <class K>
void
Processor::fetchInc(SyncVarId var, K k)
{
    fabric.fetchInc(id_, var, [this, k](SyncWord old) {
        // A barrier spins from its arrival on.
        if (op_.kind == OpKind::ctrBarrier)
            setActivity(ProcActivity::spin);
        k(old);
    });
}

template <class K>
void
Processor::keyed(const Op &op, K k)
{
    if (keyedFabric_ == nullptr) {
        fail("keyed access needs memory-resident keys (Cedar "
             "synchronization processors live in the memory "
             "modules)");
        return;
    }
    setActivity(ProcActivity::spin);
    keyedFabric_->keyedAccess(id_, op.var, op.value,
                              [this, k](Tick waited) {
        chargeWait(op_.var, waited);
        // Stall is what remains after the issue cost (already
        // booked as sync overhead) and the spin wait.
        Tick past_issue = eventq.now() - (opStart_ + fabric.issueCost());
        stallCycles_ += past_issue > waited ? past_issue - waited : 0;
        k();
    });
}

void
Processor::issue()
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick cost = fabric.issueCost();
    syncOverheadCycles_ += cost;
    opStart_ = eventq.now();
    tracePhase(TracePhase::syncOverhead, opStart_, opStart_ + cost);
    eventq.scheduleIn(cost, [this]() { ir::perform(*this, op_); });
}

void
Processor::fail(std::string message)
{
    PSYNC_DPRINTF(eventq, Proc, "proc %u fails: %s", id_,
                  message.c_str());
    error_ = std::move(message);
    // Stop the machine: nothing this run does after a protocol
    // violation means anything, and a polling waiter would
    // otherwise spin on to the tick limit.
    eventq.clear();
}

void
Processor::done()
{
    Tick end = eventq.now();
    Tick issued = opStart_ + fabric.issueCost();
    SyncVarId var = op_.var;
    // Pricing, the one per-kind choice made here: where the cycles
    // past the issue cost go that no wait has claimed. The
    // hand-off writes of pcMark and pcTransfer are charged nowhere.
    switch (op_.kind) {
      case OpKind::syncWrite:
      case OpKind::syncFetchInc:
        // Memory-fabric write latency is synchronization overhead.
        syncOverheadCycles_ += end - issued;
        tracePhase(TracePhase::syncOverhead, issued, end);
        break;
      case OpKind::ctrBarrier:
        // The whole episode is one wait on the release variable.
        var = op_.aux;
        spinCycles_ += end - issued;
        tracePhase(TracePhase::spin, issued, end);
        traceWait(var, issued);
        break;
      default:
        break;
    }
    traceOpSpan(var, opStart_, end);
    if (trace && ir::has(op_.kind, ir::Effect::data)) {
        // A keyed op's data access happens inside the module
        // service that just completed — after the key test passed —
        // so the record anchors at completion.
        trace->access(op_.stmt, op_.ref, opIter(), op_.addr,
                      ir::storesData(op_.kind), end, end);
    }
    step();
}

} // namespace sim
} // namespace psync
