#include "sim/processor.hh"

#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

Processor::Processor(EventQueue &eq, ProcId id, SyncFabric &fab,
                     CacheSystem &cache_sys, TraceSink *sink,
                     TraceLog *event_tracer)
    : eventq(eq), id_(id), fabric(fab), caches(cache_sys),
      trace(sink), tracer(event_tracer)
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
        const Op op = current.op(opIndex);
        ++opIndex;
        switch (op.kind) {
          case OpKind::stmtStart:
            if (trace)
                trace->stmtStart(op.stmt, opIter(op), eventq.now());
            continue;
          case OpKind::stmtEnd:
            if (trace)
                trace->stmtEnd(op.stmt, opIter(op), eventq.now());
            continue;
          case OpKind::compute:
            execCompute(op);
            return;
          case OpKind::dataRead:
          case OpKind::dataWrite:
            execData(op);
            return;
          case OpKind::syncWaitGE:
            execWaitGE(op);
            return;
          case OpKind::syncWrite:
            execWrite(op);
            return;
          case OpKind::syncFetchInc:
            execFetchInc(op);
            return;
          case OpKind::pcMark:
            execPcMark(op);
            return;
          case OpKind::pcTransfer:
            execPcTransfer(op);
            return;
          case OpKind::ctrBarrier:
            execCtrBarrier(op);
            return;
          case OpKind::keyedRead:
          case OpKind::keyedWrite:
            execKeyed(op);
            return;
        }
    }
    fetchNext();
}

void
Processor::execCompute(const Op &op)
{
    setActivity(ProcActivity::compute);
    computeCycles_ += op.cycles;
    tracePhase(TracePhase::compute, eventq.now(),
               eventq.now() + op.cycles);
    traceOpSpan(op.id, op.kind, 0, opIter(op), eventq.now(),
                eventq.now() + op.cycles);
    eventq.scheduleIn(op.cycles, [this]() { step(); });
}

void
Processor::execData(const Op &op)
{
    setActivity(ProcActivity::stall);
    Tick start = eventq.now();
    bool is_write = op.kind == OpKind::dataWrite;
    auto done = [this, op, start, is_write]() {
        Tick end = eventq.now();
        stallCycles_ += end - start;
        tracePhase(TracePhase::stall, start, end);
        traceOpSpan(op.id, op.kind, 0, opIter(op), start, end);
        if (trace) {
            trace->access(op.stmt, op.ref, opIter(op), op.addr,
                          is_write, start, end);
        }
        step();
    };
    if (is_write)
        caches.write(id_, op.addr, done);
    else
        caches.read(id_, op.addr, done);
}

void
Processor::execWaitGE(const Op &op)
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    Tick start = eventq.now();
    eventq.scheduleIn(issue, [this, op, start]() {
        setActivity(ProcActivity::spin);
        fabric.waitGE(id_, op.var, op.value,
                      [this, op, start](Tick waited) {
            spinCycles_ += waited;
            tracePhase(TracePhase::spin, eventq.now() - waited,
                       eventq.now());
            traceWait(op.var, op.id, eventq.now() - waited);
            traceOpSpan(op.id, op.kind, op.var, opIter(op), start,
                        eventq.now());
            step();
        });
    });
}

void
Processor::execWrite(const Op &op)
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    Tick start = eventq.now();
    eventq.scheduleIn(issue, [this, op, start]() {
        fabric.write(id_, op.var, op.value, [this, op, start]() {
            // Anything beyond the fixed issue cost (memory-fabric
            // write latency) is synchronization overhead too.
            Tick total = eventq.now() - start;
            Tick fixed = fabric.issueCost();
            syncOverheadCycles_ += total > fixed ? total - fixed : 0;
            tracePhase(TracePhase::syncOverhead, start + fixed,
                       eventq.now());
            traceOpSpan(op.id, op.kind, op.var, opIter(op), start,
                        eventq.now());
            step();
        });
    });
}

void
Processor::execFetchInc(const Op &op)
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    Tick start = eventq.now();
    eventq.scheduleIn(issue, [this, op, start]() {
        fabric.fetchInc(id_, op.var, [this, op, start](SyncWord) {
            Tick total = eventq.now() - start;
            Tick fixed = fabric.issueCost();
            syncOverheadCycles_ += total > fixed ? total - fixed : 0;
            tracePhase(TracePhase::syncOverhead, start + fixed,
                       eventq.now());
            traceOpSpan(op.id, op.kind, op.var, opIter(op), start,
                        eventq.now());
            step();
        });
    });
}

void
Processor::execPcMark(const Op &op)
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    std::uint32_t my_owner = PcWord::owner(op.value);
    Tick start = eventq.now();
    eventq.scheduleIn(issue, [this, op, my_owner, start]() {
        if (ownedPc) {
            fabric.write(id_, op.var, op.value, [this, op, start]() {
                traceOpSpan(op.id, op.kind, op.var, opIter(op),
                            start, eventq.now());
                step();
            });
            return;
        }
        fabric.read(id_, op.var,
                    [this, op, my_owner, start](SyncWord cur) {
            std::uint32_t cur_owner = PcWord::owner(cur);
            if (cur_owner < my_owner) {
                // Ownership has not been transferred yet; proceed
                // without waiting (Fig. 4.3).
                ++marksSkipped_;
                traceOpSpan(op.id, op.kind, op.var, opIter(op),
                            start, eventq.now());
                step();
                return;
            }
            if (cur_owner > my_owner) {
                panic("PC %u owned by %u past process %u: ownership "
                      "protocol violated", op.var, cur_owner, my_owner);
            }
            ownedPc = true;
            fabric.write(id_, op.var, op.value, [this, op, start]() {
                traceOpSpan(op.id, op.kind, op.var, opIter(op),
                            start, eventq.now());
                step();
            });
        });
    });
}

void
Processor::execPcTransfer(const Op &op)
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    Tick start = eventq.now();
    eventq.scheduleIn(issue, [this, op, start]() {
        if (ownedPc) {
            fabric.write(id_, op.var, op.value, [this, op, start]() {
                traceOpSpan(op.id, op.kind, op.var, opIter(op),
                            start, eventq.now());
                step();
            });
            return;
        }
        // get_PC: wait until ownership reaches this process.
        setActivity(ProcActivity::spin);
        fabric.waitGE(id_, op.var, op.aux,
                      [this, op, start](Tick waited) {
            spinCycles_ += waited;
            tracePhase(TracePhase::spin, eventq.now() - waited,
                       eventq.now());
            traceWait(op.var, op.id, eventq.now() - waited);
            ownedPc = true;
            setActivity(ProcActivity::sync);
            fabric.write(id_, op.var, op.value, [this, op, start]() {
                traceOpSpan(op.id, op.kind, op.var, opIter(op),
                            start, eventq.now());
                step();
            });
        });
    });
}

void
Processor::execKeyed(const Op &op)
{
    auto *mem_fab = dynamic_cast<MemorySyncFabric *>(&fabric);
    if (mem_fab == nullptr) {
        panic("keyed access needs memory-resident keys (Cedar "
              "synchronization processors live in the memory "
              "modules)");
    }
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    Tick start = eventq.now();
    bool is_write = op.kind == OpKind::keyedWrite;
    // Capture the individual op fields, not the Op: with the extra
    // bookkeeping words the full-Op capture spills the handler past
    // the inline buffer on every keyed access.
    SyncVarId key = op.var;
    SyncWord threshold = op.value;
    Addr addr = op.addr;
    std::uint32_t stmt = op.stmt;
    std::uint16_t ref = op.ref;
    std::uint32_t op_id = op.id;
    std::uint64_t iter = opIter(op);
    eventq.scheduleIn(issue, [this, key, threshold, addr, stmt, ref,
                              op_id, iter, start, issue, is_write,
                              mem_fab]() {
        setActivity(ProcActivity::spin);
        mem_fab->keyedAccess(id_, key, threshold,
                             [this, key, addr, stmt, ref, op_id,
                              iter, start, issue,
                              is_write](Tick waited) {
            spinCycles_ += waited;
            tracePhase(TracePhase::spin, eventq.now() - waited,
                       eventq.now());
            // Stall is what remains after the issue cost (already
            // booked as sync overhead) and the spin wait.
            Tick past_issue = eventq.now() - (start + issue);
            stallCycles_ += past_issue > waited
                ? past_issue - waited
                : 0;
            Tick end = eventq.now();
            traceWait(key, op_id, end - waited);
            traceOpSpan(op_id,
                        is_write ? OpKind::keyedWrite
                                 : OpKind::keyedRead,
                        key, iter, start, end);
            if (trace) {
                // The data access happens inside the module
                // service that just completed — after the key test
                // passed — so the record anchors at completion.
                trace->access(stmt, ref, iter, addr, is_write, end,
                              end);
            }
            step();
        });
    });
}

void
Processor::execCtrBarrier(const Op &op)
{
    ++syncOpsIssued_;
    setActivity(ProcActivity::sync);
    Tick issue = fabric.issueCost();
    syncOverheadCycles_ += issue;
    tracePhase(TracePhase::syncOverhead, eventq.now(),
               eventq.now() + issue);
    Tick start = eventq.now();
    std::uint64_t iter = opIter(op);
    eventq.scheduleIn(issue, [this, op, start, issue, iter]() {
        fabric.fetchInc(id_, op.var,
                        [this, op, start, issue,
                         iter](SyncWord old_val) {
            // Capture only scalar pieces in `resume`: the
            // last-arrival path copies it into two more handlers,
            // so a fat closure would spill past the inline buffer.
            std::uint32_t op_id = op.id;
            SyncVarId release = op.aux;
            auto resume = [this, start, iter, op_id, release]() {
                // Spin starts after the issue cost, which is
                // already booked as sync overhead — the trace
                // below always anchored there; the counter now
                // agrees instead of double-counting the issue.
                Tick wait_start = start + fabric.issueCost();
                spinCycles_ += eventq.now() > wait_start
                    ? eventq.now() - wait_start
                    : 0;
                tracePhase(TracePhase::spin, wait_start,
                           eventq.now());
                traceWait(release, op_id, wait_start);
                traceOpSpan(op_id, OpKind::ctrBarrier, release,
                            iter, start, eventq.now());
                step();
            };
            std::uint64_t num_procs = op.cycles;
            setActivity(ProcActivity::spin);
            if (old_val + 1 == op.value * num_procs) {
                // Last arrival: release this generation.
                SyncWord gen = op.value;
                fabric.write(id_, release, gen, [this, release, gen,
                                                 resume]() {
                    fabric.waitGE(id_, release, gen,
                                  [resume](Tick) { resume(); });
                });
            } else {
                fabric.waitGE(id_, release, op.value,
                              [resume](Tick) { resume(); });
            }
        });
    });
}

} // namespace sim
} // namespace psync
