#include "sim/sync_fabric.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

const char *
fabricKindName(FabricKind kind)
{
    switch (kind) {
      case FabricKind::memory:
        return "memory";
      case FabricKind::registers:
        return "registers";
      case FabricKind::combining:
        return "combining";
      case FabricKind::hierarchical:
        return "hierarchical";
    }
    return "unknown";
}

//
// MemorySyncFabric
//

MemorySyncFabric::MemorySyncFabric(EventQueue &eq, Memory &mem, Addr base,
                                   Tick poll_interval, bool cached_spin,
                                   TraceLog *trace)
    : eventq(eq),
      memory(mem),
      baseAddr(base),
      pollInterval(poll_interval),
      cachedSpin(cached_spin),
      tracer(trace)
{
    if (pollInterval == 0)
        fatal("poll interval must be at least one cycle");
}

Addr
MemorySyncFabric::addrOf(SyncVarId var) const
{
    return baseAddr + static_cast<Addr>(var) * 8;
}

void
MemorySyncFabric::trackWaitStart(SyncVarId var)
{
    if (tracer)
        ++activeWaiters[var];
}

void
MemorySyncFabric::trackWaitEnd(SyncVarId var)
{
    if (!tracer)
        return;
    auto it = activeWaiters.find(var);
    if (it != activeWaiters.end() && --it->second == 0)
        activeWaiters.erase(it);
}

void
MemorySyncFabric::trackPark(ProcId who)
{
    if (tracer)
        parkedProcs.insert(who);
}

void
MemorySyncFabric::trackUnpark(ProcId who)
{
    if (tracer)
        parkedProcs.erase(who);
}

void
MemorySyncFabric::sampleTimeline(TraceLog &t, Tick at) const
{
    for (const auto &entry : activeWaiters) {
        t.push(TraceEvent::sample(SampleStream::syncVarWaiters,
                                  entry.first, at,
                                  static_cast<double>(entry.second)));
    }
}

bool
MemorySyncFabric::isParked(ProcId who) const
{
    return parkedProcs.count(who) != 0;
}

SyncVarId
MemorySyncFabric::allocate(unsigned count, SyncWord init_value)
{
    SyncVarId first = numVars;
    for (unsigned i = 0; i < count; ++i)
        memory.poke(addrOf(first + i), init_value);
    numVars += count;
    return first;
}

std::uint32_t
MemorySyncFabric::allocOp()
{
    if (freeOps != noOp) {
        std::uint32_t slot = freeOps;
        freeOps = ops[slot].next;
        return slot;
    }
    std::uint32_t slot = static_cast<std::uint32_t>(ops.size());
    ops.emplace_back();
    return slot;
}

void
MemorySyncFabric::freeOp(std::uint32_t slot)
{
    OpState &op = ops[slot];
    op.onWait.reset();
    op.onDone.reset();
    op.onValue.reset();
    op.next = freeOps;
    freeOps = slot;
}

void
MemorySyncFabric::pollLoop(std::uint32_t slot)
{
    ++polls_;
    trace(tracer, TraceEvent::syncOp(SyncOp::poll, ops[slot].var,
                                     ops[slot].who, eventq.now()));
    memory.read(ops[slot].who, addrOf(ops[slot].var),
                [this, slot](SyncWord value) {
        pollValue(slot, value);
    });
}

void
MemorySyncFabric::pollValue(std::uint32_t slot, SyncWord value)
{
    OpState &op = ops[slot];
    if (value >= op.threshold) {
        trackWaitEnd(op.var);
        WaitHandler on_done = std::move(op.onWait);
        Tick waited = eventq.now() - op.started;
        freeOp(slot);
        on_done(waited);
        return;
    }
    if (cachedSpin) {
        // Spin on the (now cached) copy for free; the next memory
        // fetch happens when a write invalidates it. No poll events
        // tick while parked — the slot just waits on the list.
        op.parkSeq = nextParkSeq++;
        trackPark(op.who);
        parked[op.var].push_back(slot);
        return;
    }
    eventq.scheduleIn(pollInterval,
                      [this, slot]() { pollLoop(slot); });
}

void
MemorySyncFabric::invalidate(SyncVarId var)
{
    auto it = parked.find(var);
    if (it == parked.end() || it->second.empty())
        return;
    std::vector<std::uint32_t> woken;
    woken.swap(it->second);
    // Every parked spinner re-fetches the invalidated word after
    // the poll interval (cache-miss turnaround); a hot word gets a
    // burst of refills queueing at its module. Wake order is FIFO
    // by park order (parkSeq ascends down the list).
    std::sort(woken.begin(), woken.end(),
              [this](std::uint32_t a, std::uint32_t b) {
        return ops[a].parkSeq < ops[b].parkSeq;
    });
    for (std::uint32_t slot : woken) {
        trackUnpark(ops[slot].who);
        eventq.scheduleIn(pollInterval,
                          [this, slot]() { pollLoop(slot); });
    }
}

void
MemorySyncFabric::waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                         WaitHandler on_done)
{
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (memory fabric)", who,
                  var, static_cast<unsigned long long>(threshold));
    trace(tracer, TraceEvent::syncOp(SyncOp::wait, var, who, eventq.now()));
    std::uint32_t slot = allocOp();
    OpState &op = ops[slot];
    op.who = who;
    op.var = var;
    op.threshold = threshold;
    op.started = eventq.now();
    op.onWait = std::move(on_done);
    trackWaitStart(var);
    pollLoop(slot);
}

void
MemorySyncFabric::read(ProcId who, SyncVarId var, ValueHandler on_done)
{
    memory.read(who, addrOf(var), std::move(on_done));
}

void
MemorySyncFabric::write(ProcId who, SyncVarId var, SyncWord value,
                        DoneHandler on_done)
{
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (memory fabric)", who,
                  var, static_cast<unsigned long long>(value));
    trace(tracer, TraceEvent::syncOp(SyncOp::write, var, who, eventq.now()));
    std::uint32_t slot = allocOp();
    ops[slot].var = var;
    ops[slot].onDone = std::move(on_done);
    memory.write(who, addrOf(var), value,
                 [this, slot]() { writeDone(slot); });
}

void
MemorySyncFabric::writeDone(std::uint32_t slot)
{
    SyncVarId var = ops[slot].var;
    DoneHandler on_done = std::move(ops[slot].onDone);
    freeOp(slot);
    invalidate(var);
    on_done();
}

void
MemorySyncFabric::fetchInc(ProcId who, SyncVarId var,
                           ValueHandler on_done)
{
    trace(tracer, TraceEvent::syncOp(SyncOp::rmw, var, who, eventq.now()));
    std::uint32_t slot = allocOp();
    ops[slot].var = var;
    ops[slot].onValue = std::move(on_done);
    memory.rmw(who, addrOf(var),
               [](SyncWord old_value) { return old_value + 1; },
               [this, slot](SyncWord old_value) {
        fetchIncDone(slot, old_value);
    });
}

void
MemorySyncFabric::fetchIncDone(std::uint32_t slot, SyncWord old_value)
{
    SyncVarId var = ops[slot].var;
    ValueHandler on_done = std::move(ops[slot].onValue);
    freeOp(slot);
    invalidate(var);
    on_done(old_value);
}

void
MemorySyncFabric::keyedService(std::uint32_t slot)
{
    OpState &op = ops[slot];
    SyncVarId key = op.var;
    Addr key_addr = addrOf(key);
    SyncWord current = memory.peek(key_addr);
    if (current >= op.threshold) {
        // Test passed: the same module service also performs the
        // data access (key and datum are co-located) and the key
        // increment.
        memory.poke(key_addr, current + 1);
        Tick waited = eventq.now() - op.started;
        trackWaitEnd(key);
        WaitHandler on_done = std::move(op.onWait);
        freeOp(slot);
        wakeKeyed(key);
        on_done(waited);
        return;
    }
    op.parkSeq = nextParkSeq++;
    trackPark(op.who);
    parkedKeyed[key].push_back(slot);
}

void
MemorySyncFabric::wakeKeyed(SyncVarId key)
{
    auto it = parkedKeyed.find(key);
    if (it == parkedKeyed.end() || it->second.empty())
        return;
    std::vector<std::uint32_t> woken;
    woken.swap(it->second);
    std::sort(woken.begin(), woken.end(),
              [this](std::uint32_t a, std::uint32_t b) {
        return ops[a].parkSeq < ops[b].parkSeq;
    });
    for (std::uint32_t slot : woken) {
        ++keyedRetries_;
        trackUnpark(ops[slot].who);
        // The retry occupies the key's module but never the
        // interconnect: the synchronization processor is local.
        memory.serviceAtModule(
            addrOf(key), [this, slot]() { keyedService(slot); });
    }
}

void
MemorySyncFabric::keyedAccess(ProcId who, SyncVarId key,
                              SyncWord threshold,
                              WaitHandler on_done)
{
    ++keyedOps_;
    trace(tracer, TraceEvent::syncOp(SyncOp::keyed, key, who, eventq.now()));
    std::uint32_t slot = allocOp();
    OpState &op = ops[slot];
    op.who = who;
    op.var = key;
    op.threshold = threshold;
    op.started = eventq.now();
    op.onWait = std::move(on_done);
    trackWaitStart(key);
    // One interconnect transaction delivers the combined request
    // to the module; reuse the read path for its timing.
    memory.read(who, addrOf(key),
                [this, slot](SyncWord) { keyedService(slot); });
}

SyncWord
MemorySyncFabric::peek(SyncVarId var) const
{
    return memory.peek(addrOf(var));
}

void
MemorySyncFabric::poke(SyncVarId var, SyncWord value)
{
    memory.poke(addrOf(var), value);
}

//
// RegisterSyncFabric
//

RegisterSyncFabric::RegisterSyncFabric(EventQueue &eq, Bus &sync_bus,
                                       unsigned capacity, bool coalesce,
                                       TraceLog *trace)
    : eventq(eq),
      syncBus(sync_bus),
      capacity_(capacity),
      coalesceEnabled(coalesce),
      tracer(trace)
{
}

SyncVarId
RegisterSyncFabric::allocate(unsigned count, SyncWord init_value)
{
    if (numVars + count > capacity_)
        fatal("register sync fabric out of registers: want %u more, "
              "have %u of %u", count, numVars, capacity_);
    SyncVarId first = numVars;
    values.resize(numVars + count, init_value);
    waiters.resize(numVars + count);
    numVars += count;
    return first;
}

void
RegisterSyncFabric::runReady()
{
    ReadyOp op = readyOps.pop();
    switch (op.kind) {
      case ReadyOp::Kind::wake:
        op.onWait(op.waited);
        return;
      case ReadyOp::Kind::readValue:
        op.onValue(op.value);
        return;
      case ReadyOp::Kind::writeDone:
        op.onDone();
        return;
    }
}

void
RegisterSyncFabric::commit(SyncVarId var, SyncWord value)
{
    values[var] = value;
    waiters[var].release(value, [this, var](Waiter &&w) {
        if (tracer) {
            auto it = activeWaiters.find(var);
            if (it != activeWaiters.end() && --it->second == 0)
                activeWaiters.erase(it);
        }
        Tick waited = eventq.now() - w.started;
        ReadyOp ready;
        ready.kind = ReadyOp::Kind::wake;
        ready.waited = waited;
        ready.onWait = std::move(w.onDone);
        readyOps.push(std::move(ready));
        eventq.scheduleIn(0, [this]() { runReady(); });
    });
}

void
RegisterSyncFabric::waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                           WaitHandler on_done)
{
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (local image %llu)", who,
                  var, static_cast<unsigned long long>(threshold),
                  static_cast<unsigned long long>(values[var]));
    trace(tracer, TraceEvent::syncOp(SyncOp::wait, var, who, eventq.now()));
    if (values[var] >= threshold) {
        ReadyOp ready;
        ready.kind = ReadyOp::Kind::wake;
        ready.waited = 0;
        ready.onWait = std::move(on_done);
        readyOps.push(std::move(ready));
        eventq.scheduleIn(0, [this]() { runReady(); });
        return;
    }
    if (tracer)
        ++activeWaiters[var];
    waiters[var].park(threshold,
                      Waiter{who, eventq.now(), std::move(on_done)});
}

void
RegisterSyncFabric::sampleTimeline(TraceLog &t, Tick at) const
{
    for (const auto &entry : activeWaiters) {
        t.push(TraceEvent::sample(SampleStream::syncVarWaiters,
                                  entry.first, at,
                                  static_cast<double>(entry.second)));
    }
}

void
RegisterSyncFabric::read(ProcId who, SyncVarId var, ValueHandler on_done)
{
    (void)who;
    ReadyOp ready;
    ready.kind = ReadyOp::Kind::readValue;
    ready.value = values[var];
    ready.onValue = std::move(on_done);
    readyOps.push(std::move(ready));
    eventq.scheduleIn(0, [this]() { runReady(); });
}

void
RegisterSyncFabric::write(ProcId who, SyncVarId var, SyncWord value,
                          DoneHandler on_done)
{
    std::uint64_t key = (static_cast<std::uint64_t>(who) << 32) | var;
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (register fabric)", who,
                  var, static_cast<unsigned long long>(value));
    trace(tracer, TraceEvent::syncOp(SyncOp::write, var, who, eventq.now()));
    auto it = pendingWrites.find(key);
    if (coalesceEnabled && it != pendingWrites.end() &&
        it->second.valid) {
        // A broadcast of this variable from this processor is still
        // waiting for the bus; the newer value covers the older one.
        it->second.value = value;
        ++coalesced_;
        trace(tracer, TraceEvent::syncOp(SyncOp::coalesced, var, who,
                                         eventq.now()));
    } else {
        auto &pw = pendingWrites[key];
        pw.value = value;
        pw.valid = true;
        // The value is latched at grant time: once the write gains
        // the bus it can no longer be covered by a newer write
        // (section 6), so the pending entry closes then. The map
        // entry outlives the transaction, so the latch lives there.
        syncBus.transact(
            who,
            [this, key](Tick) {
                auto &entry = pendingWrites[key];
                entry.latched = entry.value;
                entry.valid = false;
            },
            [this, who, var, key](Tick) {
                ++broadcasts_;
                trace(tracer, TraceEvent::instant(Instant::syncBroadcast, who,
                                                  eventq.now()));
                trace(tracer, TraceEvent::syncOp(SyncOp::broadcast, var, who,
                                                 eventq.now()));
                commit(var, pendingWrites[key].latched);
            });
    }
    // Posted write: the issuing processor continues immediately.
    ReadyOp ready;
    ready.kind = ReadyOp::Kind::writeDone;
    ready.onDone = std::move(on_done);
    readyOps.push(std::move(ready));
    eventq.scheduleIn(0, [this]() { runReady(); });
}

void
RegisterSyncFabric::fetchInc(ProcId who, SyncVarId var,
                             ValueHandler on_done)
{
    // Atomicity comes from bus serialization: the increment is
    // applied at broadcast time, and no value is returned until
    // this processor's turn on the bus. The bus grants FIFO, so
    // completions pop the pending handlers in push order.
    trace(tracer, TraceEvent::syncOp(SyncOp::rmw, var, who, eventq.now()));
    pendingIncs.push(std::move(on_done));
    syncBus.transact(who, [this, who, var](Tick) {
        ValueHandler handler = pendingIncs.pop();
        SyncWord old_value = values[var];
        ++broadcasts_;
        trace(tracer, TraceEvent::instant(Instant::syncBroadcast, who,
                                          eventq.now()));
        commit(var, old_value + 1);
        handler(old_value);
    });
}

SyncWord
RegisterSyncFabric::peek(SyncVarId var) const
{
    return values[var];
}

void
RegisterSyncFabric::poke(SyncVarId var, SyncWord value)
{
    values[var] = value;
}

} // namespace sim
} // namespace psync
