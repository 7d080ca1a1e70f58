#include "sim/cluster_fabric.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

HierarchicalSyncFabric::HierarchicalSyncFabric(
    EventQueue &eq, std::vector<Bus *> cluster_buses, Bus &global_bus,
    unsigned num_procs, unsigned capacity, bool coalesce,
    TraceLog *trace)
    : eventq(eq),
      clusterBuses(std::move(cluster_buses)),
      globalBus(global_bus),
      capacity_(capacity),
      coalesceEnabled(coalesce),
      tracer(trace)
{
    if (clusterBuses.empty())
        fatal("hierarchical fabric needs at least one cluster");
    unsigned n = numClusters();
    procsPerCluster_ = (num_procs + n - 1) / n;
    if (procsPerCluster_ == 0)
        procsPerCluster_ = 1;
    images.resize(n);
    waiters.resize(n);
    localIncs.resize(n);
}

SyncVarId
HierarchicalSyncFabric::allocate(unsigned count, SyncWord init_value)
{
    if (numVars + count > capacity_)
        fatal("hierarchical sync fabric out of registers: want %u "
              "more, have %u of %u", count, numVars, capacity_);
    SyncVarId first = numVars;
    values.resize(numVars + count, init_value);
    for (unsigned c = 0; c < numClusters(); ++c) {
        images[c].resize(numVars + count, init_value);
        waiters[c].resize(numVars + count);
    }
    numVars += count;
    return first;
}

void
HierarchicalSyncFabric::pushReady(ReadyOp op)
{
    readyOps.push(std::move(op));
    eventq.scheduleIn(0, [this]() { runReady(); });
}

void
HierarchicalSyncFabric::runReady()
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
HierarchicalSyncFabric::commitCluster(unsigned c, SyncVarId var,
                                      SyncWord value)
{
    images[c][var] = value;
    waiters[c][var].release(value, [this, var](Waiter &&w) {
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
        pushReady(std::move(ready));
    });
}

void
HierarchicalSyncFabric::waitGE(ProcId who, SyncVarId var,
                               SyncWord threshold, WaitHandler on_done)
{
    unsigned c = clusterOf(who);
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (cluster %u image %llu)",
                  who, var,
                  static_cast<unsigned long long>(threshold), c,
                  static_cast<unsigned long long>(images[c][var]));
    trace(tracer, TraceEvent::syncOp(SyncOp::wait, var, who, eventq.now()));
    if (images[c][var] >= threshold) {
        ReadyOp ready;
        ready.kind = ReadyOp::Kind::wake;
        ready.waited = 0;
        ready.onWait = std::move(on_done);
        pushReady(std::move(ready));
        return;
    }
    if (tracer)
        ++activeWaiters[var];
    waiters[c][var].park(threshold,
                         Waiter{who, eventq.now(), std::move(on_done)});
}

void
HierarchicalSyncFabric::read(ProcId who, SyncVarId var,
                             ValueHandler on_done)
{
    ReadyOp ready;
    ready.kind = ReadyOp::Kind::readValue;
    ready.value = images[clusterOf(who)][var];
    ready.onValue = std::move(on_done);
    pushReady(std::move(ready));
}

void
HierarchicalSyncFabric::forwardGlobal(ProcId who, unsigned c,
                                      SyncVarId var, SyncWord value)
{
    std::uint64_t gkey = pairKey(c, var);
    auto it = pendingGlobal.find(gkey);
    if (coalesceEnabled && it != pendingGlobal.end() &&
        it->second.valid) {
        // A global broadcast of this variable from this cluster is
        // still waiting for the stage; the newer value covers it.
        it->second.value = value;
        ++coalescedGlobal_;
        return;
    }
    auto &pw = pendingGlobal[gkey];
    pw.value = value;
    pw.valid = true;
    globalBus.transact(
        who,
        [this, gkey](Tick) {
            auto &entry = pendingGlobal[gkey];
            entry.latched = entry.value;
            entry.valid = false;
        },
        [this, gkey](Tick) {
            SyncVarId var_id =
                static_cast<SyncVarId>(gkey & 0xffffffffu);
            commitGlobal(var_id, pendingGlobal[gkey].latched);
        });
}

void
HierarchicalSyncFabric::commitGlobal(SyncVarId var, SyncWord value)
{
    ++globalBroadcasts_;
    trace(tracer, TraceEvent::syncOp(SyncOp::broadcast, var, 0, eventq.now()));
    values[var] = value;
    for (unsigned c = 0; c < numClusters(); ++c)
        commitCluster(c, var, value);
}

void
HierarchicalSyncFabric::write(ProcId who, SyncVarId var,
                              SyncWord value, DoneHandler on_done)
{
    unsigned c = clusterOf(who);
    std::uint64_t key = pairKey(who, var);
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (cluster %u)", who, var,
                  static_cast<unsigned long long>(value), c);
    trace(tracer, TraceEvent::syncOp(SyncOp::write, var, who, eventq.now()));
    auto it = pendingLocal.find(key);
    if (coalesceEnabled && it != pendingLocal.end() &&
        it->second.valid) {
        it->second.value = value;
        ++coalescedLocal_;
        trace(tracer, TraceEvent::syncOp(SyncOp::coalesced, var, who,
                                         eventq.now()));
    } else {
        auto &pw = pendingLocal[key];
        pw.value = value;
        pw.valid = true;
        clusterBuses[c]->transact(
            who,
            [this, key](Tick) {
                auto &entry = pendingLocal[key];
                entry.latched = entry.value;
                entry.valid = false;
            },
            [this, key, c](Tick) {
                ProcId writer = static_cast<ProcId>(key >> 32);
                SyncVarId var_id =
                    static_cast<SyncVarId>(key & 0xffffffffu);
                ++localBroadcasts_;
                SyncWord committed = pendingLocal[key].latched;
                commitCluster(c, var_id, committed);
                forwardGlobal(writer, c, var_id, committed);
            });
    }
    // Posted write: the issuing processor continues immediately.
    ReadyOp ready;
    ready.kind = ReadyOp::Kind::writeDone;
    ready.onDone = std::move(on_done);
    pushReady(std::move(ready));
}

void
HierarchicalSyncFabric::applyIncBatch()
{
    InflightBatch batch = inflightIncs.pop();
    ++globalBroadcasts_;
    SyncWord base = values[batch.var];
    SyncWord count = static_cast<SyncWord>(batch.members.size());
    // Pre-values are handed out FIFO in batch-join order, exactly
    // as a serialized global stage would have granted them.
    for (std::size_t i = 0; i < batch.members.size(); ++i) {
        ReadyOp ready;
        ready.kind = ReadyOp::Kind::readValue;
        ready.value = base + i;
        ready.onValue = std::move(batch.members[i]);
        pushReady(std::move(ready));
    }
    SyncWord committed = base + count;
    values[batch.var] = committed;
    for (unsigned c = 0; c < numClusters(); ++c)
        commitCluster(c, batch.var, committed);
}

void
HierarchicalSyncFabric::fetchInc(ProcId who, SyncVarId var,
                                 ValueHandler on_done)
{
    unsigned c = clusterOf(who);
    trace(tracer, TraceEvent::syncOp(SyncOp::rmw, var, who, eventq.now()));
    // The handler rests in the per-cluster FIFO (local buses grant
    // FIFO) so the bus closure captures only plain words.
    localIncs[c].push(std::move(on_done));
    clusterBuses[c]->transact(who, [this, who, var, c](Tick) {
        ValueHandler handler = localIncs[c].pop();
        ++localBroadcasts_;
        std::uint64_t bkey = pairKey(c, var);
        auto it = openIncs.find(bkey);
        if (it != openIncs.end() && it->second.valid) {
            // The cluster engine already has a global fetch&add
            // queued for this variable: join its batch.
            it->second.members.push_back(std::move(handler));
            ++combinedIncs_;
            return;
        }
        auto &batch = openIncs[bkey];
        batch.valid = true;
        batch.members.clear();
        batch.members.push_back(std::move(handler));
        globalBus.transact(
            who,
            [this, bkey](Tick) {
                // Grant closes the batch: the transaction on the
                // wire carries exactly the joined members.
                auto &open = openIncs[bkey];
                InflightBatch inflight;
                inflight.var =
                    static_cast<SyncVarId>(bkey & 0xffffffffu);
                inflight.members = std::move(open.members);
                open.members.clear();
                open.valid = false;
                inflightIncs.push(std::move(inflight));
            },
            [this](Tick) { applyIncBatch(); });
    });
}

SyncWord
HierarchicalSyncFabric::peek(SyncVarId var) const
{
    return values[var];
}

void
HierarchicalSyncFabric::poke(SyncVarId var, SyncWord value)
{
    values[var] = value;
    for (unsigned c = 0; c < numClusters(); ++c)
        images[c][var] = value;
}

void
HierarchicalSyncFabric::sampleTimeline(TraceLog &t, Tick at) const
{
    for (const auto &entry : activeWaiters) {
        t.push(TraceEvent::sample(SampleStream::syncVarWaiters,
                                  entry.first, at,
                                  static_cast<double>(entry.second)));
    }
}

} // namespace sim
} // namespace psync
