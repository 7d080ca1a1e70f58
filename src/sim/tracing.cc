#include "sim/tracing.hh"

namespace psync {
namespace sim {

const char *
tracePhaseName(TracePhase phase)
{
    switch (phase) {
      case TracePhase::compute:
        return "compute";
      case TracePhase::spin:
        return "spin";
      case TracePhase::syncOverhead:
        return "sync";
      case TracePhase::stall:
        return "stall";
      case TracePhase::dispatch:
        return "dispatch";
    }
    return "unknown";
}

const char *
syncOpName(SyncOp op)
{
    switch (op) {
      case SyncOp::wait:
        return "wait";
      case SyncOp::poll:
        return "poll";
      case SyncOp::write:
        return "write";
      case SyncOp::coalesced:
        return "coalesced";
      case SyncOp::broadcast:
        return "broadcast";
      case SyncOp::rmw:
        return "rmw";
      case SyncOp::keyed:
        return "keyed";
    }
    return "unknown";
}

const char *
instantName(Instant what)
{
    switch (what) {
      case Instant::halt:
        return "halt";
      case Instant::syncBroadcast:
        return "sync_broadcast";
    }
    return "unknown";
}

const char *
sampleStreamName(SampleStream stream)
{
    switch (stream) {
      case SampleStream::busBusyCycles:
        return "bus_busy_cycles";
      case SampleStream::busQueueDepth:
        return "bus_queue_depth";
      case SampleStream::moduleAccesses:
        return "module_accesses";
      case SampleStream::moduleBacklog:
        return "module_backlog";
      case SampleStream::syncVarWaiters:
        return "sync_var_waiters";
      case SampleStream::procActivity:
        return "proc_activity";
      case SampleStream::eventsExecuted:
        return "events_executed";
      case SampleStream::pendingEvents:
        return "pending_events";
      case SampleStream::ringBuckets:
        return "ring_buckets";
      case SampleStream::farHeapEvents:
        return "far_heap_events";
      case SampleStream::heapFallbacks:
        return "heap_fallbacks";
      case SampleStream::netStageConflictCycles:
        return "net_stage_conflict_cycles";
      case SampleStream::netStageCombines:
        return "net_stage_combines";
    }
    return "unknown";
}

bool
sampleStreamCumulative(SampleStream stream)
{
    switch (stream) {
      case SampleStream::busBusyCycles:
      case SampleStream::moduleAccesses:
      case SampleStream::eventsExecuted:
      case SampleStream::heapFallbacks:
      case SampleStream::netStageConflictCycles:
      case SampleStream::netStageCombines:
        return true;
      default:
        return false;
    }
}

bool
sampleStreamIndexed(SampleStream stream)
{
    switch (stream) {
      case SampleStream::busBusyCycles:
      case SampleStream::busQueueDepth:
      case SampleStream::moduleAccesses:
      case SampleStream::moduleBacklog:
      case SampleStream::syncVarWaiters:
      case SampleStream::procActivity:
      case SampleStream::netStageConflictCycles:
      case SampleStream::netStageCombines:
        return true;
      default:
        return false;
    }
}

const char *
procActivityName(ProcActivity activity)
{
    switch (activity) {
      case ProcActivity::dispatch:
        return "dispatch";
      case ProcActivity::compute:
        return "compute";
      case ProcActivity::stall:
        return "stall";
      case ProcActivity::sync:
        return "sync";
      case ProcActivity::spin:
        return "spin";
      case ProcActivity::parked:
        return "parked";
      case ProcActivity::halted:
        return "halted";
    }
    return "unknown";
}

void
TraceLog::clear()
{
    chunks_.clear();
    size_ = 0;
    varLabels_.clear();
    busNames_.clear();
}

void
TraceLog::nameSyncVar(SyncVarId var, std::string label)
{
    varLabels_[var] = std::move(label);
}

const std::string &
TraceLog::syncVarLabel(SyncVarId var) const
{
    static const std::string none;
    auto it = varLabels_.find(var);
    return it == varLabels_.end() ? none : it->second;
}

void
TraceLog::nameBus(std::uint32_t id, std::string name)
{
    if (id >= busNames_.size())
        busNames_.resize(id + 1);
    busNames_[id] = std::move(name);
}

std::string
TraceLog::busName(std::uint32_t id) const
{
    if (id < busNames_.size() && !busNames_[id].empty())
        return busNames_[id];
    return "bus" + std::to_string(id);
}

} // namespace sim
} // namespace psync
