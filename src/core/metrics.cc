#include "core/metrics.hh"

#include "sim/cluster_fabric.hh"
#include "sim/combining_fabric.hh"

namespace psync {
namespace core {

std::uint64_t
LogHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the sample we want, 1-based; ceil without float
    // rounding surprises at q == 1.
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_))
        ++rank;
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            // Inclusive upper bound of bucket i, clamped to what
            // was actually observed. The overflow bucket has no
            // finite bound of its own; the observed max is the
            // tightest true statement.
            std::uint64_t hi =
                i == 0 ? 0
                       : (i >= kBuckets - 1
                              ? max_
                              : (std::uint64_t{1} << i) - 1);
            if (hi < min_)
                hi = min_;
            if (hi > max_)
                hi = max_;
            return hi;
        }
    }
    return max_;
}

json::Value
LogHistogram::toJson() const
{
    json::Value v = json::object();
    v.set("count", count_);
    v.set("sum", sum_);
    v.set("min", min());
    v.set("max", max_);
    v.set("p50", percentile(0.50));
    v.set("p95", percentile(0.95));
    v.set("p99", percentile(0.99));
    return v;
}

RunResult
collectResult(sim::Machine &machine, bool completed)
{
    RunResult r;
    r.completed = completed;
    r.cycles = machine.completionTick();
    r.numProcs = machine.numProcs();

    for (unsigned p = 0; p < machine.numProcs(); ++p) {
        const sim::Processor &proc = machine.proc(p);
        r.computeCycles += proc.computeCycles();
        r.spinCycles += proc.spinCycles();
        r.syncOverheadCycles += proc.syncOverheadCycles();
        r.stallCycles += proc.stallCycles();
        r.syncOps += proc.syncOpsIssued();
        r.marksSkipped += proc.marksSkipped();
        r.programsRun += proc.programsRun();
        if (!proc.error().empty())
            r.errors.push_back(proc.error());
    }

    r.eventsExecuted = machine.eventq().eventsExecuted();
    r.heapFallbackEvents = machine.eventq().heapFallbackEvents();
    r.eventCore = sim::eventCoreKindName(machine.eventq().core());

    r.dataBusTransactions = machine.dataNet().transactions();
    r.dataBusQueueDelay = machine.dataNet().queueDelay();
    r.dataBusUtilization = machine.dataNet().utilization(r.cycles);

    if (machine.caches().enabled()) {
        r.cacheHits = machine.caches().hits();
        r.cacheMisses = machine.caches().misses();
        r.cacheInvalidations = machine.caches().invalidations();
    }

    if (machine.syncBus()) {
        r.syncBusUtilization = machine.syncBus()->utilization(r.cycles);
    }
    if (auto *reg = dynamic_cast<sim::RegisterSyncFabric *>(
            &machine.fabric())) {
        r.syncBusBroadcasts = reg->broadcasts();
        r.coalescedWrites = reg->coalescedWrites();
    }
    if (auto *mem = dynamic_cast<sim::MemorySyncFabric *>(
            &machine.fabric())) {
        r.syncMemPolls = mem->polls();
    }
    if (auto *comb = dynamic_cast<sim::CombiningSyncFabric *>(
            &machine.fabric())) {
        const sim::CombiningOmegaNetwork &net = comb->net();
        r.netPackets = net.transactions();
        r.netCombined = net.combinedTotal();
        if (r.netPackets > 0) {
            r.netCombineRate = static_cast<double>(r.netCombined) /
                               static_cast<double>(r.netPackets);
        }
        r.netQueueDelay = net.queueDelay();
        r.fabricParkedWaits = comb->parkedWaits();
        r.syncModuleQueueDelay = comb->moduleQueueDelay();
        r.syncHotSpotRatio = comb->hotSpotRatio();
        double stage_capacity = static_cast<double>(r.cycles) *
                                net.switchesPerStage();
        for (unsigned s = 0; s < net.stages(); ++s) {
            r.netStageConflicts.push_back(net.stageConflicts(s));
            r.netStageConflictCycles.push_back(
                net.stageConflictCycles(s));
            r.netStageCombines.push_back(net.stageCombines(s));
            r.netStageUtilization.push_back(
                stage_capacity > 0
                    ? static_cast<double>(net.stageBusyCycles(s)) /
                          stage_capacity
                    : 0.0);
        }
    }
    if (auto *hier = dynamic_cast<sim::HierarchicalSyncFabric *>(
            &machine.fabric())) {
        r.numClusters = hier->numClusters();
        r.procsPerCluster = hier->procsPerCluster();
        r.localBroadcasts = hier->localBroadcasts();
        r.globalBroadcasts = hier->globalBroadcasts();
        r.coalescedLocal = hier->coalescedLocal();
        r.coalescedGlobal = hier->coalescedGlobal();
        r.combinedIncs = hier->combinedIncs();
        for (const auto &cb : machine.clusterBuses()) {
            r.clusterBusUtilization.push_back(
                cb->utilization(r.cycles));
        }
    }

    r.memAccesses = machine.memory().totalAccesses();
    r.hottestModuleAccesses = machine.memory().hottestModuleAccesses();
    r.hotSpotRatio = machine.memory().hotSpotRatio();
    r.moduleQueueDelay = machine.memory().moduleQueueDelay();
    return r;
}

json::Value
RunResult::toJson() const
{
    json::Value v = json::object();
    v.set("completed", completed);
    v.set("cycles", static_cast<std::uint64_t>(cycles));
    v.set("num_procs", numProcs);
    v.set("compute_cycles", static_cast<std::uint64_t>(computeCycles));
    v.set("spin_cycles", static_cast<std::uint64_t>(spinCycles));
    v.set("sync_overhead_cycles",
          static_cast<std::uint64_t>(syncOverheadCycles));
    v.set("stall_cycles", static_cast<std::uint64_t>(stallCycles));
    v.set("utilization", utilization());
    v.set("spin_fraction", spinFraction());
    v.set("sync_ops", syncOps);
    v.set("marks_skipped", marksSkipped);
    v.set("programs_run", programsRun);
    v.set("events_executed", eventsExecuted);
    v.set("heap_fallback_events", heapFallbackEvents);
    v.set("event_core", eventCore);
    v.set("data_bus_transactions", dataBusTransactions);
    v.set("data_bus_queue_delay",
          static_cast<std::uint64_t>(dataBusQueueDelay));
    v.set("data_bus_utilization", dataBusUtilization);
    v.set("sync_bus_broadcasts", syncBusBroadcasts);
    v.set("coalesced_writes", coalescedWrites);
    v.set("sync_bus_utilization", syncBusUtilization);
    v.set("mem_accesses", memAccesses);
    v.set("hottest_module_accesses", hottestModuleAccesses);
    v.set("hot_spot_ratio", hotSpotRatio);
    v.set("module_queue_delay",
          static_cast<std::uint64_t>(moduleQueueDelay));
    v.set("sync_mem_polls", syncMemPolls);
    v.set("cache_hits", cacheHits);
    v.set("cache_misses", cacheMisses);
    v.set("cache_invalidations", cacheInvalidations);
    if (!netStageConflicts.empty()) {
        v.set("net_packets", netPackets);
        v.set("net_combined", netCombined);
        v.set("net_combine_rate", netCombineRate);
        v.set("net_queue_delay",
              static_cast<std::uint64_t>(netQueueDelay));
        v.set("parked_waits", fabricParkedWaits);
        v.set("sync_module_queue_delay",
              static_cast<std::uint64_t>(syncModuleQueueDelay));
        v.set("sync_hot_spot_ratio", syncHotSpotRatio);
        json::Value conflicts = json::array();
        json::Value conflict_cycles = json::array();
        json::Value combines = json::array();
        json::Value stage_util = json::array();
        for (std::size_t s = 0; s < netStageConflicts.size(); ++s) {
            conflicts.push(netStageConflicts[s]);
            conflict_cycles.push(
                static_cast<std::uint64_t>(netStageConflictCycles[s]));
            combines.push(netStageCombines[s]);
            stage_util.push(netStageUtilization[s]);
        }
        v.set("net_stage_conflicts", std::move(conflicts));
        v.set("net_stage_conflict_cycles", std::move(conflict_cycles));
        v.set("net_stage_combines", std::move(combines));
        v.set("net_stage_utilization", std::move(stage_util));
    }
    if (numClusters > 0) {
        v.set("num_clusters", numClusters);
        v.set("procs_per_cluster", procsPerCluster);
        v.set("local_broadcasts", localBroadcasts);
        v.set("global_broadcasts", globalBroadcasts);
        v.set("coalesced_local", coalescedLocal);
        v.set("coalesced_global", coalescedGlobal);
        v.set("combined_incs", combinedIncs);
        json::Value cluster_util = json::array();
        for (double u : clusterBusUtilization)
            cluster_util.push(u);
        v.set("cluster_bus_utilization", std::move(cluster_util));
    }
    if (waitLatency.count() > 0)
        v.set("wait_latency", waitLatency.toJson());
    if (!errors.empty()) {
        json::Value list = json::array();
        for (const std::string &e : errors)
            list.push(e);
        v.set("errors", std::move(list));
    }
    return v;
}

} // namespace core
} // namespace psync
