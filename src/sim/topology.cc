#include "sim/topology.hh"

#include <string>
#include <utility>

#include "sim/cluster_fabric.hh"
#include "sim/combining_fabric.hh"
#include "sim/logging.hh"

namespace psync {
namespace sim {

FabricAssembly
buildSyncFabric(const SyncTopology &topo, EventQueue &eq, Memory &mem,
                TraceLog *tracer)
{
    FabricAssembly a;
    switch (topo.fabric) {
      case FabricKind::memory:
        a.fabric = std::make_unique<MemorySyncFabric>(
            eq, mem, topo.syncVarBase, topo.pollIntervalCycles,
            topo.cachedSpinning, tracer);
        return a;

      case FabricKind::registers:
        a.syncBus = std::make_unique<Bus>(eq, "sync_bus",
                                          topo.syncBusCycles, tracer,
                                          /*trace_id=*/1);
        a.fabric = std::make_unique<RegisterSyncFabric>(
            eq, *a.syncBus, topo.syncRegisters, topo.coalesceWrites,
            tracer);
        return a;

      case FabricKind::combining:
        a.fabric = std::make_unique<CombiningSyncFabric>(
            eq, topo.numProcs, topo.syncModules, topo.netStageCycles,
            topo.netPortCycles, topo.syncServiceCycles, tracer);
        return a;

      case FabricKind::hierarchical: {
        unsigned clusters = topo.numClusters == 0
            ? 1
            : topo.numClusters;
        std::vector<Bus *> bus_refs;
        bus_refs.reserve(clusters);
        for (unsigned c = 0; c < clusters; ++c) {
            a.clusterBuses.push_back(std::make_unique<Bus>(
                eq, "cluster_bus" + std::to_string(c),
                topo.clusterBusCycles, tracer, /*trace_id=*/2 + c));
            bus_refs.push_back(a.clusterBuses.back().get());
        }
        a.syncBus = std::make_unique<Bus>(eq, "global_bus",
                                          topo.syncBusCycles, tracer,
                                          /*trace_id=*/1);
        a.fabric = std::make_unique<HierarchicalSyncFabric>(
            eq, std::move(bus_refs), *a.syncBus, topo.numProcs,
            topo.syncRegisters, topo.coalesceWrites, tracer);
        return a;
      }
    }
    fatal("unknown fabric kind");
    return a;
}

} // namespace sim
} // namespace psync
