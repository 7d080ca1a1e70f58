/**
 * @file
 * Sync-fabric topology layer.
 *
 * Describes how a machine's synchronization fabric is composed —
 * which organization holds the variables, how processors cluster,
 * and what the per-level transport costs are — and builds the
 * component assembly from that description. Machine used to switch
 * directly on FabricKind and hardwire one flat organization per
 * kind; routing construction through this seam lets fabrics be
 * topology compositions (per-cluster local stages + a global stage,
 * a combining network in front of sync modules) while the two
 * original flat fabrics are assembled exactly as before.
 */

#ifndef PSYNC_SIM_TOPOLOGY_HH
#define PSYNC_SIM_TOPOLOGY_HH

#include <memory>
#include <vector>

#include "sim/bus.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/sync_fabric.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/**
 * Cluster description of one machine's synchronization domain: the
 * fabric organization plus every parameter the builder needs to
 * assemble it. Derived from MachineConfig (syncTopologyOf in
 * machine.hh); kept free of the full machine config so fabric
 * construction depends only on the synchronization-relevant slice.
 */
struct SyncTopology
{
    /** Organization holding the synchronization variables. */
    FabricKind fabric = FabricKind::registers;

    /** Processors in the machine (ports, images, cluster split). */
    unsigned numProcs = 8;

    /** Clusters of the hierarchical fabric. */
    unsigned numClusters = 4;

    /** Local cluster-bus occupancy per broadcast, cycles. */
    Tick clusterBusCycles = 1;

    /** Broadcast / global-stage occupancy per transaction. */
    Tick syncBusCycles = 1;

    /** Register-file capacity (registers and hierarchical kinds). */
    unsigned syncRegisters = 256;

    /** Enable pending-write coalescing. */
    bool coalesceWrites = true;

    /** Spin poll interval (memory-resident variables). */
    Tick pollIntervalCycles = 4;

    /** Spin on coherent cache copies (memory fabric). */
    bool cachedSpinning = true;

    /** Base address of the sync-variable region (memory fabric). */
    Addr syncVarBase = Addr(1) << 40;

    /** Sync modules behind the combining network. */
    unsigned syncModules = 8;

    /** Combining-network latency per switch stage. */
    Tick netStageCycles = 1;

    /** Combining-network min cycles between injections per port. */
    Tick netPortCycles = 1;

    /** Sync-module service time (combining fabric). */
    Tick syncServiceCycles = 4;

    /** Processors per cluster (last cluster may be smaller). */
    unsigned
    procsPerCluster() const
    {
        unsigned n = numClusters == 0 ? 1 : numClusters;
        return (numProcs + n - 1) / n;
    }

    /** Cluster a processor belongs to. */
    unsigned
    clusterOf(ProcId who) const
    {
        unsigned c = who / procsPerCluster();
        unsigned n = numClusters == 0 ? 1 : numClusters;
        return c < n ? c : n - 1;
    }
};

/**
 * The components one fabric description assembles into. The machine
 * takes ownership of all of them; `fabric` references the buses (and
 * the memory, for the memory-resident kind), so the owning machine
 * must destroy it first — Machine's member order guarantees that.
 */
struct FabricAssembly
{
    std::unique_ptr<SyncFabric> fabric;
    /**
     * Dedicated broadcast bus (registers kind) or the global
     * serialization stage (hierarchical kind); null otherwise.
     */
    std::unique_ptr<Bus> syncBus;
    /** Per-cluster local buses (hierarchical kind only). */
    std::vector<std::unique_ptr<Bus>> clusterBuses;
};

/**
 * Build the synchronization fabric `topo` describes. The two flat
 * kinds (memory, registers) are constructed exactly as the
 * pre-topology Machine did — same components, same names, same
 * argument values — so existing scenarios stay bit-identical.
 */
FabricAssembly buildSyncFabric(const SyncTopology &topo,
                               EventQueue &eq, Memory &mem,
                               TraceLog *tracer);

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_TOPOLOGY_HH
