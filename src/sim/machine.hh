/**
 * @file
 * Machine configuration and assembly.
 *
 * A Machine is one small-scale shared-memory multiprocessor of the
 * class the paper targets (Cray X-MP, Alliant FX/8, Encore
 * Multimax): P in-order processors, a shared data bus in front of
 * interleaved memory modules, and either memory-resident
 * synchronization variables or a dedicated synchronization-register
 * file with a broadcast bus (section 6).
 */

#ifndef PSYNC_SIM_MACHINE_HH
#define PSYNC_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/omega_network.hh"
#include "sim/processor.hh"
#include "sim/program.hh"
#include "sim/sync_fabric.hh"
#include "sim/topology.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/**
 * Most sample batches one sampled run keeps. Boundaries start
 * timelineFirstInterval cycles apart; each time this many are
 * stored, the interval doubles and every other boundary is dropped,
 * so the kept boundaries always equal those of a run sampled at the
 * final interval from the start.
 */
constexpr std::size_t timelineSampleBudget = 1024;

/** Cycles between a sampled run's first boundaries. */
constexpr Tick timelineFirstInterval = 16;

/** Processor-to-memory transport choice. */
enum class InterconnectKind
{
    /** Single shared bus — the paper's small-scale machines. */
    bus,
    /** Multistage network — Cedar/RP3-class large machines. */
    omega,
};

/** Printable interconnect name. */
const char *interconnectKindName(InterconnectKind kind);

/** Full machine configuration. */
struct MachineConfig
{
    /** Number of processors. */
    unsigned numProcs = 8;

    /**
     * Event-core implementation. Both cores execute the identical
     * (when, seq) order; `heap` is the reference used by the
     * equivalence tests.
     */
    EventCoreKind eventCore = EventCoreKind::calendar;

    /** How processors reach memory. */
    InterconnectKind interconnect = InterconnectKind::bus;

    /** Omega network: per-stage latency. */
    Tick netStageCycles = 1;

    /** Omega network: min cycles between injections per port. */
    Tick netPortCycles = 1;

    /** Private data caches (write-through invalidate). */
    CacheConfig cache;

    /** Where synchronization variables live. */
    FabricKind fabric = FabricKind::registers;

    /** Hardware synchronization registers (register fabric). */
    unsigned syncRegisters = 256;

    /** Enable pending-write coalescing on the sync bus. */
    bool coalesceWrites = true;

    /** Processor clusters (hierarchical fabric). */
    unsigned numClusters = 4;

    /** Cluster-bus occupancy per local broadcast, cycles. */
    Tick clusterBusCycles = 1;

    /** Data-bus occupancy per transaction, cycles. */
    Tick dataBusCycles = 1;

    /** Sync-bus occupancy per broadcast, cycles. */
    Tick syncBusCycles = 1;

    /** Spin poll interval for memory-resident sync vars. */
    Tick pollIntervalCycles = 4;

    /**
     * Memory-resident sync vars spin on coherent cache copies
     * (re-fetch only on invalidation) instead of polling memory
     * every interval. The E10 bench contrasts both.
     */
    bool cachedSpinning = true;

    /** Shared-memory organization. */
    MemoryConfig memory;

    /** Base address of the sync-variable region (memory fabric). */
    Addr syncVarBase = Addr(1) << 40;

    /**
     * Sample the run's timeline when a trace log is attached:
     * Machine::run executes the event queue in chunks and records
     * one batch of samples per boundary (plus a baseline batch at
     * the start tick and a final one at drain). Chunking pauses and
     * resumes the queue between the same (when, seq)-ordered
     * events, so a sampled run is cycle-identical to an unsampled
     * one. The interval adapts to the run's length; see
     * timelineSampleBudget.
     */
    bool timeline = false;
};

/**
 * The synchronization-domain slice of a machine config: everything
 * buildSyncFabric needs. The combining fabric's sync modules mirror
 * the machine's memory organization (same interleave, same service
 * time) — the network in front of them is what differs.
 */
inline SyncTopology
syncTopologyOf(const MachineConfig &cfg)
{
    SyncTopology topo;
    topo.fabric = cfg.fabric;
    topo.numProcs = cfg.numProcs;
    topo.numClusters = cfg.numClusters;
    topo.clusterBusCycles = cfg.clusterBusCycles;
    topo.syncBusCycles = cfg.syncBusCycles;
    topo.syncRegisters = cfg.syncRegisters;
    topo.coalesceWrites = cfg.coalesceWrites;
    topo.pollIntervalCycles = cfg.pollIntervalCycles;
    topo.cachedSpinning = cfg.cachedSpinning;
    topo.syncVarBase = cfg.syncVarBase;
    topo.syncModules = cfg.memory.numModules;
    topo.netStageCycles = cfg.netStageCycles;
    topo.netPortCycles = cfg.netPortCycles;
    topo.syncServiceCycles = cfg.memory.serviceCycles;
    return topo;
}

/** An assembled multiprocessor. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg,
                     TraceSink *trace = nullptr,
                     TraceLog *tracer = nullptr);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return config_; }

    EventQueue &eventq() { return eventq_; }
    SyncFabric &fabric() { return *fabric_; }
    Memory &memory() { return *memory_; }
    CacheSystem &caches() { return *caches_; }

    /** The processor-memory transport (bus or network). */
    Interconnect &dataNet() { return *dataNet_; }

    /** The data bus, or null when the interconnect is a network. */
    Bus *dataBus() { return dynamic_cast<Bus *>(dataNet_.get()); }

    /** Sync bus; null when the fabric is memory-resident. */
    Bus *syncBus() { return syncBus_.get(); }

    /** Per-cluster local sync buses (hierarchical fabric only). */
    const std::vector<std::unique_ptr<Bus>> &
    clusterBuses() const
    {
        return clusterBuses_;
    }

    Processor &proc(ProcId id) { return *processors_[id]; }
    unsigned numProcs() const { return config_.numProcs; }

    /**
     * Start every processor on the given dispatcher and run to
     * completion (or the tick limit).
     * @return true if all work drained, false on tick-limit stop
     *         (treat as deadlock in the simulated synchronization).
     */
    bool run(Processor::Dispatch dispatch, Tick limit = maxTick);

    /** Last tick at which any processor halted. */
    Tick completionTick() const;

    /**
     * Record one batch of timeline samples (every SampleStream, all
     * components) at tick `at`. Driven by run() at interval
     * boundaries; exposed for tests.
     */
    void sampleTimeline(Tick at);

  private:
    /**
     * Run the queue in interval chunks, sampling at boundaries and
     * thinning them to the timelineSampleBudget.
     */
    bool runSampled(Tick limit);

    /** True once every processor has drained its work. */
    bool allHalted() const;

    MachineConfig config_;
    TraceLog *tracer_;
    EventQueue eventq_;
    std::unique_ptr<Interconnect> dataNet_;
    std::unique_ptr<Bus> syncBus_;
    std::vector<std::unique_ptr<Bus>> clusterBuses_;
    std::unique_ptr<Memory> memory_;
    std::unique_ptr<CacheSystem> caches_;
    std::unique_ptr<SyncFabric> fabric_;
    std::vector<std::unique_ptr<Processor>> processors_;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_MACHINE_HH
