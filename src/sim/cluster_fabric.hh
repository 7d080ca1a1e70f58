/**
 * @file
 * Two-level hierarchical synchronization fabric.
 *
 * SynCron-style composition of the paper's section-6 register
 * organization: processors are grouped into clusters, each with its
 * own synchronization-register images and a private local broadcast
 * bus, and the clusters are joined by one global serialization
 * stage. Same-cluster synchronization never leaves the cluster —
 * polls spin on free local images and a write reaches its
 * own-cluster waiters after one local-bus broadcast — while
 * cross-cluster visibility rides a per-(cluster, variable)-coalesced
 * global broadcast. Fetch&adds serialize at the global stage, but
 * concurrent increments from one cluster batch into a single global
 * transaction whose pre-values are distributed FIFO to the batch
 * members, so P processors advancing one hot counter cost
 * O(clusters) global transactions per round instead of O(P).
 *
 * This is the scalable counterpart of RegisterSyncFabric: at
 * P = 1024 a flat broadcast bus serializes every update of every
 * processor; here the local buses run in parallel and the global
 * stage only sees per-cluster summaries.
 */

#ifndef PSYNC_SIM_CLUSTER_FABRIC_HH
#define PSYNC_SIM_CLUSTER_FABRIC_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/bus.hh"
#include "sim/event_queue.hh"
#include "sim/ring_fifo.hh"
#include "sim/sync_fabric.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"
#include "sim/waiter_queue.hh"

namespace psync {
namespace sim {

/** Per-cluster register images + local buses + a global stage. */
class HierarchicalSyncFabric : public SyncFabric
{
  public:
    /**
     * @param eq            event queue
     * @param cluster_buses one local broadcast bus per cluster
     *                      (owned by the machine; must outlive the
     *                      fabric)
     * @param global_bus    the global serialization stage
     * @param num_procs     processors, split evenly over clusters
     * @param capacity      registers per cluster image
     * @param coalesce      enable pending-write coalescing (local
     *                      and global)
     */
    HierarchicalSyncFabric(EventQueue &eq,
                           std::vector<Bus *> cluster_buses,
                           Bus &global_bus, unsigned num_procs,
                           unsigned capacity, bool coalesce = true,
                           TraceLog *tracer = nullptr);

    FabricKind kind() const override
    {
        return FabricKind::hierarchical;
    }

    SyncVarId allocate(unsigned count, SyncWord init_value) override;
    unsigned allocated() const override { return numVars; }
    unsigned capacity() const { return capacity_; }

    unsigned numClusters() const
    {
        return static_cast<unsigned>(clusterBuses.size());
    }

    /** Cluster a processor belongs to. */
    unsigned
    clusterOf(ProcId who) const
    {
        unsigned c = who / procsPerCluster_;
        return c < numClusters() ? c : numClusters() - 1;
    }

    unsigned procsPerCluster() const { return procsPerCluster_; }

    void waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                WaitHandler on_done) override;
    void read(ProcId who, SyncVarId var, ValueHandler on_done) override;
    void write(ProcId who, SyncVarId var, SyncWord value,
               DoneHandler on_done) override;
    void fetchInc(ProcId who, SyncVarId var,
                  ValueHandler on_done) override;

    SyncWord peek(SyncVarId var) const override;
    void poke(SyncVarId var, SyncWord value) override;

    Tick issueCost() const override { return 1; }

    /** Local-bus broadcasts (cluster-internal commits). */
    std::uint64_t localBroadcasts() const { return localBroadcasts_; }

    /** Global-stage transactions (cross-cluster commits + incs). */
    std::uint64_t globalBroadcasts() const { return globalBroadcasts_; }

    /** Writes absorbed into a pending local broadcast. */
    std::uint64_t coalescedLocal() const { return coalescedLocal_; }

    /** Cross-cluster updates absorbed into a pending global one. */
    std::uint64_t coalescedGlobal() const { return coalescedGlobal_; }

    /** Fetch&adds that joined an already-open cluster batch. */
    std::uint64_t combinedIncs() const { return combinedIncs_; }

    void sampleTimeline(TraceLog &t, Tick at) const override;

  private:
    /** A processor spinning on its cluster's image of a variable. */
    struct Waiter
    {
        ProcId who = 0;
        Tick started = 0;
        WaitHandler onDone;
    };

    struct PendingWrite
    {
        SyncWord value;
        /** Value captured when the broadcast won its bus. */
        SyncWord latched = 0;
        bool valid = false;
    };

    /** Open fetch&add batch of one (cluster, var) pair. */
    struct IncBatch
    {
        std::vector<ValueHandler> members;
        bool valid = false;
    };

    /** Latched batch in flight on the global bus (FIFO). */
    struct InflightBatch
    {
        SyncVarId var = 0;
        std::vector<ValueHandler> members;
    };

    /** Deferred completion, one scheduled event per entry (FIFO). */
    struct ReadyOp
    {
        enum class Kind : std::uint8_t
        {
            wake,
            readValue,
            writeDone,
        };

        Kind kind = Kind::wake;
        Tick waited = 0;
        SyncWord value = 0;
        WaitHandler onWait;
        ValueHandler onValue;
        DoneHandler onDone;
    };

    static std::uint64_t
    pairKey(std::uint32_t hi, std::uint32_t lo)
    {
        return (static_cast<std::uint64_t>(hi) << 32) | lo;
    }

    /** Commit `value` into cluster `c`'s image; wake its waiters. */
    void commitCluster(unsigned c, SyncVarId var, SyncWord value);
    /** Forward a locally-committed write to the global stage. */
    void forwardGlobal(ProcId who, unsigned c, SyncVarId var,
                       SyncWord value);
    /** Global stage committed `value`: propagate to every image. */
    void commitGlobal(SyncVarId var, SyncWord value);
    /** Apply the oldest latched fetch&add batch at global done. */
    void applyIncBatch();
    void pushReady(ReadyOp op);
    void runReady();

    EventQueue &eventq;
    std::vector<Bus *> clusterBuses;
    Bus &globalBus;
    unsigned procsPerCluster_;
    unsigned capacity_;
    bool coalesceEnabled;
    TraceLog *tracer;
    unsigned numVars = 0;

    /** Authoritative values, serialized by the global stage. */
    std::vector<SyncWord> values;
    /** Per-cluster local images. */
    std::vector<std::vector<SyncWord>> images;
    /** Waiters spinning on cluster images: [cluster][var]. */
    std::vector<std::vector<WaiterQueue<Waiter>>> waiters;
    /** Blocked waiters per var (tracer-gated timeline shadow). */
    std::unordered_map<SyncVarId, unsigned> activeWaiters;
    /** Pending local write per (proc, var). */
    std::unordered_map<std::uint64_t, PendingWrite> pendingLocal;
    /** Pending global write per (cluster, var). */
    std::unordered_map<std::uint64_t, PendingWrite> pendingGlobal;
    /** Open fetch&add batch per (cluster, var). */
    std::unordered_map<std::uint64_t, IncBatch> openIncs;
    /** Latched batches awaiting global completion, bus FIFO. */
    RingFifo<InflightBatch> inflightIncs;
    /** Fetch&add handlers staged per cluster (local buses grant
     *  FIFO), so bus closures never capture fat handlers. */
    std::vector<RingFifo<ValueHandler>> localIncs;
    RingFifo<ReadyOp> readyOps;

    std::uint64_t localBroadcasts_ = 0;
    std::uint64_t globalBroadcasts_ = 0;
    std::uint64_t coalescedLocal_ = 0;
    std::uint64_t coalescedGlobal_ = 0;
    std::uint64_t combinedIncs_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_CLUSTER_FABRIC_HH
