/**
 * @file
 * Barrier synchronization built two ways (section 5, Example 4).
 *
 * The counter barrier funnels every arrival through one atomically
 * incremented word and one release flag — the hot-spot pattern the
 * paper wants to avoid. The butterfly barrier is expressed with
 * process-counter primitives: processor pid at stage i marks its
 * own PC and spins on the PC of pid xor 2^(i-1); no atomic
 * operation is needed and no single location is hammered.
 *
 * Both emit op sequences for repeated episodes (generations), as
 * the wavefront and FFT workloads require.
 */

#ifndef PSYNC_SYNC_BARRIER_HH
#define PSYNC_SYNC_BARRIER_HH

#include "sim/program.hh"
#include "sim/sync_fabric.hh"

namespace psync {
namespace sync {

/** Classic fetch&add counter barrier with a release flag. */
class CounterBarrier
{
  public:
    /** Allocates the counter and release variables on `fabric`. */
    CounterBarrier(sim::SyncFabric &fabric, unsigned num_procs);

    /** Append one barrier episode; generations are 1-based. */
    void emit(sim::Program &prog, unsigned generation) const;

    unsigned numProcs() const { return numProcs_; }

  private:
    sim::SyncVarId counter_;
    sim::SyncVarId release_;
    unsigned numProcs_;
};

/**
 * Dissemination barrier on process counters.
 *
 * The paper notes that "with a minor modification, b_barrier() can
 * work even when P is not a power of 2 [11]" — the reference is
 * Hensgen, Finkel & Manber's dissemination barrier: ceil(log2 P)
 * rounds in which processor pid signals (pid + 2^(k-1)) mod P and
 * waits for (pid - 2^(k-1)) mod P. Like the butterfly it needs one
 * PC per processor, plain writes, and no atomic operations, but it
 * accepts any processor count.
 */
class DisseminationBarrier
{
  public:
    /** Allocates one PC per processor; any P >= 1. */
    DisseminationBarrier(sim::SyncFabric &fabric,
                         unsigned num_procs);

    /** Append one barrier episode for processor `pid` (1-based). */
    void emit(sim::Program &prog, sim::ProcId pid,
              unsigned episode) const;

    /** ceil(log2(P)) rounds per episode. */
    unsigned rounds() const { return rounds_; }

    sim::SyncVarId pcVarOf(sim::ProcId pid) const
    {
        return base_ + pid;
    }

  private:
    sim::SyncVarId base_;
    unsigned numProcs_;
    unsigned rounds_;
};

/** Butterfly barrier on process counters (Fig. 5.4). */
class ButterflyBarrier
{
  public:
    /**
     * Allocates one PC per processor. `num_procs` must be a power
     * of two, as in the paper ("with a minor modification,
     * b_barrier() can work even when P is not a power of 2" — the
     * modification is not reproduced here).
     */
    ButterflyBarrier(sim::SyncFabric &fabric, unsigned num_procs);

    /**
     * Append one barrier episode for processor `pid`; the steps of
     * episode e occupy [(e-1)*stages+1, e*stages].
     */
    void emit(sim::Program &prog, sim::ProcId pid,
              unsigned episode) const;

    /** log2(P) stages per episode. */
    unsigned stages() const { return stages_; }

    sim::SyncVarId pcVarOf(sim::ProcId pid) const
    {
        return base_ + pid;
    }

  private:
    sim::SyncVarId base_;
    unsigned numProcs_;
    unsigned stages_;
};

} // namespace sync
} // namespace psync

#endif // PSYNC_SYNC_BARRIER_HH
