/**
 * @file
 * Native synchronization-variable fabric: the paper's primitives on
 * real C++11 atomics.
 *
 * Where the simulator's SyncFabric models the *cost* of get_PC /
 * set_PC / Advance / Await / full-empty keys / barrier counters,
 * this fabric implements their *semantics* on host shared memory so
 * the same planned programs run on real threads:
 *
 *   paper primitive        here                     memory order
 *   ---------------------  -----------------------  ---------------
 *   set_PC / release_PC /  store()                  release
 *     Advance / set key
 *   get_PC / read key      load()                   acquire
 *   wait_PC / Await /      waitGE()                 acquire (spin-
 *     key test                                      then-park)
 *   fetch&add (barrier     fetchAdd()               acq_rel
 *     arrival, dispatch)
 *
 * Every release-store/RMW that satisfies an acquire waitGE creates
 * the happens-before edge the scheme's dependence arc requires;
 * chained barrier arrivals stay ordered through the RMW release
 * sequence.
 *
 * Waiting is spin-then-park. After a bounded spin of acquire loads
 * (with a CPU relax hint) the waiter parks on one of 64
 * mutex+condvar shards keyed by variable id. Writers wake a shard
 * only when its waiter count says someone may be parked; the count
 * handshake uses seq_cst so a parker that checked the old value
 * cannot miss the notify (Dekker-style store/load pairs). Each
 * parked sleep is time-bounded, so even a lost notify race costs
 * microseconds, not a hang. waitGE takes a deadline past which the
 * whole fabric aborts — a deadlocked scheme turns into
 * completed=false instead of a stuck process.
 *
 * Epoch-based reuse (the runtime service's init-cost amortization,
 * paper section 4): enableEpochReuse() snapshots the current
 * variable values as the fabric's *init image*; beginEpoch() then
 * logically restores that image in O(1) by bumping an epoch
 * counter instead of rewriting every word. Each word carries an
 * epoch tag; an access whose tag is stale sees the init value, and
 * the first write of an epoch claims the tag before publishing.
 * beginEpoch() must be called at a quiescent point (no concurrent
 * accessors) and also clears a pending abort, which is what makes
 * timeout -> abortAll -> resubmit-clean possible on a long-lived
 * fabric.
 *
 * Layout: each variable's value, epoch tag and init value fill one
 * kCacheLine slot of a flat array sized once, at construction. A
 * lane polling a variable then sees traffic only when that variable
 * is written, as the paper's processors poll local images.
 */

#ifndef PSYNC_NATIVE_FABRIC_HH
#define PSYNC_NATIVE_FABRIC_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/sync_fabric.hh"
#include "sim/types.hh"

namespace psync {
namespace native {

/** Bytes per cache line; not std::hardware_destructive_interference_size,
 * which GCC 12 reports in a header (-Winterference-size). */
inline constexpr std::size_t kCacheLine = 64;

/** Host-time point used for wait deadlines. */
using Deadline = std::chrono::steady_clock::time_point;

/** Spin/park counters of one waitGE call. */
struct WaitOutcome
{
    /** Spin-loop polls before satisfaction (or park). */
    std::uint64_t spins = 0;
    /** Times the waiter parked on a condition variable. */
    std::uint64_t parks = 0;
    /** False: the fabric aborted (deadline or external abort). */
    bool satisfied = false;

    /**
     * Host-clock instrumentation, filled only when waitGE is called
     * with `timed == true` (profiling runs; the untimed hot path
     * never reads the clock). All in nanoseconds.
     */
    /** Total blocked time, first poll through satisfaction. */
    std::uint64_t waitNanos = 0;
    /**
     * Duration of the final park slice — the sleep that ended with
     * the threshold satisfied. Upper-bounds the notify-to-running
     * wakeup latency (the slice also covers time before the writer
     * committed). Zero when the wait never parked.
     */
    std::uint64_t parkWakeNanos = 0;
};

/** Synchronization variables on host atomics. */
class NativeSyncFabric
{
  public:
    /**
     * Mirror a planned simulator fabric: the same number of
     * variables, each holding its current (initialized) value, so
     * programs emitted against the sim fabric's variable ids run
     * unchanged.
     */
    NativeSyncFabric(const sim::SyncFabric &planned,
                     unsigned spin_limit = 64);

    /**
     * Build from a saved init image (a cached plan's snapshot of
     * the planning fabric), ready for enableEpochReuse().
     */
    NativeSyncFabric(const std::vector<sim::SyncWord> &init_words,
                     unsigned spin_limit = 64);

    NativeSyncFabric(const NativeSyncFabric &) = delete;
    NativeSyncFabric &operator=(const NativeSyncFabric &) = delete;

    unsigned allocated() const { return count_; }

    /** Acquire-load the current value. */
    sim::SyncWord
    load(sim::SyncVarId var) const
    {
        return loadValue(var, std::memory_order_acquire);
    }

    /** Release-store a value and wake parked waiters. */
    void store(sim::SyncVarId var, sim::SyncWord value);

    /** Atomic acq_rel add; returns the pre-add value; wakes. */
    sim::SyncWord fetchAdd(sim::SyncVarId var, sim::SyncWord delta);

    /**
     * fetchAdd by CAS loop, counting retries into `retries` —
     * the contention signal a hardware fetch&add would hide.
     * Profiling-only: the uncontended path costs one extra load, so
     * the executor calls it only when profiling is enabled.
     */
    sim::SyncWord fetchAddCounted(sim::SyncVarId var,
                                  sim::SyncWord delta,
                                  std::uint64_t &retries);

    /**
     * Block until value(var) >= threshold (same unsigned order the
     * packed PC words use). Returns outcome.satisfied == false when
     * the fabric aborted or `deadline` passed (which itself aborts
     * the fabric, releasing every other waiter too). With `timed`
     * the outcome carries host-clock wait and park-wake durations;
     * untimed calls never read the clock on the spin path.
     */
    WaitOutcome waitGE(sim::SyncVarId var, sim::SyncWord threshold,
                       Deadline deadline, bool timed = false);

    /** Wake everything and make all pending/future waits fail. */
    void abortAll();

    bool aborted() const
    {
        return aborted_.load(std::memory_order_acquire);
    }

    /** Non-atomic setup-time override (mirrors sim poke()). */
    void
    poke(sim::SyncVarId var, sim::SyncWord value)
    {
        slots_[var].word.store(value, std::memory_order_release);
    }

    /**
     * Snapshot the current values as the fabric's init image and
     * switch every accessor to the epoch-tag protocol. Setup only
     * (no concurrent accessors); call once, after any poke()
     * overrides.
     */
    void enableEpochReuse();

    /**
     * Start a fresh execution epoch: every variable logically
     * reverts to its init-image value without any per-word write,
     * and a pending abort is cleared so an aborted (timed-out)
     * fabric is clean for the next submission. Quiescent only: the
     * caller must guarantee no concurrent accessors, and must
     * publish the bump to the next epoch's threads with a
     * happens-before edge (the service's dispatch handshake does).
     */
    void beginEpoch();

    /** Epochs started since enableEpochReuse(). */
    std::uint64_t epoch() const
    {
        return epoch_.load(std::memory_order_relaxed) - 1;
    }

  private:
    /** One variable, alone on its cache line. */
    struct alignas(kCacheLine) Slot
    {
        std::atomic<sim::SyncWord> word{0};
        /** Epoch tag (epoch reuse only); 0 is stale for every epoch. */
        std::atomic<std::uint64_t> tag{0};
        /** Init-image value restored (logically) by beginEpoch(). */
        sim::SyncWord init = 0;
    };
    static_assert(sizeof(Slot) == kCacheLine &&
                  alignof(Slot) == kCacheLine);

    struct Shard
    {
        std::mutex m;
        std::condition_variable cv;
        /**
         * Waiters that published intent to park. seq_cst on both
         * sides of the handshake: parker increments then re-checks
         * the variable; writer stores then reads the count.
         */
        std::atomic<unsigned> waiters{0};
    };

    static constexpr unsigned kNumShards = 64;

    /** Tag bit marking a word mid-claim by its epoch's first writer. */
    static constexpr std::uint64_t kClaimBit = 1ull << 63;

    Shard &
    shardOf(sim::SyncVarId var) const
    {
        return shards_[var % kNumShards];
    }

    /**
     * Epoch-aware value read: a stale (or mid-claim) tag means the
     * word has not been written this epoch yet, so its logical
     * value is the init image's.
     */
    sim::SyncWord
    loadValue(sim::SyncVarId var, std::memory_order order) const
    {
        const Slot &slot = slots_[var];
        if (!epochEnabled_)
            return slot.word.load(order);
        std::uint64_t e = epoch_.load(std::memory_order_relaxed);
        if (slot.tag.load(std::memory_order_acquire) != e)
            return slot.init;
        return slot.word.load(order);
    }

    /**
     * Claim a stale slot for the current epoch before its first
     * write: CAS the tag to the claim sentinel, making this thread
     * the word's exclusive initializer; everyone else spins on the
     * tag (or reads the init value) until the epoch tag lands.
     * Returns true when this caller won the claim (and must publish
     * the tag after writing); false when the tag is already current.
     */
    static bool claimWord(Slot &slot, std::uint64_t epoch);

    /** Pre-write hook: lazily reinit a stale word for this epoch;
     * returns the variable's slot. */
    Slot &ensureCurrent(sim::SyncVarId var);

    /** Notify var's shard if its waiter count says someone may be
     * parked. */
    void wake(sim::SyncVarId var);

    /** Allocate `count` slots; the constructors fill their words. */
    NativeSyncFabric(unsigned count, unsigned spin_limit);

    std::unique_ptr<Slot[]> slots_;
    unsigned count_;
    mutable Shard shards_[kNumShards];
    unsigned spinLimit_;
    bool epochEnabled_ = false;
    /** Current epoch number; tags start stale at 0, epochs at 1. */
    std::atomic<std::uint64_t> epoch_{1};
    std::atomic<bool> aborted_{false};
};

} // namespace native
} // namespace psync

#endif // PSYNC_NATIVE_FABRIC_HH
