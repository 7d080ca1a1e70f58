#include "native/fabric.hh"

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace psync {
namespace native {

namespace {

/** Polite spin-loop hint; falls back to nothing off x86. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
}

/**
 * Cap on one parked sleep. Bounds the cost of the (already
 * unlikely) lost-wakeup window and keeps deadline checks live even
 * if a writer dies without notifying.
 */
constexpr auto kParkSlice = std::chrono::microseconds(500);

} // namespace

NativeSyncFabric::NativeSyncFabric(unsigned count, unsigned spin_limit)
    : slots_(new Slot[count]), count_(count), spinLimit_(spin_limit)
{
}

NativeSyncFabric::NativeSyncFabric(const sim::SyncFabric &planned,
                                   unsigned spin_limit)
    : NativeSyncFabric(planned.allocated(), spin_limit)
{
    for (unsigned v = 0; v < count_; ++v)
        slots_[v].word.store(planned.peek(v), std::memory_order_relaxed);
}

NativeSyncFabric::NativeSyncFabric(
    const std::vector<sim::SyncWord> &init_words, unsigned spin_limit)
    : NativeSyncFabric(static_cast<unsigned>(init_words.size()),
                       spin_limit)
{
    for (unsigned v = 0; v < count_; ++v)
        slots_[v].word.store(init_words[v], std::memory_order_relaxed);
}

void
NativeSyncFabric::enableEpochReuse()
{
    for (unsigned v = 0; v < count_; ++v)
        slots_[v].init = slots_[v].word.load(std::memory_order_relaxed);
    epochEnabled_ = true;
}

void
NativeSyncFabric::beginEpoch()
{
    // Quiescent by contract: no concurrent accessors, and the
    // caller publishes the bump with its own happens-before edge
    // (the service's gang-dispatch handshake), so relaxed is enough.
    epoch_.fetch_add(1, std::memory_order_relaxed);
    aborted_.store(false, std::memory_order_release);
}

bool
NativeSyncFabric::claimWord(Slot &slot, std::uint64_t epoch)
{
    std::uint64_t cur = slot.tag.load(std::memory_order_acquire);
    for (;;) {
        if (cur == epoch)
            return false;
        if (cur == (epoch | kClaimBit)) {
            // Another writer is initializing right now; wait for
            // the tag to land, then the word is current.
            cpuRelax();
            cur = slot.tag.load(std::memory_order_acquire);
            continue;
        }
        if (slot.tag.compare_exchange_weak(cur, epoch | kClaimBit,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
            return true;
    }
}

/**
 * Make `var`'s word physically current for this epoch before a
 * write touches it: the claim winner rewrites the init value and
 * publishes the epoch tag; everyone else returns once the tag is
 * current. No-op when epoch reuse is off.
 */
NativeSyncFabric::Slot &
NativeSyncFabric::ensureCurrent(sim::SyncVarId var)
{
    Slot &slot = slots_[var];
    if (!epochEnabled_)
        return slot;
    std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    if (slot.tag.load(std::memory_order_acquire) == e)
        return slot;
    if (claimWord(slot, e)) {
        slot.word.store(slot.init, std::memory_order_relaxed);
        slot.tag.store(e, std::memory_order_release);
    }
    return slot;
}

void
NativeSyncFabric::store(sim::SyncVarId var, sim::SyncWord value)
{
    ensureCurrent(var).word.store(value, std::memory_order_release);
    wake(var);
}

sim::SyncWord
NativeSyncFabric::fetchAdd(sim::SyncVarId var, sim::SyncWord delta)
{
    sim::SyncWord old = ensureCurrent(var).word.fetch_add(
        delta, std::memory_order_acq_rel);
    wake(var);
    return old;
}

sim::SyncWord
NativeSyncFabric::fetchAddCounted(sim::SyncVarId var,
                                  sim::SyncWord delta,
                                  std::uint64_t &retries)
{
    std::atomic<sim::SyncWord> &word = ensureCurrent(var).word;
    sim::SyncWord cur = word.load(std::memory_order_relaxed);
    while (!word.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        ++retries;
        cpuRelax();
    }
    wake(var);
    return cur;
}

void
NativeSyncFabric::wake(sim::SyncVarId var)
{
    Shard &shard = shardOf(var);
    // seq_cst pairs with the parker's seq_cst increment: either we
    // see the waiter count and notify, or the parker's subsequent
    // value re-check sees our store and never sleeps.
    if (shard.waiters.load(std::memory_order_seq_cst) == 0)
        return;
    {
        // Empty critical section: a parker between its last check
        // and cv.wait() holds the mutex, so this bracket orders the
        // notify after it reaches the wait.
        std::lock_guard<std::mutex> lk(shard.m);
    }
    shard.cv.notify_all();
}

WaitOutcome
NativeSyncFabric::waitGE(sim::SyncVarId var, sim::SyncWord threshold,
                         Deadline deadline, bool timed)
{
    WaitOutcome out;
    using Clock = std::chrono::steady_clock;
    using std::chrono::nanoseconds;
    Clock::time_point t0;
    if (timed)
        t0 = Clock::now();
    auto nanos_since = [](Clock::time_point from) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<nanoseconds>(Clock::now() -
                                                    from)
                .count());
    };

    for (unsigned i = 0; i < spinLimit_; ++i) {
        if (loadValue(var, std::memory_order_acquire) >= threshold) {
            out.satisfied = true;
            if (timed && out.spins)
                out.waitNanos = nanos_since(t0);
            return out;
        }
        if (aborted())
            return out;
        ++out.spins;
        cpuRelax();
        // On an oversubscribed host the writer may need our core.
        if ((i & 15u) == 15u)
            std::this_thread::yield();
    }

    Shard &shard = shardOf(var);
    std::unique_lock<std::mutex> lk(shard.m);
    shard.waiters.fetch_add(1, std::memory_order_seq_cst);
    Clock::time_point slice_start;
    bool slept = false;
    for (;;) {
        if (loadValue(var, std::memory_order_seq_cst) >= threshold) {
            out.satisfied = true;
            if (timed && slept)
                out.parkWakeNanos = nanos_since(slice_start);
            break;
        }
        if (aborted())
            break;
        if (Clock::now() >= deadline) {
            lk.unlock();
            abortAll();
            lk.lock();
            break;
        }
        ++out.parks;
        if (timed) {
            slice_start = Clock::now();
            slept = true;
        }
        shard.cv.wait_for(lk, kParkSlice);
    }
    shard.waiters.fetch_sub(1, std::memory_order_seq_cst);
    if (timed)
        out.waitNanos = nanos_since(t0);
    return out;
}

void
NativeSyncFabric::abortAll()
{
    aborted_.store(true, std::memory_order_release);
    for (unsigned s = 0; s < kNumShards; ++s) {
        {
            std::lock_guard<std::mutex> lk(shards_[s].m);
        }
        shards_[s].cv.notify_all();
    }
}

} // namespace native
} // namespace psync
