/**
 * @file
 * Native multithreaded executor for planned iteration pools.
 *
 * Runs the same iteration pools the simulator's processors
 * interpret, building each op from its class body at dispatch
 * (ir::Iteration::op), on real host threads against a
 * NativeSyncFabric and a word-granular atomic data memory. A sync op
 * is a walk of ir::perform (ir/semantics.hh), as in the simulator,
 * with the primitives bound to the fabric's atomics. Iterations
 * reach lanes by core::Dispatch (core/dispatch.hh), the simulator's
 * definition too; the executor binds only the claim, as a fetch_add
 * on its claim counter, or a CAS loop for guided claims.
 *
 * A recording round logs every tagged data access with start/end
 * *tickets* drawn from one global relaxed fetch&add clock. A ticket
 * order is consistent with happens-before: if access A
 * happens-before access B through the fabric's release/acquire
 * chains, A's end ticket was drawn before B's start ticket (RMW
 * coherence on the clock word), so A.end < B.start. Replaying the
 * log into core::TraceChecker therefore verifies real-concurrency
 * runs against the same dependence arcs the simulator enforces: a
 * scheme that fails to order an arc can produce src.end > dst.start,
 * which the checker reports. A lean round (recording off) draws no
 * tickets at all: the clock is a relaxed word no scheme reads, so
 * skipping it removes no ordering a correct scheme relies on, only
 * two shared-line RMWs per access.
 *
 * Data words are relaxed atomics holding core::valueOfWrite values.
 * Relaxed keeps even deliberately broken schemes free of C++ data
 * races (undefined behavior would make their executions
 * meaningless and would drown TSan in expected reports); ordering
 * violations surface as checker/value mismatches instead, while
 * TSan stays pointed at the fabric and executor themselves.
 */

#ifndef PSYNC_NATIVE_EXECUTOR_HH
#define PSYNC_NATIVE_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dispatch.hh"
#include "core/metrics.hh"
#include "ir/pool.hh"
#include "native/fabric.hh"
#include "sim/program.hh"

namespace psync {
namespace native {

/** Knobs of one native execution. */
struct NativeConfig
{
    unsigned numThreads = 4;
    /** Spin polls before a waiter parks. */
    unsigned spinLimit = 64;
    /**
     * Nonzero: seeded per-thread jitter perturbs interleavings
     * (pause bursts and forced yields between ops, a yield at every
     * compute op); the cross-validation suite's randomized-timing
     * axis. 0 runs ops back to back.
     */
    std::uint64_t timingSeed = 0;
    /** Host-time budget before the run aborts as deadlocked. */
    std::uint64_t timeoutMs = 20000;
    /**
     * Record tagged data accesses for replay/verification. Off, a
     * run neither logs nor draws access tickets.
     */
    bool recordAccesses = true;
    /**
     * Host-clock latency instrumentation: time each blocking wait
     * and its final park slice (the park-to-wake latency) into
     * per-thread log2 histograms, and count fetch&add CAS retries.
     * Spin and park counts are kept either way. Off by default —
     * the untimed hot path never reads the clock.
     */
    bool profile = false;
};

/** One logged data access (tickets, not simulated ticks). */
struct AccessRecord
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    sim::Addr addr = 0;
    std::uint64_t iter = 0;
    /** Value written (functional) or actually loaded. */
    std::uint64_t value = 0;
    std::uint32_t stmt = 0;
    std::uint16_t ref = 0;
    bool isWrite = false;
};

/** Aggregate outcome of one native execution. */
struct NativeRunResult
{
    /** False: deadline hit, fabric aborted, or protocol error. */
    bool completed = false;
    std::uint64_t wallNanos = 0;
    unsigned numThreads = 0;
    std::uint64_t programsRun = 0;
    std::uint64_t syncOps = 0;
    std::uint64_t waits = 0;
    std::uint64_t spins = 0;
    std::uint64_t parks = 0;
    std::uint64_t marksSkipped = 0;
    std::uint64_t accessesLogged = 0;
    /** Fatal protocol errors (PC owned past a process, ...). */
    std::vector<std::string> errors;

    /** fetch&add CAS retries (profiling runs only). */
    std::uint64_t faRetries = 0;
    /** Blocking-wait durations in ns (profiling runs only). */
    core::LogHistogram waitNs;
    /** Final-park-slice durations in ns (profiling runs only). */
    core::LogHistogram parkWakeNs;

    double
    programsPerSec() const
    {
        if (wallNanos == 0)
            return 0.0;
        return static_cast<double>(programsRun) * 1e9 /
               static_cast<double>(wallNanos);
    }
};

/** A 64-bit atomic alone on its cache line. */
struct alignas(kCacheLine) LineWord
{
    std::atomic<std::uint64_t> value{0};
};
static_assert(sizeof(LineWord) == kCacheLine &&
              alignof(LineWord) == kCacheLine);

/**
 * Word-granular shared data memory: one relaxed atomic per word of
 * a pool's data image, in one flat array. An access finds its word
 * from the image's regions; nothing is hashed. Each word is a
 * LineWord, so lanes on neighbouring iterations never write one line.
 */
class NativeDataMemory
{
  public:
    explicit NativeDataMemory(const ir::DataImage &image);

    /** The word at `addr`; panics on an address outside the image. */
    std::atomic<std::uint64_t> &
    word(sim::Addr addr)
    {
        const std::uint64_t w = image_.wordOf(addr);
        if (w == ir::DataImage::npos)
            outside(addr);
        return words_[w].value;
    }

    /** Words in the image. */
    std::size_t size() const { return image_.words(); }

    /**
     * Final contents of every written word (zero means "never
     * written" under the value rule and is skipped). Call after the
     * threads have joined.
     */
    std::map<sim::Addr, std::uint64_t> snapshot() const;

    /**
     * Zero every word, restoring the never-written state. Data
     * words are per-request payload in the runtime service (only
     * sync variables are epoch-reused), so each resubmission of a
     * cached plan starts from the same blank image a fresh
     * NativeDataMemory would. Quiescent only.
     */
    void clearAll();

  private:
    [[noreturn]] static void outside(sim::Addr addr);

    ir::DataImage image_;
    /** Zeroed at construction: the never-written state. */
    std::unique_ptr<LineWord[]> words_;
};

/** Executes iteration pools natively. */
class NativeExecutor
{
  public:
    NativeExecutor(NativeSyncFabric &fabric, NativeDataMemory &data,
                   const NativeConfig &cfg);

    /**
     * Pool mode: `cfg.numThreads` threads take iterations in pool
     * order under `policy` (the native runDoacross path).
     */
    NativeRunResult
    runPool(const ir::IterationPool &pool, core::SchedulePolicy policy,
            std::uint64_t chunk_size = 4)
    {
        return spawnRound(
            pool, {policy, chunk_size, pool.size(), cfg_.numThreads});
    }

    /**
     * Per-processor mode: thread t executes lane t of a
     * per-processor pool in order (barrier / FFT workloads); one
     * thread per lane.
     */
    NativeRunResult
    runPerProcessor(const ir::IterationPool &pool)
    {
        return spawnRound(pool, core::Dispatch(pool.lanes()));
    }

    /**
     * Gang mode — the runtime service's spawn-free path. The
     * convenience run*() entry points above spawn threads per call;
     * a service instead keeps a persistent gang and drives the same
     * machinery directly:
     *
     *   executor.beginRun(dispatch, record);  // leader, quiescent
     *   ok[t] = executor.runLane(pool, t, deadline); // each lane
     *   result = executor.finishRun(wall);    // leader, after all
     *                                         // lanes returned
     *
     * beginRun resets all per-run state (claim counter, ticket
     * clock, errors, and each lane's counters in place, keeping its
     * log's capacity) and fixes how iterations reach the round's
     * lanes; `record` overrides cfg.recordAccesses for this run,
     * letting a service sample verification every Nth request
     * without paying on the rest: a round that does not record
     * neither logs nor draws tickets. One executor can host
     * any number of sequential begin/lanes/finish rounds, recording
     * or not, in any order. The begin and finish calls must be
     * quiescent (no lane still running); lanes synchronize with
     * beginRun through the caller's dispatch handshake.
     */
    void beginRun(const core::Dispatch &dispatch, bool record_accesses);

    /**
     * Execute lane `lane`'s share of the iteration pool under the
     * round's dispatch. Thread-safe across lanes of one round.
     * @return false when this lane failed or aborted.
     */
    bool runLane(const ir::IterationPool &pool, unsigned lane,
                 Deadline deadline);

    /** Merge lane states into the round's result. */
    NativeRunResult finishRun(std::uint64_t wall_nanos);

    /**
     * The merged access log of the last round, sorted by end ticket
     * (unique); empty after a lean round. Valid after a run*() or
     * finishRun() call returns.
     */
    const std::vector<AccessRecord> &log() const { return log_; }

    /** Replay the log into a trace sink (e.g. core::TraceChecker). */
    void replayAccesses(sim::TraceSink &sink) const;

    /**
     * Check every logged read against a functional replay of the
     * log: the value a read actually loaded must equal the value
     * the last ticket-ordered write to its address produced, and
     * the final atomic words must equal the replayed image. A
     * mismatch means real hardware visibility diverged from the
     * logged order. @return human-readable mismatches; empty = ok.
     */
    std::vector<std::string> verifyValues(size_t max_messages = 16);

  private:
    struct ThreadState
    {
        std::uint64_t programsRun = 0;
        std::uint64_t syncOps = 0;
        std::uint64_t waits = 0;
        std::uint64_t spins = 0;
        std::uint64_t parks = 0;
        std::uint64_t marksSkipped = 0;
        std::vector<AccessRecord> accessLog;
        std::uint64_t jitterState = 0;

        /** Profiling-run instrumentation (cfg.profile). */
        std::uint64_t faRetries = 0;
        core::LogHistogram waitNs;
        core::LogHistogram parkWakeNs;

        /** Zero for a new round; the log keeps its capacity. */
        void
        reset()
        {
            std::vector<AccessRecord> log = std::move(accessLog);
            log.clear();
            *this = ThreadState{};
            accessLog = std::move(log);
        }
    };

    std::uint64_t
    ticket()
    {
        return clock_.value.fetch_add(1, std::memory_order_relaxed);
    }

    /** A thread's walk of ir::perform (executor.cc). */
    struct Lane;

    void maybeJitter(ThreadState &ts);
    /** Load or store op's data word; log it in recording rounds. */
    void access(const sim::Op &op, std::uint64_t iter, bool is_write,
                ThreadState &ts);
    bool runProgram(ir::Iteration iteration, ThreadState &ts,
                    Deadline deadline);
    /** Record a fatal error and abort the fabric's waiters. */
    void fail(std::string message);
    /**
     * The run*() entry points' round: fix the deadline, begin a
     * round under `dispatch`, run runLane on one spawned thread per
     * lane (one that cannot start fails the round), join, finish.
     */
    NativeRunResult spawnRound(const ir::IterationPool &pool,
                               const core::Dispatch &dispatch);
    NativeRunResult
    collect(std::vector<ThreadState> &states,
            std::uint64_t wall_nanos, bool all_ran);

    NativeSyncFabric &fabric_;
    NativeDataMemory &data_;
    NativeConfig cfg_;
    /** Every lane RMWs these: each has its own line, away from cfg_. */
    LineWord clock_{1};
    LineWord nextClaim_;
    std::mutex errorsMutex_;
    std::vector<std::string> errors_;
    std::vector<AccessRecord> log_;

    /** Per-round gang state (beginRun .. finishRun). */
    std::vector<ThreadState> states_;
    core::Dispatch dispatch_{core::SchedulePolicy::selfScheduling, 1, 0, 1};
    bool recordAccesses_ = true;
    std::atomic<bool> anyFailed_{false};
};

} // namespace native
} // namespace psync

#endif // PSYNC_NATIVE_EXECUTOR_HH
