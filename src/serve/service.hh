/**
 * @file
 * The persistent Doacross runtime service.
 *
 * Everything the per-run native backend pays per program —
 * dependence analysis, scheme planning, IR lowering + passes +
 * verification, sync-variable initialization, thread spawn/join —
 * is paid once here and amortized over millions of executions:
 *
 *  - submit() resolves the request through a core::PlanCache, so a
 *    loop seen before costs one key lookup, not a replan;
 *  - a fixed set of worker *gangs* (gangSize threads each, started
 *    once) pulls requests from a bounded MPMC queue — the gang
 *    leader pops, primes an execution arena, and publishes the work
 *    to its members through a generation handshake; no thread is
 *    ever spawned per request;
 *  - each (gang, plan) pair keeps an arena: a NativeSyncFabric in
 *    epoch-reuse mode (beginEpoch() logically restores the plan's
 *    init image in O(1) — the paper's §4 initialization cost,
 *    amortized away), a NativeDataMemory (cleared before each reuse:
 *    data words are request payload, only sync vars are
 *    epoch-reused), and a NativeExecutor driven through its
 *    gang-mode API, which self-schedules over the gang's lanes;
 *  - each completion is published as soon as its request is
 *    served, with its submit-to-publish latency recorded in a
 *    per-gang LogHistogram;
 *  - a gang keeps at most max(8, planCacheCapacity) arenas; a new
 *    plan past that retires the least recently used one, which is
 *    destroyed only after the new request's completion is out, its
 *    plan handed back for the next submitPlan() to release;
 *  - every Nth request per gang (verifySampleEvery) runs with
 *    access recording on (the only requests that draw the native
 *    executor's access tickets) and is fully verified after
 *    execution: trace-checker replay against the plan's dependence
 *    arcs, the executor's read-value audit, and a bit-exact
 *    comparison of the functional memory/read image against the
 *    cached plan's reference oracle, which the plan's first sampled
 *    verification builds (plans never verified never pay for one);
 *  - a per-request watchdog deadline turns a deadlocked or wedged
 *    plan into abortAll + a failed completion; the next request on
 *    that arena starts from beginEpoch(), which also clears the
 *    abort, so one poisoned request never poisons the service.
 */

#ifndef PSYNC_SERVE_SERVICE_HH
#define PSYNC_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/metrics.hh"
#include "core/plan_cache.hh"
#include "native/executor.hh"
#include "serve/mpmc_queue.hh"

namespace psync {
namespace serve {

/** Service-wide configuration, fixed at construction. */
struct ServeConfig
{
    /** Worker gangs; requests are served one per gang at a time. */
    unsigned gangs = 2;
    /** Threads per gang = lanes per execution. */
    unsigned gangSize = 4;
    /** Execution knobs (spin, jitter, profile). */
    native::NativeConfig native;
    /** Submission queue slots (rounded up to a power of two). */
    std::size_t queueCapacity = 1024;
    std::size_t planCacheCapacity = 64;
    /**
     * Run full verification on every Nth request per gang
     * (0 = never). Sampled requests pay for access logging and
     * replay; the rest run on the lean path.
     */
    unsigned verifySampleEvery = 0;
    /** Per-request watchdog: deadline before abortAll. */
    std::uint64_t requestTimeoutMs = 2000;
};

/** Outcome of one served request. */
struct Completion
{
    std::uint64_t requestId = 0;
    unsigned gang = 0;
    /** All programs ran, no abort, no protocol errors. */
    bool completed = false;
    /** This request was a verification sample. */
    bool verified = false;
    /** Sample passed all three checks (true when not sampled). */
    bool verifyOk = true;
    /** submit() to publish, host nanoseconds. */
    std::uint64_t latencyNanos = 0;
    std::uint64_t programsRun = 0;
    /** Human-readable verification/execution problems. */
    std::vector<std::string> problems;
};

/** Aggregate service counters (stable snapshot via stats()). */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completedOk = 0;
    std::uint64_t failed = 0;
    std::uint64_t programsRun = 0;
    std::uint64_t verifySamples = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t epochsBegun = 0;
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    double planCacheHitRate = 0.0;
    /** Submit-to-publish latency across all gangs, nanoseconds. */
    core::LogHistogram latencyNs;
};

/**
 * The reference builder a service gives its plan cache for
 * renamed-storage plans, which have no sequential oracle: one
 * fresh-init native run, executed inline on the asking thread as a
 * single lane of the gang API (no thread is spawned). One
 * self-scheduled lane dispatches the iterations in order, so no
 * wait ever blocks, and a renamed-storage image does not depend on
 * the schedule. It captures values only (spin limit, request
 * timeout), never the service, so a client may still build a plan's
 * reference after stop().
 */
core::ReferenceBuilder renamedReferenceBuilder(const ServeConfig &cfg);

/**
 * The long-lived service. Construction starts the gangs; stop()
 * (or destruction) closes the queue, drains in-flight work and
 * joins every thread.
 */
class DoacrossService
{
  public:
    explicit DoacrossService(const ServeConfig &cfg);
    ~DoacrossService();

    DoacrossService(const DoacrossService &) = delete;
    DoacrossService &operator=(const DoacrossService &) = delete;

    /**
     * Plan (through the cache) and enqueue one execution of `loop`
     * under `kind`. Blocks while the queue is full (natural
     * backpressure). @return the request id, or 0 after stop().
     */
    std::uint64_t submit(const dep::Loop &loop,
                         sync::SchemeKind kind,
                         const core::RunConfig &rcfg);

    /** Enqueue an already-cached plan (hot submission path). */
    std::uint64_t
    submitPlan(std::shared_ptr<const core::CachedPlan> plan);

    /**
     * Resolve a plan through the service's cache without
     * enqueueing. Feed the result to submitPlan(). The plan's
     * reference() builds its oracle on first use (a native run for
     * renamed-storage plans) and stays usable after stop().
     */
    std::shared_ptr<const core::CachedPlan>
    plan(const dep::Loop &loop, sync::SchemeKind kind,
         const core::RunConfig &rcfg);

    /** Block until every submitted request has been published. */
    void waitIdle();

    /** Move out everything published so far (after waitIdle() for
     * a complete picture). */
    std::vector<Completion> takeCompletions();

    /** Close the queue, drain, join all gang threads. Idempotent. */
    void stop();

    ServiceStats stats() const;
    const core::PlanCache &planCache() const { return cache_; }
    const ServeConfig &config() const { return cfg_; }

  private:
    /** One queued execution request. */
    struct Request
    {
        std::uint64_t id = 0;
        std::shared_ptr<const core::CachedPlan> plan;
        std::chrono::steady_clock::time_point submitTime{};
    };

    /**
     * Everything needed to rerun one plan on one gang without any
     * per-request construction. Gang-local: only its own gang's
     * threads ever touch it.
     */
    struct Arena
    {
        std::shared_ptr<const core::CachedPlan> plan;
        native::NativeSyncFabric fabric;
        native::NativeDataMemory data;
        native::NativeExecutor executor;
        /** The gang's requestsSeen when it last served (LRU). */
        std::uint64_t lastUse = 0;

        Arena(const std::shared_ptr<const core::CachedPlan> &p,
              const ServeConfig &cfg);
    };

    /** One worker gang: leader (rank 0) + members. */
    struct Gang
    {
        unsigned index = 0;
        std::mutex m;
        std::condition_variable cv;
        std::condition_variable doneCv;
        /** Bumped by the leader per dispatched request. */
        std::uint64_t generation = 0;
        bool shutdown = false;
        /** Member lanes finished with the current generation. */
        unsigned lanesDone = 0;
        /** Work descriptor, valid for the current generation. */
        Arena *work = nullptr;
        native::Deadline deadline{};

        /** Leader-local state (no locking needed). */
        std::unordered_map<std::string, std::unique_ptr<Arena>>
            arenas;
        /** Evicted arena, destroyed once its successor publishes. */
        std::unique_ptr<Arena> retired;
        std::uint64_t requestsSeen = 0;
        core::LogHistogram latencyNs;
    };

    void leaderLoop(Gang &gang);
    void memberLoop(Gang &gang, unsigned lane);
    void serveRequest(Gang &gang, Request &req);
    void verifyRun(Arena &arena, Completion &completion);
    /** Drop retiredPlans_ on the calling (submitting) thread. */
    void releaseRetiredPlans();
    Arena &arenaFor(Gang &gang,
                    const std::shared_ptr<const core::CachedPlan> &plan);

    ServeConfig cfg_;
    core::PlanCache cache_;
    MpmcQueue<Request> queue_;

    std::vector<std::unique_ptr<Gang>> gangs_;
    std::vector<std::thread> threads_;

    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<bool> stopped_{false};

    /**
     * Plans of retired arenas, released by the next submitPlan() or
     * by stop(). A plan is allocated by the thread that planned it;
     * a gang leader freeing its many blocks contends with that
     * thread's allocator, which cost serve-miss about an eighth of
     * its throughput.
     */
    std::mutex retiredPlansMutex_;
    std::vector<std::shared_ptr<const core::CachedPlan>> retiredPlans_;

    /** Published-completion store + idle tracking. */
    mutable std::mutex completionsMutex_;
    std::condition_variable idleCv_;
    std::vector<Completion> completions_;
    std::uint64_t published_ = 0;
    std::atomic<std::uint64_t> submitted_{0};

    /** Aggregate counters (relaxed; snapshot via stats()). */
    std::atomic<std::uint64_t> completedOk_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> programsRun_{0};
    std::atomic<std::uint64_t> verifySamples_{0};
    std::atomic<std::uint64_t> verifyFailures_{0};
    std::atomic<std::uint64_t> epochsBegun_{0};
};

} // namespace serve
} // namespace psync

#endif // PSYNC_SERVE_SERVICE_HH
