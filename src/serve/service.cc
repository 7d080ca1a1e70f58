#include "serve/service.hh"

#include <algorithm>

#include "core/trace_check.hh"
#include "core/value_trace.hh"
#include "sim/logging.hh"

namespace psync {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nanosSince(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                             from)
            .count());
}

} // namespace

core::ReferenceBuilder
renamedReferenceBuilder(const ServeConfig &cfg)
{
    return [spin_limit = cfg.native.spinLimit,
            timeout_ms = cfg.requestTimeoutMs](
               const core::CachedPlan &plan,
               core::ReferenceImage &image) {
        native::NativeSyncFabric fabric(plan.initWords, spin_limit);
        native::NativeDataMemory data(plan.image);
        native::NativeExecutor executor(fabric, data, {});
        executor.beginRun(
            core::Dispatch(core::SchedulePolicy::selfScheduling, 1,
                           plan.pool.size(), 1),
            true);
        const auto start = Clock::now();
        executor.runLane(plan.pool, 0,
                         start + std::chrono::milliseconds(timeout_ms));
        if (!executor.finishRun(nanosSince(start, Clock::now()))
                 .completed)
            return false;
        core::ValueTrace values;
        executor.replayAccesses(values);
        image.memory = values.memory();
        image.reads = values.reads();
        return true;
    };
}

DoacrossService::Arena::Arena(
    const std::shared_ptr<const core::CachedPlan> &p,
    const ServeConfig &cfg)
    : plan(p),
      fabric(p->initWords, cfg.native.spinLimit),
      data(p->image),
      executor(fabric, data, cfg.native)
{
    // From here on, every request restores the plan's init image
    // with one epoch bump instead of |initWords| writes.
    fabric.enableEpochReuse();
}

DoacrossService::DoacrossService(const ServeConfig &cfg)
    : cfg_(cfg),
      cache_(cfg.planCacheCapacity, renamedReferenceBuilder(cfg)),
      queue_(cfg.queueCapacity)
{
    cfg_.gangs = std::max(1u, cfg_.gangs);
    cfg_.gangSize = std::max(1u, cfg_.gangSize);
    gangs_.reserve(cfg_.gangs);
    for (unsigned g = 0; g < cfg_.gangs; ++g) {
        gangs_.push_back(std::make_unique<Gang>());
        gangs_.back()->index = g;
    }
    for (auto &gang : gangs_) {
        Gang *gp = gang.get();
        threads_.emplace_back([this, gp] { leaderLoop(*gp); });
        for (unsigned lane = 1; lane < cfg_.gangSize; ++lane)
            threads_.emplace_back(
                [this, gp, lane] { memberLoop(*gp, lane); });
    }
}

DoacrossService::~DoacrossService()
{
    stop();
}

std::shared_ptr<const core::CachedPlan>
DoacrossService::plan(const dep::Loop &loop, sync::SchemeKind kind,
                      const core::RunConfig &rcfg)
{
    return cache_.get(loop, kind, rcfg);
}

std::uint64_t
DoacrossService::submit(const dep::Loop &loop,
                        sync::SchemeKind kind,
                        const core::RunConfig &rcfg)
{
    if (stopped_.load(std::memory_order_acquire))
        return 0;
    return submitPlan(plan(loop, kind, rcfg));
}

void
DoacrossService::releaseRetiredPlans()
{
    std::vector<std::shared_ptr<const core::CachedPlan>> plans;
    std::lock_guard<std::mutex> lk(retiredPlansMutex_);
    plans.swap(retiredPlans_);
}

std::uint64_t
DoacrossService::submitPlan(
    std::shared_ptr<const core::CachedPlan> plan)
{
    releaseRetiredPlans();
    if (!plan || stopped_.load(std::memory_order_acquire))
        return 0;
    const std::uint64_t id =
        nextId_.fetch_add(1, std::memory_order_relaxed);
    Request req{id, std::move(plan), Clock::now()};
    submitted_.fetch_add(1, std::memory_order_seq_cst);
    if (!queue_.push(std::move(req))) {
        submitted_.fetch_sub(1, std::memory_order_seq_cst);
        return 0;
    }
    return id;
}

DoacrossService::Arena &
DoacrossService::arenaFor(
    Gang &gang, const std::shared_ptr<const core::CachedPlan> &plan)
{
    auto it = gang.arenas.find(plan->key);
    if (it == gang.arenas.end()) {
        // Arenas are cheap to rebuild from a cached plan (no replan);
        // cap gang-local retention so plans long evicted from the
        // cache do not pin fabrics forever. The least recently used
        // arena retires; serveRequest destroys it only after the
        // request's completion is out, and hands its plan back to
        // the submitting threads (retiredPlans_).
        std::size_t cap =
            std::max<std::size_t>(8, cfg_.planCacheCapacity);
        if (gang.arenas.size() >= cap) {
            auto lru = std::min_element(
                gang.arenas.begin(), gang.arenas.end(),
                [](const auto &a, const auto &b) {
                    return a.second->lastUse < b.second->lastUse;
                });
            gang.retired = std::move(lru->second);
            gang.arenas.erase(lru);
        }
        it = gang.arenas
                 .emplace(plan->key, std::make_unique<Arena>(plan, cfg_))
                 .first;
    }
    it->second->lastUse = gang.requestsSeen;
    return *it->second;
}

void
DoacrossService::serveRequest(Gang &gang, Request &req)
{
    ++gang.requestsSeen;
    Arena &arena = arenaFor(gang, req.plan);
    bool record =
        cfg_.verifySampleEvery != 0 &&
        gang.requestsSeen % cfg_.verifySampleEvery == 0;

    arena.fabric.beginEpoch();
    epochsBegun_.fetch_add(1, std::memory_order_relaxed);
    // One epoch per request: in its first, an arena's data words are
    // still as construction zeroed them.
    if (arena.fabric.epoch() > 1)
        arena.data.clearAll();
    arena.executor.beginRun(
        core::Dispatch(core::SchedulePolicy::selfScheduling, 1,
                       arena.plan->pool.size(), cfg_.gangSize),
        record);

    const auto wall_start = Clock::now();
    const native::Deadline deadline =
        wall_start +
        std::chrono::milliseconds(cfg_.requestTimeoutMs);

    if (cfg_.gangSize > 1) {
        {
            std::lock_guard<std::mutex> lk(gang.m);
            gang.work = &arena;
            gang.deadline = deadline;
            gang.lanesDone = 0;
            // The mutex publishes the epoch bump, data clear and
            // beginRun state to the member lanes.
            ++gang.generation;
        }
        gang.cv.notify_all();
    }
    arena.executor.runLane(arena.plan->pool, 0, deadline);
    if (cfg_.gangSize > 1) {
        std::unique_lock<std::mutex> lk(gang.m);
        gang.doneCv.wait(lk, [&] {
            return gang.lanesDone == cfg_.gangSize - 1;
        });
    }

    native::NativeRunResult result = arena.executor.finishRun(
        nanosSince(wall_start, Clock::now()));

    Completion completion;
    completion.requestId = req.id;
    completion.gang = gang.index;
    completion.completed = result.completed;
    completion.programsRun = result.programsRun;
    completion.problems = std::move(result.errors);
    programsRun_.fetch_add(result.programsRun,
                           std::memory_order_relaxed);
    if (result.completed) {
        completedOk_.fetch_add(1, std::memory_order_relaxed);
    } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        if (completion.problems.empty())
            completion.problems.push_back(
                "run aborted (watchdog deadline or fabric abort)");
    }

    if (record && result.completed) {
        completion.verified = true;
        verifySamples_.fetch_add(1, std::memory_order_relaxed);
        verifyRun(arena, completion);
        if (!completion.verifyOk)
            verifyFailures_.fetch_add(1,
                                      std::memory_order_relaxed);
    }

    completion.latencyNanos =
        nanosSince(req.submitTime, Clock::now());
    {
        std::lock_guard<std::mutex> lk(completionsMutex_);
        // Guarded by completionsMutex_ so stats() can merge
        // per-gang histograms without racing the leaders.
        gang.latencyNs.record(completion.latencyNanos);
        completions_.push_back(std::move(completion));
        ++published_;
    }
    idleCv_.notify_all();
    if (gang.retired) {
        {
            std::lock_guard<std::mutex> lk(retiredPlansMutex_);
            retiredPlans_.push_back(std::move(gang.retired->plan));
        }
        gang.retired.reset();
    }
}

void
DoacrossService::verifyRun(Arena &arena, Completion &completion)
{
    // Gang-local, so the executor's value audit is single-threaded
    // per arena.
    auto &executor = arena.executor;
    const auto &plan = *arena.plan;

    core::TraceChecker checker;
    executor.replayAccesses(checker);
    std::vector<std::string> violations =
        checker.verify(plan.loop, plan.plan.depsVerified);
    for (auto &v : violations)
        completion.problems.push_back("dependence: " +
                                      std::move(v));

    std::vector<std::string> mismatches = executor.verifyValues();
    for (auto &m : mismatches)
        completion.problems.push_back("value: " + std::move(m));

    // A plan's first sampled verification builds its reference.
    bool image_ok = true;
    if (const core::ReferenceImage *ref = plan.reference()) {
        core::ValueTrace values;
        executor.replayAccesses(values);
        if (values.memory() != ref->memory) {
            image_ok = false;
            completion.problems.push_back(sim::csprintf(
                "image: epoch %llu memory image differs from "
                "fresh-init reference (%zu vs %zu written words)",
                static_cast<unsigned long long>(
                    arena.fabric.epoch()),
                values.memory().size(), ref->memory.size()));
        }
        if (values.reads() != ref->reads) {
            image_ok = false;
            completion.problems.push_back(
                "image: read values differ from fresh-init "
                "reference");
        }
    }
    completion.verifyOk =
        violations.empty() && mismatches.empty() && image_ok;
}

void
DoacrossService::leaderLoop(Gang &gang)
{
    Request req;
    while (queue_.pop(req)) {
        serveRequest(gang, req);
        req = Request{};
    }
    {
        std::lock_guard<std::mutex> lk(gang.m);
        gang.shutdown = true;
    }
    gang.cv.notify_all();
}

void
DoacrossService::memberLoop(Gang &gang, unsigned lane)
{
    std::uint64_t seen = 0;
    for (;;) {
        Arena *work = nullptr;
        native::Deadline deadline{};
        {
            std::unique_lock<std::mutex> lk(gang.m);
            gang.cv.wait(lk, [&] {
                return gang.generation != seen || gang.shutdown;
            });
            if (gang.generation == seen && gang.shutdown)
                break;
            seen = gang.generation;
            work = gang.work;
            deadline = gang.deadline;
        }
        work->executor.runLane(work->plan->pool, lane, deadline);
        {
            std::lock_guard<std::mutex> lk(gang.m);
            ++gang.lanesDone;
            if (gang.lanesDone == cfg_.gangSize - 1)
                gang.doneCv.notify_one();
        }
    }
}

void
DoacrossService::waitIdle()
{
    std::unique_lock<std::mutex> lk(completionsMutex_);
    idleCv_.wait(lk, [&] {
        return published_ ==
               submitted_.load(std::memory_order_seq_cst);
    });
}

std::vector<Completion>
DoacrossService::takeCompletions()
{
    std::lock_guard<std::mutex> lk(completionsMutex_);
    std::vector<Completion> out = std::move(completions_);
    completions_.clear();
    return out;
}

void
DoacrossService::stop()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    queue_.close();
    for (auto &thread : threads_)
        thread.join();
    threads_.clear();
    releaseRetiredPlans();
}

ServiceStats
DoacrossService::stats() const
{
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completedOk = completedOk_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.programsRun = programsRun_.load(std::memory_order_relaxed);
    s.verifySamples =
        verifySamples_.load(std::memory_order_relaxed);
    s.verifyFailures =
        verifyFailures_.load(std::memory_order_relaxed);
    s.epochsBegun = epochsBegun_.load(std::memory_order_relaxed);
    s.planCacheHits = cache_.hits();
    s.planCacheMisses = cache_.misses();
    s.planCacheHitRate = cache_.hitRate();
    {
        std::lock_guard<std::mutex> lk(completionsMutex_);
        for (const auto &gang : gangs_)
            s.latencyNs.merge(gang->latencyNs);
    }
    return s;
}

} // namespace serve
} // namespace psync
