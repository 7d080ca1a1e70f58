#include "native/executor.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/value_rule.hh"
#include "ir/semantics.hh"
#include "sim/logging.hh"

namespace psync {
namespace native {

namespace {

/** Burn a few cycles without touching shared state. */
inline void
pauseSpin(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        // Compiler-only fence: keeps the loop from being elided
        // without generating any synchronization.
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }
}

} // namespace

NativeDataMemory::NativeDataMemory(const ir::DataImage &image)
    : image_(image), words_(new LineWord[image.words()])
{
}

void
NativeDataMemory::outside(sim::Addr addr)
{
    sim::panic("data address %llu is outside the plan's data image",
               static_cast<unsigned long long>(addr));
}

std::map<sim::Addr, std::uint64_t>
NativeDataMemory::snapshot() const
{
    std::map<sim::Addr, std::uint64_t> image;
    for (const ir::DataImage::Region &r : image_.regions()) {
        for (std::uint64_t k = 0; k < r.words; ++k) {
            std::uint64_t value = words_[r.first + k].value.load(
                std::memory_order_acquire);
            if (value != 0)
                image[r.base + (k << r.shift)] = value;
        }
    }
    return image;
}

void
NativeDataMemory::clearAll()
{
    for (std::uint64_t w = 0; w < image_.words(); ++w)
        words_[w].value.store(0, std::memory_order_relaxed);
}

NativeExecutor::NativeExecutor(NativeSyncFabric &fabric,
                               NativeDataMemory &data,
                               const NativeConfig &cfg)
    : fabric_(fabric), data_(data), cfg_(cfg),
      recordAccesses_(cfg.recordAccesses)
{
}

void
NativeExecutor::maybeJitter(ThreadState &ts)
{
    if (cfg_.timingSeed == 0)
        return;
    std::uint64_t r = core::mix64(ts.jitterState++);
    if ((r & 7u) == 0)
        std::this_thread::yield();
    else
        pauseSpin(static_cast<unsigned>(r & 31u));
}

void
NativeExecutor::access(const sim::Op &op, std::uint64_t iter,
                       bool is_write, ThreadState &ts)
{
    auto &word = data_.word(op.addr);
    // Lean rounds never touch the clock: no scheme reads it, so its
    // relaxed RMWs order nothing a correct scheme may rely on.
    const std::uint64_t start = recordAccesses_ ? ticket() : 0;
    std::uint64_t value;
    if (is_write) {
        value = core::valueOfWrite(op.stmt, op.ref, iter);
        word.store(value, std::memory_order_relaxed);
    } else {
        value = word.load(std::memory_order_relaxed);
    }
    if (recordAccesses_) {
        ts.accessLog.push_back({start, ticket(), op.addr, iter, value,
                                op.stmt, op.ref, is_write});
    }
}

/**
 * One lane's walk of ir::perform: the primitives bound to the
 * fabric's atomics, each continuation called inline. A primitive
 * that fails (an aborted wait, a protocol violation) clears `ok` and
 * runs no continuation.
 */
struct NativeExecutor::Lane
{
    NativeExecutor &exec;
    ThreadState &ts;
    Deadline deadline;
    /** Iteration the op being performed belongs to. */
    std::uint64_t iter = 0;
    /** Improved-primitive ownership flag (Fig. 4.3), per program. */
    bool ownedPc = false;
    bool ok = true;

    template <class K>
    void
    waitGE(sim::SyncVarId var, sim::SyncWord threshold, K k)
    {
        ++ts.waits;
        WaitOutcome out = exec.fabric_.waitGE(var, threshold, deadline,
                                              exec.cfg_.profile);
        ts.spins += out.spins;
        ts.parks += out.parks;
        if (exec.cfg_.profile && (out.spins || out.parks)) {
            // Instantly satisfied waits never blocked; recording
            // them would drown the distribution in zeros, mirroring
            // the simulator's "no edge for instant waits" rule.
            ts.waitNs.record(out.waitNanos);
            if (out.parkWakeNanos)
                ts.parkWakeNs.record(out.parkWakeNanos);
        }
        if (!out.satisfied) {
            ok = false;
            return;
        }
        k();
    }

    template <class K>
    void
    read(sim::SyncVarId var, K k)
    {
        k(exec.fabric_.load(var));
    }

    template <class K>
    void
    write(sim::SyncVarId var, sim::SyncWord value, K k)
    {
        exec.fabric_.store(var, value);
        k();
    }

    template <class K>
    void
    fetchInc(sim::SyncVarId var, K k)
    {
        k(exec.cfg_.profile
              ? exec.fabric_.fetchAddCounted(var, 1, ts.faRetries)
              : exec.fabric_.fetchAdd(var, 1));
    }

    template <class K>
    void
    keyed(const sim::Op &op, K k)
    {
        // The Cedar module's atomic test-access-increment, unrolled:
        // the exact-threshold key protocol admits at most the
        // accessors of one order number at a time, and the acq_rel
        // increment's release sequence orders their accesses before
        // any later-threshold accessor.
        waitGE(op.var, op.value, [&] {
            exec.access(op, iter, ir::storesData(op.kind), ts);
            fetchInc(op.var, [&](sim::SyncWord) { k(); });
        });
    }

    bool ownsPc() const { return ownedPc; }
    void ownPc() { ownedPc = true; }
    void skipMark() { ++ts.marksSkipped; }

    void
    fail(std::string message)
    {
        {
            std::lock_guard<std::mutex> lk(exec.errorsMutex_);
            exec.errors_.push_back(std::move(message));
        }
        exec.fabric_.abortAll();
        ok = false;
    }

    void done() {}
};

bool
NativeExecutor::runProgram(ir::Iteration iteration, ThreadState &ts,
                           Deadline deadline)
{
    ++ts.programsRun;
    Lane lane{*this, ts, deadline};
    for (std::size_t k = 0; k < iteration.size; ++k) {
        if (fabric_.aborted())
            return false;
        maybeJitter(ts);
        // Markers and compute delays carry nothing a native run
        // reads, so they are not instantiated.
        switch (iteration.ops[k].kind) {
          case sim::OpKind::stmtStart:
          case sim::OpKind::stmtEnd:
            continue;
          case sim::OpKind::compute:
            // No time model natively; under seeded jitter a compute
            // phase is a scheduling point (NativeConfig::timingSeed).
            if (cfg_.timingSeed != 0)
                std::this_thread::yield();
            continue;
          default:
            break;
        }
        const sim::Op op = iteration.op(k);
        lane.iter = op.iterTag ? op.iterTag : iteration.iter;
        if (op.kind == sim::OpKind::dataRead ||
            op.kind == sim::OpKind::dataWrite) {
            access(op, lane.iter, ir::storesData(op.kind), ts);
            continue;
        }
        ++ts.syncOps;
        ir::perform(lane, op);
        if (!lane.ok)
            return false;
    }
    return true;
}

void
NativeExecutor::beginRun(unsigned lanes, bool record_accesses)
{
    laneCount_ = std::max(1u, lanes);
    recordAccesses_ = record_accesses;
    states_.resize(laneCount_);
    for (auto &ts : states_)
        ts.reset();
    errors_.clear();
    log_.clear();
    nextClaim_.value.store(0, std::memory_order_relaxed);
    clock_.value.store(1, std::memory_order_relaxed);
    anyFailed_.store(false, std::memory_order_relaxed);
}

bool
NativeExecutor::claimRange(std::uint64_t total, std::uint64_t &begin,
                           std::uint64_t &end)
{
    switch (cfg_.schedule) {
      case core::SchedulePolicy::chunkedSelfScheduling: {
        std::uint64_t chunk =
            std::max<std::uint64_t>(1, cfg_.chunkSize);
        std::uint64_t old =
            nextClaim_.value.fetch_add(chunk, std::memory_order_relaxed);
        begin = old;
        end = std::min(total, old + chunk);
        return old < total;
      }
      case core::SchedulePolicy::guidedSelfScheduling: {
        std::uint64_t old =
            nextClaim_.value.load(std::memory_order_relaxed);
        for (;;) {
            if (old >= total)
                return false;
            std::uint64_t size = std::max<std::uint64_t>(
                1, (total - old) / (2 * laneCount_));
            if (nextClaim_.value.compare_exchange_weak(
                    old, old + size, std::memory_order_relaxed)) {
                begin = old;
                end = std::min(total, old + size);
                return true;
            }
        }
      }
      default: {
        std::uint64_t old =
            nextClaim_.value.fetch_add(1, std::memory_order_relaxed);
        begin = old;
        end = old + 1;
        return old < total;
      }
    }
}

template <class Body>
bool
NativeExecutor::runLaneBody(unsigned lane, Body body)
{
    ThreadState &ts = states_[lane];
    ts.jitterState =
        cfg_.timingSeed ? core::mix64(cfg_.timingSeed + lane) : 0;
    const bool ok = body(ts);
    if (!ok)
        anyFailed_.store(true, std::memory_order_release);
    return ok;
}

bool
NativeExecutor::runLane(const ir::IterationPool &pool, unsigned lane,
                        Deadline deadline)
{
    return runLaneBody(lane, [&](ThreadState &ts) {
        const std::uint64_t total = pool.size();
        bool ok = true;
        if (cfg_.schedule == core::SchedulePolicy::staticCyclic) {
            for (std::uint64_t i = lane; ok && i < total;
                 i += laneCount_)
                ok = runProgram(pool.at(i), ts, deadline);
        } else {
            std::uint64_t begin = 0, end = 0;
            while (ok && claimRange(total, begin, end)) {
                for (std::uint64_t i = begin; ok && i < end; ++i)
                    ok = runProgram(pool.at(i), ts, deadline);
            }
        }
        return ok;
    });
}

NativeRunResult
NativeExecutor::finishRun(std::uint64_t wall_nanos)
{
    return collect(states_, wall_nanos,
                   !anyFailed_.load(std::memory_order_acquire));
}

template <class LaneMain>
NativeRunResult
NativeExecutor::spawnRound(unsigned lanes, LaneMain lane_main)
{
    using Clock = std::chrono::steady_clock;
    const Deadline deadline =
        Clock::now() + std::chrono::milliseconds(cfg_.timeoutMs);

    beginRun(lanes, cfg_.recordAccesses);

    const auto wall_start = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(lanes);
    for (unsigned t = 0; t < lanes; ++t)
        pool.emplace_back([&, t] { lane_main(t, deadline); });
    for (auto &thread : pool)
        thread.join();
    return finishRun(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - wall_start)
            .count()));
}

NativeRunResult
NativeExecutor::runPool(const ir::IterationPool &pool)
{
    return spawnRound(std::max(1u, cfg_.numThreads),
                      [&](unsigned lane, Deadline deadline) {
                          runLane(pool, lane, deadline);
                      });
}

NativeRunResult
NativeExecutor::runPerProcessor(const ir::IterationPool &pool)
{
    const std::vector<std::size_t> &lanes = pool.lanes();
    return spawnRound(
        static_cast<unsigned>(lanes.empty() ? 0 : lanes.size() - 1),
        [&](unsigned lane, Deadline deadline) {
            runLaneBody(lane, [&](ThreadState &ts) {
                for (std::size_t i = lanes[lane]; i < lanes[lane + 1];
                     ++i) {
                    if (!runProgram(pool.at(i), ts, deadline))
                        return false;
                }
                return true;
            });
        });
}

NativeRunResult
NativeExecutor::collect(std::vector<ThreadState> &states,
                        std::uint64_t wall_nanos, bool all_ran)
{
    NativeRunResult r;
    r.wallNanos = wall_nanos;
    r.numThreads = static_cast<unsigned>(states.size());

    std::size_t log_size = 0;
    for (const auto &ts : states) {
        r.programsRun += ts.programsRun;
        r.syncOps += ts.syncOps;
        r.waits += ts.waits;
        r.spins += ts.spins;
        r.parks += ts.parks;
        r.marksSkipped += ts.marksSkipped;
        r.faRetries += ts.faRetries;
        r.waitNs.merge(ts.waitNs);
        r.parkWakeNs.merge(ts.parkWakeNs);
        log_size += ts.accessLog.size();
    }

    // End tickets are globally unique, so ordering by them is total
    // and consistent with happens-before. A lane draws its tickets
    // in program order, so each lane's log is already sorted: merge
    // them at the lane boundaries instead of sorting.
    log_.clear();
    log_.reserve(log_size);
    for (auto &ts : states) {
        const auto lane_begin = static_cast<std::ptrdiff_t>(log_.size());
        log_.insert(log_.end(), ts.accessLog.begin(),
                    ts.accessLog.end());
        std::inplace_merge(
            log_.begin(), log_.begin() + lane_begin, log_.end(),
            [](const AccessRecord &a, const AccessRecord &b) {
                return a.end < b.end;
            });
        ts.accessLog.clear();
    }
    r.accessesLogged = log_.size();

    r.errors = errors_;
    r.completed =
        all_ran && !fabric_.aborted() && errors_.empty();
    return r;
}

void
NativeExecutor::replayAccesses(sim::TraceSink &sink) const
{
    for (const auto &rec : log_) {
        sink.access(rec.stmt, rec.ref, rec.iter, rec.addr,
                    rec.isWrite, rec.start, rec.end);
    }
}

std::vector<std::string>
NativeExecutor::verifyValues(size_t max_messages)
{
    std::vector<std::string> mismatches;
    if (!recordAccesses_)
        return mismatches; // nothing logged to check against
    auto report = [&](std::string msg) {
        if (mismatches.size() < max_messages)
            mismatches.push_back(std::move(msg));
    };

    std::map<sim::Addr, std::uint64_t> image;
    for (const auto &rec : log_) {
        if (rec.isWrite) {
            image[rec.addr] = rec.value;
            continue;
        }
        auto it = image.find(rec.addr);
        std::uint64_t expected = it == image.end() ? 0 : it->second;
        if (rec.value != expected) {
            report(sim::csprintf(
                "read s%u/r%u@%llu addr %llu loaded %llx, "
                "ticket-ordered replay expected %llx",
                rec.stmt, rec.ref,
                static_cast<unsigned long long>(rec.iter),
                static_cast<unsigned long long>(rec.addr),
                static_cast<unsigned long long>(rec.value),
                static_cast<unsigned long long>(expected)));
        }
    }

    std::map<sim::Addr, std::uint64_t> final_words =
        data_.snapshot();
    if (final_words != image) {
        report(sim::csprintf(
            "final memory image (%zu written words) differs from "
            "ticket-ordered replay (%zu)",
            final_words.size(), image.size()));
    }
    return mismatches;
}

} // namespace native
} // namespace psync
