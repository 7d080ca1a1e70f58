#include "native/executor.hh"

#include <algorithm>
#include <chrono>
#include <system_error>
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
        exec.fail(std::move(message));
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
NativeExecutor::fail(std::string message)
{
    {
        std::lock_guard<std::mutex> lk(errorsMutex_);
        errors_.push_back(std::move(message));
    }
    fabric_.abortAll();
}

void
NativeExecutor::beginRun(const core::Dispatch &dispatch,
                         bool record_accesses)
{
    dispatch_ = dispatch;
    recordAccesses_ = record_accesses;
    states_.resize(dispatch.lanes());
    for (auto &ts : states_)
        ts.reset();
    errors_.clear();
    log_.clear();
    nextClaim_.value.store(0, std::memory_order_relaxed);
    clock_.value.store(1, std::memory_order_relaxed);
    anyFailed_.store(false, std::memory_order_relaxed);
}

bool
NativeExecutor::runLane(const ir::IterationPool &pool, unsigned lane,
                        Deadline deadline)
{
    // A local copy: the lane loop reads it after every program.
    const core::Dispatch dispatch = dispatch_;
    // A fixed-size claim is one fetch&add. A guided claim's size
    // depends on the count it finds, so it CASes the counter to the
    // end of the block it would take, and stops once none is left.
    std::atomic<std::uint64_t> &counter = nextClaim_.value;
    auto claim = [&](core::Cursor &cursor) {
        if (dispatch.fixedClaims())
            return dispatch.refill(
                cursor, counter.fetch_add(dispatch.claimSize(0),
                                          std::memory_order_relaxed));
        for (std::uint64_t old = counter.load(std::memory_order_relaxed);;) {
            if (!dispatch.refill(cursor, old))
                return false;
            if (counter.compare_exchange_weak(old, cursor.end,
                                              std::memory_order_relaxed))
                return true;
        }
    };

    ThreadState &ts = states_[lane];
    ts.jitterState =
        cfg_.timingSeed ? core::mix64(cfg_.timingSeed + lane) : 0;
    core::Cursor cursor = dispatch.start(lane);
    bool ok = true;
    while (ok && (!cursor.empty() || (dispatch.claims() && claim(cursor))))
        ok = runProgram(pool.at(cursor.take()), ts, deadline);
    if (!ok)
        anyFailed_.store(true, std::memory_order_release);
    return ok;
}

NativeRunResult
NativeExecutor::finishRun(std::uint64_t wall_nanos)
{
    return collect(states_, wall_nanos,
                   !anyFailed_.load(std::memory_order_acquire));
}

NativeRunResult
NativeExecutor::spawnRound(const ir::IterationPool &pool,
                           const core::Dispatch &dispatch)
{
    using Clock = std::chrono::steady_clock;
    const Deadline deadline =
        Clock::now() + std::chrono::milliseconds(cfg_.timeoutMs);

    beginRun(dispatch, cfg_.recordAccesses);

    const unsigned lanes = dispatch.lanes();
    const auto wall_start = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (unsigned t = 0; t < lanes; ++t) {
        try {
            threads.emplace_back(
                [this, &pool, t, deadline] { runLane(pool, t, deadline); });
        } catch (const std::system_error &e) {
            // The lanes already running may wait on this one: the
            // failure aborts them, and they return to be joined.
            fail(sim::csprintf("could not start lane %u of %u: %s", t,
                               lanes, e.what()));
            break;
        }
    }
    for (auto &thread : threads)
        thread.join();
    return finishRun(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - wall_start)
            .count()));
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
