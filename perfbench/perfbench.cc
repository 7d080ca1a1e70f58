/**
 * @file
 * psync benchmark harness: three workloads, end to end and layer by
 * layer, printed as one JSON line (see perfbench/README.md).
 *
 * Every operation starts from a Doacross loop in its canonical text
 * form (dep::printLoop), the shape a request arrives in. The
 * simulator workload runs each loop through the simulator; the two
 * service workloads send each loop to serve::DoacrossService.
 *
 *  - sim-scale: the Fig. 2.1 loop with seeded cost jitter on
 *    1024-processor combining-omega and hierarchical-cluster
 *    machines: long runs dominated by the event loop over the
 *    composed fabrics.
 *  - serve-uniform: the serve campaign's uniform mix
 *    (bench/serve_bench.cc): requests drawn uniformly over the
 *    fig21-n256 registry plans, so after warm-up every request hits
 *    the plan cache and reuses an arena.
 *  - serve-miss: the same loop and schemes at 64 other sizes, sent in
 *    a seeded cycle longer than the plan cache, so every request
 *    misses: it plans, inserts, evicts and builds a fresh arena.
 *
 * Service workloads run two phases of seconds/2 each: a saturating
 * phase (one client submitting as fast as backpressure allows) gives
 * throughput, and an open-loop phase (Poisson arrivals at fixed
 * fractions of that throughput, latency timed from each request's
 * due time) gives latency under load.
 *
 * With --trace 0 the harness times whole operations through the
 * public entry points (core::runDoacross, DoacrossService::plan and
 * submitPlan). With --trace 1 it times the layers instead: the
 * simulator pipeline is driven stage by stage through the same calls
 * runDoacross makes, and service requests are split into the spans
 * visible from the client.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/registry.hh"
#include "core/runtime.hh"
#include "core/trace_check.hh"
#include "dep/dep_graph.hh"
#include "dep/loop_text.hh"
#include "ir/passes.hh"
#include "serve/service.hh"
#include "sim/rng.hh"
#include "sync/scheme.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/**
 * Set-up is repeated at least kSetupRepeats times and for at least
 * kSetupSeconds; setup_s is the median. A service set-up takes
 * milliseconds, so a handful of them would leave setup_s at the mercy
 * of one slow thread start.
 */
constexpr int kSetupRepeats = 9;
constexpr double kSetupSeconds = 1.0;

/** Whether another set-up is due after `done` of them since `start`. */
bool
moreSetUps(int done, Clock::time_point start)
{
    return done < kSetupRepeats ||
           Clock::now() - start <
               std::chrono::duration<double>(kSetupSeconds);
}

/**
 * Open-loop offered loads, as fractions of the request rate the
 * saturating phase reached in the same run: light, medium and heavy
 * load. latency_ms and the layer spans come from kReportedLoad, the
 * light load, where a request rarely queues behind another. The
 * service publishes completions after 2 ms without work; at 25% load
 * of serve-uniform requests arrive about every 2 ms, so whether one
 * is published alone or waits for the next is a coin toss and the
 * median latency jumps between runs.
 */
constexpr double kLoads[] = {0.1, 0.4, 0.7};
constexpr std::size_t kReportedLoad = 0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One operation's input: a loop in wire form plus how to run it. */
struct Job
{
    std::string text;
    sync::SchemeKind kind = sync::SchemeKind::processImproved;
    core::RunConfig cfg;
    std::uint64_t iterations = 0;
};

/** Machine with `procs` processors on `fabric`. */
core::RunConfig
machineConfig(unsigned procs, sim::FabricKind fabric)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = fabric;
    cfg.machine.syncRegisters = 1u << 22;
    if (fabric == sim::FabricKind::hierarchical)
        cfg.machine.numClusters = procs / 32;
    cfg.scheme.numPcs = 16;
    cfg.scheme.numScs = 1u << 20;
    cfg.passes.eliminateRedundantWaits = true;
    cfg.passes.peephole = true;
    cfg.tickLimit = 100000000ull;
    return cfg;
}

Job
toJob(const dep::Loop &loop, sync::SchemeKind kind,
      const core::RunConfig &cfg)
{
    Job job;
    job.text = dep::printLoop(loop);
    job.kind = kind;
    job.cfg = cfg;
    job.iterations = loop.iterations();
    return job;
}

/**
 * The serve campaign's plan sources (bench/serve_bench.cc): every
 * fig21-n256 registry scenario, five schemes plus Cedar-style
 * reference counters, with the transform passes on. With `n` other
 * than 256 the same scenarios run the Fig. 2.1 loop at that size.
 */
std::vector<Job>
campaignJobs(long n)
{
    std::vector<Job> jobs;
    for (const bench::Scenario *s :
         bench::matchScenariosGlob("fig21-n256/*")) {
        core::RunConfig cfg = s->config;
        cfg.passes.enabled = true;
        cfg.passes.verify = true;
        cfg.passes.eliminateRedundantWaits = true;
        cfg.passes.peephole = true;
        jobs.push_back(toJob(n == 256 ? s->loop()
                                      : workloads::makeFig21Loop(n),
                             s->kind, cfg));
    }
    return jobs;
}

/** serve-uniform: 4096 uniform draws over the campaign plans. */
std::vector<Job>
uniformPool(std::uint64_t seed)
{
    std::vector<Job> sources = campaignJobs(256);
    sim::Rng rng(seed);
    std::vector<Job> pool;
    for (int i = 0; i < 4096; ++i)
        pool.push_back(sources[rng.below(sources.size())]);
    return pool;
}

/**
 * serve-miss: the campaign plans at N = 257..320, shuffled. Sent in
 * turn, the cycle (384 keys) is six times the plan cache (64 slots),
 * so a key is always evicted before it comes round again.
 */
std::vector<Job>
missPool(std::uint64_t seed)
{
    std::vector<Job> pool;
    for (long n = 257; n <= 320; ++n)
        for (Job &job : campaignJobs(n))
            pool.push_back(std::move(job));
    sim::Rng rng(seed);
    for (std::size_t i = pool.size() - 1; i > 0; --i)
        std::swap(pool[i], pool[rng.below(i + 1)]);
    return pool;
}

/**
 * The scale pool: the Fig. 2.1 loop at N = 2P with seeded cost
 * jitter, under the counter schemes on the two composed fabrics that
 * relieve the 1024-processor hot spot. One loop shape keeps the cost
 * of a pass independent of the seed.
 */
std::vector<Job>
scaleJobs(std::uint64_t seed)
{
    const unsigned procs = 1024;
    sim::Rng rng(seed);
    std::vector<Job> jobs;
    for (unsigned i = 0; i < 4; ++i) {
        dep::Loop loop = workloads::makeFig21JitterLoop(
            2 * procs, 8, 40, 0.15, rng.next());
        for (auto fabric : {sim::FabricKind::combining,
                            sim::FabricKind::hierarchical})
            for (auto kind : {sync::SchemeKind::statementOriented,
                              sync::SchemeKind::processImproved})
                jobs.push_back(
                    toJob(loop, kind, machineConfig(procs, fabric)));
    }
    return jobs;
}

/** Linear-interpolated quantile of `v` (sorted in place). */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Everything one run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Latency samples, ms (end-to-end runs). */
    std::vector<double> latencies;
    /** Programs per second of each repeat (pass or round). */
    std::vector<double> rates;
    std::vector<double> setups;

    /** Per-operation layer spans, ms (traced runs). */
    std::vector<double> parse, plan, execute, check;
    std::uint64_t plansBuilt = 0;
    std::uint64_t waits = 0;

    void
    fail(std::string what)
    {
        ++failed;
        correct = false;
        if (problems.size() < 8)
            problems.push_back(std::move(what));
    }
};

dep::Loop
parseOrDie(const std::string &text)
{
    dep::ParsedLoop parsed = dep::parseLoop(text);
    if (!parsed.ok) {
        std::fprintf(stderr, "perfbench: bad loop text: %s\n",
                     parsed.error.c_str());
        std::exit(2);
    }
    return std::move(parsed.loop);
}

// ---------------------------------------------------------------
// Simulator workloads

/** Outcome of one simulated operation. */
struct SimOutcome
{
    bool completed = false;
    bool clean = false;
    std::uint64_t programs = 0;
    sim::Tick cycles = 0;
};

/** One operation through the public entry point. */
SimOutcome
simulateWhole(const Job &job)
{
    dep::Loop loop = parseOrDie(job.text);
    core::DoacrossResult r = core::runDoacross(loop, job.kind, job.cfg);
    return {r.run.completed, r.correct(), r.run.programsRun,
            r.run.cycles};
}

/**
 * One operation stage by stage, making the calls runDoacross and
 * planDoacross make, with a span around each layer.
 */
SimOutcome
simulateStaged(const Job &job, Report &rep)
{
    const core::RunConfig &cfg = job.cfg;
    auto t0 = Clock::now();
    dep::Loop loop = parseOrDie(job.text);
    auto t1 = Clock::now();

    core::TraceChecker checker;
    sim::Machine machine(cfg.machine, &checker, nullptr);
    auto t2 = Clock::now();

    dep::DepGraph graph(loop, cfg.eliminateCoveredDeps &&
                                  !cfg.scheme.exactBoundaries);
    dep::DataLayout layout(loop, cfg.machine.memory.wordBytes);
    std::unique_ptr<sync::Scheme> scheme = sync::makeScheme(job.kind);
    sync::SchemePlan plan =
        scheme->plan(graph, layout, machine.fabric(), cfg.scheme);
    std::vector<sim::Program> programs;
    programs.reserve(loop.iterations());
    for (std::uint64_t lpid = 1; lpid <= loop.iterations(); ++lpid)
        programs.push_back(scheme->emit(lpid));
    sim::SyncFabric &fabric = machine.fabric();
    ir::PassStats passes = ir::runPasses(
        programs, cfg.passes,
        [&fabric](sim::SyncVarId var) { return fabric.peek(var); });
    auto t3 = Clock::now();

    core::RunResult run =
        core::runProgramPool(machine, programs, cfg.schedule,
                             cfg.tickLimit, cfg.chunkSize);
    auto t4 = Clock::now();

    std::vector<std::string> violations =
        checker.verify(loop, plan.depsVerified);
    auto t5 = Clock::now();

    rep.parse.push_back(msBetween(t0, t1));
    rep.plan.push_back(msBetween(t2, t3));
    rep.execute.push_back(msBetween(t1, t2) + msBetween(t3, t4));
    rep.check.push_back(msBetween(t4, t5));
    ++rep.plansBuilt;
    rep.waits += passes.waitsAfter;
    return {run.completed, violations.empty() && passes.verified,
            run.programsRun, run.cycles};
}

/** Builds a workload's input pool from the seed. */
using InputFn = std::function<std::vector<Job>()>;

void
runSim(const Options &opt, const InputFn &inputs, Report &rep)
{
    // Set-up generates the inputs and makes the reference pass that
    // every measured operation must reproduce cycle for cycle.
    std::vector<Job> jobs;
    std::vector<sim::Tick> reference;
    const auto start = Clock::now();
    for (int i = 0; moreSetUps(i, start); ++i) {
        auto t0 = Clock::now();
        jobs = inputs();
        reference.clear();
        for (const Job &job : jobs) {
            SimOutcome out = simulateWhole(job);
            if (!out.completed || !out.clean)
                rep.fail("reference run failed");
            reference.push_back(out.cycles);
        }
        rep.setups.push_back(msBetween(t0, Clock::now()) / 1e3);
    }

    // Whole passes over the pool: operations differ in cost, so a
    // pass, not an operation, is the repeat whose median is stable.
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    do {
        auto t0 = Clock::now();
        std::uint64_t programs = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &job = jobs[i];
            SimOutcome out = opt.trace ? simulateStaged(job, rep)
                                       : simulateWhole(job);
            ++rep.attempted;
            programs += out.programs;
            if (!out.completed)
                rep.fail("deadlock (tick limit)");
            else if (!out.clean)
                rep.fail("dependence violation or unverified plan");
            else if (out.programs != job.iterations)
                rep.fail("programs run != iterations");
            else if (out.cycles != reference[i])
                rep.fail("cycles differ from the reference run");
        }
        double ms = msBetween(t0, Clock::now());
        rep.latencies.push_back(ms / static_cast<double>(jobs.size()));
        rep.rates.push_back(static_cast<double>(programs) * 1e3 / ms);
    } while (Clock::now() < deadline);
}

// ---------------------------------------------------------------
// Service workloads

serve::ServeConfig
serviceConfig()
{
    serve::ServeConfig cfg;
    // One gang of two lanes plus the client thread leaves a core of
    // a 4-core host free; more threads than cores turns spinning
    // lanes into preempted ones and the figures into noise.
    cfg.gangs = 1;
    cfg.gangSize = 2;
    // Verify every 16th request: at light load that leaves dozens of
    // verified requests per run to split execution from the check.
    cfg.verifySampleEvery = 16;
    cfg.requestTimeoutMs = 10000;
    return cfg;
}

/** One submitted request, as the client saw it. */
struct Sent
{
    std::uint64_t iterations = 0;
    /** Open loop: when it was due; saturating: zero. */
    Clock::time_point due{};
    Clock::time_point submitted{};
};

class ServeClient
{
  public:
    ServeClient(const Options &opt, InputFn inputs, Report &rep)
        : opt_(opt), inputs_(std::move(inputs)), rep_(rep)
    {
    }

    void
    run()
    {
        const auto start = Clock::now();
        for (int i = 0; moreSetUps(i, start); ++i) {
            service_.reset();
            auto t0 = Clock::now();
            setUp();
            rep_.setups.push_back(msBetween(t0, Clock::now()) / 1e3);
        }
        const std::uint64_t misses0 =
            service_->planCache().misses();
        const double half = opt_.seconds / 2;

        // Phase 1: saturating client, throughput. Rounds of a burst
        // and a full drain; the median round filters transient
        // interference from the rest of the host.
        auto deadline =
            Clock::now() + std::chrono::duration<double>(half);
        std::vector<double> request_rates;
        do {
            auto t0 = Clock::now();
            auto burst_end = t0 + std::chrono::milliseconds(400);
            std::uint64_t requests = 0;
            do {
                send(Clock::time_point{});
                ++requests;
            } while (Clock::now() < burst_end);
            double programs = static_cast<double>(drain(nullptr));
            double ms = msBetween(t0, Clock::now());
            rep_.rates.push_back(programs * 1e3 / ms);
            request_rates.push_back(static_cast<double>(requests) *
                                    1e3 / ms);
        } while (Clock::now() < deadline);
        const double capacity = quantile(request_rates, 0.5);

        // Phase 2: open loop at each offered load in turn, latency
        // from due time.
        sim::Rng arrivals(opt_.seed * 104729 + 3);
        const double step = half / std::size(kLoads);
        for (std::size_t i = 0; i < std::size(kLoads); ++i) {
            spans_ = opt_.trace && i == kReportedLoad;
            late_.clear();
            const double rate = kLoads[i] * capacity;
            auto due = Clock::now();
            const auto end =
                due + std::chrono::duration<double>(step);
            while (due < end) {
                std::this_thread::sleep_until(due);
                send(due);
                // Exponential inter-arrival gap for a Poisson stream.
                double gap =
                    -std::log(1.0 - arrivals.uniform()) / rate;
                due += std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(gap));
            }
            std::vector<double> latency;
            drain(&latency);
            std::fprintf(stderr,
                         "perfbench: %.0f%% load, %.1f req/s: %zu "
                         "requests, median latency %.4f ms, client "
                         "late by %.4f ms median, %.4f ms max\n",
                         kLoads[i] * 100.0, rate, latency.size(),
                         quantile(latency, 0.5), quantile(late_, 0.5),
                         quantile(late_, 1.0));
            if (i == kReportedLoad)
                rep_.latencies = std::move(latency);
        }

        serve::ServiceStats stats = service_->stats();
        rep_.plansBuilt = stats.planCacheMisses - misses0;
        if (stats.failed != 0 || stats.verifyFailures != 0)
            rep_.fail("service reported failed or unverified runs");
        if (stats.verifySamples == 0)
            rep_.fail("no request was verified");
        service_->stop();
        splitCheck();
    }

  private:
    void
    setUp()
    {
        pool_ = inputs_();
        service_ = std::make_unique<serve::DoacrossService>(
            serviceConfig());
        // Plan and run the campaign plans once, so the gang is warm
        // before timing starts (and, for serve-uniform, every plan
        // it draws is cached and has an arena).
        for (const Job &job : campaignJobs(256)) {
            dep::Loop loop = parseOrDie(job.text);
            service_->submitPlan(service_->plan(loop, job.kind, job.cfg));
        }
        service_->waitIdle();
        for (const serve::Completion &c : service_->takeCompletions())
            if (!c.completed || !c.verifyOk)
                rep_.fail("warm-up request failed");
    }

    void
    send(Clock::time_point due)
    {
        const Job &job = pool_[next_++ % pool_.size()];
        auto t0 = Clock::now();
        if (due != Clock::time_point{})
            late_.push_back(msBetween(due, t0));
        dep::Loop loop = parseOrDie(job.text);
        auto t1 = Clock::now();
        auto plan = service_->plan(loop, job.kind, job.cfg);
        auto t2 = Clock::now();
        std::uint64_t id = service_->submitPlan(plan);
        ++rep_.attempted;
        if (id == 0) {
            rep_.fail("submit refused");
            return;
        }
        if (spans_) {
            rep_.parse.push_back(msBetween(t0, t1));
            rep_.plan.push_back(msBetween(t1, t2));
            rep_.waits += plan->passStats.waitsAfter;
        }
        sent_[id] = Sent{job.iterations, due, t2};
    }

    /**
     * Wait for every sent request, check each completion and return
     * the programs run; collects latency from due time when asked.
     */
    std::uint64_t
    drain(std::vector<double> *latency)
    {
        service_->waitIdle();
        std::uint64_t programs = 0;
        for (const serve::Completion &c : service_->takeCompletions()) {
            auto it = sent_.find(c.requestId);
            if (it == sent_.end()) {
                rep_.fail("completion for an unknown request");
                continue;
            }
            const Sent &s = it->second;
            if (!c.completed || !c.verifyOk)
                rep_.fail(c.problems.empty() ? "request failed"
                                             : c.problems.front());
            else if (c.programsRun != s.iterations)
                rep_.fail("programs run != iterations");
            programs += c.programsRun;
            const double served =
                static_cast<double>(c.latencyNanos) / 1e6;
            if (latency)
                latency->push_back(msBetween(s.due, s.submitted) +
                                   served);
            sent_.erase(it);
            if (spans_)
                (c.verified ? verified_ : lean_).push_back(served);
        }
        if (!sent_.empty()) {
            rep_.fail("requests never completed");
            sent_.clear();
        }
        return programs;
    }

    /**
     * The service verifies inside a request's submit-to-publish span.
     * execute_ms is that span on requests that skipped verification;
     * check_ms is what verified requests took beyond it, spread over
     * every request.
     */
    void
    splitCheck()
    {
        if (!opt_.trace)
            return;
        const double served = static_cast<double>(lean_.size() +
                                                  verified_.size());
        rep_.execute = lean_;
        rep_.check = {(mean(verified_) - mean(lean_)) *
                      static_cast<double>(verified_.size()) / served};
    }

    const Options &opt_;
    InputFn inputs_;
    std::vector<Job> pool_;
    Report &rep_;
    std::size_t next_ = 0;
    bool spans_ = false;
    std::unordered_map<std::uint64_t, Sent> sent_;
    /** How late the open-loop client sent each request, ms. */
    std::vector<double> late_;
    /** Submit-to-publish spans at the reported load, ms. */
    std::vector<double> lean_, verified_;
    std::unique_ptr<serve::DoacrossService> service_;
};

// ---------------------------------------------------------------
// Output

void
metric(std::string &out, const char *name, double value,
       const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", name, value, unit);
    out += buf;
}

void
print(const Options &opt, Report &rep)
{
    for (const std::string &p : rep.problems)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
    std::string m;
    if (opt.trace) {
        const double ops = static_cast<double>(rep.attempted);
        metric(m, "parse_ms", mean(rep.parse), "ms");
        metric(m, "plan_ms", mean(rep.plan), "ms");
        metric(m, "execute_ms", mean(rep.execute), "ms");
        metric(m, "check_ms", mean(rep.check), "ms");
        metric(m, "plans_built_pct",
               100.0 * static_cast<double>(rep.plansBuilt) / ops, "%");
        metric(m, "waits_per_op",
               static_cast<double>(rep.waits) /
                   static_cast<double>(rep.plan.size()),
               "count");
    } else {
        metric(m, "latency_ms", quantile(rep.latencies, 0.5), "ms");
        metric(m, "programs_per_s", quantile(rep.rates, 0.5), "1/s");
        metric(m, "setup_s", quantile(rep.setups, 0.5), "s");
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                rep.correct ? "true" : "false", rep.attempted,
                rep.failed, m.c_str());
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sim-scale|serve-uniform|"
                 "serve-miss --seed N --seconds S "
                 "--trace 0|1\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *key = argv[i];
        const char *val = argv[i + 1];
        if (!std::strcmp(key, "--workload"))
            opt.workload = val;
        else if (!std::strcmp(key, "--seed"))
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (!std::strcmp(key, "--seconds"))
            opt.seconds = std::atof(val);
        else if (!std::strcmp(key, "--trace"))
            opt.trace = std::atoi(val) != 0;
        else
            usage();
    }
    if (argc % 2 != 1 || opt.seconds <= 0)
        usage();

    Report rep;
    if (opt.workload == "sim-scale") {
        runSim(opt, [&opt] { return scaleJobs(opt.seed); }, rep);
    } else if (opt.workload == "serve-uniform") {
        ServeClient(opt, [&opt] { return uniformPool(opt.seed); }, rep)
            .run();
    } else if (opt.workload == "serve-miss") {
        ServeClient(opt, [&opt] { return missPool(opt.seed); }, rep)
            .run();
    } else {
        usage();
    }
    print(opt, rep);
    return 0;
}
