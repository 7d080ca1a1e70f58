/**
 * @file
 * Declarative experiment registry.
 *
 * Every run behind an EXPERIMENTS.md table is named here as a
 * Scenario with a stable id ("<group>/<variant>"): a planned
 * Doacross loop (scheme x workload x machine) or a hand-built
 * section 5 program set (pipelined relaxation, barriers, FFT). Each
 * paper claim is a Claim: a predicate over its scenarios' simulated
 * records, declared next to those scenarios. `psync_bench` runs
 * any subset, evaluates every claim its selection covers, and
 * appends schema-versioned records to a trajectory file
 * (BENCH_PSYNC.json), so cycle counts are comparable across commits
 * and regressions are machine-detectable (bench/compare). Scenario
 * ids are the regression-tracking contract: renaming one orphans
 * its history.
 */

#ifndef PSYNC_BENCH_REGISTRY_HH
#define PSYNC_BENCH_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/profile.hh"
#include "core/runtime.hh"
#include "core/timeline.hh"
#include "dep/loop_ir.hh"
#include "native/runner.hh"

namespace psync {
namespace bench {

/**
 * Version of the record layout written to trajectory files.
 * History: v1 had no host-timing fields; v2 adds host_ns,
 * events_executed and events_per_sec to each record; v3 tags each
 * record with "kind" ("sim" or "native"), adds event_core and
 * heap_fallback_events to sim records, and introduces native
 * records (host wall-time of real-thread execution — no simulated
 * cycles); v4 adds the IR pass-pipeline fields to sim records:
 * "passes" (whether transform passes ran), "waits_before",
 * "waits_after", "waits_eliminated", "ops_before", "ops_after" and
 * "ops_merged"; v5 adds profiling fields to records produced under
 * `--profile`: sim records gain "critpath_achieved",
 * "critpath_gap_pct" and a "profile" object (path phase
 * composition plus wait-latency histogram summaries), native
 * records gain "fa_retries", "wait_ns" and "park_wake_ns" — all
 * absent on unprofiled runs, so unprofiled v5 records differ from
 * v4 only in the version stamp; v6 adds a "timeline" summary
 * object to sim records produced under `--timeline` (sampling
 * interval, peak bus occupancy and queue depth, peak module
 * backlog, peak waiter count, peak event rate, heap-fallback total
 * and the detected hot-spot records) — absent on unsampled runs,
 * so those records differ from v5 only in the version stamp; v7
 * introduces kind:"fuzz" campaign-coverage records (programs run,
 * shapes drawn, scheme x backend x passes runs, analytical-oracle
 * gates, divergence count and a deterministic case digest) written
 * by `psync_bench --fuzz` — sim and native records are unchanged
 * from v6; v8 introduces kind:"serve" records written by
 * `psync_serve`, the persistent runtime-service campaigns: each
 * carries the traffic mix, gang shape, requests served,
 * programs_per_sec, plan-cache hit rate, submit-to-publish latency
 * percentiles (p50/p95/p99 ns), epochs begun and verification
 * samples/failures (the records' "wake_policy" and "winner" fields
 * and the campaign record's "winners" were dropped when the native
 * fabric kept one wake policy, without a version bump: nothing
 * loads serve-record fields) — sim, native and fuzz records are
 * unchanged from v7; v9 adds the fabric-topology fields that ride
 * along with the composed sync fabrics: sim records on the
 * combining fabric carry a top-level
 * "combine_rate" plus the per-stage network arrays inside
 * "result" (net_packets, net_combined, net_stage_conflicts,
 * net_stage_combines, net_stage_utilization, ...), and records on
 * the hierarchical fabric carry "num_clusters" /
 * "procs_per_cluster" plus the broadcast/coalescing counters and
 * "cluster_bus_utilization" inside "result" — all absent on the
 * flat fabrics, so memory/register records differ from v8 only in
 * the version stamp. v9 also introduces the scale-1024 scenario
 * group and, on fuzz records, a conditional "fabric_rotation"
 * marker for --fuzz-fabric campaigns. The loader accepts only
 * the current version and ignores non-"sim" records when comparing
 * cycles.
 */
constexpr int kTrajectorySchemaVersion = 9;

/** Default register-fabric machine (section 6 hardware). */
core::RunConfig registerMachine(unsigned procs = 8,
                                unsigned num_pcs = 16);

/** Default memory-fabric machine (keys live with the data). */
core::RunConfig memoryMachine(unsigned procs = 8);

/**
 * Combining-fabric machine: sync variables in interleaved modules
 * behind a combining omega network (Ultracomputer/RP3 style). Same
 * variable capacity model as the memory machine; the network in
 * front is what changes.
 */
core::RunConfig combiningMachine(unsigned procs = 8,
                                 unsigned num_pcs = 16);

/**
 * Two-level hierarchical cluster machine: per-cluster register
 * images and local buses joined by one global stage.
 */
core::RunConfig hierarchicalMachine(unsigned procs = 8,
                                    unsigned clusters = 4,
                                    unsigned num_pcs = 16);

/** The natural machine for a scheme: memory keys or registers. */
core::RunConfig machineFor(sync::SchemeKind kind, unsigned procs = 8,
                           unsigned num_pcs = 16);

/**
 * Programs a hand-built scenario supplies instead of a planned loop:
 * an iteration pool, dispatched under the config's schedule policy,
 * or (when `perProc` is non-empty) one program list per processor.
 */
struct ScenarioPrograms
{
    std::vector<sim::Program> pool;
    std::vector<std::vector<sim::Program>> perProc;
};

/** One named experiment: its programs and the machine they run on. */
struct Scenario
{
    /** Stable id, "<group>/<variant>" (e.g. "fig21-n256/statement"). */
    std::string id;

    /** Workload label shared by the group's scenarios. */
    std::string workload;

    /** Scheme label, including variant suffixes ("reference+cedar"). */
    std::string scheme;

    /** One line on what the scenario demonstrates. */
    std::string description;

    /** Scheme a planned scenario lowers its loop with. */
    sync::SchemeKind kind = sync::SchemeKind::processImproved;

    /**
     * Builds the loop (deterministic; called per run). A planned
     * scenario runs it under `kind`; a hand-built one, when it has
     * a loop, is trace-checked against the loop's cross-iteration
     * dependences.
     */
    std::function<dep::Loop()> loop;

    /**
     * Hand-built programs: allocates its sync variables on the
     * run's fabric and returns the programs to run there. Null for
     * planned scenarios.
     */
    std::function<ScenarioPrograms(sim::SyncFabric &)> build;

    /** Fully-configured machine + scheme + schedule knobs. */
    core::RunConfig config;
};

/** All registered scenarios, in registration order. */
const std::vector<Scenario> &allScenarios();

/** Exact-id lookup; nullptr when unknown. */
const Scenario *findScenario(const std::string &id);

/**
 * Scenarios whose id contains `pattern` (exact match wins alone);
 * empty pattern matches everything.
 */
std::vector<const Scenario *>
matchScenarios(const std::string &pattern);

/**
 * Shell-style glob match over the whole of `text`: `*` matches any
 * run (including empty, including '/'), `?` any single character;
 * everything else is literal. Iterative, so adversarial patterns
 * cost O(pattern x text), not exponential time.
 */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * Scenarios whose id matches the shell-style glob (--scenarios):
 * "fig32-*" takes a group, "*statement*" a scheme column. A
 * pattern without a glob metacharacter degrades to substring
 * matching so existing --run habits keep working.
 */
std::vector<const Scenario *>
matchScenariosGlob(const std::string &pattern);

/** Outcome of one scenario run, with the bound attached. */
struct ScenarioRecord
{
    const Scenario *scenario = nullptr;
    core::DoacrossResult result;
    /**
     * Pure dependence-chain bound (one processor per iteration);
     * 0 for a hand-built scenario without a loop.
     */
    sim::Tick depBoundCycles = 0;
    /** Dependence-or-work/P bound on the scenario's machine. */
    sim::Tick boundCycles = 0;

    /**
     * Host wall-clock nanoseconds runScenario spent on this record
     * (loop build + planning or building + simulation + trace
     * check). Not
     * comparable across machines; trajectory comparisons only look
     * at simulated cycles.
     */
    std::uint64_t hostNanos = 0;

    /**
     * Whether IR transform passes (redundant-wait elimination and
     * the peephole) were enabled for this run. The verifier runs
     * either way; recorded so trajectory readers can tell the two
     * series apart. Always false for hand-built programs, which
     * bypass the pass pipeline.
     */
    bool transformsEnabled = false;

    /**
     * Achieved-critical-path profile, built when runScenario was
     * asked to profile (requires a trace log); null otherwise.
     * Shared so records stay cheap to copy.
     */
    std::shared_ptr<core::CriticalPathProfile> profile;

    /**
     * Assembled timeline, built when runScenario sampled the run
     * (requires a trace log); null otherwise. Shared so records
     * stay cheap to copy.
     */
    std::shared_ptr<core::Timeline> timeline;

    /** Simulated events per host second (0 when unmeasured). */
    double
    eventsPerSec() const
    {
        if (hostNanos == 0)
            return 0.0;
        return static_cast<double>(result.run.eventsExecuted) *
               1e9 / static_cast<double>(hostNanos);
    }

    /**
     * One schema-versioned trajectory record: scenario id, scheme,
     * machine shape, cycles, bound, cycle split, bus and memory
     * utilization, host timing, plus the full RunResult under
     * "result".
     */
    core::json::Value toJson() const;
};

/**
 * Run one scenario (plan or build + run + trace-verify). Aborts the
 * process on a dependence violation or deadlock — a broken scenario
 * must never silently enter a trajectory file.
 * @param tracer optional trace log for blame reports.
 * @param passes when non-null, overrides the scenario's registered
 *        ir::PassConfig (psync_bench uses this to turn the
 *        transform passes on by default and off under
 *        `--no-passes`); null runs the config as registered, i.e.
 *        verifier on, transforms off.
 * @param profile build the achieved-critical-path profile from the
 *        recorded trace and fill result.run.waitLatency; requires
 *        `tracer`.
 * @param timeline sample the run's timeline (MachineConfig::
 *        timeline) and assemble it; requires `tracer`. Sampling is
 *        passive: cycle counts are identical with it on or off.
 */
ScenarioRecord runScenario(const Scenario &scenario,
                           sim::TraceLog *tracer = nullptr,
                           const ir::PassConfig *passes = nullptr,
                           bool profile = false,
                           bool timeline = false);

/**
 * Outcome of one native (real-thread) scenario run. Records host
 * wall-time and throughput only; there are no simulated cycles to
 * regress against, so compare tooling skips these records.
 */
struct NativeScenarioRecord
{
    const Scenario *scenario = nullptr;
    unsigned numThreads = 0;
    native::NativeDoacrossResult result;
    /** Host-clock latency instrumentation was on for this run. */
    bool profiled = false;

    /**
     * Trajectory record with kind "native". The id is the scenario
     * id suffixed "#native-t<threads>" so native series never
     * collide with the sim series for the same scenario.
     */
    std::string recordId() const;
    core::json::Value toJson() const;
};

/**
 * Execute one scenario on the native backend with `threads` host
 * threads (per-processor program lists fix the thread count at the
 * scenario's processor count). Planning or building is identical to
 * runScenario; execution happens on real threads and is verified by
 * replaying the access log through the same trace checker. Aborts
 * the process on a dependence violation, value divergence, or
 * deadlock. With
 * `profile`, blocking waits are host-clock timed (spin-vs-park
 * split, park wakeup latency, fetch&add retries) into the record.
 */
NativeScenarioRecord runScenarioNative(const Scenario &scenario,
                                       unsigned threads,
                                       bool profile = false);

/** Simulated results by scenario id: what a claim reads. */
using ClaimRecords =
    std::map<std::string, const core::DoacrossResult *>;

/** Outcome of checking one claim against a record set. */
struct ClaimVerdict
{
    bool holds = true;
    /** Every comparison the predicate made, with its numbers. */
    std::string numbers;
};

/**
 * One EXPERIMENTS.md claim as an executable predicate over the
 * simulated records of its scenarios. The statement is the sentence
 * EXPERIMENTS.md states; the check encodes exactly that sentence.
 * Claims must hold with the IR transform passes on and off.
 */
struct Claim
{
    /** Experiment id ("E3", "E6b"). */
    std::string id;
    std::string statement;
    /**
     * Scenario ids the predicate reads, sorted; registration finds
     * them with a dry run of the predicate.
     */
    std::vector<std::string> scenarios;
    std::function<void(const ClaimRecords &, ClaimVerdict &)> check;
};

/** All registered claims, in registration order. */
const std::vector<Claim> &allClaims();

/** One claim evaluated on a record set. */
struct ClaimResult
{
    const Claim *claim = nullptr;
    ClaimVerdict verdict;
};

/**
 * Evaluate every claim whose scenarios all appear in `records`;
 * claims the record set does not cover are skipped.
 */
std::vector<ClaimResult> evaluateClaims(const ClaimRecords &records);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_REGISTRY_HH
