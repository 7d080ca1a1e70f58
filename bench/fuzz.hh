/**
 * @file
 * Differential Doacross fuzzing.
 *
 * A fuzz campaign draws seeded random loops from the
 * workloads/fuzz grammar and pushes each one through the entire
 * stack: every synchronization scheme x both backends (simulator
 * and native threads) x the IR pass pipeline off and on. Three
 * independent oracles must agree on every case:
 *
 *  1. the functional sequential replay (core::sequentialImage) —
 *     no simulator, scheme, or trace involved;
 *  2. the simulator's ValueTrace image + trace-checker verdict;
 *  3. the native backend's ticket-replayed image + checker verdict.
 *
 * On small instance DAGs a fourth, analytical oracle is gated too:
 * the closed-form critical path (core::analyticalCriticalPath) must
 * equal the DP bound exactly, and the profiled achieved path must
 * land in [analytical bound, simulated cycles].
 *
 * Any divergence is shrunk (greedy iteration/statement/reference
 * bisection over the canonical grammar) and emitted as a
 * self-contained repro bundle: one JSON file holding the canonical
 * loop text, the per-case configuration, and the observed failures,
 * replayable with `psync_bench --fuzz-replay FILE`.
 *
 * Everything a campaign reports is a pure function of (seed, count,
 * limits): the coverage record and case digest are byte-identical
 * across --jobs counts, which CI turns into a determinism gate.
 */

#ifndef PSYNC_BENCH_FUZZ_HH
#define PSYNC_BENCH_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/runtime.hh"
#include "workloads/fuzz.hh"

namespace psync {
namespace bench {

/** Knobs of one fuzz campaign. */
struct FuzzOptions
{
    /** Programs to generate (--fuzz N). */
    std::uint64_t count = 100;
    /** Campaign seed (--seed S). */
    std::uint64_t seed = 1;
    /** Worker threads over cases (--jobs). */
    unsigned jobs = 1;
    /** Grammar size bounds. */
    workloads::FuzzLimits limits;
    /** Directory for repro bundles; empty = don't write files. */
    std::string reproDir;
    /** Shrink divergent cases before bundling. */
    bool shrink = true;
    /**
     * Gate the analytical critical-path oracle on cases with at
     * most this many statement instances (iterations x statements).
     */
    std::uint64_t smallDagMaxInstances = 600;
    /** Max predicate evaluations while shrinking one case. */
    std::uint64_t shrinkBudget = 160;
    /**
     * Watchdog deadline for each native-backend leg, threaded into
     * native::NativeConfig::timeoutMs. Fuzz programs are tiny
     * (hundreds of iterations); a healthy native run finishes in
     * milliseconds, so a short deadline keeps backend-deadlock
     * cases from stalling the campaign for the default 20s each.
     */
    std::uint64_t nativeTimeoutMs = 2000;
    /**
     * Also run each case through the persistent runtime service
     * (serve::DoacrossService, epoch-reused fabric) and compare its
     * image against the same oracles as the direct native leg.
     */
    bool serveMode = false;
    /**
     * Fabric-rotation legs (--fuzz-fabric): re-run each clean
     * (scheme, case) pair on one rotated sync fabric — memory,
     * registers, combining omega network or hierarchical clusters,
     * chosen round-robin from (case index, scheme) — and hold the
     * run to the same sequential-replay oracle. Timing differs
     * across fabrics by design; values must not.
     */
    bool fabricMode = false;
};

/**
 * Per-case run configuration, drawn deterministically from
 * (seed, index) independently of the loop shape: processor count,
 * schedule policy, chunk size, PC count, native thread count and
 * interleaving-jitter seed all vary across cases so the matrix
 * sweeps the configuration space, not just the program space.
 */
struct FuzzCaseConfig
{
    unsigned procs = 4;
    core::SchedulePolicy schedule =
        core::SchedulePolicy::selfScheduling;
    std::uint64_t chunkSize = 4;
    unsigned numPcs = 16;
    unsigned nativeThreads = 2;
    std::uint64_t timingSeed = 1;
};

/** The configuration fuzz case `index` of campaign `seed` runs. */
FuzzCaseConfig fuzzCaseConfig(std::uint64_t seed,
                              std::uint64_t index);

/** Outcome of the differential matrix on one generated loop. */
struct FuzzCaseOutcome
{
    std::uint64_t index = 0;
    /** One entry per divergence; empty = all oracles agreed. */
    std::vector<std::string> failures;

    // Deterministic coverage facts, folded into the campaign
    // record.
    bool depth2 = false;
    bool guarded = false;
    /** instance-based skipped (scheme rejects guarded bodies). */
    bool instanceSkipped = false;
    /** Analytical critical-path oracle was gated on this case. */
    bool analyticalGated = false;
    /** scheme x backend x passes executions performed. */
    std::uint64_t schemeRuns = 0;
    /** FNV digest of the sequential image (memory + reads). */
    std::uint64_t imageDigest = 0;
    /** FNV digest over (scheme, passes, simulated cycles). */
    std::uint64_t cyclesDigest = 0;

    bool ok() const { return failures.empty(); }
};

/**
 * Run the full differential matrix on one loop under one case
 * configuration. Never aborts the process: verifier rejections are
 * reported as failures (the matrix runs with the in-planner
 * verifier off and checks ir::verifyPool explicitly).
 */
FuzzCaseOutcome runFuzzCase(const dep::Loop &loop,
                            const FuzzCaseConfig &config,
                            const FuzzOptions &opts,
                            std::uint64_t index = 0);

/** One divergent case, after shrinking. */
struct FuzzDivergence
{
    std::uint64_t index = 0;
    /** Canonical text of the shrunk loop. */
    std::string canonical;
    /** Canonical text of the original generated loop. */
    std::string originalCanonical;
    /** Failures observed on the shrunk loop. */
    std::vector<std::string> failures;
    /** Bundle file path; empty when reproDir was empty. */
    std::string bundlePath;

    /** Self-contained repro bundle document. */
    core::json::Value toBundle(const FuzzOptions &opts,
                               const FuzzCaseConfig &config) const;
};

/** Aggregate outcome of a campaign. */
struct FuzzCampaignResult
{
    std::uint64_t seed = 0;
    std::uint64_t programs = 0;
    std::uint64_t schemeRuns = 0;
    std::uint64_t depth2 = 0;
    std::uint64_t guarded = 0;
    std::uint64_t instanceSkipped = 0;
    std::uint64_t analyticalGated = 0;
    /** Campaign ran the fabric-rotation legs (--fuzz-fabric). */
    bool fabricMode = false;
    /** Fold of every case's digests, in case order. */
    std::uint64_t caseDigest = 0;
    std::vector<FuzzDivergence> divergences;

    bool ok() const { return divergences.empty(); }

    /**
     * Trajectory coverage record (kind "fuzz", schema v7): programs
     * run, shapes drawn, scheme runs, analytical gates, divergence
     * count and the campaign digest. Deterministic across --jobs.
     */
    core::json::Value toJson() const;
};

/**
 * Generate and differentially test `opts.count` programs on a
 * worker pool. Shrinks and bundles divergent cases (serially, after
 * the sweep). Progress lines go to stdout.
 */
FuzzCampaignResult runFuzzCampaign(const FuzzOptions &opts);

/**
 * Re-run a repro bundle produced by a campaign (or a hand-written
 * one). Fills `failures` with the divergences observed now; returns
 * false when the bundle itself is malformed (error in `failures`).
 */
bool replayFuzzBundle(const core::json::Value &bundle,
                      std::vector<std::string> &failures);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_FUZZ_HH
