/**
 * @file
 * Runtime-service campaigns: sustained mixed traffic against
 * serve::DoacrossService, recorded as trajectory schema v8
 * kind:"serve" records.
 *
 * A campaign runs one cell per traffic mix. Each cell boots a
 * fresh service (persistent gangs, plan cache, epoch-reused
 * fabrics), drives `requests` submissions drawn from the bench
 * registry's scenarios, waits for the service to drain, and
 * snapshots throughput (programs_per_sec), plan-cache hit rate,
 * and submit-to-publish latency percentiles.
 *
 * Traffic mixes:
 *  - uniform: requests draw uniformly over the matched scenarios'
 *    plans (steady multi-tenant load, every arena warm);
 *  - hotkey: 90% of requests hit one hot plan, the rest spread
 *    uniformly (cache/arena skew, the service's best case and the
 *    fabric's most contended);
 *  - bursty: uniform draw, but submissions arrive in bursts with a
 *    full drain between bursts (queue-depth spikes show up in the
 *    latency tail).
 *
 * Per-request init-cost amortization (the paper's section 4
 * argument, measured at service scale): every request logically
 * reinitializes its scheme's sync variables, but pays one epoch
 * bump instead of |initWords| writes — the throughput delta
 * against the per-run native backend in the same trajectory file
 * is the measured claim.
 */

#ifndef PSYNC_BENCH_SERVE_BENCH_HH
#define PSYNC_BENCH_SERVE_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hh"

namespace psync {
namespace bench {

/** Campaign shape (one cell per traffic mix). */
struct ServeCampaignOptions
{
    /** Requests per cell. */
    std::uint64_t requests = 1600;
    unsigned gangs = 2;
    unsigned gangSize = 4;
    std::uint64_t seed = 1;
    /** Scenario glob the traffic draws plans from. */
    std::string scenarioGlob = "fig21-n256/*";
    /** Full verification every Nth request per gang (0 = never). */
    unsigned verifySampleEvery = 64;
    std::uint64_t requestTimeoutMs = 10000;
    /** Requests per burst in the bursty mix. */
    std::uint64_t burstSize = 128;
    /** Mixes to run; empty = all three. */
    std::vector<std::string> mixes;
};

/** Result of one campaign cell (one traffic mix). */
struct ServeCellResult
{
    std::string mix;
    unsigned gangs = 0;
    unsigned gangSize = 0;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t programsRun = 0;
    std::uint64_t verifySamples = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t epochsBegun = 0;
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    double planCacheHitRate = 0.0;
    std::uint64_t latencyP50Ns = 0;
    std::uint64_t latencyP95Ns = 0;
    std::uint64_t latencyP99Ns = 0;
    /** Whole-cell host wall time, submission through drain. */
    std::uint64_t hostNanos = 0;

    double
    programsPerSec() const
    {
        if (hostNanos == 0)
            return 0.0;
        return static_cast<double>(programsRun) * 1e9 /
               static_cast<double>(hostNanos);
    }

    /** Record id: "serve/<mix>#g<gangs>x<gangSize>". */
    std::string recordId() const;
    /** One schema-v8 kind:"serve" trajectory record. */
    core::json::Value toJson() const;
};

/** A full campaign: every cell plus grid-level totals. */
struct ServeCampaignResult
{
    std::vector<ServeCellResult> cells;
    std::uint64_t totalRequests = 0;
    std::uint64_t totalPrograms = 0;
    std::uint64_t totalFailed = 0;
    std::uint64_t totalVerifyFailures = 0;
    /** Scenario ids the traffic drew from. */
    std::vector<std::string> sources;

    bool
    ok() const
    {
        return totalFailed == 0 && totalVerifyFailures == 0 &&
               !cells.empty();
    }

    /** Campaign summary record ("serve/campaign#g<G>x<S>"). */
    core::json::Value toJson() const;
};

/**
 * Run one cell per mix. Aborts the process when the scenario glob
 * matches nothing. Deterministic plan-draw sequence per (seed,
 * requests); host timings are whatever the machine gives.
 */
ServeCampaignResult
runServeCampaign(const ServeCampaignOptions &opts);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_SERVE_BENCH_HH
