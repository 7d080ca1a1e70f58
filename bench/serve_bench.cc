#include "bench/serve_bench.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/registry.hh"
#include "core/value_rule.hh"
#include "serve/service.hh"

namespace psync {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

/** One plan source the traffic draws from. */
struct PlanSource
{
    std::string scenarioId;
    dep::Loop loop;
    sync::SchemeKind kind;
    core::RunConfig config;
};

/**
 * Resolve the glob to plan sources. The transform passes run (as
 * psync_bench's sim sweep does by default): served programs are
 * the optimized lowering.
 */
std::vector<PlanSource>
planSources(const std::string &glob)
{
    std::vector<PlanSource> sources;
    for (const Scenario *scenario : matchScenariosGlob(glob)) {
        PlanSource src;
        src.scenarioId = scenario->id;
        src.loop = scenario->loop();
        src.kind = scenario->kind;
        src.config = scenario->config;
        src.config.passes.enabled = true;
        src.config.passes.verify = true;
        src.config.passes.eliminateRedundantWaits = true;
        src.config.passes.peephole = true;
        sources.push_back(std::move(src));
    }
    if (sources.empty()) {
        std::fprintf(stderr,
                     "serve campaign: no scenario matches '%s'\n",
                     glob.c_str());
        std::abort();
    }
    return sources;
}

/** Deterministic plan draw for request `i` of a mix. */
std::size_t
drawSource(const std::string &mix, std::uint64_t seed,
           std::uint64_t i, std::size_t num_sources)
{
    std::uint64_t r = core::mix64(seed ^ (i * 0x9e3779b97f4a7c15ull));
    if (mix == "hotkey") {
        // 90% of traffic on source 0; the tail spreads uniformly
        // over the others (or the hot one again when it is alone).
        if (r % 10 != 9 || num_sources == 1)
            return 0;
        return 1 + core::mix64(r) % (num_sources - 1);
    }
    return r % num_sources;
}

ServeCellResult
runServeCell(const std::string &mix,
             const std::vector<PlanSource> &sources,
             const ServeCampaignOptions &opts)
{
    serve::ServeConfig scfg;
    scfg.gangs = opts.gangs;
    scfg.gangSize = opts.gangSize;
    scfg.verifySampleEvery = opts.verifySampleEvery;
    scfg.requestTimeoutMs = opts.requestTimeoutMs;

    serve::DoacrossService service(scfg);

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < opts.requests; ++i) {
        const PlanSource &src = sources[drawSource(
            mix, opts.seed, i, sources.size())];
        // Full-path submission: the per-request plan-cache lookup
        // is part of what the cell measures.
        service.submit(src.loop, src.kind, src.config);
        if (mix == "bursty" && opts.burstSize &&
            (i + 1) % opts.burstSize == 0)
            service.waitIdle();
    }
    service.waitIdle();
    const auto t1 = Clock::now();
    serve::ServiceStats stats = service.stats();
    service.stop();

    ServeCellResult cell;
    cell.mix = mix;
    cell.gangs = scfg.gangs;
    cell.gangSize = scfg.gangSize;
    cell.requests = stats.submitted;
    cell.failed = stats.failed;
    cell.programsRun = stats.programsRun;
    cell.verifySamples = stats.verifySamples;
    cell.verifyFailures = stats.verifyFailures;
    cell.epochsBegun = stats.epochsBegun;
    cell.planCacheHits = stats.planCacheHits;
    cell.planCacheMisses = stats.planCacheMisses;
    cell.planCacheHitRate = stats.planCacheHitRate;
    cell.latencyP50Ns = stats.latencyNs.percentile(0.50);
    cell.latencyP95Ns = stats.latencyNs.percentile(0.95);
    cell.latencyP99Ns = stats.latencyNs.percentile(0.99);
    cell.hostNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                             t0)
            .count());
    return cell;
}

} // namespace

std::string
ServeCellResult::recordId() const
{
    return "serve/" + mix + "#g" + std::to_string(gangs) + "x" +
           std::to_string(gangSize);
}

core::json::Value
ServeCellResult::toJson() const
{
    core::json::Value rec = core::json::object();
    rec.set("scenario", recordId());
    rec.set("kind", "serve");
    rec.set("mix", mix);
    rec.set("gangs", gangs);
    rec.set("gang_size", gangSize);
    rec.set("requests", requests);
    rec.set("failed", failed);
    rec.set("programs_run", programsRun);
    rec.set("programs_per_sec", programsPerSec());
    rec.set("plan_cache_hits", planCacheHits);
    rec.set("plan_cache_misses", planCacheMisses);
    rec.set("plan_cache_hit_rate", planCacheHitRate);
    rec.set("latency_p50_ns", latencyP50Ns);
    rec.set("latency_p95_ns", latencyP95Ns);
    rec.set("latency_p99_ns", latencyP99Ns);
    rec.set("epochs_begun", epochsBegun);
    rec.set("verify_samples", verifySamples);
    rec.set("verify_failures", verifyFailures);
    rec.set("host_ns", hostNanos);
    return rec;
}

core::json::Value
ServeCampaignResult::toJson() const
{
    core::json::Value rec = core::json::object();
    if (!cells.empty()) {
        rec.set("scenario",
                "serve/campaign#g" +
                    std::to_string(cells.front().gangs) + "x" +
                    std::to_string(cells.front().gangSize));
    } else {
        rec.set("scenario", "serve/campaign");
    }
    rec.set("kind", "serve");
    rec.set("requests", totalRequests);
    rec.set("programs_run", totalPrograms);
    rec.set("failed", totalFailed);
    rec.set("verify_failures", totalVerifyFailures);
    core::json::Value src = core::json::array();
    for (const auto &s : sources)
        src.push(s);
    rec.set("sources", std::move(src));
    return rec;
}

ServeCampaignResult
runServeCampaign(const ServeCampaignOptions &opts)
{
    std::vector<PlanSource> sources =
        planSources(opts.scenarioGlob);

    std::vector<std::string> mixes = opts.mixes;
    if (mixes.empty())
        mixes = {"uniform", "hotkey", "bursty"};

    ServeCampaignResult result;
    for (const auto &src : sources)
        result.sources.push_back(src.scenarioId);

    for (const auto &mix : mixes) {
        result.cells.push_back(runServeCell(mix, sources, opts));
        const ServeCellResult &cell = result.cells.back();
        std::printf(
            "serve %-8s %8llu req %10llu prog %12.0f prog/s  "
            "cache %5.1f%%  p99 %8.2f ms%s\n",
            mix.c_str(),
            static_cast<unsigned long long>(cell.requests),
            static_cast<unsigned long long>(cell.programsRun),
            cell.programsPerSec(), cell.planCacheHitRate * 100.0,
            static_cast<double>(cell.latencyP99Ns) / 1e6,
            cell.failed || cell.verifyFailures ? "  FAILED" : "");
        result.totalRequests += cell.requests;
        result.totalPrograms += cell.programsRun;
        result.totalFailed += cell.failed;
        result.totalVerifyFailures += cell.verifyFailures;
    }
    return result;
}

} // namespace bench
} // namespace psync
