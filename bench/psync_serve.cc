/**
 * @file
 * psync_serve — drive the persistent Doacross runtime service with
 * sustained mixed traffic and record kind:"serve" trajectory
 * records.
 *
 * The default campaign runs one cell per traffic mix (uniform,
 * hotkey, bursty), each drawing its plans from the bench registry,
 * with sampled full verification. Exit status is non-zero when any
 * request failed or any verification sample diverged, so CI can
 * gate on it directly; it is 2 when the --json file exists but
 * does not load (the file is then left as it was).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/compare.hh"
#include "bench/serve_bench.hh"

namespace {

using namespace psync;

struct Options
{
    bench::ServeCampaignOptions campaign;
    std::string jsonPath;
    bool smoke = false;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: psync_serve [--requests N] [--gangs G]\n"
        "                   [--gang-size S] [--scenarios GLOB]\n"
        "                   [--verify-every N] [--seed S]\n"
        "                   [--timeout-ms MS] [--burst N]\n"
        "                   [--mix uniform|hotkey|bursty]\n"
        "                   [--json FILE] [--smoke]\n"
        "\n"
        "Runs one campaign cell per traffic mix against the\n"
        "persistent runtime service. --mix (repeatable) restricts\n"
        "the mixes. --json merges the cell records and the campaign\n"
        "summary into a trajectory file. --smoke shrinks the\n"
        "campaign for CI (few requests, tight verification\n"
        "sampling).\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    auto need = [&](int &i, const char *what) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", what);
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *v = nullptr;
        if (arg == "--requests") {
            if (!(v = need(i, "--requests")))
                return false;
            opts.campaign.requests = std::strtoull(v, nullptr, 10);
        } else if (arg == "--gangs") {
            if (!(v = need(i, "--gangs")))
                return false;
            opts.campaign.gangs =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--gang-size") {
            if (!(v = need(i, "--gang-size")))
                return false;
            opts.campaign.gangSize =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--scenarios") {
            if (!(v = need(i, "--scenarios")))
                return false;
            opts.campaign.scenarioGlob = v;
        } else if (arg == "--verify-every") {
            if (!(v = need(i, "--verify-every")))
                return false;
            opts.campaign.verifySampleEvery =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--seed") {
            if (!(v = need(i, "--seed")))
                return false;
            opts.campaign.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--timeout-ms") {
            if (!(v = need(i, "--timeout-ms")))
                return false;
            opts.campaign.requestTimeoutMs =
                std::strtoull(v, nullptr, 10);
        } else if (arg == "--burst") {
            if (!(v = need(i, "--burst")))
                return false;
            opts.campaign.burstSize =
                std::strtoull(v, nullptr, 10);
        } else if (arg == "--mix") {
            if (!(v = need(i, "--mix")))
                return false;
            opts.campaign.mixes.emplace_back(v);
        } else if (arg == "--json") {
            if (!(v = need(i, "--json")))
                return false;
            opts.jsonPath = v;
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (opts.smoke) {
        // CI shape: small but still crossing every code path —
        // all mixes, tight verification sampling.
        opts.campaign.requests = 60;
        opts.campaign.verifySampleEvery = 4;
        opts.campaign.burstSize = 16;
        if (opts.campaign.scenarioGlob == "fig21-n256/*")
            opts.campaign.scenarioGlob = "fig21-n64/*";
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    // Open the trajectory first: a file that does not load fails
    // the run before the campaign spends its time.
    core::json::Value doc;
    if (!opts.jsonPath.empty() &&
        !bench::openTrajectory(opts.jsonPath, doc))
        return 2;

    bench::ServeCampaignResult result =
        bench::runServeCampaign(opts.campaign);

    std::printf(
        "campaign: %llu requests, %llu program executions, "
        "%llu failed, %llu verify failures\n",
        static_cast<unsigned long long>(result.totalRequests),
        static_cast<unsigned long long>(result.totalPrograms),
        static_cast<unsigned long long>(result.totalFailed),
        static_cast<unsigned long long>(
            result.totalVerifyFailures));

    if (!opts.jsonPath.empty()) {
        for (const auto &cell : result.cells)
            bench::mergeRecord(doc, cell.toJson());
        bench::mergeRecord(doc, result.toJson());
        if (!bench::writeJsonFile(opts.jsonPath, doc))
            return 2;
    }

    return result.ok() ? 0 : 1;
}
