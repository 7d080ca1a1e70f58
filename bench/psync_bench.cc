/**
 * @file
 * The registry-driven benchmark driver.
 *
 *   psync_bench --list                       name every scenario
 *   psync_bench --all --json BENCH_PSYNC.json
 *                                            run all, write records
 *   psync_bench --run fig21-n256             run a subset (substring
 *                                            or exact id match)
 *   psync_bench --all --baseline old.json    run + diff, exit 1 on
 *                                            cycle regressions
 *   psync_bench --all --jobs 8               run scenarios on a
 *                                            worker pool (identical
 *                                            cycles, less wall time)
 *   psync_bench --compare old.json new.json  diff two trajectory
 *                                            files without running
 *   psync_bench --compare a.json b.json --exact
 *                                            determinism gate: any
 *                                            cycle difference fails
 *   psync_bench --report [pattern]           contention blame report
 *                                            (per-sync-var wait
 *                                            attribution, module
 *                                            heatmap, slack)
 *
 * A sim sweep or --report run judges every registered claim whose
 * scenarios it ran and prints one verdict line per claim.
 *
 * --json merges the run's records into the file when it exists;
 * a file that exists but does not load at the current schema is
 * left as it is.
 *
 * Exit codes: 0 success, 1 regression detected, claim failed or
 * comparison failure, 2 usage/IO error (a --json file that does
 * not load included).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/compare.hh"
#include "bench/fuzz.hh"
#include "bench/registry.hh"
#include "core/blame.hh"
#include "core/profile.hh"
#include "core/tracing.hh"

using namespace psync;

namespace {

/**
 * Fixed-width table printing. Columns are declared once (name,
 * width, alignment); every row then lines up under the header.
 * Cells are pre-formatted strings — use the num() / fixed() /
 * times() helpers for the common numeric formats.
 */
class Table
{
  public:
    struct Col
    {
        const char *name;
        int width;
        /** 'l' left-aligns (labels); anything else right-aligns. */
        char align = 'r';
    };

    Table(std::initializer_list<Col> cols) : cols_(cols) {}

    /** Print the header row from the column names. */
    void
    header() const
    {
        for (const auto &col : cols_)
            cell(col, col.name);
        std::printf("\n");
    }

    /** Print one row; extra cells are ignored, missing ones blank. */
    void
    row(std::initializer_list<std::string> cells) const
    {
        auto it = cells.begin();
        for (const auto &col : cols_) {
            cell(col, it != cells.end() ? it->c_str() : "");
            if (it != cells.end())
                ++it;
        }
        std::printf("\n");
    }

    /** Decimal integer cell. */
    static std::string
    num(std::uint64_t v)
    {
        return std::to_string(v);
    }

    /** Fixed-point cell ("0.123"). */
    static std::string
    fixed(double v, int prec = 3)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.*f", prec, v);
        return buf;
    }

    /** Ratio cell ("1.66x"). */
    static std::string
    times(double v, int prec = 2)
    {
        return fixed(v, prec) + "x";
    }

  private:
    void
    cell(const Col &col, const char *text) const
    {
        if (col.align == 'l')
            std::printf("%-*s ", col.width, text);
        else
            std::printf("%*s ", col.width, text);
    }

    std::vector<Col> cols_;
};

struct Options
{
    bool list = false;
    bool all = false;
    bool report = false;
    bool native = false;
    bool forbidHeapFallback = false;
    bool noPasses = false;
    bool profile = false;
    bool timeline = false;
    unsigned jobs = 1;
    bool fuzz = false;
    bool fuzzNoShrink = false;
    bool fuzzServe = false;
    bool fuzzFabric = false;
    std::uint64_t fuzzCount = 0;
    std::uint64_t fuzzSeed = 1;
    std::uint64_t fuzzNativeTimeoutMs = 2000;
    std::string fuzzJsonPath;
    std::string reproDir;
    std::string fuzzReplayPath;
    std::vector<unsigned> threadCounts;
    std::vector<std::string> patterns;
    std::vector<std::string> globs;
    std::string timelineJsonPath;
    std::string jsonPath;
    std::string baselinePath;
    std::string reportJsonPath;
    std::string profileTracePath;
    std::string compareOld;
    std::string compareNew;
    bench::CompareOptions compare;
};

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: psync_bench [--list] [--all] [--run PATTERN]... \n"
        "                   [--scenarios GLOB]... [PATTERN]...\n"
        "                   [--json FILE] [--jobs N]\n"
        "                   [--baseline FILE] [--threshold PCT]\n"
        "                   [--compare OLD NEW] [--exact]\n"
        "                   [--native] [--threads N,N,...]\n"
        "                   [--forbid-heap-fallback] [--no-passes]\n"
        "                   [--profile] [--profile-trace FILE]\n"
        "                   [--timeline] [--timeline-json FILE]\n"
        "                   [--report [PATTERN]] "
        "[--report-json FILE]\n"
        "                   [--fuzz N] [--seed S] "
        "[--fuzz-json FILE]\n"
        "                   [--repro-dir DIR] [--no-shrink]\n"
        "                   [--fuzz-replay FILE] [--fuzz-serve]\n"
        "                   [--fuzz-fabric] [--fuzz-timeout-ms MS]\n"
        "\n"
        "--fuzz N generates N seeded random Doacross loops and\n"
        "differentially tests each one: every scheme x both\n"
        "backends x the pass pipeline off/on must agree with a\n"
        "functional sequential replay (and, on small DAGs, with\n"
        "the closed-form critical-path oracle). Divergent cases\n"
        "are shrunk and written as repro bundles to --repro-dir;\n"
        "--fuzz-json writes the deterministic campaign record\n"
        "(byte-identical across --jobs); --fuzz-replay re-runs a\n"
        "bundle. Exit 1 on any divergence. --fuzz-serve adds a\n"
        "runtime-service leg per scheme (plan cache + epoch-reused\n"
        "fabric, every served request verified); --fuzz-fabric\n"
        "adds a fabric-rotation leg per clean (case, scheme) pair\n"
        "(memory / registers / combining / hierarchical, rotated\n"
        "round-robin, held to the sequential-replay oracle);\n"
        "--fuzz-timeout-ms sets the native watchdog deadline per\n"
        "backend leg (default 2000).\n"
        "\n"
        "A sim sweep or --report run judges every paper claim\n"
        "(EXPERIMENTS.md) whose scenarios it ran, prints one\n"
        "verdict line per claim with the numbers it compared, and\n"
        "exits 1 if one fails; --list names the claims.\n"
        "\n"
        "--native runs the selected scenarios on the real-thread\n"
        "backend (default --threads 2,4) and records host wall-time\n"
        "instead of simulated cycles; --forbid-heap-fallback fails\n"
        "a sim sweep if any run demoted calendar events to the\n"
        "heap. Sim runs apply the IR transform passes\n"
        "(redundant-wait elimination + peephole) by default;\n"
        "--no-passes runs each scenario's config as registered\n"
        "(verifier only), reproducing pre-pipeline cycle counts\n"
        "exactly.\n"
        "\n"
        "--profile reconstructs each run's achieved critical path\n"
        "(per-op cycle attribution, wait-latency histograms) and\n"
        "prints a per-scenario report; records gain the schema-v5\n"
        "critpath_achieved / critpath_gap_pct / profile fields.\n"
        "With --native it times blocking waits on the host clock\n"
        "instead. --profile-trace FILE additionally writes a\n"
        "Perfetto/Chrome trace with a \"critical path\" track (one\n"
        "file per scenario; the scenario id lands in the name when\n"
        "more than one is selected). Cycle counts are identical\n"
        "with profiling on or off.\n"
        "\n"
        "--timeline samples each run (bus occupancy and queue,\n"
        "per-module traffic and backlog, sync-var waiters,\n"
        "processor state mix, event-core self-metrics) at most\n"
        "1024 times: the interval starts at 16 cycles and doubles\n"
        "whenever the budget fills. It prints a sparkline report\n"
        "with detected hot spots and stamps records with the\n"
        "schema-v6 \"timeline\" summary; --timeline-json FILE\n"
        "writes the full series. Sampling is passive: cycle counts\n"
        "are identical with it on or off. --scenarios selects by\n"
        "shell-style glob over scenario ids (\"fig32-*\",\n"
        "\"*/statement*\").\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--all") {
            opts.all = true;
        } else if (arg == "--run") {
            const char *p = next("--run");
            if (!p)
                return false;
            opts.patterns.push_back(p);
        } else if (arg == "--json") {
            const char *p = next("--json");
            if (!p)
                return false;
            opts.jsonPath = p;
        } else if (arg == "--baseline") {
            const char *p = next("--baseline");
            if (!p)
                return false;
            opts.baselinePath = p;
        } else if (arg == "--jobs") {
            const char *p = next("--jobs");
            if (!p)
                return false;
            int n = std::atoi(p);
            if (n < 1) {
                std::fprintf(stderr,
                             "--jobs needs a positive count\n");
                return false;
            }
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--fuzz") {
            const char *p = next("--fuzz");
            if (!p)
                return false;
            long long n = std::atoll(p);
            if (n < 1) {
                std::fprintf(stderr,
                             "--fuzz needs a positive count\n");
                return false;
            }
            opts.fuzz = true;
            opts.fuzzCount = static_cast<std::uint64_t>(n);
        } else if (arg == "--seed") {
            const char *p = next("--seed");
            if (!p)
                return false;
            opts.fuzzSeed = std::strtoull(p, nullptr, 0);
        } else if (arg == "--fuzz-json") {
            const char *p = next("--fuzz-json");
            if (!p)
                return false;
            opts.fuzzJsonPath = p;
        } else if (arg == "--repro-dir") {
            const char *p = next("--repro-dir");
            if (!p)
                return false;
            opts.reproDir = p;
        } else if (arg == "--no-shrink") {
            opts.fuzzNoShrink = true;
        } else if (arg == "--fuzz-serve") {
            opts.fuzzServe = true;
        } else if (arg == "--fuzz-fabric") {
            opts.fuzzFabric = true;
        } else if (arg == "--fuzz-timeout-ms") {
            const char *p = next("--fuzz-timeout-ms");
            if (!p)
                return false;
            long long n = std::atoll(p);
            if (n < 1) {
                std::fprintf(
                    stderr,
                    "--fuzz-timeout-ms needs a positive count\n");
                return false;
            }
            opts.fuzzNativeTimeoutMs =
                static_cast<std::uint64_t>(n);
        } else if (arg == "--fuzz-replay") {
            const char *p = next("--fuzz-replay");
            if (!p)
                return false;
            opts.fuzzReplayPath = p;
        } else if (arg == "--native") {
            opts.native = true;
        } else if (arg == "--forbid-heap-fallback") {
            opts.forbidHeapFallback = true;
        } else if (arg == "--no-passes") {
            opts.noPasses = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--timeline") {
            opts.timeline = true;
        } else if (arg == "--timeline-json") {
            const char *p = next("--timeline-json");
            if (!p)
                return false;
            opts.timelineJsonPath = p;
            opts.timeline = true;
        } else if (arg == "--scenarios") {
            const char *p = next("--scenarios");
            if (!p)
                return false;
            opts.globs.push_back(p);
        } else if (arg == "--profile-trace") {
            const char *p = next("--profile-trace");
            if (!p)
                return false;
            opts.profileTracePath = p;
            opts.profile = true;
        } else if (arg == "--threads") {
            const char *p = next("--threads");
            if (!p)
                return false;
            std::string list = p;
            std::size_t pos = 0;
            while (pos < list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                int n = std::atoi(list.substr(pos, comma - pos)
                                      .c_str());
                if (n < 1) {
                    std::fprintf(
                        stderr,
                        "--threads needs positive counts\n");
                    return false;
                }
                opts.threadCounts.push_back(
                    static_cast<unsigned>(n));
                pos = comma + 1;
            }
        } else if (arg == "--exact") {
            opts.compare.requireIdentical = true;
        } else if (arg == "--threshold") {
            const char *p = next("--threshold");
            if (!p)
                return false;
            opts.compare.regressThresholdPct = std::atof(p);
        } else if (arg == "--compare") {
            const char *old_path = next("--compare");
            if (!old_path)
                return false;
            opts.compareOld = old_path;
            const char *new_path = next("--compare");
            if (!new_path)
                return false;
            opts.compareNew = new_path;
        } else if (arg == "--report") {
            opts.report = true;
        } else if (arg == "--report-json") {
            const char *p = next("--report-json");
            if (!p)
                return false;
            opts.reportJsonPath = p;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return false;
        } else {
            opts.patterns.push_back(arg);
        }
    }
    return true;
}

void
listScenarios()
{
    std::printf("%-40s %s\n", "scenario", "description");
    for (const auto &s : bench::allScenarios())
        std::printf("%-40s %s\n", s.id.c_str(),
                    s.description.c_str());
    std::printf("(%zu scenarios)\n", bench::allScenarios().size());
    for (const auto &c : bench::allClaims())
        std::printf("claim %-5s %s\n", c.id.c_str(),
                    c.statement.c_str());
}

std::vector<const bench::Scenario *>
selectScenarios(const Options &opts)
{
    if (opts.all ||
        (opts.patterns.empty() && opts.globs.empty()))
        return bench::matchScenarios("");
    std::vector<const bench::Scenario *> selected;
    auto take = [&](const std::string &pattern,
                    std::vector<const bench::Scenario *> matched) {
        if (matched.empty()) {
            std::fprintf(stderr, "no scenario matches '%s'\n",
                         pattern.c_str());
            return;
        }
        for (const auto *s : matched) {
            bool seen = false;
            for (const auto *have : selected)
                seen = seen || have == s;
            if (!seen)
                selected.push_back(s);
        }
    };
    for (const auto &pattern : opts.patterns)
        take(pattern, bench::matchScenarios(pattern));
    for (const auto &glob : opts.globs)
        take(glob, bench::matchScenariosGlob(glob));
    return selected;
}

/** One-line log2-histogram summary for table footers. */
std::string
histSummary(const core::LogHistogram &h)
{
    if (h.count() == 0)
        return "(no samples)";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu p50=%llu p95=%llu p99=%llu max=%llu",
                  static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(h.percentile(0.50)),
                  static_cast<unsigned long long>(h.percentile(0.95)),
                  static_cast<unsigned long long>(h.percentile(0.99)),
                  static_cast<unsigned long long>(h.max()));
    return buf;
}

/**
 * Per-scenario output path for --profile-trace: the given path when
 * only one scenario runs, otherwise the sanitized scenario id is
 * spliced in before the extension so files never collide.
 */
std::string
traceFileFor(const std::string &base, const std::string &id,
             bool many)
{
    if (!many)
        return base;
    std::string tag = id;
    for (char &c : tag) {
        if (c == '/' || c == ':' || c == '#')
            c = '-';
    }
    std::size_t dot = base.rfind('.');
    if (dot == std::string::npos ||
        base.find('/', dot) != std::string::npos)
        return base + "-" + tag;
    return base.substr(0, dot) + "-" + tag + base.substr(dot);
}

/**
 * Pass configuration for sim runs: transform passes on by default,
 * scenario config as registered (nullptr) under --no-passes.
 */
const ir::PassConfig *
benchPasses(const Options &opts)
{
    static const ir::PassConfig transforms = [] {
        ir::PassConfig cfg;
        cfg.eliminateRedundantWaits = true;
        cfg.peephole = true;
        return cfg;
    }();
    return opts.noPasses ? nullptr : &transforms;
}

/**
 * --native: execute the selected scenarios on the real-thread
 * backend at each requested thread count and append kind:"native"
 * records (host wall-time, throughput) to the trajectory file.
 * Every run is verified by the trace-checker replay inside
 * runScenarioNative; a violation aborts before any record lands.
 */
int
runNative(const Options &opts,
          const std::vector<const bench::Scenario *> &selected)
{
    std::vector<unsigned> threads = opts.threadCounts;
    if (threads.empty())
        threads = {2, 4};

    core::json::Value doc = bench::makeTrajectoryDoc();
    if (!opts.jsonPath.empty() &&
        !bench::openTrajectory(opts.jsonPath, doc))
        return 2;

    Table table{{"record", 48, 'l'},
                       {"wall-ms", 8},
                       {"progs/s", 10},
                       {"sync-ops", 10},
                       {"parks", 8}};
    table.header();
    for (const auto *scenario : selected) {
        // Per-processor program lists fix the thread count at the
        // scenario's P: their first run is their only record.
        std::vector<unsigned> ran;
        for (unsigned t : threads) {
            bench::NativeScenarioRecord record =
                bench::runScenarioNative(*scenario, t, opts.profile);
            if (std::find(ran.begin(), ran.end(), record.numThreads) !=
                ran.end())
                continue;
            ran.push_back(record.numThreads);
            table.row(
                {record.recordId(),
                 Table::fixed(
                     static_cast<double>(record.result.run.wallNanos) /
                         1e6,
                     1),
                 Table::fixed(
                     record.result.run.programsPerSec(), 0),
                 Table::num(record.result.run.syncOps),
                 Table::num(record.result.run.parks)});
            bench::mergeRecord(doc, record.toJson());
            if (opts.profile) {
                const native::NativeRunResult &r = record.result.run;
                std::printf("    wait ns:      %s\n",
                            histSummary(r.waitNs).c_str());
                std::printf("    park-wake ns: %s\n",
                            histSummary(r.parkWakeNs).c_str());
                std::printf("    fa retries:   %llu\n",
                            static_cast<unsigned long long>(
                                r.faRetries));
            }
            if (record.numThreads != t)
                break;
        }
    }

    if (!opts.jsonPath.empty() &&
        !bench::writeJsonFile(opts.jsonPath, doc))
        return 2;
    return 0;
}

/**
 * --fuzz: run a differential fuzz campaign, print divergences with
 * their shrunk canonical programs, write the deterministic campaign
 * record (--fuzz-json, and merged into --json when given). Exit 1
 * on any divergence.
 */
int
runFuzz(const Options &opts)
{
    bench::FuzzOptions fopts;
    fopts.count = opts.fuzzCount;
    fopts.seed = opts.fuzzSeed;
    fopts.jobs = opts.jobs;
    fopts.reproDir = opts.reproDir;
    fopts.shrink = !opts.fuzzNoShrink;
    fopts.serveMode = opts.fuzzServe;
    fopts.fabricMode = opts.fuzzFabric;
    fopts.nativeTimeoutMs = opts.fuzzNativeTimeoutMs;

    core::json::Value trajectory;
    if (!opts.jsonPath.empty() &&
        !bench::openTrajectory(opts.jsonPath, trajectory))
        return 2;

    bench::FuzzCampaignResult result =
        bench::runFuzzCampaign(fopts);

    std::printf(
        "fuzz: seed %llu: %llu programs, %llu scheme runs "
        "(%llu depth-2, %llu guarded, %llu analytical-gated), "
        "%zu divergences\n",
        static_cast<unsigned long long>(result.seed),
        static_cast<unsigned long long>(result.programs),
        static_cast<unsigned long long>(result.schemeRuns),
        static_cast<unsigned long long>(result.depth2),
        static_cast<unsigned long long>(result.guarded),
        static_cast<unsigned long long>(result.analyticalGated),
        result.divergences.size());

    for (const auto &div : result.divergences) {
        std::printf("\n== divergent case %llu ==\n",
                    static_cast<unsigned long long>(div.index));
        for (const std::string &f : div.failures)
            std::printf("  %s\n", f.c_str());
        if (!div.bundlePath.empty())
            std::printf("  bundle: %s\n", div.bundlePath.c_str());
        std::printf("  shrunk program:\n%s",
                    div.canonical.c_str());
    }

    if (!opts.fuzzJsonPath.empty()) {
        core::json::Value doc = core::json::object();
        doc.set("schema_version", bench::kTrajectorySchemaVersion);
        doc.set("campaign", result.toJson());
        if (!bench::writeJsonFile(opts.fuzzJsonPath, doc))
            return 2;
    }

    if (!opts.jsonPath.empty()) {
        bench::mergeRecord(trajectory, result.toJson());
        if (!bench::writeJsonFile(opts.jsonPath, trajectory))
            return 2;
    }
    return result.ok() ? 0 : 1;
}

/** --fuzz-replay: re-run one repro bundle. */
int
runFuzzReplay(const Options &opts)
{
    core::json::Value bundle;
    if (!bench::readJsonFile(opts.fuzzReplayPath, bundle))
        return 2;
    std::vector<std::string> failures;
    if (!bench::replayFuzzBundle(bundle, failures)) {
        for (const std::string &f : failures)
            std::fprintf(stderr, "%s\n", f.c_str());
        return 2;
    }
    if (failures.empty()) {
        std::printf("replay clean: %s no longer diverges\n",
                    opts.fuzzReplayPath.c_str());
        return 0;
    }
    std::printf("replay of %s still diverges:\n",
                opts.fuzzReplayPath.c_str());
    for (const std::string &f : failures)
        std::printf("  %s\n", f.c_str());
    return 1;
}

/**
 * Judge every claim the selection covers on its simulated results
 * (one per selected scenario, same order) and print one verdict
 * line per claim. @return 1 if a claim fails, else 0.
 */
int
judgeClaims(const std::vector<const bench::Scenario *> &selected,
            const std::vector<const core::DoacrossResult *> &results)
{
    bench::ClaimRecords by_id;
    for (std::size_t i = 0; i < selected.size(); ++i)
        by_id[selected[i]->id] = results[i];
    int rc = 0;
    for (const bench::ClaimResult &r : bench::evaluateClaims(by_id)) {
        std::printf("claim %s %s: %s [%s]\n", r.claim->id.c_str(),
                    r.verdict.holds ? "holds" : "FAILS",
                    r.claim->statement.c_str(),
                    r.verdict.numbers.c_str());
        if (!r.verdict.holds)
            rc = 1;
    }
    return rc;
}

/** The Fig. 3.2 scenario --report defaults to. */
const char *const kDefaultReportScenario = "fig32-jitter/statement";

int
runReports(const Options &opts)
{
    std::vector<const bench::Scenario *> selected;
    if (opts.patterns.empty()) {
        const bench::Scenario *s =
            bench::findScenario(kDefaultReportScenario);
        if (s)
            selected.push_back(s);
    } else {
        selected = selectScenarios(opts);
    }
    if (selected.empty()) {
        std::fprintf(stderr, "no scenario to report on\n");
        return 2;
    }

    core::json::Value reports = core::json::array();
    std::vector<core::DoacrossResult> results;
    results.reserve(selected.size());
    for (const auto *scenario : selected) {
        sim::TraceLog recorder;
        bench::ScenarioRecord record = bench::runScenario(
            *scenario, &recorder, benchPasses(opts));
        core::BlameReport blame = core::buildBlameReport(
            recorder, record.result.run, record.boundCycles);
        results.push_back(std::move(record.result));

        std::cout << "== " << scenario->id << " ("
                  << scenario->workload << ", " << scenario->scheme
                  << ") ==\n";
        blame.writeText(std::cout);
        std::cout << "\n";

        if (!opts.reportJsonPath.empty()) {
            core::json::Value entry = core::json::object();
            entry.set("scenario", scenario->id);
            entry.set("report", blame.toJson());
            reports.push(std::move(entry));
        }
    }
    if (!opts.reportJsonPath.empty()) {
        core::json::Value doc = core::json::object();
        doc.set("schema_version", bench::kTrajectorySchemaVersion);
        doc.set("reports", std::move(reports));
        if (!bench::writeJsonFile(opts.reportJsonPath, doc))
            return 2;
    }
    std::vector<const core::DoacrossResult *> judged;
    for (const auto &r : results)
        judged.push_back(&r);
    return judgeClaims(selected, judged);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage(stderr);
        return 2;
    }

    if (opts.list) {
        listScenarios();
        return 0;
    }

    if (!opts.compareOld.empty()) {
        core::json::Value old_doc, new_doc;
        if (!bench::readJsonFile(opts.compareOld, old_doc) ||
            !bench::readJsonFile(opts.compareNew, new_doc))
            return 2;
        bench::CompareResult result = bench::compareTrajectories(
            old_doc, new_doc, opts.compare);
        bench::printCompare(std::cout, result, opts.compare);
        return result.ok() ? 0 : 1;
    }

    if (!opts.fuzzReplayPath.empty())
        return runFuzzReplay(opts);

    if (opts.fuzz)
        return runFuzz(opts);

    if (opts.report)
        return runReports(opts);

    auto selected = selectScenarios(opts);
    if (selected.empty()) {
        std::fprintf(stderr,
                     "nothing to run (try --list or --all)\n");
        return 2;
    }

    if (opts.native)
        return runNative(opts, selected);

    // Start from the existing trajectory file when appending, so a
    // partial rerun keeps the other scenarios' records.
    core::json::Value doc = bench::makeTrajectoryDoc();
    if (!opts.jsonPath.empty() &&
        !bench::openTrajectory(opts.jsonPath, doc))
        return 2;

    // Run the selected scenarios: in order on this thread, or
    // claimed index-at-a-time by a worker pool under --jobs. Every
    // run builds its own Machine (and thus its own event queue and
    // RNG streams), so workers share nothing mutable but the claim
    // counter; cycle counts are identical either way and the
    // determinism gate in CI checks exactly that. Each scenario is
    // printed and merged as soon as it and every scenario before it
    // in the selection have finished, so output stays in selection
    // order, and its profile, timeline and trace are dropped then:
    // a traced sweep holds only the reports still waiting to print.
    const ir::PassConfig *passes = benchPasses(opts);
    std::vector<bench::ScenarioRecord> records(selected.size());
    bool record_trace = opts.profile || opts.timeline;
    std::vector<std::unique_ptr<sim::TraceLog>> traces(
        opts.profileTracePath.empty() ? 0 : selected.size());
    std::vector<bool> finished(selected.size(), false);
    std::size_t next_to_print = 0;
    std::mutex print_mutex;

    core::json::Value fresh = bench::makeTrajectoryDoc();
    core::json::Value timelines = core::json::array();
    // 1 once a profile invariant or a claim fails.
    int rc = 0;
    bool write_failed = false;
    Table table{{"scenario", 40, 'l'},
                {"cycles", 12},
                {"bound", 12},
                {"slack", 7},
                {"spin-frac", 9},
                {"host-ms", 8},
                {"Mev/s", 7}};
    table.header();

    auto print_one = [&](std::size_t i) {
        const bench::Scenario *scenario = selected[i];
        bench::ScenarioRecord &record = records[i];
        table.row(
            {scenario->id, Table::num(record.result.run.cycles),
             Table::num(record.boundCycles),
             Table::times(
                 record.boundCycles
                     ? static_cast<double>(record.result.run.cycles) /
                           static_cast<double>(record.boundCycles)
                     : 0.0),
             Table::fixed(record.result.run.spinFraction()),
             Table::fixed(static_cast<double>(record.hostNanos) / 1e6,
                          1),
             Table::fixed(record.eventsPerSec() / 1e6, 1)});
        core::json::Value rec = record.toJson();
        bench::mergeRecord(doc, rec);
        bench::mergeRecord(fresh, std::move(rec));

        if (record.profile) {
            std::cout << "\n";
            record.profile->writeText(std::cout, scenario->id);

            // The reconstruction must land between the analytical
            // floor and the run itself; anything else means the
            // walk lost or double-counted cycles.
            sim::Tick achieved = record.profile->achievedCycles;
            if (achieved < record.boundCycles ||
                achieved > record.result.run.cycles) {
                std::fprintf(
                    stderr,
                    "profile invariant violated: %s achieved %llu "
                    "outside [bound %llu, cycles %llu]\n",
                    scenario->id.c_str(),
                    static_cast<unsigned long long>(achieved),
                    static_cast<unsigned long long>(
                        record.boundCycles),
                    static_cast<unsigned long long>(
                        record.result.run.cycles));
                rc = 1;
            }

            if (!traces.empty()) {
                std::string path =
                    traceFileFor(opts.profileTracePath, scenario->id,
                                 selected.size() > 1);
                core::json::Value trace = core::chromeTrace(*traces[i]);
                core::json::Value events = *trace.find("traceEvents");
                core::json::Value path_events =
                    record.profile->perfettoEvents();
                for (auto &ev : path_events.asArray())
                    events.push(std::move(ev));
                trace.set("traceEvents", std::move(events));
                if (bench::writeJsonFile(path, trace))
                    std::printf("wrote %s\n", path.c_str());
                else
                    write_failed = true;
            }
        }
        if (record.timeline) {
            std::cout << "\n== " << scenario->id << " timeline ==\n";
            record.timeline->writeText(std::cout);
            if (!opts.timelineJsonPath.empty()) {
                core::json::Value entry = core::json::object();
                entry.set("scenario", scenario->id);
                entry.set("timeline", record.timeline->toJson());
                timelines.push(std::move(entry));
            }
        }
        std::cout.flush();
        record.profile.reset();
        record.timeline.reset();
        if (!traces.empty())
            traces[i].reset();
    };

    auto run_one = [&](std::size_t i) {
        std::unique_ptr<sim::TraceLog> log;
        if (record_trace)
            log = std::make_unique<sim::TraceLog>();
        bench::ScenarioRecord record = bench::runScenario(
            *selected[i], log.get(), passes, opts.profile,
            opts.timeline);
        std::lock_guard<std::mutex> lock(print_mutex);
        records[i] = std::move(record);
        if (!traces.empty())
            traces[i] = std::move(log);
        finished[i] = true;
        while (next_to_print < selected.size() &&
               finished[next_to_print])
            print_one(next_to_print++);
    };
    unsigned workers = std::min<std::size_t>(opts.jobs,
                                             selected.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < selected.size(); ++i)
            run_one(i);
    } else {
        std::atomic<std::size_t> next_index{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&run_one, &selected, &next_index]() {
                for (;;) {
                    std::size_t i = next_index.fetch_add(1);
                    if (i >= selected.size())
                        return;
                    run_one(i);
                }
            });
        }
        for (auto &worker : pool)
            worker.join();
    }
    if (write_failed)
        return 2;

    if (!opts.timelineJsonPath.empty()) {
        core::json::Value tdoc = core::json::object();
        tdoc.set("schema_version", bench::kTrajectorySchemaVersion);
        tdoc.set("timelines", std::move(timelines));
        if (!bench::writeJsonFile(opts.timelineJsonPath, tdoc))
            return 2;
        std::printf("wrote %s\n", opts.timelineJsonPath.c_str());
    }

    std::vector<const core::DoacrossResult *> judged;
    for (const auto &record : records)
        judged.push_back(&record.result);
    rc = std::max(rc, judgeClaims(selected, judged));

    if (!opts.jsonPath.empty() &&
        !bench::writeJsonFile(opts.jsonPath, doc))
        return 2;

    if (opts.forbidHeapFallback) {
        bool fell_back = false;
        for (std::size_t i = 0; i < selected.size(); ++i) {
            if (records[i].result.run.heapFallbackEvents == 0)
                continue;
            fell_back = true;
            std::fprintf(
                stderr,
                "heap fallback: %s demoted %llu events from the "
                "calendar core\n",
                selected[i]->id.c_str(),
                static_cast<unsigned long long>(
                    records[i].result.run.heapFallbackEvents));
        }
        if (fell_back)
            return 1;
    }

    if (!opts.baselinePath.empty()) {
        core::json::Value baseline;
        if (!bench::readJsonFile(opts.baselinePath, baseline))
            return 2;
        bench::CompareResult result = bench::compareTrajectories(
            baseline, fresh, opts.compare);
        bench::printCompare(std::cout, result, opts.compare);
        return result.ok() ? rc : 1;
    }
    return rc;
}
