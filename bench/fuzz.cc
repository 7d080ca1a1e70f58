#include "bench/fuzz.hh"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench/registry.hh"
#include "core/critical_path.hh"
#include "core/profile.hh"
#include "core/tracing.hh"
#include "core/value_trace.hh"
#include "dep/dep_graph.hh"
#include "dep/loop_text.hh"
#include "ir/passes.hh"
#include "native/runner.hh"
#include "serve/service.hh"
#include "sim/machine.hh"
#include "sim/rng.hh"

namespace psync {
namespace bench {

namespace {

// ---- digests ----------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
fnv1aStr(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

/** Hex rendering for u64-wide JSON fields (doubles lose 2^53+). */
std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
parseHex64(const std::string &s, std::uint64_t &out)
{
    const char *p = s.c_str();
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
        p += 2;
    auto res =
        std::from_chars(p, s.c_str() + s.size(), out, 16);
    return res.ec == std::errc{} &&
           res.ptr == s.c_str() + s.size();
}

// ---- per-case configuration -------------------------------------

std::uint64_t
configStream(std::uint64_t seed, std::uint64_t index)
{
    // Distinct salt from workloads::makeFuzzLoop so the run
    // configuration is uncorrelated with the loop shape.
    std::uint64_t z =
        (seed ^ 0xc2b2ae3d27d4eb4full) +
        index * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const core::SchedulePolicy kPolicies[] = {
    core::SchedulePolicy::selfScheduling,
    core::SchedulePolicy::chunkedSelfScheduling,
    core::SchedulePolicy::guidedSelfScheduling,
    core::SchedulePolicy::staticCyclic,
};

core::SchedulePolicy
policyByName(const std::string &name, bool &ok)
{
    for (core::SchedulePolicy p : kPolicies) {
        if (name == core::schedulePolicyName(p)) {
            ok = true;
            return p;
        }
    }
    ok = false;
    return core::SchedulePolicy::selfScheduling;
}

// ---- the differential matrix ------------------------------------

bool
loopHasGuards(const dep::Loop &loop)
{
    for (const dep::Statement &stmt : loop.body)
        if (stmt.guard.conditional())
            return true;
    return false;
}

/** Sim machine + schedule for one (case config, scheme) pair. */
core::RunConfig
runConfigFor(const FuzzCaseConfig &ccfg, sync::SchemeKind kind,
             bool passes_on)
{
    core::RunConfig cfg =
        machineFor(kind, ccfg.procs, ccfg.numPcs);
    cfg.schedule = ccfg.schedule;
    cfg.chunkSize = ccfg.chunkSize;
    // The matrix reports verifier rejections as divergences instead
    // of letting planDoacross abort the whole campaign; acceptance
    // is checked explicitly via ir::verifyPool below.
    cfg.passes.verify = false;
    cfg.passes.eliminateRedundantWaits = passes_on;
    cfg.passes.peephole = passes_on;
    return cfg;
}

using Image = std::map<sim::Addr, std::uint64_t>;
using Reads = std::map<std::uint64_t, std::uint64_t>;

std::uint64_t
imageDigestOf(const Image &memory, const Reads &reads)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &kv : memory) {
        h = fnv1a(h, kv.first);
        h = fnv1a(h, kv.second);
    }
    for (const auto &kv : reads) {
        h = fnv1a(h, kv.first);
        h = fnv1a(h, kv.second);
    }
    return h;
}

/** First differing key/value, for failure messages. */
template <typename Map>
std::string
firstDelta(const Map &got, const Map &want)
{
    auto g = got.begin();
    auto w = want.begin();
    while (g != got.end() && w != want.end()) {
        if (g->first != w->first || g->second != w->second)
            break;
        ++g;
        ++w;
    }
    char buf[160];
    if (g == got.end() && w == want.end())
        return "(equal)";
    if (g == got.end())
        std::snprintf(buf, sizeof(buf),
                      "missing key %llx (want value %llx)",
                      static_cast<unsigned long long>(w->first),
                      static_cast<unsigned long long>(w->second));
    else if (w == want.end())
        std::snprintf(buf, sizeof(buf),
                      "extra key %llx (got value %llx)",
                      static_cast<unsigned long long>(g->first),
                      static_cast<unsigned long long>(g->second));
    else
        std::snprintf(
            buf, sizeof(buf),
            "key %llx: got %llx want %llx",
            static_cast<unsigned long long>(
                g->first != w->first ? w->first : g->first),
            static_cast<unsigned long long>(g->second),
            static_cast<unsigned long long>(w->second));
    return buf;
}

} // namespace

FuzzCaseConfig
fuzzCaseConfig(std::uint64_t seed, std::uint64_t index)
{
    sim::Rng rng(configStream(seed, index));
    FuzzCaseConfig cfg;
    cfg.procs = 2 + static_cast<unsigned>(rng.below(7));
    cfg.schedule = kPolicies[rng.below(4)];
    cfg.chunkSize = 2 + rng.below(7);
    const unsigned pcs[] = {4, 8, 16};
    cfg.numPcs = pcs[rng.below(3)];
    cfg.nativeThreads = 2 + static_cast<unsigned>(rng.below(3));
    cfg.timingSeed = rng.next() | 1;
    return cfg;
}

FuzzCaseOutcome
runFuzzCase(const dep::Loop &loop, const FuzzCaseConfig &ccfg,
            const FuzzOptions &opts, std::uint64_t index)
{
    FuzzCaseOutcome out;
    out.index = index;
    out.depth2 = loop.depth == 2;
    out.guarded = loopHasGuards(loop);
    out.cyclesDigest = kFnvOffset;

    auto fail = [&](const std::string &what) {
        out.failures.push_back(what);
    };

    // Oracle 1: the functional sequential replay.
    core::SequentialImage seq = core::sequentialImage(loop);
    out.imageDigest = imageDigestOf(seq.memory, seq.reads);

    const std::vector<sync::SchemeKind> kinds =
        sync::allSyncSchemes();

    // Analytical oracle on small DAGs: one scheme per case gets a
    // profiled sim run whose achieved path must land between the
    // analytical bound and the simulated cycles.
    bool small_dag =
        loop.iterations() * loop.body.size() <=
        opts.smallDagMaxInstances;
    // Never gate the renaming scheme: it eliminates anti and
    // output dependences outright, so the dependence-graph critical
    // path is not a lower bound on its runs (a loop whose only
    // cross-iteration arc is an anti dependence finishes below the
    // "bound").
    sync::SchemeKind gate_kind = kinds[index % kinds.size()];
    if (gate_kind == sync::SchemeKind::instanceBased)
        gate_kind = sync::SchemeKind::processImproved;

    // Service-mode leg: one persistent service per case, shared
    // across schemes (the plan cache keys on scheme + config).
    std::unique_ptr<serve::DoacrossService> service;
    if (opts.serveMode) {
        serve::ServeConfig scfg;
        scfg.gangs = 1;
        scfg.gangSize = ccfg.nativeThreads;
        scfg.native.timingSeed = ccfg.timingSeed;
        scfg.verifySampleEvery = 1; // verify every served request
        scfg.requestTimeoutMs = opts.nativeTimeoutMs;
        service =
            std::make_unique<serve::DoacrossService>(scfg);
    }

    for (sync::SchemeKind kind : kinds) {
        const char *name = sync::schemeKindName(kind);
        bool is_instance =
            kind == sync::SchemeKind::instanceBased;
        if (is_instance && out.guarded) {
            // The scheme rejects branch-guarded bodies by design.
            out.instanceSkipped = true;
            continue;
        }
        std::size_t scheme_failures = out.failures.size();

        Image sim_memory[2];
        bool sim_deadlocked[2] = {false, false};
        for (int p = 0; p < 2; ++p) {
            bool passes_on = p == 1;
            std::string tag =
                std::string(name) +
                (passes_on ? "[passes=on]" : "[passes=off]");
            core::RunConfig cfg =
                runConfigFor(ccfg, kind, passes_on);

            // Verifier acceptance, without the planner's abort.
            {
                sim::Machine planning(cfg.machine);
                core::PlannedDoacross planned = core::planDoacross(
                    loop, kind, cfg, planning.fabric());
                sim::SyncFabric &fabric = planning.fabric();
                std::vector<std::string> errors =
                    ir::verifyPool(
                        planned.pool,
                        [&fabric](sim::SyncVarId var) {
                            return fabric.peek(var);
                        });
                if (!errors.empty()) {
                    fail(tag + "[verify]: " + errors.front());
                    continue;
                }
            }

            core::ValueTrace values;
            cfg.extraSink = &values;
            sim::TraceLog recorder;
            bool gated = small_dag && kind == gate_kind &&
                         !passes_on;
            if (gated)
                cfg.tracer = &recorder;

            core::DoacrossResult r =
                core::runDoacross(loop, kind, cfg);
            ++out.schemeRuns;
            out.cyclesDigest = fnv1aStr(out.cyclesDigest, tag);
            out.cyclesDigest =
                fnv1a(out.cyclesDigest, r.run.cycles);

            if (!r.run.completed) {
                sim_deadlocked[p] = true;
                fail(tag + "[sim]: deadlock (tick limit)");
                continue;
            }
            if (!r.violations.empty()) {
                fail(tag + "[sim]: trace violation: " +
                     r.violations.front());
                continue;
            }
            if (values.reads() != seq.reads)
                fail(tag + "[sim]: read values diverge from "
                           "sequential replay: " +
                     firstDelta(values.reads(), seq.reads));
            // Instance-based writes land in the renamed copy
            // region, so its image is compared backend-to-backend
            // below instead of against the sequential image.
            if (!is_instance && values.memory() != seq.memory)
                fail(tag + "[sim]: memory image diverges from "
                           "sequential replay: " +
                     firstDelta(values.memory(), seq.memory));
            sim_memory[p] = values.memory();

            if (gated) {
                core::CriticalPathCosts costs =
                    core::CriticalPathCosts::fromMachine(
                        cfg.machine);
                dep::DepGraph graph(loop, false);
                core::CriticalPath dp =
                    core::criticalPath(graph, costs);
                core::CriticalPath an =
                    core::analyticalCriticalPath(loop, costs);
                out.analyticalGated = true;
                if (an.cycles != dp.cycles ||
                    an.totalWork != dp.totalWork) {
                    fail(tag +
                         "[analytical]: closed-form path " +
                         std::to_string(an.cycles) + "/work " +
                         std::to_string(an.totalWork) +
                         " != DP path " +
                         std::to_string(dp.cycles) + "/work " +
                         std::to_string(dp.totalWork));
                } else {
                    sim::Tick bound =
                        an.achievableBound(ccfg.procs);
                    core::CriticalPathProfile profile =
                        core::buildCriticalPathProfile(
                            recorder, r.run.cycles, bound);
                    sim::Tick achieved = profile.achievedCycles;
                    if (achieved < bound ||
                        achieved > r.run.cycles)
                        fail(tag +
                             "[analytical]: achieved path " +
                             std::to_string(achieved) +
                             " outside [analytical bound " +
                             std::to_string(bound) +
                             ", cycles " +
                             std::to_string(r.run.cycles) + "]");
                }
            }
        }

        // Fabric-rotation leg: the same planned Doacross on a
        // rotated sync fabric must compute the same values (fabrics
        // change timing, never results). Rotation picks one
        // alternate fabric per (case, scheme) so a campaign covers
        // every kind without quadrupling each case. Skipped when
        // the scheme already diverged above — a fabric leg would
        // only restate the scheme bug under a different name.
        if (opts.fabricMode &&
            out.failures.size() == scheme_failures &&
            !sim_deadlocked[1]) {
            const sim::FabricKind rotation[] = {
                sim::FabricKind::memory,
                sim::FabricKind::registers,
                sim::FabricKind::combining,
                sim::FabricKind::hierarchical,
            };
            core::RunConfig cfg = runConfigFor(ccfg, kind, true);
            std::size_t pick =
                (index + static_cast<std::size_t>(kind)) % 4;
            if (rotation[pick] == cfg.machine.fabric)
                pick = (pick + 1) % 4;
            cfg.machine.fabric = rotation[pick];
            cfg.machine.numClusters = 2;
            std::string tag =
                std::string(name) + "[fabric=" +
                sim::fabricKindName(rotation[pick]) + "]";

            core::ValueTrace values;
            cfg.extraSink = &values;
            core::DoacrossResult r =
                core::runDoacross(loop, kind, cfg);
            ++out.schemeRuns;
            out.cyclesDigest = fnv1aStr(out.cyclesDigest, tag);
            out.cyclesDigest =
                fnv1a(out.cyclesDigest, r.run.cycles);

            if (!r.run.completed) {
                fail(tag + ": deadlock (tick limit)");
            } else if (!r.violations.empty()) {
                fail(tag + ": trace violation: " +
                     r.violations.front());
            } else {
                if (values.reads() != seq.reads)
                    fail(tag + ": read values diverge from "
                               "sequential replay: " +
                         firstDelta(values.reads(), seq.reads));
                if (!is_instance &&
                    values.memory() != seq.memory)
                    fail(tag + ": memory image diverges from "
                               "sequential replay: " +
                         firstDelta(values.memory(), seq.memory));
                if (is_instance &&
                    values.memory() != sim_memory[1])
                    fail(tag + ": renamed image differs from "
                               "default-fabric run: " +
                         firstDelta(values.memory(),
                                    sim_memory[1]));
            }
        }

        // The pass pipeline must not change what is computed.
        if (is_instance && sim_memory[0] != sim_memory[1])
            fail(std::string(name) +
                 "[sim]: renamed image differs between passes "
                 "off/on: " +
                 firstDelta(sim_memory[1], sim_memory[0]));

        for (int p = 0; p < 2; ++p) {
            bool passes_on = p == 1;
            std::string tag =
                std::string(name) +
                (passes_on ? "[passes=on]" : "[passes=off]") +
                "[native]";
            if (sim_deadlocked[p]) {
                // The simulator already proved this scheme
                // deadlocks on this program (deterministically);
                // the native run would only rediscover that by
                // burning its whole wall-clock deadline, which
                // makes shrinking such cases take hours.
                continue;
            }
            core::RunConfig cfg =
                runConfigFor(ccfg, kind, passes_on);
            native::NativeConfig ncfg;
            ncfg.numThreads = ccfg.nativeThreads;
            ncfg.timingSeed =
                ccfg.timingSeed ^ static_cast<std::uint64_t>(p);
            ncfg.timeoutMs = opts.nativeTimeoutMs;
            native::NativeDoacrossResult nat =
                native::runDoacrossNative(loop, kind, cfg, ncfg);
            ++out.schemeRuns;

            if (!nat.run.completed) {
                fail(tag + ": did not complete (deadline abort)");
                continue;
            }
            if (!nat.run.errors.empty()) {
                fail(tag + ": executor error: " +
                     nat.run.errors.front());
                continue;
            }
            if (!nat.violations.empty()) {
                fail(tag + ": trace violation: " +
                     nat.violations.front());
                continue;
            }
            if (!nat.valueMismatches.empty()) {
                fail(tag + ": value mismatch: " +
                     nat.valueMismatches.front());
                continue;
            }
            if (nat.reads != seq.reads)
                fail(tag + ": read values diverge from "
                           "sequential replay: " +
                     firstDelta(nat.reads, seq.reads));
            const Image &want_memory =
                is_instance ? sim_memory[p] : seq.memory;
            if (nat.memory != want_memory)
                fail(tag + ": memory image diverges from " +
                     (is_instance ? "simulated renamed image: "
                                  : "sequential replay: ") +
                     firstDelta(nat.memory, want_memory));
        }

        // Serve leg: plan through the service's cache, tie the
        // cached reference image to the sequential oracle, then
        // submit the same plan three times so epoch reuse (not
        // just the first fresh epoch) is what gets verified.
        // Skipped when the scheme already diverged or deadlocked
        // above — the service would only rediscover that by
        // burning its watchdog deadline.
        if (service && out.failures.size() == scheme_failures &&
            !sim_deadlocked[0] && !sim_deadlocked[1]) {
            std::string tag = std::string(name) + "[serve]";
            core::RunConfig cfg = runConfigFor(ccfg, kind, true);
            std::shared_ptr<const core::CachedPlan> plan =
                service->plan(loop, kind, cfg);
            // Built here, before any sampled verification needs it.
            if (const core::ReferenceImage *ref = plan->reference()) {
                if (ref->reads != seq.reads)
                    fail(tag + ": reference read values diverge "
                               "from sequential replay: " +
                         firstDelta(ref->reads, seq.reads));
                if (!is_instance && ref->memory != seq.memory)
                    fail(tag + ": reference memory image diverges "
                               "from sequential replay: " +
                         firstDelta(ref->memory, seq.memory));
            }
            for (int r = 0; r < 3; ++r)
                service->submitPlan(plan);
            service->waitIdle();
            for (const serve::Completion &c :
                 service->takeCompletions()) {
                ++out.schemeRuns;
                if (!c.completed) {
                    fail(tag + ": " +
                         (c.problems.empty()
                              ? std::string("did not complete")
                              : c.problems.front()));
                } else if (!c.verifyOk) {
                    fail(tag + ": " + c.problems.front());
                }
            }
        }
    }
    return out;
}

// ---- shrinking --------------------------------------------------

namespace {

/** All one-step reductions of `loop`, structural-first. */
std::vector<dep::Loop>
shrinkCandidates(const dep::Loop &loop)
{
    std::vector<dep::Loop> out;

    if (loop.outer.count() >= 2) {
        dep::Loop c = loop;
        c.outer.hi = c.outer.lo + (loop.outer.count() / 2) - 1;
        out.push_back(std::move(c));
    }
    if (loop.depth == 2) {
        dep::Loop c = loop;
        c.depth = 1;
        c.inner = dep::Bounds{1, 1};
        for (dep::Statement &stmt : c.body)
            for (dep::ArrayRef &ref : stmt.refs)
                ref.subs.resize(1);
        out.push_back(std::move(c));
        if (loop.inner.count() >= 2) {
            dep::Loop h = loop;
            h.inner.hi = h.inner.lo + (loop.inner.count() / 2) - 1;
            out.push_back(std::move(h));
        }
    }
    if (loop.body.size() >= 2) {
        for (size_t s = 0; s < loop.body.size(); ++s) {
            dep::Loop c = loop;
            c.body.erase(c.body.begin() +
                         static_cast<long>(s));
            out.push_back(std::move(c));
        }
    }
    for (size_t s = 0; s < loop.body.size(); ++s) {
        for (size_t r = 0; r < loop.body[s].refs.size(); ++r) {
            dep::Loop c = loop;
            c.body[s].refs.erase(c.body[s].refs.begin() +
                                 static_cast<long>(r));
            out.push_back(std::move(c));
        }
    }
    for (size_t s = 0; s < loop.body.size(); ++s) {
        if (loop.body[s].guard.conditional()) {
            dep::Loop c = loop;
            c.body[s].guard = dep::Guard{};
            out.push_back(std::move(c));
        }
        if (loop.body[s].cost > 1) {
            dep::Loop c = loop;
            c.body[s].cost = 1;
            out.push_back(std::move(c));
        }
    }
    return out;
}

/**
 * Greedy delta debugging: keep applying the first one-step
 * reduction that still fails, until none does or the evaluation
 * budget runs out.
 */
dep::Loop
shrinkLoop(const dep::Loop &loop, const FuzzCaseConfig &ccfg,
           const FuzzOptions &opts, std::uint64_t index)
{
    dep::Loop best = loop;
    std::uint64_t evals = 0;
    bool progress = true;
    while (progress && evals < opts.shrinkBudget) {
        progress = false;
        for (dep::Loop &cand : shrinkCandidates(best)) {
            if (evals >= opts.shrinkBudget)
                break;
            ++evals;
            if (!runFuzzCase(cand, ccfg, opts, index).ok()) {
                best = std::move(cand);
                progress = true;
                break;
            }
        }
    }
    return best;
}

} // namespace

core::json::Value
FuzzDivergence::toBundle(const FuzzOptions &opts,
                         const FuzzCaseConfig &ccfg) const
{
    core::json::Value doc = core::json::object();
    doc.set("kind", "fuzz-repro");
    doc.set("schema_version", kTrajectorySchemaVersion);
    doc.set("seed", hex64(opts.seed));
    doc.set("case", index);
    core::json::Value cfg = core::json::object();
    cfg.set("procs", ccfg.procs);
    cfg.set("schedule", core::schedulePolicyName(ccfg.schedule));
    cfg.set("chunk_size", ccfg.chunkSize);
    cfg.set("num_pcs", ccfg.numPcs);
    cfg.set("native_threads", ccfg.nativeThreads);
    cfg.set("timing_seed", hex64(ccfg.timingSeed));
    doc.set("config", std::move(cfg));
    doc.set("canonical", canonical);
    doc.set("original_canonical", originalCanonical);
    core::json::Value fails = core::json::array();
    for (const std::string &f : failures)
        fails.push(f);
    doc.set("failures", std::move(fails));
    return doc;
}

core::json::Value
FuzzCampaignResult::toJson() const
{
    core::json::Value rec = core::json::object();
    rec.set("scenario",
            "fuzz/s" + std::to_string(seed) + "-n" +
                std::to_string(programs));
    rec.set("kind", "fuzz");
    rec.set("schema_version", kTrajectorySchemaVersion);
    rec.set("seed", hex64(seed));
    rec.set("programs", programs);
    rec.set("scheme_runs", schemeRuns);
    core::json::Value shapes = core::json::object();
    shapes.set("depth2", depth2);
    shapes.set("depth1", programs - depth2);
    shapes.set("guarded", guarded);
    shapes.set("instance_skipped", instanceSkipped);
    rec.set("shapes", std::move(shapes));
    rec.set("analytical_gated", analyticalGated);
    // Schema v9, conditional: campaigns without rotation stay
    // byte-identical to v8 fuzz records.
    if (fabricMode)
        rec.set("fabric_rotation", true);
    rec.set("divergences",
            static_cast<std::uint64_t>(divergences.size()));
    rec.set("case_digest", hex64(caseDigest));
    return rec;
}

FuzzCampaignResult
runFuzzCampaign(const FuzzOptions &opts)
{
    FuzzCampaignResult result;
    result.seed = opts.seed;
    result.programs = opts.count;
    result.fabricMode = opts.fabricMode;

    std::vector<FuzzCaseOutcome> outcomes(opts.count);
    auto run_one = [&](std::uint64_t i) {
        dep::Loop loop =
            workloads::makeFuzzLoop(opts.seed, i, opts.limits);
        outcomes[i] =
            runFuzzCase(loop, fuzzCaseConfig(opts.seed, i), opts,
                        i);
    };

    unsigned workers = static_cast<unsigned>(std::min<std::uint64_t>(
        opts.jobs ? opts.jobs : 1, opts.count));
    if (workers <= 1) {
        for (std::uint64_t i = 0; i < opts.count; ++i)
            run_one(i);
    } else {
        std::atomic<std::uint64_t> next_index{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&]() {
                for (;;) {
                    std::uint64_t i = next_index.fetch_add(1);
                    if (i >= opts.count)
                        return;
                    run_one(i);
                }
            });
        }
        for (std::thread &worker : pool)
            worker.join();
    }

    result.caseDigest = kFnvOffset;
    for (const FuzzCaseOutcome &o : outcomes) {
        result.schemeRuns += o.schemeRuns;
        result.depth2 += o.depth2 ? 1 : 0;
        result.guarded += o.guarded ? 1 : 0;
        result.instanceSkipped += o.instanceSkipped ? 1 : 0;
        result.analyticalGated += o.analyticalGated ? 1 : 0;
        result.caseDigest = fnv1a(result.caseDigest, o.imageDigest);
        result.caseDigest = fnv1a(result.caseDigest, o.cyclesDigest);
        result.caseDigest = fnv1a(
            result.caseDigest,
            static_cast<std::uint64_t>(o.failures.size()));
    }

    // Shrink + bundle divergent cases serially (they are rare, and
    // shrinking re-runs the whole matrix per candidate).
    for (const FuzzCaseOutcome &o : outcomes) {
        if (o.ok())
            continue;
        dep::Loop original =
            workloads::makeFuzzLoop(opts.seed, o.index,
                                    opts.limits);
        FuzzCaseConfig ccfg = fuzzCaseConfig(opts.seed, o.index);
        dep::Loop shrunk =
            opts.shrink
                ? shrinkLoop(original, ccfg, opts, o.index)
                : original;

        FuzzDivergence div;
        div.index = o.index;
        div.originalCanonical = dep::printLoop(original);
        div.canonical = dep::printLoop(shrunk);
        div.failures =
            runFuzzCase(shrunk, ccfg, opts, o.index).failures;
        if (div.failures.empty()) {
            // Shrinking is re-evaluated from scratch; a flaky
            // failure that vanished still ships the original
            // failures so nothing is silently dropped.
            div.failures = o.failures;
            div.canonical = div.originalCanonical;
        }

        if (!opts.reproDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(opts.reproDir, ec);
            std::string path =
                opts.reproDir + "/fuzz-s" +
                std::to_string(opts.seed) + "-c" +
                std::to_string(o.index) + ".json";
            std::ofstream os(path);
            if (os) {
                div.toBundle(opts, ccfg).dump(os, 2);
                os << "\n";
                div.bundlePath = path;
            } else {
                std::fprintf(stderr,
                             "fuzz: cannot write bundle %s\n",
                             path.c_str());
            }
        }
        result.divergences.push_back(std::move(div));
    }
    return result;
}

bool
replayFuzzBundle(const core::json::Value &bundle,
                 std::vector<std::string> &failures)
{
    failures.clear();
    auto malformed = [&](const std::string &what) {
        failures.push_back("malformed bundle: " + what);
        return false;
    };

    const core::json::Value *canonical = bundle.find("canonical");
    if (!canonical || !canonical->isString())
        return malformed("missing canonical loop text");
    dep::ParsedLoop parsed = dep::parseLoop(canonical->asString());
    if (!parsed.ok)
        return malformed(parsed.error);

    FuzzCaseConfig ccfg;
    const core::json::Value *cfg = bundle.find("config");
    if (!cfg || !cfg->isObject())
        return malformed("missing config object");
    auto num = [&](const char *key, auto &out) {
        const core::json::Value *v = cfg->find(key);
        if (v && v->isNumber())
            out = static_cast<std::decay_t<decltype(out)>>(
                v->asNumber());
    };
    num("procs", ccfg.procs);
    num("chunk_size", ccfg.chunkSize);
    num("num_pcs", ccfg.numPcs);
    num("native_threads", ccfg.nativeThreads);
    if (const core::json::Value *v = cfg->find("schedule")) {
        bool ok = false;
        if (v->isString())
            ccfg.schedule = policyByName(v->asString(), ok);
        if (!ok)
            return malformed("unknown schedule policy");
    }
    if (const core::json::Value *v = cfg->find("timing_seed")) {
        if (!v->isString() ||
            !parseHex64(v->asString(), ccfg.timingSeed))
            return malformed("bad timing_seed");
    }

    std::uint64_t index = 0;
    if (const core::json::Value *v = bundle.find("case"))
        if (v->isNumber())
            index = static_cast<std::uint64_t>(v->asNumber());

    FuzzOptions opts;
    failures = runFuzzCase(parsed.loop, ccfg, opts, index).failures;
    return true;
}

} // namespace bench
} // namespace psync
