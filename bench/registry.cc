#include "bench/registry.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/common.hh"
#include "core/critical_path.hh"
#include "workloads/branches.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"
#include "workloads/relaxation.hh"
#include "workloads/synthetic.hh"

namespace psync {
namespace bench {

namespace {

/** The E3 jitter workload (Fig. 2.1 + occasional long branch). */
dep::Loop
makeJitterLoop()
{
    return workloads::makeFig21JitterLoop(256, 8, 800, 0.15, 1234);
}

/** The E15 dense synthetic loop (many coverable arcs). */
dep::Loop
makeDenseLoop()
{
    workloads::SyntheticSpec spec;
    spec.seed = 42;
    spec.n = 128;
    spec.numStatements = 8;
    spec.numArrays = 1;
    return workloads::makeSyntheticLoop(spec);
}

class Registry
{
  public:
    Registry() { build(); }

    std::vector<Scenario> scenarios;

  private:
    void
    add(std::string group, std::string variant, std::string workload,
        std::string scheme, std::string description,
        sync::SchemeKind kind, std::function<dep::Loop()> loop,
        core::RunConfig config)
    {
        Scenario s;
        s.id = std::move(group) + "/" + std::move(variant);
        s.workload = std::move(workload);
        s.scheme = std::move(scheme);
        s.description = std::move(description);
        s.kind = kind;
        s.loop = std::move(loop);
        s.config = std::move(config);
        scenarios.push_back(std::move(s));
    }

    /** One group entry per scheme, on each scheme's natural fabric. */
    void
    addSchemeSweep(const std::string &group,
                   const std::string &workload,
                   const std::string &description,
                   std::function<dep::Loop()> loop,
                   bool skip_instance = false)
    {
        for (auto kind : sync::allSyncSchemes()) {
            if (skip_instance &&
                kind == sync::SchemeKind::instanceBased)
                continue;
            add(group, sync::schemeKindName(kind), workload,
                sync::schemeKindName(kind), description, kind, loop,
                machineFor(kind));
        }
        auto cedar = memoryMachine();
        cedar.scheme.cedarCombining = true;
        add(group, "reference+cedar", workload, "reference+cedar",
            description + " (memory-side combining)",
            sync::SchemeKind::referenceBased, loop, cedar);
    }

    void
    build()
    {
        // -- smoke: the small, fast subset CI compares against a
        // checked-in baseline (bench/baseline.json).
        for (auto kind : {sync::SchemeKind::processImproved,
                          sync::SchemeKind::statementOriented,
                          sync::SchemeKind::referenceBased}) {
            add("fig21-n64", sync::schemeKindName(kind),
                "fig2.1 (N=64)", sync::schemeKindName(kind),
                "CI smoke subset of the Fig. 2.1 loop",
                kind, [] { return workloads::makeFig21Loop(64); },
                machineFor(kind));
        }

        // -- E11: the scheme taxonomy on the paper's workloads.
        addSchemeSweep("fig21-n256", "fig2.1 (N=256)",
                       "sections 3-6 taxonomy on the running example",
                       [] { return workloads::makeFig21Loop(256); });
        addSchemeSweep("nested-32x32", "nested (32x32)",
                       "Example 2: linearized nest",
                       [] {
                           return workloads::makeNestedLoop(32, 32);
                       });
        addSchemeSweep("branches-n256", "branches (N=256, p=0.5)",
                       "Example 3: sources inside branches",
                       [] {
                           return workloads::makeBranchLoop(256, 0.5);
                       },
                       /*skip_instance=*/true);

        // -- E7: early vs deferred signaling of untaken sources.
        {
            auto cfg = registerMachine();
            cfg.scheme.earlyBranchSignals = false;
            add("branches-n256", "process-improved-deferred",
                "branches (N=256, p=0.5)", "process-improved",
                "Fig. 5.3 counterfactual: defer untaken-source "
                "signals to iteration end",
                sync::SchemeKind::processImproved,
                [] { return workloads::makeBranchLoop(256, 0.5); },
                cfg);
        }

        // -- E3 / Fig. 3.2: statement-counter serialization under
        // jittered iteration delays.
        for (auto kind : {sync::SchemeKind::statementOriented,
                          sync::SchemeKind::processBasic,
                          sync::SchemeKind::processImproved}) {
            add("fig32-jitter", sync::schemeKindName(kind),
                "fig2.1+jitter (N=256, p=0.15, 800cyc)",
                sync::schemeKindName(kind),
                "Fig. 3.2 vs 4.1: a delayed Advance stalls all "
                "later processes under statement counters",
                kind, makeJitterLoop, registerMachine());
        }
        // Same serialization with the counters living in memory
        // modules: the hot statement counter turns into a hot
        // module, which the timeline hot-spot detector and the
        // blame heatmap must both attribute to the same place.
        add("fig32-jitter", "statement-mem",
            "fig2.1+jitter (N=256, p=0.15, 800cyc)",
            "statement",
            "Fig. 3.2 on the memory fabric: the serialized "
            "statement counter becomes a hot memory module",
            sync::SchemeKind::statementOriented, makeJitterLoop,
            memoryMachine());

        // -- E10: where the PCs live.
        {
            auto cached = memoryMachine();
            add("fabric-fig21", "mem-cached", "fig2.1 (N=256)",
                "process-improved",
                "section 6: memory-resident PCs, coherent-cache "
                "spinning",
                sync::SchemeKind::processImproved,
                [] { return workloads::makeFig21Loop(256); },
                cached);
            auto polling = memoryMachine();
            polling.machine.cachedSpinning = false;
            add("fabric-fig21", "mem-polling", "fig2.1 (N=256)",
                "process-improved",
                "section 6: memory-resident PCs, interval polling",
                sync::SchemeKind::processImproved,
                [] { return workloads::makeFig21Loop(256); },
                polling);
        }

        // -- E4: write coalescing on a slow sync bus.
        for (bool coalesce : {true, false}) {
            auto cfg = registerMachine();
            cfg.machine.syncBusCycles = 4;
            cfg.machine.coalesceWrites = coalesce;
            add("coalescing-fig21",
                coalesce ? "on" : "off", "fig2.1 (N=256)",
                "process-improved",
                "section 6: pending-write coalescing on a 4-cycle "
                "sync bus",
                sync::SchemeKind::processImproved,
                [] { return workloads::makeFig21Loop(256); }, cfg);
        }

        // -- E4: primitive sets under heavy PC folding (X=2).
        for (auto kind : {sync::SchemeKind::processBasic,
                          sync::SchemeKind::processImproved}) {
            add("folding-x2", sync::schemeKindName(kind),
                "fig2.1 (N=256, X=2)", sync::schemeKindName(kind),
                "Figs. 4.2/4.3: non-blocking marks pay off when X "
                "is small",
                kind, [] { return workloads::makeFig21Loop(256); },
                registerMachine(8, 2));
        }

        // -- E14: scheduling policies under jitter.
        {
            struct Policy
            {
                const char *name;
                core::SchedulePolicy policy;
            };
            for (auto p : {Policy{"self",
                                  core::SchedulePolicy::selfScheduling},
                           Policy{"static-cyclic",
                                  core::SchedulePolicy::staticCyclic},
                           Policy{"chunked-4",
                                  core::SchedulePolicy::
                                      chunkedSelfScheduling},
                           Policy{"guided",
                                  core::SchedulePolicy::
                                      guidedSelfScheduling}}) {
                auto cfg = registerMachine();
                cfg.schedule = p.policy;
                add("sched-jitter", p.name,
                    "fig2.1+jitter (N=256, p=0.15, 800cyc)",
                    "process-improved",
                    "sections 5-6: dispatch policy vs load balance",
                    sync::SchemeKind::processImproved,
                    makeJitterLoop, cfg);
            }
        }

        // -- E15: covered-arc elimination on a dense loop.
        for (bool eliminate : {true, false}) {
            auto cfg = registerMachine();
            cfg.eliminateCoveredDeps = eliminate;
            add("coverage-dense", eliminate ? "on" : "off",
                "synthetic dense (8 stmts, N=128)",
                "process-improved",
                "section 2: redundant-arc elimination payoff",
                sync::SchemeKind::processImproved, makeDenseLoop,
                cfg);
        }

        // -- E13: machine-class scoping at P=16.
        {
            auto small = registerMachine(16, 32);
            small.machine.memory.numModules = 8;
            add("scale-n1024", "bus-process", "fig2.1 (N=1024)",
                "process-improved",
                "sections 1-3: bus machine + broadcast registers",
                sync::SchemeKind::processImproved,
                [] { return workloads::makeFig21Loop(1024); },
                small);
            auto large = memoryMachine(16);
            large.machine.interconnect = sim::InterconnectKind::omega;
            large.machine.memory.numModules = 16;
            add("scale-n1024", "omega-reference", "fig2.1 (N=1024)",
                "reference",
                "sections 1-3: network machine + per-datum keys",
                sync::SchemeKind::referenceBased,
                [] { return workloads::makeFig21Loop(1024); },
                large);
        }

        // -- E5 (Doacross form): the relaxation loop.
        for (auto kind : {sync::SchemeKind::processImproved,
                          sync::SchemeKind::statementOriented}) {
            add("relax-32x32", sync::schemeKindName(kind),
                "relaxation (32x32)", sync::schemeKindName(kind),
                "Example 1 kernel run as a planned Doacross",
                kind,
                [] { return workloads::makeRelaxationLoop(32); },
                machineFor(kind));
        }

        // -- E16: the 1024-processor scale wall. One serialized
        // statement-counter workload (everyone camps on the same few
        // counters) at P in {256, 1024}, run flat against the two
        // composed fabrics. The flat variants concentrate all sync
        // traffic on one module / one broadcast bus; combining
        // absorbs the reads in the network and the hierarchy keeps
        // them on cluster buses. tickLimit doubles as the CI
        // deadlock watchdog: a fabric bug shows up as an incomplete
        // run, not a hung job.
        for (unsigned procs : {256u, 1024u}) {
            const unsigned n = 2 * procs;
            const std::string p = "p" + std::to_string(procs);
            auto loop = [n] {
                return workloads::makeFig21Loop(n);
            };
            auto watchdog = [](core::RunConfig cfg) {
                cfg.tickLimit = 100000000ull;
                return cfg;
            };
            const std::string workload =
                "fig2.1 (N=" + std::to_string(n) + ")";
            add("scale-1024", p + "-flat-mem", workload,
                "statement",
                "scale wall: flat memory fabric, hot statement "
                "counters on one module",
                sync::SchemeKind::statementOriented, loop,
                watchdog(memoryMachine(procs)));
            add("scale-1024", p + "-flat-reg", workload,
                "statement",
                "scale wall: flat broadcast registers, every "
                "update crosses one sync bus",
                sync::SchemeKind::statementOriented, loop,
                watchdog(registerMachine(procs)));
            add("scale-1024", p + "-combining", workload,
                "statement",
                "scale relief: omega network combines the camped "
                "reads switch by switch",
                sync::SchemeKind::statementOriented, loop,
                watchdog(combiningMachine(procs)));
            add("scale-1024", p + "-hier", workload,
                "statement",
                "scale relief: per-cluster images keep the spin "
                "local, one global stage",
                sync::SchemeKind::statementOriented, loop,
                watchdog(hierarchicalMachine(procs, procs / 32)));
        }
    }
};

const Registry &
registry()
{
    static Registry instance;
    return instance;
}

} // namespace

const std::vector<Scenario> &
allScenarios()
{
    return registry().scenarios;
}

const Scenario *
findScenario(const std::string &id)
{
    for (const auto &s : allScenarios()) {
        if (s.id == id)
            return &s;
    }
    return nullptr;
}

std::vector<const Scenario *>
matchScenarios(const std::string &pattern)
{
    if (const Scenario *exact = findScenario(pattern))
        return {exact};
    std::vector<const Scenario *> matched;
    for (const auto &s : allScenarios()) {
        if (pattern.empty() ||
            s.id.find(pattern) != std::string::npos)
            matched.push_back(&s);
    }
    return matched;
}

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Classic two-pointer wildcard match: on mismatch past a '*',
    // retry from one character further into the text.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::vector<const Scenario *>
matchScenariosGlob(const std::string &pattern)
{
    if (pattern.find('*') == std::string::npos &&
        pattern.find('?') == std::string::npos)
        return matchScenarios(pattern);
    std::vector<const Scenario *> matched;
    for (const auto &s : allScenarios()) {
        if (globMatch(pattern, s.id))
            matched.push_back(&s);
    }
    return matched;
}

core::json::Value
ScenarioRecord::toJson() const
{
    const core::DoacrossResult &r = result;
    core::json::Value rec = core::json::object();
    rec.set("schema_version", kTrajectorySchemaVersion);
    rec.set("kind", "sim");
    rec.set("scenario", scenario->id);
    rec.set("workload", scenario->workload);
    rec.set("scheme", scenario->scheme);
    rec.set("procs", scenario->config.machine.numProcs);
    rec.set("fabric",
            sim::fabricKindName(scenario->config.machine.fabric));
    rec.set("schedule",
            core::schedulePolicyName(scenario->config.schedule));
    rec.set("cycles", static_cast<std::uint64_t>(r.run.cycles));
    rec.set("init_cycles", static_cast<std::uint64_t>(r.initCycles));
    rec.set("dep_bound_cycles",
            static_cast<std::uint64_t>(depBoundCycles));
    rec.set("bound_cycles", static_cast<std::uint64_t>(boundCycles));
    rec.set("slack_factor",
            boundCycles ? static_cast<double>(r.run.cycles) /
                              static_cast<double>(boundCycles)
                        : 0.0);

    core::json::Value split = core::json::object();
    split.set("compute_cycles",
              static_cast<std::uint64_t>(r.run.computeCycles));
    split.set("spin_cycles",
              static_cast<std::uint64_t>(r.run.spinCycles));
    split.set("sync_overhead_cycles",
              static_cast<std::uint64_t>(r.run.syncOverheadCycles));
    split.set("stall_cycles",
              static_cast<std::uint64_t>(r.run.stallCycles));
    rec.set("cycle_split", std::move(split));

    rec.set("host_ns", hostNanos);
    rec.set("events_executed", r.run.eventsExecuted);
    rec.set("events_per_sec", eventsPerSec());
    rec.set("event_core", r.run.eventCore);
    rec.set("heap_fallback_events", r.run.heapFallbackEvents);

    rec.set("passes", transformsEnabled);
    rec.set("waits_before", r.passStats.waitsBefore);
    rec.set("waits_after", r.passStats.waitsAfter);
    rec.set("waits_eliminated", r.passStats.waitsEliminated);
    rec.set("ops_before", r.passStats.opsBefore);
    rec.set("ops_after", r.passStats.opsAfter);
    rec.set("ops_merged", r.passStats.opsMerged);

    rec.set("sync_vars", r.plan.numSyncVars);
    rec.set("data_bus_utilization", r.run.dataBusUtilization);
    rec.set("sync_bus_utilization", r.run.syncBusUtilization);
    rec.set("hot_spot_ratio", r.run.hotSpotRatio);
    rec.set("module_queue_delay",
            static_cast<std::uint64_t>(r.run.moduleQueueDelay));

    // Schema v5: profiled runs carry the achieved critical path and
    // wait-latency summaries. Absent entirely on unprofiled runs so
    // those records stay byte-comparable with v4 output.
    if (profile) {
        rec.set("critpath_achieved",
                static_cast<std::uint64_t>(profile->achievedCycles));
        rec.set("critpath_gap_pct", profile->gapPct());

        core::json::Value prof = core::json::object();
        core::json::Value phases = core::json::object();
        phases.set("compute",
                   static_cast<std::uint64_t>(profile->computeCycles));
        phases.set("spin",
                   static_cast<std::uint64_t>(profile->spinCycles));
        phases.set("sync_overhead",
                   static_cast<std::uint64_t>(profile->syncCycles));
        phases.set("stall",
                   static_cast<std::uint64_t>(profile->stallCycles));
        phases.set("dispatch",
                   static_cast<std::uint64_t>(
                       profile->dispatchCycles));
        phases.set("propagation",
                   static_cast<std::uint64_t>(
                       profile->propagationCycles));
        phases.set("other",
                   static_cast<std::uint64_t>(profile->otherCycles));
        prof.set("phases", std::move(phases));
        prof.set("truncated", profile->truncated);
        prof.set("segments",
                 static_cast<std::uint64_t>(
                     profile->segments.size()));
        prof.set("wait_latency", profile->waitAll.toJson());
        core::json::Value by_kind = core::json::object();
        for (const auto &kv : profile->waitByKind)
            by_kind.set(kv.first, kv.second.toJson());
        prof.set("wait_by_kind", std::move(by_kind));
        rec.set("profile", std::move(prof));
    }

    // Schema v6: sampled runs carry the timeline summary (peaks +
    // hot spots). Absent entirely on unsampled runs so those stay
    // byte-comparable with v5 output.
    if (timeline)
        rec.set("timeline", timeline->summaryJson());

    // Schema v9: composed-fabric headline numbers at the top level
    // (the full per-stage / per-cluster arrays live in "result").
    // Absent on the flat fabrics so those records stay
    // byte-comparable with v8 output.
    if (!r.run.netStageConflicts.empty())
        rec.set("combine_rate", r.run.netCombineRate);
    if (r.run.numClusters > 0) {
        rec.set("num_clusters", r.run.numClusters);
        rec.set("procs_per_cluster", r.run.procsPerCluster);
    }

    rec.set("result", r.run.toJson());
    return rec;
}

ScenarioRecord
runScenario(const Scenario &scenario, sim::TraceLog *tracer,
            const ir::PassConfig *passes, bool profile, bool timeline)
{
    ScenarioRecord record;
    record.scenario = &scenario;

    auto host_start = std::chrono::steady_clock::now();
    dep::Loop loop = scenario.loop();
    dep::DepGraph graph(loop);
    core::CriticalPath cp = core::criticalPath(
        graph, core::CriticalPathCosts::fromMachine(
                   scenario.config.machine));
    record.depBoundCycles = cp.cycles;
    record.boundCycles =
        cp.achievableBound(scenario.config.machine.numProcs);

    core::RunConfig cfg = scenario.config;
    cfg.tracer = tracer;
    if (passes)
        cfg.passes = *passes;
    cfg.machine.timeline = timeline;
    record.transformsEnabled = cfg.passes.enabled &&
                               (cfg.passes.eliminateRedundantWaits ||
                                cfg.passes.peephole);
    record.result = core::runDoacross(loop, scenario.kind, cfg);
    record.hostNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - host_start)
            .count());
    require(record.result, scenario.id.c_str());

    if ((profile || timeline) && !tracer) {
        std::fprintf(stderr,
                     "FATAL: %s: profiling and timelines need a "
                     "trace log\n",
                     scenario.id.c_str());
        std::abort();
    }
    if (profile) {
        record.profile = std::make_shared<core::CriticalPathProfile>(
            core::buildCriticalPathProfile(*tracer,
                                           record.result.run.cycles,
                                           record.boundCycles));
        record.result.run.waitLatency = record.profile->waitAll;
    }
    if (timeline) {
        record.timeline = std::make_shared<core::Timeline>(
            core::buildTimeline(*tracer));
    }
    return record;
}

std::string
NativeScenarioRecord::recordId() const
{
    return scenario->id + "#native-t" + std::to_string(numThreads);
}

core::json::Value
NativeScenarioRecord::toJson() const
{
    const native::NativeRunResult &r = result.run;
    core::json::Value rec = core::json::object();
    rec.set("schema_version", kTrajectorySchemaVersion);
    rec.set("kind", "native");
    rec.set("scenario", recordId());
    rec.set("sim_scenario", scenario->id);
    rec.set("workload", scenario->workload);
    rec.set("scheme", scenario->scheme);
    rec.set("schedule",
            core::schedulePolicyName(scenario->config.schedule));
    rec.set("threads", numThreads);
    rec.set("wall_ns", r.wallNanos);
    rec.set("programs_run", r.programsRun);
    rec.set("programs_per_sec", r.programsPerSec());
    rec.set("sync_ops", r.syncOps);
    rec.set("waits", r.waits);
    rec.set("spins", r.spins);
    rec.set("parks", r.parks);
    rec.set("accesses_logged", r.accessesLogged);
    rec.set("instances_checked", result.instancesChecked);
    rec.set("sync_vars", result.plan.numSyncVars);

    // Schema v5: host-clock latency fields, profiled runs only.
    if (profiled) {
        rec.set("fa_retries", r.faRetries);
        rec.set("wait_ns", r.waitNs.toJson());
        rec.set("park_wake_ns", r.parkWakeNs.toJson());
    }
    return rec;
}

NativeScenarioRecord
runScenarioNative(const Scenario &scenario, unsigned threads,
                  bool profile)
{
    NativeScenarioRecord record;
    record.scenario = &scenario;
    record.numThreads = threads;
    record.profiled = profile;

    dep::Loop loop = scenario.loop();
    native::NativeConfig ncfg;
    ncfg.numThreads = threads;
    ncfg.schedule = scenario.config.schedule;
    ncfg.chunkSize = scenario.config.chunkSize;
    ncfg.profile = profile;
    record.result = native::runDoacrossNative(
        loop, scenario.kind, scenario.config, ncfg);

    if (!record.result.correct()) {
        std::fprintf(stderr, "FATAL: native %s failed:\n",
                     record.recordId().c_str());
        for (const auto &e : record.result.run.errors)
            std::fprintf(stderr, "  error: %s\n", e.c_str());
        for (const auto &v : record.result.violations)
            std::fprintf(stderr, "  violation: %s\n", v.c_str());
        for (const auto &m : record.result.valueMismatches)
            std::fprintf(stderr, "  value: %s\n", m.c_str());
        if (!record.result.run.completed)
            std::fprintf(stderr, "  run did not complete\n");
        std::abort();
    }
    return record;
}

} // namespace bench
} // namespace psync
