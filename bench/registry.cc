#include "bench/registry.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_set>

#include "core/critical_path.hh"
#include "workloads/branches.hh"
#include "workloads/butterfly.hh"
#include "workloads/fft.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"
#include "workloads/relaxation.hh"
#include "workloads/synthetic.hh"

namespace psync {
namespace bench {

core::RunConfig
registerMachine(unsigned procs, unsigned num_pcs)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 22;
    cfg.scheme.numPcs = num_pcs;
    cfg.scheme.numScs = 1u << 20;
    cfg.tickLimit = 2000000000ull;
    return cfg;
}

core::RunConfig
memoryMachine(unsigned procs)
{
    core::RunConfig cfg = registerMachine(procs);
    cfg.machine.fabric = sim::FabricKind::memory;
    return cfg;
}

core::RunConfig
combiningMachine(unsigned procs, unsigned num_pcs)
{
    core::RunConfig cfg = registerMachine(procs, num_pcs);
    cfg.machine.fabric = sim::FabricKind::combining;
    return cfg;
}

core::RunConfig
hierarchicalMachine(unsigned procs, unsigned clusters, unsigned num_pcs)
{
    core::RunConfig cfg = registerMachine(procs, num_pcs);
    cfg.machine.fabric = sim::FabricKind::hierarchical;
    cfg.machine.numClusters = clusters;
    return cfg;
}

core::RunConfig
machineFor(sync::SchemeKind kind, unsigned procs, unsigned num_pcs)
{
    if (kind == sync::SchemeKind::referenceBased ||
        kind == sync::SchemeKind::instanceBased) {
        return memoryMachine(procs);
    }
    return registerMachine(procs, num_pcs);
}

namespace {

/** Abort if a run was incorrect or deadlocked. */
void
require(const core::DoacrossResult &r, const char *what)
{
    if (!r.run.completed) {
        std::fprintf(stderr, "%s: DEADLOCK (tick limit)\n", what);
        std::exit(1);
    }
    if (!r.correct()) {
        std::fprintf(stderr, "%s: dependence violation: %s\n", what,
                     r.violations.front().c_str());
        std::exit(1);
    }
}

/** The E3 jitter workload (Fig. 2.1 + occasional long branch). */
dep::Loop
makeJitterLoop()
{
    return workloads::makeFig21JitterLoop(256, 8, 800, 0.15, 1234);
}

/** An E15 dense synthetic loop (many coverable arcs). */
dep::Loop
makeDenseLoop(int max_offset = 3, double write_prob = 0.4)
{
    workloads::SyntheticSpec spec;
    spec.seed = 42;
    spec.n = 128;
    spec.numStatements = 8;
    spec.numArrays = 1;
    spec.maxOffset = max_offset;
    spec.writeProb = write_prob;
    return workloads::makeSyntheticLoop(spec);
}

/**
 * A claim predicate's view of its records: reads results by
 * scenario id and logs every comparison, with its numbers, into the
 * verdict. A dry run (no records) reads empty results and only
 * collects the ids the predicate reads: the claim's scenario list.
 */
class Check
{
  public:
    explicit Check(std::vector<std::string> &reads) : reads_(&reads) {}

    Check(const ClaimRecords &records, ClaimVerdict &verdict)
        : records_(&records), verdict_(&verdict)
    {
    }

    const core::DoacrossResult &
    result(const std::string &id) const
    {
        static const core::DoacrossResult none;
        if (!records_) {
            reads_->push_back(id);
            return none;
        }
        return *records_->at(id);
    }

    const core::RunResult &
    run(const std::string &id) const
    {
        return result(id).run;
    }

    double cycles(const std::string &id) const { return run(id).cycles; }

    double
    vars(const std::string &id) const
    {
        return result(id).plan.numSyncVars;
    }

    void
    less(const std::string &what, double lhs, double rhs)
    {
        note(what, lhs, "<", rhs, lhs < rhs);
    }

    void
    atMost(const std::string &what, double lhs, double rhs)
    {
        note(what, lhs, "<=", rhs, lhs <= rhs);
    }

    void
    equal(const std::string &what, double lhs, double rhs)
    {
        note(what, lhs, "==", rhs, lhs == rhs);
    }

  private:
    static std::string
    format(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf,
                      v == std::floor(v) ? "%.0f" : "%.2f", v);
        return buf;
    }

    void
    note(const std::string &what, double lhs, const char *op,
         double rhs, bool ok)
    {
        if (!verdict_)
            return;
        if (!verdict_->numbers.empty())
            verdict_->numbers += ", ";
        verdict_->numbers += what + " " + format(lhs) + op +
                             format(rhs) + (ok ? "" : " (fails)");
        verdict_->holds = verdict_->holds && ok;
    }

    const ClaimRecords *records_ = nullptr;
    ClaimVerdict *verdict_ = nullptr;
    std::vector<std::string> *reads_ = nullptr;
};

std::string
name(sync::SchemeKind kind)
{
    return sync::schemeKindName(kind);
}

/** "<prefix><n>", the sweep coordinate in group and variant names. */
std::string
tag(const char *prefix, double n)
{
    return prefix + std::to_string(std::lround(n));
}

/** The hand-built section 5 examples' machine: P procs, bare fabric. */
core::RunConfig
bareMachine(unsigned procs, sim::FabricKind fabric)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = fabric;
    cfg.machine.syncRegisters = 2 * procs + 8;
    return cfg;
}

/** Per-processor programs of one barrier kind on `fabric`. */
template <typename Barrier, typename Spec, typename Emit>
ScenarioPrograms
barrierPrograms(sim::SyncFabric &fabric, const Spec &spec, Emit emit)
{
    Barrier barrier(fabric, spec.numProcs);
    ScenarioPrograms p;
    p.perProc = emit(barrier, spec);
    return p;
}

class Registry
{
  public:
    Registry() { build(); }

    std::vector<Scenario> scenarios;
    std::vector<Claim> claims;

  private:
    std::unordered_set<std::string> ids_;

    /** Register a planned scenario; returns its id. */
    std::string
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
        ids_.insert(s.id);
        scenarios.push_back(std::move(s));
        return scenarios.back().id;
    }

    /**
     * Register `kind` on `loop` as "<group>/<scheme>", unless an
     * earlier group already registered that id.
     */
    void
    addScheme(const std::string &group, sync::SchemeKind kind,
              const std::string &workload,
              const std::string &description,
              std::function<dep::Loop()> loop, core::RunConfig config)
    {
        if (!has(group + "/" + name(kind)))
            add(group, name(kind), workload, name(kind), description,
                kind, std::move(loop), std::move(config));
    }

    /** Register a hand-built scenario. */
    void
    addBuilt(std::string group, std::string variant,
             std::string workload, std::string scheme,
             std::string description, core::RunConfig config,
             std::function<dep::Loop()> loop,
             std::function<ScenarioPrograms(sim::SyncFabric &)> build)
    {
        add(std::move(group), std::move(variant), std::move(workload),
            std::move(scheme), std::move(description),
            sync::SchemeKind::processImproved, std::move(loop),
            std::move(config));
        scenarios.back().build = std::move(build);
    }

    bool has(const std::string &id) const { return ids_.count(id); }

    /**
     * Register a claim. A dry run of the predicate names the
     * scenarios it reads, each of which must already be registered.
     */
    void
    claim(std::string id, std::string statement,
          std::function<void(Check &)> check)
    {
        Claim c;
        c.id = std::move(id);
        c.statement = std::move(statement);
        Check dry(c.scenarios);
        check(dry);
        std::sort(c.scenarios.begin(), c.scenarios.end());
        c.scenarios.erase(
            std::unique(c.scenarios.begin(), c.scenarios.end()),
            c.scenarios.end());
        for (const std::string &s : c.scenarios) {
            if (!has(s)) {
                std::fprintf(stderr, "claim %s reads unknown scenario %s\n",
                             c.id.c_str(), s.c_str());
                std::abort();
            }
        }
        c.check = [check = std::move(check)](const ClaimRecords &r,
                                             ClaimVerdict &v) {
            Check view(r, v);
            check(view);
        };
        claims.push_back(std::move(c));
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
        {
            const std::string groups[] = {"fig21-n256", "nested-32x32",
                                          "branches-n256"};
            claim("E11",
                  "on every workload the process scheme holds at most "
                  "16 PCs and initializes in at most 16 cycles, with "
                  "fewer variables than any data-oriented scheme, and "
                  "a process-counter scheme (basic or improved) posts "
                  "the fewest cycles of the four uncombined schemes",
                  [groups](Check &c) {
                      for (const std::string &g : groups) {
                          const std::string pi = g + "/process-improved";
                          c.atMost(pi + " sync vars", c.vars(pi), 16);
                          c.atMost(pi + " init cycles",
                                   c.result(pi).initCycles, 16);
                          const double best = std::min(
                              c.cycles(pi),
                              c.cycles(g + "/process-basic"));
                          for (std::string other :
                               {"reference", "instance", "statement"}) {
                              // The instance scheme rejects branches.
                              if (g == "branches-n256" &&
                                  other == "instance")
                                  continue;
                              const std::string id = g + "/" + other;
                              if (other != "statement")
                                  c.less(g + " vars vs " + other,
                                         c.vars(pi), c.vars(id));
                              c.less(g + " cycles vs " + other, best,
                                     c.cycles(id));
                          }
                      }
                  });
            claim("E11b",
                  "memory-side (Cedar) combining cuts the reference "
                  "scheme's cycles on every workload while keeping "
                  "every key",
                  [groups](Check &c) {
                      for (const std::string &g : groups) {
                          const std::string ref = g + "/reference";
                          c.less(g + " cycles",
                                 c.cycles(ref + "+cedar"),
                                 c.cycles(ref));
                          c.equal(g + " sync vars",
                                  c.vars(ref + "+cedar"), c.vars(ref));
                      }
                  });
        }

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
            claim("E10",
                  "PCs in broadcast registers finish faster than "
                  "memory-resident PCs, cached or polling, with no "
                  "sync polls of memory and fewer data-bus "
                  "transactions; the process and statement schemes "
                  "broadcast the same number of updates",
                  [](Check &c) {
                      const std::string reg =
                          "fig21-n256/process-improved";
                      c.equal("register sync polls",
                              c.run(reg).syncMemPolls, 0);
                      for (std::string mem : {"fabric-fig21/mem-cached",
                                              "fabric-fig21/mem-polling"}) {
                          c.less(mem + " cycles", c.cycles(reg),
                                 c.cycles(mem));
                          c.less(mem + " data-bus transactions",
                                 c.run(reg).dataBusTransactions,
                                 c.run(mem).dataBusTransactions);
                      }
                      for (std::string other : {"fig21-n256/process-basic",
                                                "fig21-n256/statement"}) {
                          c.equal(other + " broadcasts",
                                  c.run(other).syncBusBroadcasts,
                                  c.run(reg).syncBusBroadcasts);
                      }
                  });
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
                sync::SchemeKind::processImproved,
                [] { return makeDenseLoop(); }, cfg);
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

        buildTables();
    }

    /**
     * The remaining rows of the EXPERIMENTS.md tables, each table a
     * sweep with its claim. A row an earlier group already runs
     * reuses that scenario.
     */
    void
    buildTables()
    {
        // -- E2 / Fig. 3.1: synchronization state against the trip
        // count. fig21-n256 and three fig21-n64 schemes are reused.
        const long sizes[] = {64, 256, 1024, 4096};
        for (long n : sizes) {
            for (auto kind : sync::allSyncSchemes()) {
                if (!has(tag("fig21-n", n) + "/" + name(kind)))
                    addScheme(tag("fig31-n", n), kind,
                              "fig2.1 (N=" + std::to_string(n) + ")",
                              "Fig. 3.1: synchronization state against "
                              "the trip count",
                              [n] { return workloads::makeFig21Loop(n); },
                              machineFor(kind));
            }
        }
        auto e2 = [this](long n, sync::SchemeKind kind) {
            std::string id = tag("fig21-n", n) + "/" + name(kind);
            return has(id) ? id : tag("fig31-n", n) + "/" + name(kind);
        };
        claim("E2",
              "the reference and instance schemes' keys and "
              "initialization cycles grow at every step of N, while "
              "statement and process counters keep one count at "
              "every N",
              [e2, sizes](Check &c) {
                  for (int k = 1; k < 4; ++k) {
                      const long lo = sizes[k - 1], hi = sizes[k];
                      const std::string step = tag(" N=", lo) + tag("->", hi);
                      for (auto kind : sync::allSyncSchemes()) {
                          const std::string a = e2(lo, kind), b = e2(hi, kind);
                          if (kind == sync::SchemeKind::referenceBased ||
                              kind == sync::SchemeKind::instanceBased) {
                              c.less(name(kind) + " keys" + step,
                                     c.vars(a), c.vars(b));
                              c.less(name(kind) + " init" + step,
                                     c.result(a).initCycles,
                                     c.result(b).initCycles);
                          } else {
                              c.equal(name(kind) + " vars" + step,
                                      c.vars(a), c.vars(b));
                          }
                      }
                  }
              });

        // -- E3 / Fig. 3.2: serialization across delay probability
        // and length; 15% / 800 cycles is fig32-jitter.
        const sync::SchemeKind counters[] = {
            sync::SchemeKind::statementOriented,
            sync::SchemeKind::processBasic,
            sync::SchemeKind::processImproved};
        std::vector<std::string> cells;
        for (double prob : {0.0, 0.05, 0.15, 0.30}) {
            for (sim::Tick delay : {200, 800}) {
                std::string group = tag("jitter-p", prob * 100) +
                                    tag("-d", delay);
                if (group == "jitter-p15-d800")
                    group = "fig32-jitter";
                cells.push_back(group);
                for (auto kind : counters)
                    addScheme(group, kind,
                              "fig2.1+jitter (N=256" +
                                  tag(", p=", prob * 100) +
                                  tag("%, ", delay) + "cyc)",
                              "Fig. 3.2 vs 4.1: serialization across "
                              "delay probability and length",
                              [prob, delay] {
                                  return workloads::makeFig21JitterLoop(
                                      256, 8, delay, prob, 1234);
                              },
                              registerMachine());
            }
        }
        claim("E3",
              "the statement scheme takes more cycles than both "
              "process-counter schemes in every cell of the jitter "
              "sweep, and at every nonzero delay probability its gap "
              "to process-improved is larger with 800-cycle delays "
              "than with 200",
              [cells](Check &c) {
                  auto gap = [&c](const std::string &g) {
                      return c.cycles(g + "/statement") -
                             c.cycles(g + "/process-improved");
                  };
                  for (std::size_t k = 0; k < cells.size(); ++k) {
                      const std::string &g = cells[k];
                      for (std::string p : {"/process-basic",
                                            "/process-improved"})
                          c.less(g + p, c.cycles(g + p),
                                 c.cycles(g + "/statement"));
                      if (k >= 2 && k % 2 == 1)
                          c.less("gap " + cells[k - 1] + " vs " + g,
                                 gap(cells[k - 1]), gap(g));
                  }
              });

        // -- E4 / Figs. 4.2-4.3: the folding sweep over X (X=16 is
        // the fig21-n256 default) and coalescing.
        const unsigned folds[] = {2, 4, 8, 16, 64};
        auto fold = [](unsigned x, const char *scheme) {
            return (x == 16 ? std::string("fig21-n256")
                            : tag("folding-x", x)) +
                   "/process-" + scheme;
        };
        for (unsigned x : folds) {
            for (auto kind : {sync::SchemeKind::processBasic,
                              sync::SchemeKind::processImproved}) {
                if (x != 16)
                    addScheme(tag("folding-x", x), kind,
                              tag("fig2.1 (N=256, X=", x) + ")",
                              "Figs. 4.2/4.3: primitive sets across "
                              "the folding degree",
                              [] { return workloads::makeFig21Loop(256); },
                              registerMachine(8, x));
            }
        }
        claim("E4",
              "improved primitives beat basic ones in cycles and spin "
              "at X=2 and X=4, skipping marks only there; from X=8 up "
              "the two stay within 2% of each other; coalescing on a "
              "4-cycle sync bus cuts broadcasts and cycles",
              [folds, fold](Check &c) {
                  for (unsigned x : folds) {
                      const std::string b = fold(x, "basic");
                      const std::string i = fold(x, "improved");
                      const std::string x_is = tag("X=", x);
                      if (x <= 4) {
                          c.less(x_is + " cycles", c.cycles(i),
                                 c.cycles(b));
                          c.less(x_is + " spin", c.run(i).spinCycles,
                                 c.run(b).spinCycles);
                          c.less(x_is + " marks skipped", 0,
                                 c.run(i).marksSkipped);
                      } else {
                          c.atMost(x_is + " gap %",
                                   100 * std::fabs(c.cycles(i) -
                                                   c.cycles(b)) /
                                       c.cycles(b),
                                   2);
                          c.equal(x_is + " marks skipped",
                                  c.run(i).marksSkipped, 0);
                      }
                  }
                  const std::string on = "coalescing-fig21/on";
                  const std::string off = "coalescing-fig21/off";
                  c.less("coalescing broadcasts",
                         c.run(on).syncBusBroadcasts,
                         c.run(off).syncBusBroadcasts);
                  c.less("coalescing cycles", c.cycles(on),
                         c.cycles(off));
              });

        // -- E5 / Fig. 5.1 (Example 1): the relaxation kernel
        // hand-built four ways on one 64x64 grid.
        constexpr unsigned procs = 8;
        auto relax = [] { return workloads::makeRelaxationLoop(64, 8); };
        auto relaxation = [this, relax](std::string variant,
                                        const char *scheme, long g,
                                        auto emit) {
            workloads::RelaxationSpec spec;
            spec.n = 64;
            spec.group = g;
            addBuilt("relax-64x64", std::move(variant),
                     "relaxation (64x64)", scheme,
                     "Fig. 5.1: pipelining vs the wavefront method",
                     registerMachine(procs), relax,
                     [spec, emit, relax](sim::SyncFabric &fabric) {
                         dep::Loop loop = relax();
                         dep::DataLayout layout(loop);
                         return emit(fabric, loop, layout, spec);
                     });
        };
        const long grouping[] = {1, 2, 4, 8, 16, 32};
        for (long g : grouping) {
            relaxation(tag("pipelined-g", g), "process-improved", g,
                       [](sim::SyncFabric &f, const dep::Loop &loop,
                          const dep::DataLayout &layout,
                          const workloads::RelaxationSpec &spec) {
                           sync::PcFile pcs(f, 2 * procs);
                           ScenarioPrograms p;
                           p.pool = workloads::buildPipelinedPrograms(
                               pcs, loop, layout, spec);
                           return p;
                       });
        }
        relaxation("wavefront-butterfly", "butterfly-barrier", 1,
                   [](sim::SyncFabric &f, const dep::Loop &loop,
                      const dep::DataLayout &layout,
                      const workloads::RelaxationSpec &spec) {
                       sync::ButterflyBarrier barrier(f, procs);
                       ScenarioPrograms p;
                       p.perProc = workloads::buildWavefrontPrograms(
                           barrier, procs, loop, layout, spec);
                       return p;
                   });
        relaxation("wavefront-counter", "counter-barrier", 1,
                   [](sim::SyncFabric &f, const dep::Loop &loop,
                      const dep::DataLayout &layout,
                      const workloads::RelaxationSpec &spec) {
                       sync::CounterBarrier barrier(f, procs);
                       ScenarioPrograms p;
                       p.perProc = workloads::buildWavefrontProgramsCtr(
                           barrier, procs, loop, layout, spec);
                       return p;
                   });
        for (unsigned scs : {63, 16, 8, 4, 2, 1}) {
            relaxation(tag("sc-", scs), "statement", 1,
                       [scs](sim::SyncFabric &f, const dep::Loop &loop,
                             const dep::DataLayout &layout,
                             const workloads::RelaxationSpec &spec) {
                           ScenarioPrograms p;
                           p.pool = workloads::buildScPipelinedPrograms(
                               f.allocate(workloads::requiredScs(spec, scs),
                                          0),
                               scs, loop, layout, spec);
                           return p;
                       });
        }
        claim("E5",
              "pipelining at G=1 beats both wavefront methods; sync "
              "ops fall at every doubling of G while G=32 takes the "
              "most cycles; the SC pipeline with all 63 counters is "
              "within 5% of the PC pipeline and more than 5x slower "
              "with one counter",
              [grouping](Check &c) {
                  auto at = [](const std::string &v) {
                      return "relax-64x64/" + v;
                  };
                  const std::string g1 = at("pipelined-g1");
                  for (std::string wave : {"wavefront-butterfly",
                                           "wavefront-counter"})
                      c.less("G=1 vs " + wave, c.cycles(g1),
                             c.cycles(at(wave)));
                  for (int k = 1; k < 6; ++k) {
                      const std::string lo =
                          at(tag("pipelined-g", grouping[k - 1]));
                      const std::string hi =
                          at(tag("pipelined-g", grouping[k]));
                      c.less(tag("sync ops G=", grouping[k]),
                             c.run(hi).syncOps, c.run(lo).syncOps);
                      c.less(tag("cycles G=", grouping[k - 1]) +
                                 " vs G=32",
                             c.cycles(lo), c.cycles(at("pipelined-g32")));
                  }
                  c.atMost("SC-63 vs G=1 %",
                           100 * std::fabs(c.cycles(at("sc-63")) -
                                           c.cycles(g1)) /
                               c.cycles(g1),
                           5);
                  c.less("5 x SC-63 vs SC-1", 5 * c.cycles(at("sc-63")),
                         c.cycles(at("sc-1")));
              });

        // -- E6 / Fig. 5.2 (Example 2): nest shapes, with exact
        // boundaries as the E6b counterfactual; 32x32 reuses the
        // nested-32x32 group.
        std::vector<std::string> nests;
        for (auto [n, m] : {std::pair<long, long>{16, 16},
                            {32, 32},
                            {16, 64},
                            {64, 16}}) {
            const std::string shape =
                std::to_string(n) + "x" + std::to_string(m);
            const std::string group = "nested-" + shape;
            nests.push_back(group);
            auto loop = [n, m] {
                return workloads::makeNestedLoop(n, m);
            };
            for (auto kind : {sync::SchemeKind::processImproved,
                              sync::SchemeKind::statementOriented,
                              sync::SchemeKind::referenceBased,
                              sync::SchemeKind::instanceBased})
                addScheme(group, kind, "nested (" + shape + ")",
                          "Example 2: linearized nest", loop,
                          machineFor(kind));
            auto exact = registerMachine();
            exact.scheme.exactBoundaries = true;
            add(group, "process-exact-bd", "nested (" + shape + ")",
                "process-improved",
                "Example 2 counterfactual: exact boundary checks "
                "instead of linearization",
                sync::SchemeKind::processImproved, loop, exact);
        }
        claim("E6",
              "on every nest shape the linearized process scheme "
              "beats the statement, reference and instance schemes in "
              "cycles with fewer sync variables than the instance "
              "scheme, and the reference scheme takes more than twice "
              "its cycles",
              [nests](Check &c) {
                  for (const std::string &g : nests) {
                      const std::string pi = g + "/process-improved";
                      for (std::string other :
                           {"statement", "reference", "instance"})
                          c.less(g + " vs " + other, c.cycles(pi),
                                 c.cycles(g + "/" + other));
                      c.less(g + " 2x vs reference", 2 * c.cycles(pi),
                             c.cycles(g + "/reference"));
                      c.less(g + " vars vs instance", c.vars(pi),
                             c.vars(g + "/instance"));
                  }
              });
        claim("E6b",
              "exact boundary checks cost more than the boundary "
              "parallelism they recover: process-exact-bd takes more "
              "cycles than the linearized process scheme on every "
              "shape",
              [nests](Check &c) {
                  for (const std::string &g : nests)
                      c.less(g, c.cycles(g + "/process-improved"),
                             c.cycles(g + "/process-exact-bd"));
              });

        // -- E7 / Fig. 5.3 (Example 3): early vs deferred signaling
        // across the taken probability, with long arms and tail.
        const sync::SchemeKind branchy[] = {
            sync::SchemeKind::processImproved,
            sync::SchemeKind::processBasic,
            sync::SchemeKind::statementOriented};
        std::vector<std::string> early_ids;
        for (double p : {0.1, 0.5, 0.9}) {
            const std::string group = tag("fig53-p", p * 100);
            for (auto kind : branchy) {
                for (bool early : {true, false}) {
                    auto cfg = registerMachine();
                    cfg.scheme.earlyBranchSignals = early;
                    std::string id = add(
                        group, name(kind) + (early ? "" : "-deferred"),
                        "branches (N=256" + tag(", p=", p * 100) +
                            "%, 96cyc arms)",
                        name(kind),
                        early ? "Fig. 5.3: untaken sources signaled "
                                "as early as possible"
                              : "Fig. 5.3 counterfactual: untaken "
                                "sources signaled at iteration end",
                        kind,
                        [p] {
                            return workloads::makeBranchLoop(
                                256, p, 6, 96, 128, 23);
                        },
                        cfg);
                    if (early)
                        early_ids.push_back(id);
                }
            }
        }
        claim("E7",
              "signaling untaken sources early beats deferring the "
              "signals to the iteration's end, in cycles and in spin, "
              "for every scheme at every taken probability",
              [early_ids](Check &c) {
                  for (const std::string &early : early_ids) {
                      const std::string late = early + "-deferred";
                      c.less(early, c.cycles(early), c.cycles(late));
                      c.less(early + " spin", c.run(early).spinCycles,
                             c.run(late).spinCycles);
                  }
              });

        // -- E8 / Fig. 5.4 (Example 4): butterfly vs counter barrier
        // across P and fabric, and the any-P dissemination barrier.
        auto barrier = [this](unsigned p, sim::FabricKind fabric,
                              const std::string &kind) {
            const std::string group = tag("barrier-p", p);
            const std::string variant =
                kind + (fabric == sim::FabricKind::memory ? "-mem"
                                                          : "-reg");
            if (has(group + "/" + variant))
                return;
            workloads::BarrierSpec spec;
            spec.numProcs = p;
            spec.episodes = 32;
            spec.workJitter = 32;
            addBuilt(group, variant,
                     tag("barrier (32 episodes, P=", p) + ")",
                     kind + "-barrier",
                     "Fig. 5.4: barrier episodes between jittered work",
                     bareMachine(p, fabric), nullptr,
                     [spec, kind](sim::SyncFabric &f) {
                         if (kind == "butterfly")
                             return barrierPrograms<sync::ButterflyBarrier>(
                                 f, spec, workloads::buildButterflyPrograms);
                         if (kind == "counter")
                             return barrierPrograms<sync::CounterBarrier>(
                                 f, spec,
                                 workloads::buildCounterBarrierPrograms);
                         return barrierPrograms<sync::DisseminationBarrier>(
                             f, spec, workloads::buildDisseminationPrograms);
                     });
        };
        for (unsigned p : {2, 4, 8, 16, 32}) {
            for (auto fabric : {sim::FabricKind::memory,
                                sim::FabricKind::registers}) {
                barrier(p, fabric, "butterfly");
                barrier(p, fabric, "counter");
            }
        }
        const unsigned any_p[] = {3, 5, 6, 8, 12, 16};
        for (unsigned p : any_p) {
            barrier(p, sim::FabricKind::registers, "dissemination");
            barrier(p, sim::FabricKind::registers, "counter");
        }
        claim("E8",
              "with memory-resident variables the butterfly barrier "
              "beats the counter barrier at every P up to 16, while "
              "the counter's hot word takes more than 5x its share of "
              "module traffic and its module queueing grows with P",
              [](Check &c) {
                  std::string prev;
                  for (unsigned p : {2, 4, 8, 16}) {
                      const std::string g = tag("barrier-p", p);
                      const std::string ctr = g + "/counter-mem";
                      c.less(g, c.cycles(g + "/butterfly-mem"),
                             c.cycles(ctr));
                      c.less(g + " hot spot", 5, c.run(ctr).hotSpotRatio);
                      if (!prev.empty())
                          c.less(g + " counter queueing",
                                 c.run(prev).moduleQueueDelay,
                                 c.run(ctr).moduleQueueDelay);
                      prev = ctr;
                  }
              });
        claim("E8b",
              "the dissemination barrier completes at every P, "
              "including P = 3, 5, 6 and 12, with exactly the "
              "butterfly's sync-op count at power-of-two P",
              [any_p](Check &c) {
                  for (unsigned p : any_p) {
                      const std::string g = tag("barrier-p", p);
                      const core::RunResult &dis =
                          c.run(g + "/dissemination-reg");
                      c.equal(g + " programs run", dis.programsRun, p);
                      if (p == 8 || p == 16)
                          c.equal(g + " sync ops", dis.syncOps,
                                  c.run(g + "/butterfly-reg").syncOps);
                  }
              });

        // -- E9 / Example 5: FFT stages synchronized pairwise or by a
        // global barrier, across P and per-stage jitter.
        const unsigned fft_p[] = {4, 8, 16, 32};
        const sim::Tick jitters[] = {0, 32, 96};
        for (unsigned p : fft_p) {
            for (sim::Tick j : jitters) {
                workloads::FftSpec spec;
                spec.numProcs = p;
                spec.rounds = 8;
                spec.stageJitter = j;
                for (std::string mode : {"pairwise", "butterfly", "counter"}) {
                    addBuilt(tag("fft-p", p), mode + tag("-j", j),
                             tag("fft (8 rounds, ", j) + "cyc jitter)",
                             mode == "pairwise" ? "pairwise-pc"
                                                : mode + "-barrier",
                             "Example 5: per-stage partner exchange",
                             bareMachine(p, sim::FabricKind::registers),
                             nullptr, [spec, mode](sim::SyncFabric &f) {
                                 if (mode == "butterfly")
                                     return barrierPrograms<
                                         sync::ButterflyBarrier>(
                                         f, spec,
                                         workloads::buildFftButterfly);
                                 if (mode == "counter")
                                     return barrierPrograms<
                                         sync::CounterBarrier>(
                                         f, spec, workloads::buildFftCounter);
                                 ScenarioPrograms progs;
                                 progs.perProc = workloads::buildFftPairwise(
                                     f.allocate(spec.numProcs, 0), spec);
                                 return progs;
                             });
                }
            }
        }
        claim("E9",
              "pairwise PC synchronization beats both global barriers "
              "in every cell; its gain over the counter barrier grows "
              "with P at every jitter level, and jitter raises it "
              "above the no-jitter gain at every P, though not "
              "monotonically",
              [fft_p, jitters](Check &c) {
                  auto at = [](unsigned p, const char *mode, sim::Tick j) {
                      return tag("fft-p", p) + "/" + mode + tag("-j", j);
                  };
                  auto gain = [&](unsigned p, sim::Tick j) {
                      return c.cycles(at(p, "counter", j)) /
                             c.cycles(at(p, "pairwise", j));
                  };
                  for (unsigned p : fft_p) {
                      for (sim::Tick j : jitters) {
                          const std::string pw = at(p, "pairwise", j);
                          for (const char *b : {"butterfly", "counter"})
                              c.less(pw + " vs " + b, c.cycles(pw),
                                     c.cycles(at(p, b, j)));
                          if (j > 0)
                              c.less(tag("gain P=", p) + tag(" j0 vs j", j),
                                     gain(p, 0), gain(p, j));
                      }
                  }
                  for (sim::Tick j : jitters)
                      for (int k = 1; k < 4; ++k)
                          c.less(tag("gain j", j) + tag(" P=", fft_p[k]),
                                 gain(fft_p[k - 1], j), gain(fft_p[k], j));
              });

        // -- E13 / sections 1-3: machine-class scoping across P on
        // the N=2048 Fig. 2.1 loop.
        const unsigned scale_p[] = {4, 8, 16, 32, 64};
        auto fig21_2048 = [] { return workloads::makeFig21Loop(2048); };
        for (unsigned p : scale_p) {
            const std::string v = tag("p", p);
            auto bus = registerMachine(p, 2 * p);
            bus.machine.memory.numModules = 8;
            add("scale-n2048", v + "-bus-process", "fig2.1 (N=2048)",
                "process-improved",
                "sections 1-3: bus machine + broadcast registers",
                sync::SchemeKind::processImproved, fig21_2048, bus);
            auto omega = memoryMachine(p);
            omega.machine.interconnect = sim::InterconnectKind::omega;
            omega.machine.memory.numModules = p;
            add("scale-n2048", v + "-omega-reference", "fig2.1 (N=2048)",
                "reference",
                "sections 1-3: network machine + per-datum keys",
                sync::SchemeKind::referenceBased, fig21_2048, omega);
            auto cross = memoryMachine(p);
            cross.machine.memory.numModules = 8;
            add("scale-n2048", v + "-bus-reference", "fig2.1 (N=2048)",
                "reference",
                "sections 1-3: per-datum keys forced onto the bus "
                "machine",
                sync::SchemeKind::referenceBased, fig21_2048, cross);
        }
        claim("E13",
              "in cycles, the bus machine's process scheme beats the "
              "omega machine's reference scheme through P=32 and stops "
              "improving beyond P=16, while the omega machine gets "
              "faster at every doubling of P and overtakes it at "
              "P=64; per-datum keys on the bus machine are slower "
              "than the process scheme at every P",
              [scale_p](Check &c) {
                  auto at = [](unsigned p, const char *v) {
                      return tag("scale-n2048/p", p) + "-" + v;
                  };
                  for (int k = 0; k < 5; ++k) {
                      const unsigned p = scale_p[k];
                      const double bus = c.cycles(at(p, "bus-process"));
                      const double omega = c.cycles(at(p, "omega-reference"));
                      if (p <= 32)
                          c.less(tag("P=", p) + " bus vs omega", bus, omega);
                      else
                          c.less(tag("P=", p) + " omega vs bus", omega, bus);
                      c.less(tag("P=", p) + " bus keys", bus,
                             c.cycles(at(p, "bus-reference")));
                      if (k > 0)
                          c.less(tag("omega P=", p), omega,
                                 c.cycles(at(scale_p[k - 1],
                                             "omega-reference")));
                      if (p > 16)
                          c.atMost(tag("bus P=16 vs P=", p),
                                   c.cycles(at(16, "bus-process")), bus);
                  }
              });

        // -- E14 / sections 5-6: dispatch policies with and without
        // 400-cycle jitter (seed 77, beside sched-jitter's 800).
        struct Policy
        {
            const char *name;
            core::SchedulePolicy policy;
            std::uint64_t chunk;
        };
        for (sim::Tick jitter : {0, 400}) {
            for (Policy p :
                 {Policy{"self", core::SchedulePolicy::selfScheduling, 4},
                  Policy{"chunked-4",
                         core::SchedulePolicy::chunkedSelfScheduling, 4},
                  Policy{"chunked-16",
                         core::SchedulePolicy::chunkedSelfScheduling, 16},
                  Policy{"guided",
                         core::SchedulePolicy::guidedSelfScheduling, 4},
                  Policy{"static-cyclic",
                         core::SchedulePolicy::staticCyclic, 4}}) {
                auto cfg = registerMachine();
                cfg.schedule = p.policy;
                cfg.chunkSize = p.chunk;
                add(tag("sched-j", jitter), p.name,
                    tag("fig2.1+jitter (N=256, ", jitter) + "cyc, p=" +
                        (jitter ? "25%)" : "0%)"),
                    "process-improved",
                    "sections 5-6: dispatch policy vs load balance",
                    sync::SchemeKind::processImproved,
                    [jitter] {
                        return workloads::makeFig21JitterLoop(
                            256, 8, jitter, jitter ? 0.25 : 0.0, 77);
                    },
                    cfg);
            }
        }
        claim("E14",
              "per-iteration self-scheduling beats static cyclic "
              "dispatch under 400-cycle jitter, static cyclic wins "
              "without jitter, and chunked and guided claiming are "
              "slower than both in both settings",
              [](Check &c) {
                  c.less("jitter self vs static",
                         c.cycles("sched-j400/self"),
                         c.cycles("sched-j400/static-cyclic"));
                  c.less("no-jitter static vs self",
                         c.cycles("sched-j0/static-cyclic"),
                         c.cycles("sched-j0/self"));
                  for (std::string g : {"sched-j0/", "sched-j400/"}) {
                      const double best =
                          std::max(c.cycles(g + "self"),
                                   c.cycles(g + "static-cyclic"));
                      for (std::string slow :
                           {"chunked-4", "chunked-16", "guided"})
                          c.less(g + slow, best, c.cycles(g + slow));
                  }
              });

        // -- E15 / section 2: coverage elimination per scheme on the
        // Fig. 2.1 loop (elimination on is the fig21-n256 default)
        // and on a dense synthetic loop.
        auto dense = [] { return makeDenseLoop(2, 0.6); };
        for (auto kind : {sync::SchemeKind::processImproved,
                          sync::SchemeKind::statementOriented}) {
            for (bool eliminate : {true, false}) {
                auto cfg = registerMachine();
                cfg.eliminateCoveredDeps = eliminate;
                const std::string state = eliminate ? "-on" : "-off";
                if (!eliminate)
                    add("coverage-fig21", name(kind) + state,
                        "fig2.1 (N=256)", name(kind),
                        "section 2: every arc synchronized, covered "
                        "ones included",
                        kind, [] { return workloads::makeFig21Loop(256); },
                        cfg);
                add("coverage-synth", name(kind) + state,
                    "synthetic dense (8 stmts, 1 array, N=128)",
                    name(kind),
                    "section 2: redundant-arc elimination on a dense "
                    "loop",
                    kind, dense, cfg);
            }
        }
        claim("E15",
              "coverage elimination never increases cycles or sync "
              "ops, for either scheme on either workload, and on the "
              "dense synthetic loop it cuts both for both schemes",
              [](Check &c) {
                  for (std::string scheme : {"process-improved",
                                             "statement"}) {
                      const std::string fig21 = "fig21-n256/" + scheme;
                      const std::string plain =
                          "coverage-fig21/" + scheme + "-off";
                      c.atMost(fig21 + " cycles", c.cycles(fig21),
                               c.cycles(plain));
                      c.atMost(fig21 + " sync ops", c.run(fig21).syncOps,
                               c.run(plain).syncOps);
                      const std::string on =
                          "coverage-synth/" + scheme + "-on";
                      const std::string off =
                          "coverage-synth/" + scheme + "-off";
                      c.less(on + " cycles", c.cycles(on), c.cycles(off));
                      c.less(on + " sync ops", c.run(on).syncOps,
                             c.run(off).syncOps);
                  }
              });
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

const std::vector<Claim> &
allClaims()
{
    return registry().claims;
}

std::vector<ClaimResult>
evaluateClaims(const ClaimRecords &records)
{
    std::vector<ClaimResult> results;
    for (const Claim &claim : allClaims()) {
        bool covered = std::all_of(
            claim.scenarios.begin(), claim.scenarios.end(),
            [&records](const std::string &id) {
                return records.count(id) != 0;
            });
        if (!covered)
            continue;
        ClaimResult r;
        r.claim = &claim;
        claim.check(records, r.verdict);
        results.push_back(std::move(r));
    }
    return results;
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

namespace {

/**
 * Run a hand-built scenario on a machine of its own: build its
 * programs on the machine's fabric, dispatch them, and check the
 * trace against the loop's cross-iteration dependences when the
 * scenario has a loop.
 */
core::DoacrossResult
runBuilt(const Scenario &scenario, const core::RunConfig &cfg,
         const dep::Loop *loop)
{
    core::DoacrossResult result;
    core::TraceChecker checker;
    sim::Machine machine(cfg.machine, loop ? &checker : nullptr,
                         cfg.tracer);
    ScenarioPrograms programs = scenario.build(machine.fabric());
    result.plan.numSyncVars = machine.fabric().allocated();
    result.run =
        programs.perProc.empty()
            ? core::runProgramPool(machine, programs.pool,
                                   cfg.schedule, cfg.tickLimit,
                                   cfg.chunkSize)
            : core::runPerProcessorPrograms(machine, programs.perProc,
                                            cfg.tickLimit);
    if (loop) {
        result.violations = checker.verify(
            *loop, dep::DepGraph(*loop).crossIteration());
        result.instancesChecked = checker.instancesChecked();
    }
    return result;
}

} // namespace

ScenarioRecord
runScenario(const Scenario &scenario, sim::TraceLog *tracer,
            const ir::PassConfig *passes, bool profile, bool timeline)
{
    ScenarioRecord record;
    record.scenario = &scenario;

    auto host_start = std::chrono::steady_clock::now();
    core::RunConfig cfg = scenario.config;
    cfg.tracer = tracer;
    if (passes)
        cfg.passes = *passes;
    cfg.machine.timeline = timeline;

    std::optional<dep::Loop> loop;
    if (scenario.loop) {
        loop = scenario.loop();
        dep::DepGraph graph(*loop);
        core::CriticalPath cp = core::criticalPath(
            graph, core::CriticalPathCosts::fromMachine(
                       scenario.config.machine));
        record.depBoundCycles = cp.cycles;
        record.boundCycles =
            cp.achievableBound(scenario.config.machine.numProcs);
    }
    if (scenario.build) {
        // Hand-built programs bypass the IR pass pipeline.
        record.result = runBuilt(scenario, cfg, loop ? &*loop : nullptr);
    } else {
        record.transformsEnabled =
            cfg.passes.enabled && (cfg.passes.eliminateRedundantWaits ||
                                   cfg.passes.peephole);
        record.result = core::runDoacross(*loop, scenario.kind, cfg);
    }
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

    native::NativeConfig ncfg;
    ncfg.numThreads = threads;
    ncfg.profile = profile;
    if (!scenario.build) {
        record.result = native::runDoacrossNative(
            scenario.loop(), scenario.kind, scenario.config, ncfg);
    } else {
        // Build on a planning-only machine, then mirror its fabric:
        // the programs' variable ids run unchanged on real threads.
        sim::Machine planning(scenario.config.machine);
        ScenarioPrograms programs = scenario.build(planning.fabric());
        const bool per_proc = !programs.perProc.empty();
        native::NativeSyncFabric fabric(planning.fabric(),
                                        ncfg.spinLimit);
        const ir::IterationPool pool =
            per_proc ? ir::IterationPool::borrow(programs.perProc)
                     : ir::IterationPool::borrow(programs.pool);
        native::NativeDataMemory data(ir::DataImage::numbered(pool));
        native::NativeExecutor executor(fabric, data, ncfg);
        native::NativeDoacrossResult &r = record.result;
        r.plan.numSyncVars = planning.fabric().allocated();
        if (per_proc) {
            record.numThreads =
                static_cast<unsigned>(programs.perProc.size());
            r.run = executor.runPerProcessor(pool);
        } else {
            r.run = executor.runPool(pool, scenario.config.schedule,
                                     scenario.config.chunkSize);
        }
        if (scenario.loop) {
            dep::Loop loop = scenario.loop();
            core::TraceChecker checker;
            executor.replayAccesses(checker);
            r.violations = checker.verify(
                loop, dep::DepGraph(loop).crossIteration());
            r.instancesChecked = checker.instancesChecked();
        }
        r.valueMismatches = executor.verifyValues();
    }

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
