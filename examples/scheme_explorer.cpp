/**
 * @file
 * Scheme explorer: generate a random Doacross loop from a seed,
 * print its dependence graph, then run it under every
 * synchronization scheme on its natural fabric and compare. Handy
 * for building intuition about when each scheme wins — and a
 * quick check that an arbitrary constant-distance loop is handled
 * correctly end to end (every run is trace-verified).
 *
 * With --native, each scheme additionally runs on the native
 * multithreaded backend (real host threads, C++11 atomics) and the
 * two backends' value-rule memory images are compared side by side:
 * "match" means the native execution enforced exactly the orderings
 * the simulator did.
 *
 * With --dump-ir, each scheme's lowered program for the first two
 * iterations is disassembled one op per line (with stable op ids)
 * both before and after the transform passes (redundant-wait
 * elimination + peephole), so the effect of the pipeline is
 * directly readable.
 *
 * With --profile, each scheme's run is traced and its achieved
 * critical path reconstructed; a side-by-side composition table
 * (compute / spin / sync / stall / dispatch / propagation share of
 * the path, gap over the analytical bound, hottest sync variable)
 * is printed after the sweep, so where each scheme loses its
 * cycles is directly comparable.
 *
 * With --timeline, each scheme's run is sampled (at most 1024
 * times) and a sparkline report (bus occupancy, module traffic,
 * waiter counts, processor state mix, detected hot spots) is
 * printed per scheme. Sampling is passive; cycle counts are
 * identical with it on or off.
 *
 * Usage: scheme_explorer [--native] [--dump-ir] [--profile]
 *                        [--timeline]
 *                        [seed] [N] [statements] [P]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/critical_path.hh"
#include "core/profile.hh"
#include "core/runtime.hh"
#include "core/timeline.hh"
#include "core/value_trace.hh"
#include "dep/dep_graph.hh"
#include "native/runner.hh"
#include "workloads/synthetic.hh"

using namespace psync;

int
main(int argc, char **argv)
{
    bool with_native = false;
    bool dump_ir = false;
    bool with_profile = false;
    bool with_timeline = false;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--native") == 0)
            with_native = true;
        else if (std::strcmp(argv[i], "--dump-ir") == 0)
            dump_ir = true;
        else if (std::strcmp(argv[i], "--profile") == 0)
            with_profile = true;
        else if (std::strcmp(argv[i], "--timeline") == 0)
            with_timeline = true;
        else
            positional.push_back(argv[i]);
    }

    workloads::SyntheticSpec spec;
    spec.seed = positional.size() > 0
                    ? std::strtoull(positional[0], nullptr, 10)
                    : 1;
    spec.n = positional.size() > 1 ? std::atol(positional[1]) : 128;
    spec.numStatements =
        positional.size() > 2 ? std::atoi(positional[2]) : 5;
    unsigned procs =
        positional.size() > 3 ? std::atoi(positional[3]) : 8;
    spec.numArrays = 2;
    spec.maxOffset = 3;

    dep::Loop loop = workloads::makeSyntheticLoop(spec);
    dep::DepGraph graph(loop);
    std::cout << graph.toString() << "\n"
              << "enforced arcs: " << graph.enforced().size()
              << ", covered: " << graph.numCovered() << "\n\n";

    sim::MachineConfig base;
    base.numProcs = procs;
    sim::Tick seq = core::sequentialCycles(loop, base);
    std::cout << "sequential: " << seq << " cycles\n\n";

    struct ProfileRow
    {
        std::string scheme;
        core::CriticalPathProfile prof;
    };
    std::vector<ProfileRow> profile_rows;

    struct TimelineRow
    {
        std::string scheme;
        core::Timeline timeline;
    };
    std::vector<TimelineRow> timeline_rows;

    std::cout << "scheme             cycles    speedup  spin-frac  "
                 "sync-vars  verified";
    if (with_native)
        std::cout << "  | native-ms  progs/s  image";
    std::cout << "\n";
    for (auto kind : sync::allSyncSchemes()) {
        core::RunConfig cfg;
        cfg.machine.numProcs = procs;
        cfg.machine.syncRegisters = 4096;
        cfg.machine.fabric =
            (kind == sync::SchemeKind::referenceBased ||
             kind == sync::SchemeKind::instanceBased)
                ? sim::FabricKind::memory
                : sim::FabricKind::registers;
        core::ValueTrace sim_values;
        if (with_native)
            cfg.extraSink = &sim_values;
        sim::TraceLog recorder;
        if (with_profile || with_timeline)
            cfg.tracer = &recorder;
        cfg.machine.timeline = with_timeline;

        if (dump_ir) {
            // Plan twice against throwaway machines: once with the
            // pipeline disabled (raw lowering) and once with the
            // transforms on, and disassemble the first iterations
            // of each so the passes' effect is readable.
            std::cout << "---- " << sync::schemeKindName(kind)
                      << ": lowered IR ----\n";
            for (bool transformed : {false, true}) {
                core::RunConfig pcfg = cfg;
                pcfg.passes.enabled = transformed;
                pcfg.passes.eliminateRedundantWaits = transformed;
                pcfg.passes.peephole = transformed;
                sim::Machine scratch(pcfg.machine);
                auto planned = core::planDoacross(
                    loop, kind, pcfg, scratch.fabric());
                std::cout << (transformed ? "after passes"
                                          : "before passes")
                          << " (" << planned.passStats.opsAfter
                          << " ops, " << planned.passStats.waitsAfter
                          << " waits):\n";
                const ir::IterationPool &pool = planned.pool;
                for (std::size_t i = 0; i < pool.size(); ++i) {
                    if (i == 2) {
                        std::cout << "  ... " << pool.size() - 2
                                  << " more programs\n";
                        break;
                    }
                    std::cout << ir::disassemble(
                        pool.program(i), /*with_ids=*/true);
                }
            }
            std::cout << "\n";
        }

        auto r = core::runDoacross(loop, kind, cfg);
        if (!r.run.completed) {
            std::cout << sync::schemeKindName(kind)
                      << "  DEADLOCK\n";
            continue;
        }
        std::cout << sync::schemeKindName(kind) << "  "
                  << r.run.cycles << "  "
                  << r.run.speedupOver(seq) << "  "
                  << r.run.spinFraction() << "  "
                  << r.plan.numSyncVars << "  "
                  << (r.correct() ? "ok" : "VIOLATION") << " ("
                  << r.instancesChecked << " instances)";
        if (!r.correct()) {
            std::cout << "\n";
            return 1;
        }

        if (with_profile) {
            core::CriticalPath cp = core::criticalPath(
                graph,
                core::CriticalPathCosts::fromMachine(cfg.machine));
            profile_rows.push_back(
                {sync::schemeKindName(kind),
                 core::buildCriticalPathProfile(
                     recorder, r.run.cycles,
                     cp.achievableBound(procs))});
        }

        if (with_timeline) {
            timeline_rows.push_back({sync::schemeKindName(kind),
                                     core::buildTimeline(recorder)});
        }

        if (with_native) {
            native::NativeConfig ncfg;
            ncfg.numThreads = procs;
            auto nat =
                native::runDoacrossNative(loop, kind, cfg, ncfg);
            bool match = nat.correct() &&
                         nat.memory == sim_values.memory() &&
                         nat.reads == sim_values.reads();
            std::cout << "  | "
                      << static_cast<double>(nat.run.wallNanos) /
                             1e6
                      << "  " << nat.run.programsPerSec() << "  "
                      << (match ? "match" : "MISMATCH");
            if (!match) {
                std::cout << "\n";
                for (const auto &m : nat.violations)
                    std::cout << "  violation: " << m << "\n";
                for (const auto &m : nat.valueMismatches)
                    std::cout << "  value: " << m << "\n";
                return 1;
            }
        }
        std::cout << "\n";
    }

    if (!profile_rows.empty()) {
        std::cout << "\npath composition (% of achieved critical "
                     "path):\n";
        std::printf("%-18s %8s %6s %6s %6s %6s %6s %6s %6s  %s\n",
                    "scheme", "cycles", "gap%", "comp", "spin",
                    "sync", "stall", "disp", "prop", "hottest var");
        for (const auto &row : profile_rows) {
            const core::CriticalPathProfile &p = row.prof;
            auto pct = [&](sim::Tick part) {
                return p.achievedCycles
                           ? 100.0 * static_cast<double>(part) /
                                 static_cast<double>(p.achievedCycles)
                           : 0.0;
            };
            std::string hottest = "-";
            if (!p.varShares.empty()) {
                const auto &v = p.varShares.front();
                hottest = (v.label.empty()
                               ? "var" + std::to_string(v.var)
                               : v.label) +
                          " (" + std::to_string(v.cycles) + "cyc)";
            }
            std::printf(
                "%-18s %8llu %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f "
                "%6.1f  %s\n",
                row.scheme.c_str(),
                static_cast<unsigned long long>(p.achievedCycles),
                p.gapPct(), pct(p.computeCycles), pct(p.spinCycles),
                pct(p.syncCycles), pct(p.stallCycles),
                pct(p.dispatchCycles), pct(p.propagationCycles),
                hottest.c_str());
        }
    }

    for (const auto &row : timeline_rows) {
        std::cout << "\n== " << row.scheme << " timeline ==\n";
        row.timeline.writeText(std::cout);
    }
    return 0;
}
