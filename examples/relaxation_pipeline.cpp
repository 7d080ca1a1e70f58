/**
 * @file
 * Example 1 of the paper: the four-point relaxation loop run as an
 * asynchronously pipelined Doacross (wait_PC/mark_PC around groups
 * of G inner iterations) versus the wavefront method with a
 * barrier between anti-diagonal fronts.
 *
 * Usage: relaxation_pipeline [N] [P] [G] [--trace out.json]
 *
 * With --trace, the pipelined run's cycle-level event trace is
 * written as Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing).
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/runtime.hh"
#include "core/trace_check.hh"
#include "core/tracing.hh"
#include "dep/dep_graph.hh"
#include "workloads/relaxation.hh"

using namespace psync;

namespace {

sim::MachineConfig
machineConfig(unsigned procs)
{
    sim::MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.fabric = sim::FabricKind::registers;
    cfg.syncRegisters = 1024;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    {
        int out = 1;
        for (int in = 1; in < argc; ++in) {
            if (std::strcmp(argv[in], "--trace") == 0 &&
                in + 1 < argc) {
                trace_path = argv[++in];
                continue;
            }
            argv[out++] = argv[in];
        }
        argc = out;
    }

    workloads::RelaxationSpec spec;
    spec.n = argc > 1 ? std::atol(argv[1]) : 64;
    unsigned procs = argc > 2 ? std::atoi(argv[2]) : 8;
    spec.group = argc > 3 ? std::atol(argv[3]) : 1;

    dep::Loop loop = workloads::makeRelaxationLoop(spec.n,
                                                   spec.stmtCost);
    dep::DataLayout layout(loop);
    dep::DepGraph graph(loop);

    sim::TraceLog recorder;
    sim::TraceLog *tracer = trace_path.empty() ? nullptr : &recorder;

    // Asynchronous pipelining (Fig. 5.1d).
    core::TraceChecker pipe_checker;
    sim::Machine pipe_machine(machineConfig(procs), &pipe_checker,
                              tracer);
    sync::PcFile pcs(pipe_machine.fabric(), 2 * procs);
    auto pipe_programs = workloads::buildPipelinedPrograms(
        pcs, loop, layout, spec);
    auto pipe = core::runProgramPool(
        pipe_machine, pipe_programs,
        core::SchedulePolicy::selfScheduling);
    auto pipe_violations =
        pipe_checker.verify(loop, graph.crossIteration());

    // Wavefront with butterfly barrier (Fig. 5.1c).
    core::TraceChecker wave_checker;
    sim::Machine wave_machine(machineConfig(procs), &wave_checker);
    sync::ButterflyBarrier barrier(wave_machine.fabric(), procs);
    auto wave_programs = workloads::buildWavefrontPrograms(
        barrier, procs, loop, layout, spec);
    auto wave =
        core::runPerProcessorPrograms(wave_machine, wave_programs);
    auto wave_violations =
        wave_checker.verify(loop, graph.crossIteration());

    if (!pipe.completed || !wave.completed) {
        std::cerr << "a run hit the tick limit\n";
        return 1;
    }
    if (!pipe_violations.empty() || !wave_violations.empty()) {
        std::cerr << "dependence violations detected\n";
        return 1;
    }

    std::cout << "relaxation " << spec.n << "x" << spec.n << ", P="
              << procs << ", G=" << spec.group << "\n\n";
    std::cout << "method        cycles   utilization  spin-frac  "
                 "sync-ops\n";
    auto row = [](const char *name, const core::RunResult &r) {
        std::cout << name << "  " << r.cycles << "   "
                  << r.utilization() << "    " << r.spinFraction()
                  << "   " << r.syncOps << "\n";
    };
    row("pipelined ", pipe);
    row("wavefront ", wave);
    std::cout << "\npipelined speedup over wavefront: "
              << static_cast<double>(wave.cycles) / pipe.cycles
              << "x\n";

    if (tracer) {
        std::ofstream os(trace_path);
        if (!os) {
            std::cerr << "cannot write " << trace_path << "\n";
            return 1;
        }
        core::writeChromeTrace(recorder, os);
        std::cout << "\nwrote " << recorder.size()
                  << " trace events to " << trace_path
                  << " (open in Perfetto / chrome://tracing)\n";
    }
    return 0;
}
