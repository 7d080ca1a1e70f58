/**
 * @file
 * E12 — host-side micro-benchmarks (google-benchmark): throughput
 * of dependence analysis, scheme planning, per-iteration codegen
 * and whole-machine simulation. These quantify the toolkit itself
 * rather than the simulated machine.
 */

#include <benchmark/benchmark.h>

#include "core/runtime.hh"
#include "dep/dep_graph.hh"
#include "sync/process_oriented.hh"
#include "workloads/fig21.hh"
#include "workloads/synthetic.hh"

using namespace psync;

namespace {

void
BM_DependenceAnalysis(benchmark::State &state)
{
    workloads::SyntheticSpec spec;
    spec.numStatements = static_cast<unsigned>(state.range(0));
    spec.seed = 5;
    dep::Loop loop = workloads::makeSyntheticLoop(spec);
    for (auto _ : state) {
        dep::DepAnalysis analysis = dep::analyze(loop);
        benchmark::DoNotOptimize(analysis.deps.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            spec.numStatements);
}
BENCHMARK(BM_DependenceAnalysis)->Arg(4)->Arg(8)->Arg(16);

void
BM_CoverageElimination(benchmark::State &state)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    for (auto _ : state) {
        dep::DepGraph graph(loop);
        benchmark::DoNotOptimize(graph.numCovered());
    }
}
BENCHMARK(BM_CoverageElimination);

void
BM_ProcessSchemeEmit(benchmark::State &state)
{
    sim::MachineConfig mc;
    mc.numProcs = 1;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 64;
    sim::Machine machine(mc);
    dep::Loop loop = workloads::makeFig21Loop(1 << 16);
    dep::DepGraph graph(loop);
    dep::DataLayout layout(loop);
    sync::ProcessOrientedScheme scheme(true);
    sync::SchemeConfig cfg;
    scheme.plan(graph, layout, machine.fabric(), cfg);

    std::uint64_t lpid = 5;
    for (auto _ : state) {
        sim::Program prog = scheme.emit(lpid);
        benchmark::DoNotOptimize(prog.ops.data());
        lpid = lpid % 60000 + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessSchemeEmit);

void
BM_FullDoacrossRun(benchmark::State &state)
{
    dep::Loop loop = workloads::makeFig21Loop(state.range(0));
    core::RunConfig cfg;
    cfg.machine.numProcs = 8;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.checkTrace = false;
    for (auto _ : state) {
        auto r = core::runDoacross(
            loop, sync::SchemeKind::processImproved, cfg);
        benchmark::DoNotOptimize(r.run.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullDoacrossRun)->Arg(64)->Arg(256)->Arg(1024);

void
BM_SimulatedEventsPerSecond(benchmark::State &state)
{
    dep::Loop loop = workloads::makeFig21Loop(512);
    core::RunConfig cfg;
    cfg.machine.numProcs = 8;
    cfg.machine.fabric = sim::FabricKind::memory;
    cfg.checkTrace = false;
    for (auto _ : state) {
        auto r = core::runDoacross(
            loop, sync::SchemeKind::referenceBased, cfg);
        benchmark::DoNotOptimize(r.run.memAccesses);
    }
}
BENCHMARK(BM_SimulatedEventsPerSecond);

} // namespace

BENCHMARK_MAIN();
