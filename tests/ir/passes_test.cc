/**
 * @file
 * IR pass pipeline unit tests: redundant-wait elimination soundness
 * rules, peephole merging, the structural verifier (including the
 * negative case: a wait with no dominating signal source is
 * rejected at plan time), runPasses bookkeeping, and the one-walk
 * pipeline's equivalence with running each pass over the whole plan
 * in turn.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <tuple>

#include "dep/dep_graph.hh"
#include "dep/loop_text.hh"
#include "ir/passes.hh"
#include "ir/program.hh"
#include "sim/machine.hh"
#include "sync/scheme.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"

using namespace psync;

namespace {

/** Plan-time init values: every variable starts at zero. */
ir::SyncWord
zeroInit(ir::SyncVarId)
{
    return 0;
}

ir::Program
makeProgram(std::uint64_t iter = 1)
{
    ir::Program prog;
    prog.iter = iter;
    return prog;
}

unsigned
countKind(const ir::Program &prog, ir::OpKind kind)
{
    unsigned n = 0;
    for (const auto &op : prog.ops)
        n += op.kind == kind ? 1 : 0;
    return n;
}

/** Every field of an op, for exact comparison. */
auto
fieldsOf(const ir::Op &op)
{
    return std::tie(op.kind, op.cycles, op.addr, op.var, op.value,
                    op.aux, op.stmt, op.ref, op.id, op.iterTag);
}

/** A scheme's raw lowering of a loop and its fabric's init values. */
struct Lowered
{
    std::vector<ir::Program> programs;
    std::vector<ir::SyncWord> init;
};

Lowered
lower(const dep::Loop &loop, sync::SchemeKind kind)
{
    sim::MachineConfig mc;
    mc.numProcs = 4;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 1u << 20;
    sim::Machine machine(mc);
    dep::DepGraph graph(loop);
    dep::DataLayout layout(loop, mc.memory.wordBytes);
    sync::SchemeConfig scfg;
    scfg.numPcs = 16;
    scfg.numScs = 1u << 20;
    std::unique_ptr<sync::Scheme> scheme = sync::makeScheme(kind);
    scheme->plan(graph, layout, machine.fabric(), scfg);

    Lowered out;
    for (std::uint64_t lpid = 1; lpid <= loop.iterations(); ++lpid) {
        out.programs.push_back(scheme->emit(lpid));
        // plan() bounds the ops of every iteration and emit()
        // reserves that bound once, so no program regrew past it.
        EXPECT_EQ(out.programs.back().ops.capacity(),
                  out.programs.front().ops.capacity())
            << loop.name << "/" << sync::schemeKindName(kind)
            << " iter " << lpid;
    }
    for (unsigned v = 0; v < machine.fabric().allocated(); ++v)
        out.init.push_back(machine.fabric().peek(v));
    return out;
}

/** Ops of `programs`, or only those of kind `only`. */
std::uint64_t
countOps(const std::vector<ir::Program> &programs,
         std::optional<ir::OpKind> only = std::nullopt)
{
    std::uint64_t n = 0;
    for (const ir::Program &program : programs)
        for (const ir::Op &op : program.ops)
            n += !only || op.kind == *only;
    return n;
}

/**
 * The pipeline stage by stage: elimination over every program, then
 * peephole over every program, then the verifier over the plan.
 */
ir::PassStats
stagedPasses(std::vector<ir::Program> &programs,
             const ir::PassConfig &cfg, const ir::InitValueFn &init)
{
    ir::PassStats stats;
    stats.opsBefore = countOps(programs);
    stats.waitsBefore = countOps(programs, ir::OpKind::syncWaitGE);
    if (cfg.enabled && cfg.eliminateRedundantWaits)
        for (ir::Program &program : programs)
            stats.waitsEliminated +=
                ir::eliminateRedundantWaits(program);
    if (cfg.enabled && cfg.peephole)
        for (ir::Program &program : programs)
            stats.opsMerged += ir::peephole(program);
    if (cfg.enabled && cfg.verify) {
        stats.verifierErrors = ir::verifyPrograms(programs, init);
        stats.verified = stats.verifierErrors.empty();
    }
    stats.opsAfter = countOps(programs);
    stats.waitsAfter = countOps(programs, ir::OpKind::syncWaitGE);
    return stats;
}

/**
 * runPasses against stagedPasses on one plan, under passes off,
 * verify only and everything on: same programs op for op (ids
 * included) and the same PassStats, errors in the same order.
 */
void
expectOneWalkMatchesStages(const Lowered &lowered,
                           const std::string &what)
{
    ir::InitValueFn init = [&lowered](ir::SyncVarId var) {
        return var < lowered.init.size() ? lowered.init[var]
                                         : ir::SyncWord{0};
    };
    ir::PassConfig off;
    off.enabled = false;
    ir::PassConfig verify_only;
    ir::PassConfig all;
    all.eliminateRedundantWaits = true;
    all.peephole = true;
    const std::pair<const char *, ir::PassConfig> configs[] = {
        {"off", off}, {"verify", verify_only}, {"all", all}};

    for (const auto &[name, cfg] : configs) {
        SCOPED_TRACE(what + " passes=" + name);
        std::vector<ir::Program> walked = lowered.programs;
        std::vector<ir::Program> staged = lowered.programs;
        ir::PassStats w = ir::runPasses(walked, cfg, init);
        ir::PassStats s = stagedPasses(staged, cfg, init);

        EXPECT_EQ(w.opsBefore, s.opsBefore);
        EXPECT_EQ(w.opsAfter, s.opsAfter);
        EXPECT_EQ(w.waitsBefore, s.waitsBefore);
        EXPECT_EQ(w.waitsAfter, s.waitsAfter);
        EXPECT_EQ(w.waitsEliminated, s.waitsEliminated);
        EXPECT_EQ(w.opsMerged, s.opsMerged);
        EXPECT_EQ(w.verified, s.verified);
        EXPECT_EQ(w.verifierErrors, s.verifierErrors);

        ASSERT_EQ(walked.size(), staged.size());
        for (std::size_t p = 0; p < walked.size(); ++p) {
            EXPECT_EQ(walked[p].iter, staged[p].iter);
            ASSERT_EQ(walked[p].ops.size(), staged[p].ops.size())
                << "program " << p;
            for (std::size_t k = 0; k < walked[p].ops.size(); ++k)
                EXPECT_TRUE(fieldsOf(walked[p].ops[k]) ==
                            fieldsOf(staged[p].ops[k]))
                    << "program " << p << " op " << k;
        }
    }
}

std::vector<dep::Loop>
corpusLoops()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             PSYNC_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() == ".loop")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::vector<dep::Loop> loops;
    for (const auto &file : files) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        dep::ParsedLoop parsed = dep::parseLoop(text.str());
        EXPECT_TRUE(parsed.ok) << file << ": " << parsed.error;
        if (parsed.ok)
            loops.push_back(std::move(parsed.loop));
    }
    return loops;
}

} // namespace

TEST(EliminationTest, DropsWaitDominatedByEarlierWrite)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.write(3, 5);
    b.waitGE(3, 5);  // dominated: the write established v3 >= 5
    b.waitGE(3, 3);  // dominated: 5 >= 3
    b.waitGE(3, 7);  // NOT dominated: 7 > 5

    EXPECT_EQ(ir::eliminateRedundantWaits(prog), 2u);
    ASSERT_EQ(prog.ops.size(), 2u);
    EXPECT_EQ(prog.ops[1].kind, ir::OpKind::syncWaitGE);
    EXPECT_EQ(prog.ops[1].value, 7u);
}

TEST(EliminationTest, EarlierWaitEstablishesItsThreshold)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.waitGE(1, 5);
    b.waitGE(1, 4);  // once v1 >= 5 held, v1 >= 4 holds (monotone)

    EXPECT_EQ(ir::eliminateRedundantWaits(prog), 1u);
    ASSERT_EQ(prog.ops.size(), 1u);
    EXPECT_EQ(prog.ops[0].value, 5u);
}

TEST(EliminationTest, FetchIncBumpsAnEstablishedBound)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.write(2, 1);
    b.fetchInc(2);
    b.waitGE(2, 2);  // write made v2 >= 1, the inc made it >= 2

    EXPECT_EQ(ir::eliminateRedundantWaits(prog), 1u);
    EXPECT_EQ(countKind(prog, ir::OpKind::syncWaitGE), 0u);
}

TEST(EliminationTest, FetchIncWithoutBoundEstablishesNothing)
{
    // An increment on a variable with no program-local bound says
    // nothing about its absolute value (another processor may not
    // have signaled yet), so a following wait must stay.
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.fetchInc(2);
    b.waitGE(2, 1);

    EXPECT_EQ(ir::eliminateRedundantWaits(prog), 0u);
    EXPECT_EQ(countKind(prog, ir::OpKind::syncWaitGE), 1u);
}

TEST(EliminationTest, PcMarkNeverEstablishesABound)
{
    // mark_PC is conditional: it is skipped when the PC is not yet
    // owned (Fig. 4.3), so it must not license wait deletion.
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.pcMark(4, 9);
    b.waitGE(4, 9);

    EXPECT_EQ(ir::eliminateRedundantWaits(prog), 0u);
    EXPECT_EQ(countKind(prog, ir::OpKind::syncWaitGE), 1u);
}

TEST(EliminationTest, PcTransferEstablishesWrittenAndAuxBound)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.pcTransfer(5, 10, 7);  // waits v5 >= 7, then writes 10
    b.waitGE(5, 10);

    EXPECT_EQ(ir::eliminateRedundantWaits(prog), 1u);
}

TEST(EliminationTest, BoundsAreProgramLocal)
{
    // Establishing a bound in one program must not delete waits in
    // another: domination only holds within a single instruction
    // stream.
    ir::Program first = makeProgram(1);
    ir::ProgramBuilder b1(first);
    b1.write(6, 3);
    ir::Program second = makeProgram(2);
    ir::ProgramBuilder b2(second);
    b2.waitGE(6, 3);

    EXPECT_EQ(ir::eliminateRedundantWaits(first), 0u);
    EXPECT_EQ(ir::eliminateRedundantWaits(second), 0u);
    EXPECT_EQ(countKind(second, ir::OpKind::syncWaitGE), 1u);
}

TEST(PeepholeTest, MergesAdjacentComputes)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.compute(3);
    b.compute(4);
    b.compute(5);

    EXPECT_EQ(ir::peephole(prog), 2u);
    ASSERT_EQ(prog.ops.size(), 1u);
    EXPECT_EQ(prog.ops[0].cycles, 12u);
}

TEST(PeepholeTest, DoesNotMergeComputesAcrossIterTags)
{
    // iterTag drives statement-instance attribution in traces;
    // merging across tags would mis-blame cycles.
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.compute(3).iterTag = 1;
    b.compute(4).iterTag = 2;

    EXPECT_EQ(ir::peephole(prog), 0u);
    EXPECT_EQ(prog.ops.size(), 2u);
}

TEST(PeepholeTest, MergesMonotoneAdjacentWritesToOneVar)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.write(7, 1);
    b.write(7, 2);  // supersedes: same var, later value >= earlier

    EXPECT_EQ(ir::peephole(prog), 1u);
    ASSERT_EQ(prog.ops.size(), 1u);
    EXPECT_EQ(prog.ops[0].value, 2u);
}

TEST(PeepholeTest, KeepsWritesToDifferentVarsAndNonMonotone)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.write(7, 2);
    b.write(8, 1);  // different variable
    ir::Program other = makeProgram();
    ir::ProgramBuilder b2(other);
    b2.write(7, 2);
    b2.write(7, 1);  // dropping either would change final state

    EXPECT_EQ(ir::peephole(prog), 0u);
    EXPECT_EQ(ir::peephole(other), 0u);
}

TEST(VerifierTest, AcceptsCrossProgramSignalAndWait)
{
    ir::Program producer = makeProgram(1);
    ir::ProgramBuilder b1(producer);
    b1.write(1, 1);
    ir::Program consumer = makeProgram(2);
    ir::ProgramBuilder b2(consumer);
    b2.waitGE(1, 1);

    auto errors = ir::verifyPrograms({producer, consumer}, zeroInit);
    EXPECT_TRUE(errors.empty());
}

/**
 * The negative case the pipeline exists to catch (mirroring
 * trace_check_negative_test's role for the runtime checker): a
 * wait whose threshold no combination of initial values, writes
 * and increments anywhere in the plan can reach must be rejected.
 */
TEST(VerifierTest, RejectsWaitWithNoDominatingSignal)
{
    ir::Program producer = makeProgram(1);
    ir::ProgramBuilder b1(producer);
    b1.write(1, 1);
    ir::Program consumer = makeProgram(2);
    ir::ProgramBuilder b2(consumer);
    b2.waitGE(1, 2);  // nobody ever raises v1 past 1: deadlock

    auto errors = ir::verifyPrograms({producer, consumer}, zeroInit);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("iter 2"), std::string::npos)
        << errors[0];
    EXPECT_NE(errors[0].find("waits var 1"), std::string::npos)
        << errors[0];
}

TEST(VerifierTest, CountsIncrementsTowardReachability)
{
    ir::Program a = makeProgram(1);
    ir::ProgramBuilder b1(a);
    b1.fetchInc(3);
    ir::Program b = makeProgram(2);
    ir::ProgramBuilder b2(b);
    b2.fetchInc(3);
    b2.waitGE(3, 2);  // two increments from zero reach 2

    EXPECT_TRUE(ir::verifyPrograms({a, b}, zeroInit).empty());

    ir::Program c = makeProgram(3);
    ir::ProgramBuilder b3(c);
    b3.waitGE(3, 3);  // but not 3
    EXPECT_EQ(ir::verifyPrograms({a, b, c}, zeroInit).size(), 1u);
}

TEST(VerifierTest, InitialValuesCountAsSignals)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.waitGE(9, 5);

    auto init = [](ir::SyncVarId var) -> ir::SyncWord {
        return var == 9 ? 5 : 0;
    };
    EXPECT_TRUE(ir::verifyPrograms({prog}, init).empty());
}

TEST(RunPassesTest, DisabledPipelineIsByteIdentical)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.write(1, 5);
    b.waitGE(1, 5);  // would be eliminated if transforms ran
    b.compute(2);
    b.compute(3);    // would be merged if transforms ran
    std::vector<ir::Program> programs = {prog};

    ir::PassConfig cfg;
    cfg.enabled = false;
    ir::PassStats stats = ir::runPasses(programs, cfg, zeroInit);

    ASSERT_EQ(programs[0].ops.size(), prog.ops.size());
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
        EXPECT_EQ(programs[0].ops[i].kind, prog.ops[i].kind) << i;
        EXPECT_EQ(programs[0].ops[i].id, prog.ops[i].id) << i;
    }
    EXPECT_EQ(stats.opsBefore, stats.opsAfter);
    EXPECT_EQ(stats.waitsEliminated, 0u);
    EXPECT_FALSE(stats.verified);  // verifier did not run
}

TEST(RunPassesTest, StatsAccountForEliminationAndMerging)
{
    ir::Program prog = makeProgram();
    ir::ProgramBuilder b(prog);
    b.write(1, 5);
    b.waitGE(1, 5);
    b.compute(2);
    b.compute(3);
    std::vector<ir::Program> programs = {prog};

    ir::PassConfig cfg;
    cfg.eliminateRedundantWaits = true;
    cfg.peephole = true;
    ir::PassStats stats = ir::runPasses(programs, cfg, zeroInit);

    EXPECT_EQ(stats.opsBefore, 4u);
    EXPECT_EQ(stats.opsAfter, 2u);
    EXPECT_EQ(stats.waitsBefore, 1u);
    EXPECT_EQ(stats.waitsAfter, 0u);
    EXPECT_EQ(stats.waitsEliminated, 1u);
    EXPECT_EQ(stats.opsMerged, 1u);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(stats.verifierErrors.empty());
}

TEST(ProgramBuilderTest, StampsSequentialIdsAndResumes)
{
    ir::Program prog = makeProgram();
    {
        ir::ProgramBuilder b(prog);
        b.compute(1);
        b.compute(2);
    }
    EXPECT_EQ(prog.ops[0].id, 1u);
    EXPECT_EQ(prog.ops[1].id, 2u);
    {
        // A second builder over the same program resumes numbering
        // instead of reusing ids.
        ir::ProgramBuilder b(prog);
        b.compute(3);
    }
    EXPECT_EQ(prog.ops[2].id, 3u);
}

TEST(RunPassesTest, OneWalkEqualsEachPassOverThePlanInTurn)
{
    std::vector<dep::Loop> loops = corpusLoops();
    ASSERT_FALSE(loops.empty());
    loops.push_back(workloads::makeFig21Loop(64));
    loops.push_back(workloads::makeNestedLoop(12, 10));
    loops.push_back(workloads::makeFig21JitterLoop(48, 8, 24, 0.3));

    std::vector<sync::SchemeKind> kinds = sync::allSyncSchemes();
    kinds.push_back(sync::SchemeKind::none);
    for (const dep::Loop &loop : loops) {
        bool guarded = std::any_of(
            loop.body.begin(), loop.body.end(),
            [](const dep::Statement &s) {
                return s.guard.conditional();
            });
        for (sync::SchemeKind kind : kinds) {
            // Renaming rejects branch-guarded bodies by design.
            if (guarded && kind == sync::SchemeKind::instanceBased)
                continue;
            std::string what = loop.name + "/" +
                               sync::schemeKindName(kind);
            Lowered lowered = lower(loop, kind);
            expectOneWalkMatchesStages(lowered, what);

            // The same plan with each program's first wait raised
            // out of reach: the verifier's errors must come out
            // identical and in the same order.
            for (ir::Program &program : lowered.programs) {
                for (ir::Op &op : program.ops) {
                    if (op.kind == ir::OpKind::syncWaitGE) {
                        op.value += ir::SyncWord{1} << 40;
                        break;
                    }
                }
            }
            expectOneWalkMatchesStages(lowered, what + "/unreachable");
        }
    }

    // Lowered plans keep markers between computes, so add one where
    // elimination exposes merges peephole can make only afterwards:
    // the stage order shows in the result.
    Lowered exposed;
    exposed.programs.push_back(makeProgram());
    ir::ProgramBuilder b(exposed.programs.back());
    b.write(1, 5);
    b.compute(1);
    b.waitGE(1, 3); // dominated by the write
    b.compute(2);
    b.write(2, 1);
    b.waitGE(1, 5); // dominated too
    b.write(2, 2);
    exposed.init = {0, 0, 0};
    expectOneWalkMatchesStages(exposed, "elimination-exposes-merges");
}
