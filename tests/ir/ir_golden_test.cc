/**
 * @file
 * Golden snapshots of the lowered IR.
 *
 * Each of the six SchemeKinds lowers the Fig. 2.1 loop (N=4, 4
 * processors) with the pass pipeline disabled, and the disassembly
 * (with stable op ids) must match the checked-in text under
 * tests/ir/golden/. A diff here means the lowering changed — which
 * is sometimes intended (update the snapshot), but never silently:
 * the lowered IR is the contract between the schemes and both
 * executors.
 *
 * Regenerate after an intentional change with:
 *   PSYNC_UPDATE_GOLDEN=1 ./build/tests/ir_golden_test
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runtime.hh"
#include "ir/program.hh"
#include "sim/machine.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

/** Disassemble the raw (passes-disabled) lowering of fig-2.1. */
std::string
lowerFig21(sync::SchemeKind kind)
{
    dep::Loop loop = workloads::makeFig21Loop(4);
    core::RunConfig cfg;
    cfg.machine.numProcs = 4;
    cfg.machine.fabric =
        (kind == sync::SchemeKind::referenceBased ||
         kind == sync::SchemeKind::instanceBased)
            ? sim::FabricKind::memory
            : sim::FabricKind::registers;
    cfg.machine.syncRegisters = 4096;
    cfg.scheme.numPcs = 16;
    cfg.passes.enabled = false;
    sim::Machine machine(cfg.machine);
    core::PlannedDoacross planned =
        core::planDoacross(loop, kind, cfg, machine.fabric());

    std::string text;
    for (std::size_t i = 0; i < planned.pool.size(); ++i)
        text += ir::disassemble(planned.pool.program(i),
                                /*with_ids=*/true);
    return text;
}

std::string
goldenPath(sync::SchemeKind kind)
{
    return std::string(PSYNC_IR_GOLDEN_DIR) + "/" +
           sync::schemeKindName(kind) + ".txt";
}

void
checkGolden(sync::SchemeKind kind)
{
    std::string actual = lowerFig21(kind);
    std::string path = goldenPath(kind);

    if (std::getenv("PSYNC_UPDATE_GOLDEN")) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << actual;
        return;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden file " << path
        << " (run with PSYNC_UPDATE_GOLDEN=1 to create it)";
    std::ostringstream expected;
    expected << is.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "lowered IR for " << sync::schemeKindName(kind)
        << " diverged from " << path
        << " (rerun with PSYNC_UPDATE_GOLDEN=1 if intended)";
}

} // namespace

TEST(IrGoldenTest, None)
{
    checkGolden(sync::SchemeKind::none);
}

TEST(IrGoldenTest, ReferenceBased)
{
    checkGolden(sync::SchemeKind::referenceBased);
}

TEST(IrGoldenTest, InstanceBased)
{
    checkGolden(sync::SchemeKind::instanceBased);
}

TEST(IrGoldenTest, StatementOriented)
{
    checkGolden(sync::SchemeKind::statementOriented);
}

TEST(IrGoldenTest, ProcessBasic)
{
    checkGolden(sync::SchemeKind::processBasic);
}

TEST(IrGoldenTest, ProcessImproved)
{
    checkGolden(sync::SchemeKind::processImproved);
}
