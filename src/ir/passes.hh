/**
 * @file
 * Pass pipeline over lowered synchronization IR.
 *
 * Schemes lower a (dep::Loop, DepGraph) pair into ir::Programs;
 * before either executor consumes them, core::planDoacross runs
 * this pipeline:
 *
 *  1. redundant-wait elimination (opt-in): delete sync_wait_ge ops
 *     whose threshold is already established by an earlier op of
 *     the *same* program — the IR-level image of transitive
 *     reduction over cross-iteration dependence arcs, including
 *     the arcs manufactured by linearizing nested loops (Fig. 5.2
 *     dashed arcs).
 *  2. peephole (opt-in): merge adjacent compute delays and adjacent
 *     monotone set_PC/release writes to the same variable.
 *  3. verifier (on by default): every wait-like op must have a
 *     dominating signal source — some combination of initial
 *     values, writes and increments across the whole plan that can
 *     reach its threshold. A scheme bug that emits a wait nobody
 *     can satisfy is rejected at plan time instead of deadlocking
 *     the run.
 *
 * The planner runs the two transforms once per iteration class
 * (lowerPool): it emits a class's first two members, takes each
 * through elimination and peephole, and fits the class body's
 * slopes to the two results. The transforms decide alike at every
 * member when the ops on one variable keep that variable and shift
 * their values together across the class; a class that fails that
 * test, or whose two members differ in shape, is split into
 * one-member classes. PassStats counts every iteration, and the
 * verifier folds its reach over every iteration's instantiated
 * ops, so statistics and errors (text and order) equal running the
 * pipeline over every emitted program.
 *
 * runPasses does the latter over a program vector in one walk:
 * each program goes through elimination, then peephole (both
 * compact its ops in place), then is folded into the op/wait counts
 * and the verifier's per-variable reach while its ops are still in
 * cache; a second loop checks every wait threshold against the
 * finished table.
 *
 * Soundness of elimination rests on two global invariants every
 * scheme maintains: synchronization variables are monotone
 * non-decreasing, and waits use >= semantics. An earlier op in the
 * same program that establishes var >= T' >= T therefore implies
 * the deleted wait would complete instantly AND the happens-before
 * edge it enforced is already enforced (the establishing op could
 * itself only complete after the signal source ran). pc_mark is a
 * conditional write (skipped when the PC is not yet owned), so it
 * never establishes a bound.
 *
 * With PassConfig::enabled == false the pipeline is a no-op and
 * the lowered IR reaches the executors byte-identical to the
 * scheme's raw emission — the bit-exactness baseline every
 * equivalence and cross-validation suite pins.
 */

#ifndef PSYNC_IR_PASSES_HH
#define PSYNC_IR_PASSES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/pool.hh"
#include "ir/program.hh"

namespace psync {
namespace ir {

/** Which passes run in core::planDoacross. */
struct PassConfig
{
    /** Master switch; false = lowered IR passes through untouched. */
    bool enabled = true;
    /** Structural verifier (plan aborts on a failure upstream). */
    bool verify = true;
    /** Delete waits dominated by earlier same-program ops. */
    bool eliminateRedundantWaits = false;
    /** Merge adjacent computes / monotone writes to one variable. */
    bool peephole = false;
};

/** Aggregate effect of one pipeline run (bench schema v4 fields). */
struct PassStats
{
    std::uint64_t opsBefore = 0;
    std::uint64_t opsAfter = 0;
    /** sync_wait_ge ops across all programs, before/after. */
    std::uint64_t waitsBefore = 0;
    std::uint64_t waitsAfter = 0;
    std::uint64_t waitsEliminated = 0;
    std::uint64_t opsMerged = 0;
    /** True iff the verifier ran and found no errors. */
    bool verified = false;
    std::vector<std::string> verifierErrors;
};

/**
 * Initial value of a sync variable at plan time (the fabric's
 * instantaneous peek, after the scheme's init writes).
 */
using InitValueFn = std::function<SyncWord(SyncVarId)>;

/**
 * Check that every wait-like op (sync_wait_ge threshold,
 * pc_transfer ownership threshold, keyed-access key threshold) can
 * be satisfied by the plan as a whole: for each variable the
 * maximum reachable value is max(initial value, any written value)
 * plus the number of increments (fetch&inc, keyed accesses,
 * barrier arrivals) any program performs on it. Returns one
 * human-readable error per unsatisfiable wait (empty = verified).
 */
std::vector<std::string>
verifyPrograms(const std::vector<Program> &programs,
               const InitValueFn &init_value);

/** verifyPrograms over every iteration of a pool. */
std::vector<std::string> verifyPool(const IterationPool &pool,
                                    const InitValueFn &init_value);

/**
 * Delete sync_wait_ge ops whose threshold is already established
 * by earlier ops of the same program (see file comment for the
 * soundness argument). Kept ops are compacted in place, without
 * allocating. Returns the number of ops deleted.
 */
std::uint64_t eliminateRedundantWaits(Program &program);

/**
 * Merge adjacent compute ops (exact: compute is a pure delay) and
 * adjacent sync_write ops to the same variable when the later
 * value supersedes the earlier (monotone release coalescing).
 * Compacts in place, without allocating. Returns the number of ops
 * merged away.
 */
std::uint64_t peephole(Program &program);

/**
 * Run the configured pipeline in place over a lowered program set,
 * in one walk (see the file comment). The verifier checks the
 * transformed programs. Callers decide how to surface
 * verifierErrors (the planner treats any as fatal).
 */
PassStats runPasses(std::vector<Program> &programs,
                    const PassConfig &config,
                    const InitValueFn &init_value);

/**
 * Lower `iterations` iterations of `source` into a pool and run the
 * configured pipeline per class body (see the file comment). Fills
 * `stats` with what runPasses over every emitted program would
 * report. `divisor` is the loop's inner trip count (1 for a flat
 * loop): the coordinate of lpid is (lpid - 1) / divisor.
 */
IterationPool lowerPool(const IterationSource &source,
                        std::uint64_t iterations,
                        std::uint64_t divisor, const PassConfig &config,
                        const InitValueFn &init_value,
                        PassStats &stats);

} // namespace ir
} // namespace psync

#endif // PSYNC_IR_PASSES_HH
