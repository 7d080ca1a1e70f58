/**
 * @file
 * Trajectory files and the regression detector.
 *
 * A trajectory file (BENCH_PSYNC.json) is a schema-versioned JSON
 * document `{"schema_version": 9, "records": [...]}` (the version
 * is kTrajectorySchemaVersion, the only one the loader accepts)
 * with at most one record per scenario id — rewriting it on each
 * run and letting version control keep the history makes
 * per-change cycle trajectories diffable. Every tool that merges
 * records into a file opens it through openTrajectory(), so a file
 * that does not load is reported, never replaced. Comparing two
 * trajectory files classifies every scenario as regression /
 * improvement / unchanged / added / removed; any regression beyond
 * the threshold makes the comparison fail (non-zero exit status),
 * which is what the CI smoke job checks against the checked-in
 * bench/baseline.json.
 */

#ifndef PSYNC_BENCH_COMPARE_HH
#define PSYNC_BENCH_COMPARE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/json.hh"

namespace psync {
namespace bench {

/** Empty trajectory document (schema header, no records). */
core::json::Value makeTrajectoryDoc();

/**
 * Read and parse one JSON file. On failure prints why to stderr
 * and returns false.
 */
bool readJsonFile(const std::string &path, core::json::Value &out);

/**
 * Pretty-print `doc` to `path`. On failure prints why to stderr
 * and returns false.
 */
bool writeJsonFile(const std::string &path,
                   const core::json::Value &doc);

/**
 * Open the trajectory file at `path` for a merge. A missing file
 * opens as makeTrajectoryDoc(). An existing one must read, parse
 * and pass loadTrajectory(); its header is then cut to one
 * "schema_version" member in place, so merges never stack headers.
 * When the file exists but does not load, prints the reader's or
 * loader's error to stderr and returns false: the caller must
 * leave the file as it is and exit 2.
 */
bool openTrajectory(const std::string &path, core::json::Value &doc);

/**
 * Insert `record` into trajectory `doc`, replacing any existing
 * record with the same "scenario" id (appends otherwise).
 */
void mergeRecord(core::json::Value &doc, core::json::Value record);

/** Scenario-id -> cycles view of a trajectory document. */
struct Trajectory
{
    bool ok = false;
    std::string error;
    /** (scenario id, cycles), in document order. */
    std::vector<std::pair<std::string, std::uint64_t>> cycles;
};

/**
 * Validate a trajectory document and extract its cycle counts.
 * Rejects any schema version but kTrajectorySchemaVersion and
 * records without a scenario id or cycle count.
 */
Trajectory loadTrajectory(const core::json::Value &doc);

/** Comparison tunables. */
struct CompareOptions
{
    /**
     * Cycle increase (percent of baseline) beyond which a scenario
     * counts as regressed. Simulated cycles are deterministic, so
     * the default tolerance is tight.
     */
    double regressThresholdPct = 2.0;

    /**
     * Require bit-identical cycle counts: any difference — faster,
     * slower, or a scenario present on only one side — fails the
     * comparison. This is the `--exact` determinism gate: a sweep
     * run with `--jobs N` must reproduce the serial sweep exactly.
     */
    bool requireIdentical = false;
};

/** How one scenario moved between two trajectories. */
struct ScenarioDelta
{
    enum class Kind
    {
        regression,
        improvement,
        unchanged,
        /** Present only in the current trajectory. */
        added,
        /** Present only in the baseline. */
        removed,
    };

    std::string id;
    std::uint64_t baselineCycles = 0;
    std::uint64_t currentCycles = 0;
    /** Signed percent change from baseline (0 for added/removed). */
    double deltaPct = 0.0;
    Kind kind = Kind::unchanged;
};

/** Outcome of comparing two trajectories. */
struct CompareResult
{
    /** Current-trajectory order, with removed scenarios appended. */
    std::vector<ScenarioDelta> deltas;
    unsigned regressions = 0;
    unsigned improvements = 0;
    unsigned unchanged = 0;
    unsigned added = 0;
    unsigned removed = 0;

    /** True when no scenario regressed beyond the threshold. */
    bool ok() const { return regressions == 0; }
};

/**
 * Diff `current` against `baseline`. Both documents must pass
 * loadTrajectory; a malformed document yields a CompareResult with
 * one pseudo-delta carrying the error in `id` and `regressions`
 * forced non-zero so callers fail safe.
 */
CompareResult compareTrajectories(const core::json::Value &baseline,
                                  const core::json::Value &current,
                                  const CompareOptions &opts = {});

/** Aligned per-scenario table plus a verdict line. */
void printCompare(std::ostream &os, const CompareResult &result,
                  const CompareOptions &opts);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_COMPARE_HH
