/**
 * @file
 * Native Doacross runner: the native backend's counterpart of
 * core::runDoacross.
 *
 * Planning is byte-identical to the simulator path — the same
 * core::planDoacross produces the scheme plan and iteration pool
 * against a planning-only sim fabric — then the variables are
 * mirrored onto a NativeSyncFabric and the iterations execute on
 * real threads. Afterwards the timestamped access log is replayed
 * into the same core::TraceChecker the simulator uses, and every
 * read value is checked against a functional replay, so a native
 * run is held to exactly the dependences the scheme claims.
 */

#ifndef PSYNC_NATIVE_RUNNER_HH
#define PSYNC_NATIVE_RUNNER_HH

#include <map>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "native/executor.hh"
#include "sync/scheme.hh"

namespace psync {
namespace native {

/** Outcome of one native Doacross run. */
struct NativeDoacrossResult
{
    sync::SchemePlan plan;
    NativeRunResult run;
    /** TraceChecker violations on the native log (empty = clean). */
    std::vector<std::string> violations;
    std::uint64_t instancesChecked = 0;
    /** Read-value divergences from the ticket-ordered replay. */
    std::vector<std::string> valueMismatches;
    /**
     * Final written-memory image under the value rule; compare
     * against the ValueTrace image of a simulated run of the same
     * loop+scheme for backend cross-validation.
     */
    std::map<sim::Addr, std::uint64_t> memory;
    /** Per-read observed values keyed by core::accessKey. */
    std::map<std::uint64_t, std::uint64_t> reads;

    bool
    correct() const
    {
        return run.completed && run.errors.empty() &&
               violations.empty() && valueMismatches.empty();
    }
};

/**
 * Plan `kind` for `loop` (same rules and machine shape as
 * core::runDoacross under `cfg`), execute natively under `ncfg`,
 * dispatched by `cfg.schedule`, verify, and report. `cfg.checkTrace` gates the checker replay the
 * same way it gates simulator trace checking.
 */
NativeDoacrossResult runDoacrossNative(const dep::Loop &loop,
                                       sync::SchemeKind kind,
                                       const core::RunConfig &cfg,
                                       const NativeConfig &ncfg);

} // namespace native
} // namespace psync

#endif // PSYNC_NATIVE_RUNNER_HH
