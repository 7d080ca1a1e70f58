/**
 * @file
 * Execution-trace dependence verifier.
 *
 * Records every tagged data access (statement, reference,
 * iteration, start/end ticks) during a simulation and afterwards
 * checks, for each dependence a scheme claims to enforce, that the
 * source access completed no later than the sink access started —
 * access-level checking, because the fine-grained data-oriented
 * schemes legitimately overlap other parts of the two statements.
 *
 * Covered (redundant) arcs are checked too: coverage elimination
 * is only correct if transitivity really delivers the ordering.
 * Instances whose source lies outside the iteration space (real
 * loop boundaries) and instances on untaken branch arms are
 * skipped, matching the semantics of the original loop.
 *
 * Records are indexed by (statement, reference) site, then by
 * iteration, in flat arrays: recording an access and checking an
 * instance index arrays instead of hashing.
 */

#ifndef PSYNC_CORE_TRACE_CHECK_HH
#define PSYNC_CORE_TRACE_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/value_rule.hh"
#include "dep/dependence.hh"
#include "dep/loop_ir.hh"
#include "sim/program.hh"

namespace psync {
namespace core {

/** Collects access events and verifies dependences post-run. */
class TraceChecker : public sim::TraceSink
{
  public:
    void access(std::uint32_t stmt, std::uint16_t ref,
                std::uint64_t iter, sim::Addr addr, bool is_write,
                sim::Tick start, sim::Tick end) override;

    /** Number of access records collected. */
    std::uint64_t numRecords() const { return numRecords_; }

    /**
     * Verify `deps` over the recorded trace of `loop`.
     * @return human-readable violation messages; empty = clean.
     */
    std::vector<std::string> verify(const dep::Loop &loop,
                                    const std::vector<dep::Dep> &deps,
                                    size_t max_messages = 16) const;

    /** Instances checked by the last verify() call. */
    std::uint64_t instancesChecked() const
    {
        return instancesChecked_;
    }

    void
    clear()
    {
        sites_.clear();
        numRecords_ = 0;
    }

  private:
    /** Span of one (stmt, ref, iter) instance's accesses. */
    struct Record
    {
        sim::Tick firstStart = sim::maxTick;
        sim::Tick lastEnd = 0;

        bool seen() const { return firstStart != sim::maxTick; }
    };

    /** The record of (stmt, ref, iter), or null if none was made. */
    const Record *find(std::uint32_t stmt, std::uint32_t ref,
                       std::uint64_t iter) const;

    /** sites_[stmt][ref][iter]. */
    std::vector<std::vector<std::vector<Record>>> sites_;
    std::uint64_t numRecords_ = 0;
    mutable std::uint64_t instancesChecked_ = 0;
};

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_TRACE_CHECK_HH
