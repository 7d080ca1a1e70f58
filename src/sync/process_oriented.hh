/**
 * @file
 * The process-oriented synchronization scheme — the paper's
 * contribution (section 4).
 *
 * Each iteration (process) owns one process counter PC =
 * <owner, step>, folded onto X hardware counters so that processes
 * i, X+i, 2X+i, ... share PC[i mod X]. The step advances after each
 * completed source statement; sinks spin on the source process's
 * PC. Two primitive sets are provided:
 *
 *  - basic (Fig. 4.2): get_PC / set_PC / release_PC / wait_PC —
 *    a process must acquire its PC before the first set;
 *  - improved (Fig. 4.3): load_index / mark_PC / transfer_PC — a
 *    mark proceeds without waiting when the PC has not been
 *    transferred yet; only the final transfer may block.
 */

#ifndef PSYNC_SYNC_PROCESS_ORIENTED_HH
#define PSYNC_SYNC_PROCESS_ORIENTED_HH

#include <vector>

#include "sync/scheme.hh"

namespace psync {
namespace sync {

/** Process-counter scheme, basic or improved primitives. */
class ProcessOrientedScheme : public Scheme
{
  public:
    explicit ProcessOrientedScheme(bool improved)
        : improved_(improved)
    {}

    SchemeKind
    kind() const override
    {
        return improved_ ? SchemeKind::processImproved
                         : SchemeKind::processBasic;
    }

    SchemePlan plan(const dep::DepGraph &graph,
                    const dep::DataLayout &layout,
                    sim::SyncFabric &fabric,
                    const SchemeConfig &cfg) override;

    sim::Program emit(std::uint64_t lpid) const override;

    void classKey(std::uint64_t lpid,
                  std::vector<std::uint64_t> &key) const override;

    /** X, the number of hardware PCs in use. */
    unsigned numPcs() const { return numPcs_; }

    /** Step number of a source statement (0 = not a source). */
    unsigned stepOf(unsigned stmt_idx) const
    {
        return stepOf_[stmt_idx];
    }

    /** Fabric variable holding the PC of process `lpid`. */
    sim::SyncVarId
    pcVarOf(std::uint64_t lpid) const
    {
        return pcBase_ + static_cast<sim::SyncVarId>(lpid % numPcs_);
    }

  private:
    bool improved_;
    const dep::DepGraph *graph_ = nullptr;
    const dep::DataLayout *layout_ = nullptr;
    SchemeConfig cfg_;

    sim::SyncVarId pcBase_ = 0;
    unsigned numPcs_ = 1;
    /** Step per statement; 0 when the statement is not a source. */
    std::vector<unsigned> stepOf_;
    /** Index of the last source statement (owns release/transfer). */
    unsigned lastSource_ = 0;
    bool hasSources_ = false;
    /** Enforced incoming deps per sink statement. */
    std::vector<std::vector<dep::Dep>> sinkDeps_;
};

} // namespace sync
} // namespace psync

#endif // PSYNC_SYNC_PROCESS_ORIENTED_HH
