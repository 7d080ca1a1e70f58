/**
 * @file
 * Statement-oriented scheme (section 3.2): one statement counter
 * (SC) per source statement, shared "horizontally" by all
 * instances of that statement across iterations.
 *
 * Advance(N): after process i completes source statement N, it
 * waits until SC[N] == i-1, then sets SC[N] = i — which serializes
 * the updates of each SC in iteration order; a process delayed in
 * one iteration stalls every later iteration's Advance.
 * Await(d, N): a sink waits until SC[N] >= i - d.
 *
 * This is the Alliant FX/8 concurrency-control-bus discipline the
 * paper contrasts the process-oriented scheme against.
 */

#ifndef PSYNC_SYNC_STATEMENT_ORIENTED_HH
#define PSYNC_SYNC_STATEMENT_ORIENTED_HH

#include <vector>

#include "sync/scheme.hh"

namespace psync {
namespace sync {

/** Advance/Await statement-counter scheme. */
class StatementOrientedScheme : public Scheme
{
  public:
    SchemeKind
    kind() const override
    {
        return SchemeKind::statementOriented;
    }

    SchemePlan plan(const dep::DepGraph &graph,
                    const dep::DataLayout &layout,
                    sim::SyncFabric &fabric,
                    const SchemeConfig &cfg) override;

    sim::Program emit(std::uint64_t lpid) const override;

    void classKey(std::uint64_t lpid,
                  std::vector<std::uint64_t> &key) const override;

    /** Statement counters required by the loop. */
    unsigned numScs() const { return numScs_; }

    /** Fabric variable of statement `stmt_idx`'s counter. */
    sim::SyncVarId
    scVarOf(unsigned stmt_idx) const
    {
        return scBase_ +
               static_cast<sim::SyncVarId>(scIndexOf_[stmt_idx]);
    }

    /** True if `stmt_idx` is a source statement. */
    bool
    isSource(unsigned stmt_idx) const
    {
        return scIndexOf_[stmt_idx] >= 0;
    }

  private:
    const dep::DepGraph *graph_ = nullptr;
    const dep::DataLayout *layout_ = nullptr;
    SchemeConfig cfg_;

    sim::SyncVarId scBase_ = 0;
    unsigned numScs_ = 0;
    /** SC index per statement; -1 when not a source. */
    std::vector<int> scIndexOf_;
    std::vector<std::vector<dep::Dep>> sinkDeps_;
};

} // namespace sync
} // namespace psync

#endif // PSYNC_SYNC_STATEMENT_ORIENTED_HH
