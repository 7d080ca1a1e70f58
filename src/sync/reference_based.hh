/**
 * @file
 * Data-oriented, reference-based scheme (section 3.1, Fig. 3.1a).
 *
 * Every array element on which an access order must be enforced
 * carries a dedicated key, stored with the datum (so key traffic is
 * memory traffic). Each access is compiled with its order number N
 * in the element's sequential access sequence: it waits until
 * key >= N, performs the access, and increments the key. Runs of
 * consecutive reads share one order number so independent fetches
 * may proceed in parallel — the property Fig. 3.1a illustrates with
 * S2 and S3.
 *
 * The scheme is exact at loop boundaries of nested loops (an
 * element accessed fewer times simply has smaller order numbers),
 * but pays the paper's O(r*d)-per-iteration boundary-checking
 * overhead to achieve that, plus one key per element and the
 * initialization sweep over all keys.
 */

#ifndef PSYNC_SYNC_REFERENCE_BASED_HH
#define PSYNC_SYNC_REFERENCE_BASED_HH

#include <vector>

#include "sync/scheme.hh"

namespace psync {
namespace sync {

/** Key-per-datum scheme with access order numbers. */
class ReferenceBasedScheme : public Scheme
{
  public:
    SchemeKind
    kind() const override
    {
        return SchemeKind::referenceBased;
    }

    SchemePlan plan(const dep::DepGraph &graph,
                    const dep::DataLayout &layout,
                    sim::SyncFabric &fabric,
                    const SchemeConfig &cfg) override;

    sim::Program emit(std::uint64_t lpid) const override;

    void classKey(std::uint64_t lpid,
                  std::vector<std::uint64_t> &key) const override;

    /** Order number of (iteration, statement, ref); tests only. */
    sim::SyncWord orderOf(std::uint64_t lpid, unsigned stmt_idx,
                          unsigned ref_idx) const;

    /** Key variable of the element `ref` touches at (i, j). */
    sim::SyncVarId
    keyOf(const dep::ArrayRef &ref, long i, long j) const
    {
        return keyBase_ + static_cast<sim::SyncVarId>(
            layout_->globalOrdinal(ref, i, j));
    }

  private:
    const dep::DepGraph *graph_ = nullptr;
    const dep::DataLayout *layout_ = nullptr;
    SchemeConfig cfg_;

    sim::SyncVarId keyBase_ = 0;

    /**
     * Order numbers, one row of slotsPerIter_ entries per iteration
     * (row lpid-1), one entry per (stmt, ref) in static order
     * (inactive statements get entries too, left 0).
     */
    std::vector<sim::SyncWord> orders_;
    /** Flat (stmt, ref) slot of a reference. */
    std::vector<std::vector<unsigned>> refSlot_;
    unsigned slotsPerIter_ = 0;

    /** Extra per-iteration compute for boundary checks. */
    sim::Tick boundaryCost_ = 0;
};

} // namespace sync
} // namespace psync

#endif // PSYNC_SYNC_REFERENCE_BASED_HH
