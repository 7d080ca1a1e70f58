/**
 * @file
 * Data-oriented, instance-based scheme (section 3.1, Fig. 3.1b).
 *
 * Every updated value is renamed to a fresh location guarded by a
 * full/empty key, as on the Denelcor HEP: the program becomes
 * single-assignment, so anti- and output dependences vanish and
 * only flow dependences synchronize. A value consumed by N readers
 * is written as N copies with N keys ("write N copies of data; set
 * all keys to full") so reads proceed fully in parallel.
 *
 * The price is the paper's criticism of the class: storage and
 * key-initialization cost proportional to the *dynamic* number of
 * updates, not to the loop's variable count.
 *
 * Renamed copies are never copied back to the original arrays; the
 * reproduction measures synchronization behaviour, not final
 * memory images. Branch-guarded loops are rejected: resolving
 * which renamed instance reaches a conditional read requires the
 * reaching-definitions machinery of a full functional-language
 * compiler, which the paper does not claim for this class.
 */

#ifndef PSYNC_SYNC_INSTANCE_BASED_HH
#define PSYNC_SYNC_INSTANCE_BASED_HH

#include <vector>

#include "sync/scheme.hh"

namespace psync {
namespace sync {

/** Full/empty-bit scheme over renamed single-assignment storage. */
class InstanceBasedScheme : public Scheme
{
  public:
    SchemeKind kind() const override
    {
        return SchemeKind::instanceBased;
    }

    SchemePlan plan(const dep::DepGraph &graph,
                    const dep::DataLayout &layout,
                    sim::SyncFabric &fabric,
                    const SchemeConfig &cfg) override;

    sim::Program emit(std::uint64_t lpid) const override;

    void classKey(std::uint64_t lpid,
                  std::vector<std::uint64_t> &key) const override;

    /** The renamed copies: copiesPerIter_ words per iteration. */
    void addRenamedRegions(ir::DataImage &image) const override;

    /** Copies written per instance of write slot `slot`. */
    unsigned copiesOfSlot(unsigned slot) const
    {
        return writeSlots_[slot].copies;
    }

  private:
    /** A static write reference: one renamed instance per iter. */
    struct WriteSlot
    {
        unsigned stmt = 0;
        unsigned ref = 0;
        /** Flow deps consuming this slot's value, reader order. */
        std::vector<dep::Dep> readers;
        /** Data copies written (max(1, #readers)). */
        unsigned copies = 1;
        /** Keys (one per reader). */
        unsigned keys = 0;
        /** Offset of this slot's first key within an iteration. */
        unsigned keyOffset = 0;
        /** Offset of this slot's first copy within an iteration. */
        unsigned copyOffset = 0;
    };

    /**
     * One candidate producer of a read, in reaching-definition
     * priority order (nearest distance first; on ties the textually
     * later write). The producer that actually reaches a given
     * instance is the first candidate whose source indices are in
     * bounds there (dep::sinkHasSource) — at loop boundaries the
     * nearest arc can fall outside the iteration space while a
     * farther one still lands inside it.
     */
    struct ReadSource
    {
        long distance = 0;       ///< linearized
        unsigned slot = 0;       ///< producing write slot
        unsigned readerIndex = 0;///< which key/copy of the slot
        dep::Dep dep;            ///< the candidate flow dependence
    };

    /**
     * Producer candidate of read (stmt, ref) reaching iteration
     * `lpid`: the first whose source indices are in bounds, or null
     * when the read sees the original element.
     */
    const ReadSource *sourceOf(unsigned stmt, unsigned ref,
                               std::uint64_t lpid) const;

    sim::SyncVarId keyVarOf(std::uint64_t writer_lpid, unsigned slot,
                            unsigned reader_index) const;
    sim::Addr copyAddrOf(std::uint64_t writer_lpid, unsigned slot,
                         unsigned reader_index) const;

    const dep::DepGraph *graph_ = nullptr;
    const dep::DataLayout *layout_ = nullptr;
    SchemeConfig cfg_;

    std::vector<WriteSlot> writeSlots_;
    /** Write slot of (stmt, ref); -1 when not a write. */
    std::vector<std::vector<int>> slotOf_;
    /** Producer candidates of read (stmt, ref), priority order. */
    std::vector<std::vector<std::vector<ReadSource>>> readSrc_;

    sim::SyncVarId keyBase_ = 0;
    unsigned keysPerIter_ = 0;
    unsigned copiesPerIter_ = 0;
    sim::Addr copyRegionBase_ = 0;
    std::uint64_t iterations_ = 0;
};

} // namespace sync
} // namespace psync

#endif // PSYNC_SYNC_INSTANCE_BASED_HH
