/**
 * @file
 * Common interface of the data-synchronization schemes.
 *
 * The paper classifies schemes by how synchronization variables are
 * used (section 3) and proposes the process-oriented scheme
 * (section 4):
 *
 *  - data-oriented / reference-based: one key per datum, access
 *    order numbers checked against the key (Cedar style);
 *  - data-oriented / instance-based: one full/empty key (and one
 *    storage location) per *value instance* after renaming (HEP
 *    style);
 *  - statement-oriented: one statement counter per source
 *    statement, Advance/Await (Alliant FX/8 style);
 *  - process-oriented: one process counter per iteration, folded
 *    onto X hardware counters — the paper's contribution, in both
 *    the basic (Fig. 4.2) and improved (Fig. 4.3) primitive sets.
 *
 * A scheme is planned once for a (loop, dependence graph, machine)
 * triple — allocating its synchronization variables on the
 * machine's fabric and precomputing whatever order numbers it needs
 * — and then emits one straight-line Program per iteration. emit()
 * is the one definition of an iteration's program; classKey() names
 * the tests emit() branches on, so the planner emits only a few
 * members per iteration class (ir::lowerPool).
 */

#ifndef PSYNC_SYNC_SCHEME_HH
#define PSYNC_SYNC_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "dep/dep_graph.hh"
#include "dep/loop_ir.hh"
#include "ir/pool.hh"
#include "sim/program.hh"
#include "sim/sync_fabric.hh"

namespace psync {
namespace sync {

/** The scheme taxonomy of sections 3 and 4. */
enum class SchemeKind
{
    /** No synchronization: sequential or Doall baseline. */
    none,
    /** Data-oriented, reference-based (keys, Fig. 3.1a). */
    referenceBased,
    /** Data-oriented, instance-based (full/empty, Fig. 3.1b). */
    instanceBased,
    /** Statement counters, Advance/Await (Fig. 3.2). */
    statementOriented,
    /** Process counters, basic primitives (Fig. 4.2). */
    processBasic,
    /** Process counters, improved primitives (Fig. 4.3). */
    processImproved,
};

/** Short printable name of a scheme kind. */
const char *schemeKindName(SchemeKind kind);

/** Tunables shared by the schemes. */
struct SchemeConfig
{
    /** X: hardware process counters for folding (section 4). */
    unsigned numPcs = 16;

    /** Statement counters available (Alliant had a small file). */
    unsigned numScs = 256;

    /**
     * Per-reference, per-nest-depth compute cycles data-oriented
     * schemes spend testing loop boundaries in nested loops
     * (the O(r*d) overhead of section 5, Example 2).
     */
    sim::Tick boundaryCheckCost = 2;

    /**
     * Process/statement schemes on nested loops: test loop
     * boundaries in software and skip the waits linearization
     * manufactures (Fig. 5.2, dashed arcs), paying the same
     * O(r*d)-per-iteration check the data-oriented schemes pay.
     * Off (the paper's choice) enforces the extra arcs instead:
     * "some parallelism may be lost from these extra dependences,
     * but the complexity of detecting boundaries is avoided."
     */
    bool exactBoundaries = false;

    /**
     * Reference-based scheme only: combine the key test, data
     * access and key increment into one memory-module request
     * serviced by a Cedar-style synchronization processor
     * (section 3.1, [26]) instead of a wait / access / increment
     * transaction triple.
     */
    bool cedarCombining = false;

    /**
     * Emit signals of branch-untaken sources as early as possible
     * (the Fig. 5.3 placement); when false they are deferred to
     * the end of the iteration, the naive placement E7 compares
     * against.
     */
    bool earlyBranchSignals = true;

    /**
     * Optional trace log: schemes label the synchronization
     * variables they allocate ("pc[i]", "sc[i]", "key[i]") so trace
     * reports read in source terms. Not owned.
     */
    sim::TraceLog *tracer = nullptr;
};

/** Static characteristics of a planned scheme (benches report). */
struct SchemePlan
{
    /** Synchronization variables allocated. */
    std::uint64_t numSyncVars = 0;

    /** Bytes of synchronization state (keys, counters). */
    std::uint64_t syncStorageBytes = 0;

    /** Extra data storage for renamed instances (instance-based). */
    std::uint64_t renamedStorageBytes = 0;

    /** Writes needed to initialize the synchronization state. */
    std::uint64_t initWrites = 0;

    /**
     * Dependences the scheme guarantees; the trace checker
     * verifies exactly these after a run.
     */
    std::vector<dep::Dep> depsVerified;
};

/** A data-synchronization scheme (strategy object). */
class Scheme : public ir::IterationSource
{
  public:

    virtual SchemeKind kind() const = 0;

    /** Short name for tables ("process-basic", "reference", ...). */
    std::string name() const { return schemeKindName(kind()); }

    /**
     * Allocate synchronization variables on `fabric` and precompute
     * per-iteration emission state for `graph`'s loop.
     * Must be called exactly once per scheme instance.
     */
    virtual SchemePlan plan(const dep::DepGraph &graph,
                            const dep::DataLayout &layout,
                            sim::SyncFabric &fabric,
                            const SchemeConfig &cfg) = 0;

    /** Emit the transformed program of iteration `lpid` (1-based). */
    sim::Program emit(std::uint64_t lpid) const override = 0;

    /**
     * Every test emit(lpid) branches on (see IterationSource). Each
     * scheme's key includes loopClassKey()'s words.
     */
    void classKey(std::uint64_t lpid,
                  std::vector<std::uint64_t> &key) const override = 0;

    /**
     * Append the address regions of renamed storage, beyond the
     * layout's in-place arrays; none by default.
     */
    virtual void
    addRenamedRegions(ir::DataImage &image) const
    {
        (void)image;
    }

  protected:

    /**
     * Upper bound on the ops of one iteration's program, computed
     * by plan() so that emit() reserves it once and the program's
     * op vector never regrows.
     */
    std::size_t maxOpsPerIter_ = 0;

    /** An empty program of iteration `lpid`, maxOpsPerIter_ reserved. */
    sim::Program
    newProgram(std::uint64_t lpid) const
    {
        sim::Program prog;
        prog.iter = lpid;
        prog.ops.reserve(maxOpsPerIter_);
        return prog;
    }
};

/** Factory over the taxonomy. */
std::unique_ptr<Scheme> makeScheme(SchemeKind kind);

/** All kinds that actually synchronize (for sweeps). */
std::vector<SchemeKind> allSyncSchemes();

/**
 * Shared emission helper: append the body of statement `stmt_idx`
 * of `loop` at iteration (i, j) — reads, compute, writes — wrapped
 * in stmtStart/stmtEnd markers. Used by every scheme. Emits through
 * the IR builder so every op carries a stable id.
 */
void emitStatementBody(const dep::Loop &loop, unsigned stmt_idx,
                       long i, long j, const dep::DataLayout &layout,
                       ir::ProgramBuilder &out);

/**
 * Packs key bits into whole words; the last, partial word is pushed
 * on destruction. Words do not record how many bits they hold, so a
 * scheme must push the same number of bits for every iteration.
 */
class KeyBits
{
  public:
    explicit KeyBits(std::vector<std::uint64_t> &key) : key_(key) {}
    ~KeyBits()
    {
        if (used_ != 0)
            key_.push_back(word_);
    }
    KeyBits(const KeyBits &) = delete;
    KeyBits &operator=(const KeyBits &) = delete;

    void
    push(bool bit)
    {
        word_ |= static_cast<std::uint64_t>(bit) << used_;
        if (++used_ == 64) {
            key_.push_back(word_);
            word_ = 0;
            used_ = 0;
        }
    }

  private:
    std::vector<std::uint64_t> &key_;
    std::uint64_t word_ = 0;
    unsigned used_ = 0;
};

/**
 * The class-key words every scheme shares: the column of a nest
 * (its addresses are affine in the outer index only within one
 * column), then one bit per guarded statement, set when it runs in
 * iteration `lpid`.
 */
void loopClassKey(const dep::Loop &loop, std::uint64_t lpid,
                  std::vector<std::uint64_t> &key);

/**
 * The class key of the statement- and process-counter schemes:
 * loopClassKey(), then for each enforced incoming arc `sink_deps[s]`
 * of a running statement, of positive linear distance, whether the
 * source precedes iteration 1 and (exact boundaries) whether its
 * indices fall outside the loop. Both schemes skip a sink wait on
 * exactly these tests.
 */
void counterSinkKey(const dep::Loop &loop,
                    const std::vector<std::vector<dep::Dep>> &sink_deps,
                    bool exact_boundaries, std::uint64_t lpid,
                    std::vector<std::uint64_t> &key);

/** Ops emitStatementBody appends for `stmt`, at most. */
inline std::size_t
statementBodyOps(const dep::Statement &stmt)
{
    // stmtStart, one access per reference, compute, stmtEnd.
    return stmt.refs.size() + 3;
}

} // namespace sync
} // namespace psync

#endif // PSYNC_SYNC_SCHEME_HH
