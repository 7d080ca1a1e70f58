/**
 * @file
 * Dependence graph with redundant-arc (coverage) elimination.
 *
 * Section 2 of the paper observes that enforcing S1->S3 and S3->S4
 * in Fig. 2.1 covers S1->S4: a chain of enforced arcs whose
 * distances sum to exactly the covered arc's distance orders the
 * same pair of statement instances, so the covered arc needs no
 * synchronization of its own. Program order within an iteration
 * contributes zero-distance edges to such chains.
 *
 * The exact-sum condition is the instance-safe one for Doacross
 * execution, where different iterations run concurrently and no
 * statement's instances are otherwise ordered across iterations:
 * an arc (a->b, d) is covered iff some other path from a to b has
 * total distance exactly d, because each hop (x->y, dx) orders
 * x(i) before y(i+dx) for every i and the orderings compose
 * instance to instance. Paths through branch-guarded statements are
 * not used: the intermediate may not execute (Example 3).
 */

#ifndef PSYNC_DEP_DEP_GRAPH_HH
#define PSYNC_DEP_DEP_GRAPH_HH

#include <string>
#include <vector>

#include "dep/dependence.hh"
#include "dep/loop_ir.hh"

namespace psync {
namespace dep {

/** A loop together with its analyzed dependences. */
class DepGraph
{
  public:
    /** Build the graph: analyze, then mark covered arcs. */
    DepGraph(const Loop &loop, bool eliminate_covered = true);

    const Loop &loop() const { return *loop_; }

    /** All dependences, covered ones included (marked). */
    const std::vector<Dep> &deps() const { return deps_; }

    /** Cross-iteration dependences that must be synchronized. */
    std::vector<Dep> enforced() const;

    /** All cross-iteration dependences (for trace verification). */
    std::vector<Dep> crossIteration() const;

    /** Number of covered (eliminated) arcs. */
    unsigned numCovered() const;

    /** Multi-line rendering of the full graph. */
    std::string toString() const;

  private:
    void markCovered();

    /**
     * True if a path from `src` to `dst` of linearized distance
     * exactly `dist` exists, excluding arc `skip`, arcs already
     * marked covered, and any path through a branch-guarded
     * intermediate statement.
     */
    bool pathOfDistance(unsigned src, unsigned dst, long dist,
                        size_t skip) const;

    const Loop *loop_;
    std::vector<Dep> deps_;
};

} // namespace dep
} // namespace psync

#endif // PSYNC_DEP_DEP_GRAPH_HH
