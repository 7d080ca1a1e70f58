/**
 * @file
 * Constant-distance data-dependence analysis (section 2.1).
 *
 * Flow (read-after-write), anti (write-after-read) and output
 * (write-after-write) dependences between statements are derived by
 * subtracting the affine subscript expressions of each pair of
 * references to the same array, exactly as the paper describes for
 * Fig. 2.1. Only constant distances are supported; a non-constant
 * pair is reported so callers can refuse to run the loop as a
 * Doacross.
 */

#ifndef PSYNC_DEP_DEPENDENCE_HH
#define PSYNC_DEP_DEPENDENCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dep/loop_ir.hh"

namespace psync {
namespace dep {

/** Kind of data dependence. */
enum class DepType : std::uint8_t
{
    flow,   ///< read after write
    anti,   ///< write after read
    output, ///< write after write
};

/** Printable dependence-type name. */
const char *depTypeName(DepType type);

/** One (possibly cross-iteration) data dependence between stmts. */
struct Dep
{
    /** Source statement index into Loop::body. */
    unsigned src = 0;
    /** Sink statement index into Loop::body. */
    unsigned dst = 0;
    DepType type = DepType::flow;
    /** Distance in the outer loop index. */
    long d1 = 0;
    /** Distance in the inner loop index (0 for depth-1 loops). */
    long d2 = 0;
    /** Array whose element carries the dependence. */
    std::string array;
    /** Index of the carrying reference within the source stmt. */
    unsigned srcRef = 0;
    /** Index of the carrying reference within the sink stmt. */
    unsigned dstRef = 0;
    /** Marked by coverage elimination (section 2, Fig. 2.1). */
    bool covered = false;

    /** True if the dependence crosses iterations. */
    bool
    crossIteration() const
    {
        return d1 != 0 || d2 != 0;
    }

    /** Distance after linearizing a depth-2 loop with inner trip M. */
    long
    linearDistance(long inner_trip) const
    {
        return d1 * inner_trip + d2;
    }
};

/** Result of analyzing one loop. */
struct DepAnalysis
{
    std::vector<Dep> deps;
    /**
     * Reference pairs whose distance is not a compile-time
     * constant (different coefficients or non-integral division).
     * Empty for every workload in this repository.
     */
    std::vector<std::string> nonConstantPairs;
};

/**
 * Analyze all reference pairs of `loop` and return its dependences.
 * Duplicate (src, dst, type, d1, d2) tuples are merged. Intra-
 * iteration dependences (distance 0) are included with d1 = d2 = 0
 * and directed by program order; same-statement zero-distance pairs
 * are dropped.
 */
DepAnalysis analyze(const Loop &loop);

/** Human-readable one-line rendering, e.g. "flow S1->S2 d=(2)". */
std::string depToString(const Loop &loop, const Dep &dep);

} // namespace dep
} // namespace psync

#endif // PSYNC_DEP_DEPENDENCE_HH
