#include "dep/dependence.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "sim/logging.hh"

namespace psync {
namespace dep {

const char *
depTypeName(DepType type)
{
    switch (type) {
      case DepType::flow:   return "flow";
      case DepType::anti:   return "anti";
      case DepType::output: return "output";
    }
    return "unknown";
}

namespace {

/**
 * Solve coeff * D = (oa - ob) for the iteration-distance vector D
 * between two references with matching coefficients. Returns
 * nullopt when the distance is not a compile-time constant.
 */
std::optional<std::pair<long, long>>
distanceVector(const ArrayRef &ra, const ArrayRef &rb, int depth)
{
    if (ra.subs.size() != rb.subs.size())
        return std::nullopt;

    std::optional<long> di, dj;
    for (size_t d = 0; d < ra.subs.size(); ++d) {
        const Subscript &sa = ra.subs[d];
        const Subscript &sb = rb.subs[d];
        if (sa.coeffI != sb.coeffI || sa.coeffJ != sb.coeffJ)
            return std::nullopt;
        long delta = sa.offset - sb.offset;
        if (sa.coeffI != 0 && sa.coeffJ == 0) {
            if (delta % sa.coeffI != 0)
                return std::nullopt;
            long v = delta / sa.coeffI;
            if (di && *di != v)
                return std::nullopt;
            di = v;
        } else if (sa.coeffI == 0 && sa.coeffJ != 0) {
            if (delta % sa.coeffJ != 0)
                return std::nullopt;
            long v = delta / sa.coeffJ;
            if (dj && *dj != v)
                return std::nullopt;
            dj = v;
        } else if (sa.coeffI == 0 && sa.coeffJ == 0) {
            // Constant subscript: the elements conflict only when
            // the offsets are equal; a mismatch means no dependence
            // at all, signalled with a sentinel.
            if (delta != 0) {
                return std::pair<long, long>{
                    std::numeric_limits<long>::max(),
                    std::numeric_limits<long>::max()};
            }
        } else {
            // Coupled subscript (both indices in one dimension):
            // out of scope for constant-distance analysis.
            return std::nullopt;
        }
    }

    // An index that no subscript constrains means the same element
    // conflicts at *every* value of that index — the dependence
    // distance is not a constant (e.g. a scalar or A[J] under a
    // doubly nested loop).
    if (!di)
        return std::nullopt;
    if (!dj) {
        if (depth == 2)
            return std::nullopt;
        dj = 0;
    }
    return std::pair<long, long>{*di, *dj};
}

bool
lexPositive(long d1, long d2)
{
    return d1 > 0 || (d1 == 0 && d2 > 0);
}

} // namespace

DepAnalysis
analyze(const Loop &loop)
{
    DepAnalysis result;
    std::map<std::tuple<unsigned, unsigned, unsigned, int, long,
                        long, std::string>, size_t> seen;

    auto add = [&](unsigned src, unsigned dst, DepType type, long d1,
                   long d2, const std::string &array, unsigned src_ref,
                   unsigned dst_ref) {
        // The sink reference is part of a dependence's identity: a
        // statement that reads the same element through two
        // references owes a value to each of them (renaming schemes
        // resolve reads per reference). Source references with the
        // same everything-else are collapsed below instead.
        auto key = std::make_tuple(src, dst, dst_ref,
                                   static_cast<int>(type), d1, d2,
                                   array);
        auto it = seen.find(key);
        if (it != seen.end()) {
            // Same sink through another source reference. Keep the
            // highest source reference index: within a statement
            // instance writes execute in reference order, so for a
            // flow dependence the textually last write of the
            // element is the one whose value actually reaches the
            // sink (statement-granularity schemes are indifferent
            // to the choice).
            Dep &existing = result.deps[it->second];
            existing.srcRef = std::max(existing.srcRef, src_ref);
            return;
        }
        seen.emplace(key, result.deps.size());
        Dep dep;
        dep.src = src;
        dep.dst = dst;
        dep.type = type;
        dep.d1 = d1;
        dep.d2 = d2;
        dep.array = array;
        dep.srcRef = src_ref;
        dep.dstRef = dst_ref;
        result.deps.push_back(dep);
    };

    const auto &body = loop.body;
    for (unsigned a = 0; a < body.size(); ++a) {
        for (unsigned b = a; b < body.size(); ++b) {
            for (unsigned ia = 0; ia < body[a].refs.size(); ++ia) {
                for (unsigned ib = 0; ib < body[b].refs.size(); ++ib) {
                    const ArrayRef &ra = body[a].refs[ia];
                    const ArrayRef &rb = body[b].refs[ib];
                    if (ra.array != rb.array)
                        continue;
                    if (!ra.isWrite && !rb.isWrite)
                        continue;
                    auto dv = distanceVector(ra, rb, loop.depth);
                    if (!dv) {
                        result.nonConstantPairs.push_back(
                            body[a].label + "/" + body[b].label + ":" +
                            ra.array);
                        continue;
                    }
                    auto [d1, d2] = *dv;
                    if (d1 == std::numeric_limits<long>::max())
                        continue; // disjoint constant elements

                    unsigned src = a, dst = b;
                    unsigned src_ref = ia, dst_ref = ib;
                    const ArrayRef *rs = &ra, *rd = &rb;
                    if (lexPositive(-d1, -d2) ||
                        (d1 == 0 && d2 == 0 && a > b)) {
                        // Conflict points backwards: the textually
                        // later/lexically earlier access is source.
                        std::swap(src, dst);
                        std::swap(src_ref, dst_ref);
                        std::swap(rs, rd);
                        d1 = -d1;
                        d2 = -d2;
                    }
                    if (d1 == 0 && d2 == 0 && src == dst)
                        continue; // same instance, no ordering needed

                    DepType type;
                    if (rs->isWrite && !rd->isWrite)
                        type = DepType::flow;
                    else if (!rs->isWrite && rd->isWrite)
                        type = DepType::anti;
                    else
                        type = DepType::output;
                    add(src, dst, type, d1, d2, ra.array, src_ref,
                        dst_ref);
                }
            }
        }
    }
    return result;
}

std::string
depToString(const Loop &loop, const Dep &dep)
{
    std::ostringstream os;
    os << depTypeName(dep.type) << " " << loop.body[dep.src].label
       << "->" << loop.body[dep.dst].label << " d=(" << dep.d1;
    if (loop.depth == 2)
        os << "," << dep.d2;
    os << ")";
    if (dep.covered)
        os << " [covered]";
    return os.str();
}

} // namespace dep
} // namespace psync
