#include "workloads/fuzz.hh"

#include <string>

#include "sim/rng.hh"

namespace psync {
namespace workloads {

namespace {

/** Decorrelate campaign seed and case index into one Rng stream. */
std::uint64_t
caseStream(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed ^ (index * 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

dep::Loop
makeFuzzLoop(std::uint64_t seed, std::uint64_t index,
             const FuzzLimits &limits)
{
    sim::Rng rng(caseStream(seed, index));

    dep::Loop loop;
    loop.name = "fuzz-s" + std::to_string(seed) + "-c" +
                std::to_string(index);
    loop.depth = rng.chance(limits.depth2Prob) ? 2 : 1;
    loop.outer = {1, static_cast<long>(rng.range(
                         2, static_cast<std::uint64_t>(
                                limits.maxOuterTrip)))};
    if (loop.depth == 2)
        loop.inner = {1, static_cast<long>(rng.range(
                             2, static_cast<std::uint64_t>(
                                    limits.maxInnerTrip)))};
    loop.seed = rng.next() | 1;

    unsigned num_stmts = static_cast<unsigned>(
        rng.range(1, limits.maxStatements));
    unsigned num_arrays = static_cast<unsigned>(
        rng.range(1, limits.maxArrays));

    // One coefficient per (array, dimension), shared by every
    // reference to that array: matching coefficients plus
    // coefficient-multiple offsets keep every pair at a constant
    // integer distance (delta / coeff), so non-unit strides never
    // push the analyzer into nonConstantPairs. Coefficients come
    // from their own decorrelated stream so nonUnitCoeffProb = 0
    // regenerates pre-stride campaigns byte-identically (the main
    // stream never sees the coefficient draws).
    sim::Rng coeff_rng(
        caseStream(seed ^ 0xa0761d6478bd642full, index));
    auto draw_coeff = [&]() {
        if (limits.maxCoeff < 2 ||
            !coeff_rng.chance(limits.nonUnitCoeffProb))
            return 1;
        return 2 + static_cast<int>(
                       coeff_rng.below(static_cast<std::uint64_t>(
                           limits.maxCoeff - 1)));
    };
    std::vector<int> coeff_i(num_arrays), coeff_j(num_arrays);
    for (unsigned a = 0; a < num_arrays; ++a) {
        coeff_i[a] = draw_coeff();
        coeff_j[a] = loop.depth == 2 ? draw_coeff() : 1;
    }

    auto draw_offset = [&](int coeff) {
        return coeff *
               (static_cast<long>(
                    rng.below(2 * limits.maxOffset + 1)) -
                limits.maxOffset);
    };

    bool any_plain_write = false;
    for (unsigned s = 0; s < num_stmts; ++s) {
        dep::Statement stmt;
        stmt.label = std::string("S").append(std::to_string(s + 1));
        stmt.cost = static_cast<sim::Tick>(
            rng.range(limits.minCost, limits.maxCost));

        unsigned num_refs = static_cast<unsigned>(
            rng.range(1, limits.maxRefsPerStmt));
        for (unsigned r = 0; r < num_refs; ++r) {
            dep::ArrayRef ref;
            unsigned array = static_cast<unsigned>(
                rng.below(num_arrays));
            ref.array = std::string("X").append(std::to_string(array));
            ref.isWrite = rng.chance(limits.writeProb);
            ref.subs.push_back(dep::Subscript{
                coeff_i[array], 0,
                draw_offset(coeff_i[array])});
            if (loop.depth == 2)
                ref.subs.push_back(dep::Subscript{
                    0, coeff_j[array],
                    draw_offset(coeff_j[array])});
            stmt.refs.push_back(ref);
        }

        if (rng.chance(limits.guardProb)) {
            stmt.guard = dep::Guard{
                static_cast<int>(loop.branchProb.size()),
                rng.chance(0.5)};
            loop.branchProb.push_back(
                static_cast<double>(1 + rng.below(9)) / 10.0);
        } else {
            any_plain_write =
                any_plain_write ||
                [&] {
                    for (const dep::ArrayRef &ref : stmt.refs)
                        if (ref.isWrite)
                            return true;
                    return false;
                }();
        }
        loop.body.push_back(stmt);
    }

    // Guarantee at least one unconditional write so the loop always
    // has a cross-iteration dependence source and a genuine memory
    // image (and instance-based renaming has something to rename).
    if (!any_plain_write) {
        loop.body.front().refs.front().isWrite = true;
        loop.body.front().guard = dep::Guard{};
    }
    return loop;
}

} // namespace workloads
} // namespace psync
