#include "workloads/synthetic.hh"

#include "sim/rng.hh"
#include "workloads/common.hh"

namespace psync {
namespace workloads {

dep::Loop
makeSyntheticLoop(const SyntheticSpec &spec)
{
    sim::Rng rng(spec.seed);

    dep::Loop loop;
    loop.name = "synthetic";
    loop.depth = 1;
    loop.outer = {1, spec.n};
    loop.seed = spec.seed * 1315423911ull + 7;

    unsigned num_branches = 0;
    bool any_write = false;

    for (unsigned s = 0; s < spec.numStatements; ++s) {
        dep::Statement stmt;
        stmt.label = std::string("S").append(std::to_string(s + 1));
        stmt.cost = static_cast<sim::Tick>(
            rng.range(spec.minCost, spec.maxCost));

        unsigned num_refs = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned r = 0; r < num_refs; ++r) {
            std::string array =
                std::string("X").append(
                    std::to_string(rng.below(spec.numArrays)));
            long offset =
                static_cast<long>(rng.below(2 * spec.maxOffset + 1)) -
                spec.maxOffset;
            dep::ArrayRef ref = ref1d(array.c_str(), offset,
                                      rng.chance(spec.writeProb));
            any_write = any_write || ref.isWrite;
            stmt.refs.push_back(ref);
        }

        if (spec.guardProb > 0 && rng.chance(spec.guardProb)) {
            stmt.guard = dep::Guard{
                static_cast<int>(num_branches),
                rng.chance(0.5)};
            ++num_branches;
            loop.branchProb.push_back(spec.takenProb);
        }
        loop.body.push_back(stmt);
    }

    // Guarantee at least one cross-iteration dependence source so
    // the loop is a genuine Doacross.
    if (!any_write && !loop.body.empty()) {
        loop.body.front().refs.front().isWrite = true;
        loop.body.front().guard = dep::Guard{};
    }
    return loop;
}

} // namespace workloads
} // namespace psync
