#include "dep/dep_graph.hh"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace psync {
namespace dep {

DepGraph::DepGraph(const Loop &loop, bool eliminate_covered)
    : loop_(&loop)
{
    DepAnalysis analysis = analyze(loop);
    deps_ = std::move(analysis.deps);
    if (eliminate_covered)
        markCovered();
}

std::vector<Dep>
DepGraph::enforced() const
{
    std::vector<Dep> out;
    for (const Dep &d : deps_) {
        if (d.crossIteration() && !d.covered)
            out.push_back(d);
    }
    return out;
}

std::vector<Dep>
DepGraph::crossIteration() const
{
    std::vector<Dep> out;
    for (const Dep &d : deps_) {
        if (d.crossIteration())
            out.push_back(d);
    }
    return out;
}

unsigned
DepGraph::numCovered() const
{
    unsigned n = 0;
    for (const Dep &d : deps_) {
        if (d.covered)
            ++n;
    }
    return n;
}

bool
DepGraph::pathOfDistance(unsigned src, unsigned dst, long dist,
                         size_t skip) const
{
    // The search works on linearized distances; exact vector sums
    // are preserved because every workload's inner distances are
    // small relative to the inner trip count.
    long target = dist;
    const long m = loop_->innerTrip();

    std::set<std::tuple<unsigned, long, int>> visited;

    // depth limits runaway exploration on adversarial graphs.
    std::function<bool(unsigned, long, int, bool)> dfs =
        [&](unsigned node, long acc, int hops, bool used_arc) -> bool {
        if (acc > target || hops > 16)
            return false;
        if (node == dst && acc == target && (hops >= 2 || used_arc))
            return true;
        if (!visited.insert({node, acc, hops}).second)
            return false;

        // A branch-guarded statement only executes its waits when
        // the branch is taken, so it can carry a chain link only as
        // the chain's final destination — entering it anywhere the
        // path would continue (including an intermediate visit to
        // `dst` itself, one period early) is unsound.
        auto can_enter = [&](unsigned v, long acc_v) {
            if (!loop_->body[v].guard.conditional())
                return true;
            return v == dst && acc_v == target;
        };

        // Dependence arcs out of `node`.
        for (size_t k = 0; k < deps_.size(); ++k) {
            if (k == skip || deps_[k].covered)
                continue;
            const Dep &d = deps_[k];
            if (d.src != node || !d.crossIteration())
                continue;
            // Arcs whose 2-D distance folds to a non-positive
            // linearized distance never have an in-bounds source,
            // so no scheme enforces them; letting one into a chain
            // would fabricate coverings (e.g. -4 + 5 == 1) that
            // nothing orders at run time.
            if (d.linearDistance(m) <= 0)
                continue;
            long next = acc + d.linearDistance(m);
            if (!can_enter(d.dst, next))
                continue;
            if (dfs(d.dst, next, hops + 1, true))
                return true;
        }
        // Program order within an iteration: zero-distance edges to
        // every later statement.
        for (unsigned v = node + 1; v < loop_->body.size(); ++v) {
            if (!can_enter(v, acc))
                continue;
            if (dfs(v, acc, hops + 1, used_arc))
                return true;
        }
        return false;
    };

    return dfs(src, 0, 0, false);
}

void
DepGraph::markCovered()
{
    // Consider larger distances first so short arcs (which do the
    // covering) are never themselves eliminated in favor of arcs
    // they cover.
    std::vector<size_t> order(deps_.size());
    for (size_t k = 0; k < order.size(); ++k)
        order[k] = k;
    const long m = loop_->innerTrip();
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return deps_[x].linearDistance(m) > deps_[y].linearDistance(m);
    });

    for (size_t k : order) {
        Dep &dep = deps_[k];
        if (!dep.crossIteration())
            continue;
        if (pathOfDistance(dep.src, dep.dst, dep.linearDistance(m), k))
            dep.covered = true;
    }
}

std::string
DepGraph::toString() const
{
    std::ostringstream os;
    os << loop_->name << " dependences:\n";
    for (const Dep &d : deps_)
        os << "  " << depToString(*loop_, d) << "\n";
    return os.str();
}

} // namespace dep
} // namespace psync
