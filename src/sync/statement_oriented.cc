#include "sync/statement_oriented.hh"

#include "dep/transform.hh"
#include "sim/logging.hh"

namespace psync {
namespace sync {

SchemePlan
StatementOrientedScheme::plan(const dep::DepGraph &graph,
                              const dep::DataLayout &layout,
                              sim::SyncFabric &fabric,
                              const SchemeConfig &cfg)
{
    graph_ = &graph;
    layout_ = &layout;
    cfg_ = cfg;

    const dep::Loop &loop = graph.loop();
    scIndexOf_.assign(loop.body.size(), -1);
    sinkDeps_.assign(loop.body.size(), {});

    for (const dep::Dep &d : graph.enforced()) {
        sinkDeps_[d.dst].push_back(d);
        scIndexOf_[d.src] = 0; // provisional
    }
    numScs_ = 0;
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        if (scIndexOf_[s] == 0)
            scIndexOf_[s] = static_cast<int>(numScs_++);
        else
            scIndexOf_[s] = -1;
    }

    if (numScs_ > cfg.numScs) {
        sim::fatal("statement-oriented scheme needs %u statement "
                   "counters but only %u are available; the scheme "
                   "cannot fold SCs (their index must be a constant, "
                   "section 6)", numScs_, cfg.numScs);
    }

    // SC[N] holds the last iteration whose instance of N finished;
    // initialized to k-1 = 0 for 1-based iterations.
    scBase_ = fabric.allocate(numScs_, 0);
    for (unsigned v = 0; v < numScs_; ++v) {
        if (cfg.tracer) {
            cfg.tracer->nameSyncVar(scBase_ + v,
                                    "sc[" + std::to_string(v) + "]");
        }
    }

    // The exact-boundary check, then per statement its Awaits, its
    // body and its Advance (a wait and a write).
    maxOpsPerIter_ = 1;
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        maxOpsPerIter_ += sinkDeps_[s].size() +
                          statementBodyOps(loop.body[s]) +
                          (scIndexOf_[s] >= 0 ? 2 : 0);
    }

    SchemePlan result;
    result.numSyncVars = numScs_;
    result.syncStorageBytes = static_cast<std::uint64_t>(numScs_) * 8;
    result.initWrites = numScs_;
    result.depsVerified = graph.crossIteration();
    return result;
}

void
StatementOrientedScheme::classKey(std::uint64_t lpid,
                                  std::vector<std::uint64_t> &key) const
{
    // Counter values are affine in lpid; only the skipped waits and
    // the running statements vary.
    counterSinkKey(graph_->loop(), sinkDeps_, cfg_.exactBoundaries,
                   lpid, key);
}

sim::Program
StatementOrientedScheme::emit(std::uint64_t lpid) const
{
    const dep::Loop &loop = graph_->loop();
    sim::Program prog = newProgram(lpid);
    ir::ProgramBuilder b(prog);
    long i = 0, j = 0;
    loop.indicesOf(lpid, i, j);
    const long m = loop.innerTrip();

    if (cfg_.exactBoundaries && loop.depth >= 2) {
        unsigned total_refs = 0;
        for (const dep::Statement &stmt : loop.body)
            total_refs += stmt.refs.size();
        sim::Tick check = static_cast<sim::Tick>(total_refs) *
                          loop.depth * cfg_.boundaryCheckCost;
        if (check > 0)
            b.compute(check);
    }

    auto advance = [&](unsigned s) {
        // Advance(N): wait SC == lpid-1, then set SC = lpid. The
        // wait uses >= — the counter never overshoots because this
        // process is the only one allowed to write lpid.
        sim::SyncVarId sc = scVarOf(s);
        b.waitGE(sc, lpid - 1);
        b.write(sc, lpid);
    };

    for (unsigned s = 0; s < loop.body.size(); ++s) {
        bool active = dep::stmtActive(loop, loop.body[s], lpid);

        if (active) {
            for (const dep::Dep &d : sinkDeps_[s]) {
                long dist = d.linearDistance(m);
                if (dist <= 0) {
                    // A 2-D distance folded to <= 0 by
                    // linearization never has an in-bounds source
                    // (in-bounds implies lex order, which the
                    // linearization preserves, i.e. dist >= 1).
                    // Waiting would target this very iteration's
                    // SC — against a textually later source that
                    // is a same-program deadlock.
                    continue;
                }
                if (static_cast<std::uint64_t>(dist) >= lpid)
                    continue;
                if (cfg_.exactBoundaries &&
                    !dep::sinkHasSource(loop, d, lpid)) {
                    continue; // a linearization-only arc
                }
                // Await(d, N): wait SC[N] >= lpid - d.
                b.waitGE(scVarOf(d.src), lpid - dist);
            }
            emitStatementBody(loop, s, i, j, *layout_, b);
        }

        if (scIndexOf_[s] < 0)
            continue;
        if (active || cfg_.earlyBranchSignals)
            advance(s);
        else
            continue; // deferred below
    }

    // Late placement: untaken-branch sources still must advance
    // their SCs (on all paths), just at the end of the iteration.
    if (!cfg_.earlyBranchSignals) {
        for (unsigned s = 0; s < loop.body.size(); ++s) {
            if (scIndexOf_[s] >= 0 &&
                !dep::stmtActive(loop, loop.body[s], lpid)) {
                advance(s);
            }
        }
    }
    return prog;
}

} // namespace sync
} // namespace psync
