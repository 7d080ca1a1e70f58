#include "sync/process_oriented.hh"

#include <algorithm>

#include "dep/transform.hh"
#include "sim/logging.hh"

namespace psync {
namespace sync {

SchemePlan
ProcessOrientedScheme::plan(const dep::DepGraph &graph,
                            const dep::DataLayout &layout,
                            sim::SyncFabric &fabric,
                            const SchemeConfig &cfg)
{
    graph_ = &graph;
    layout_ = &layout;
    cfg_ = cfg;

    const dep::Loop &loop = graph.loop();
    if (cfg.numPcs == 0)
        sim::fatal("process-oriented scheme needs at least one PC");
    numPcs_ = cfg.numPcs;

    // Number the source statements 1..m in program order; the step
    // of a PC after a source completes is that source's number.
    stepOf_.assign(loop.body.size(), 0);
    sinkDeps_.assign(loop.body.size(), {});
    unsigned step = 0;
    for (const dep::Dep &d : graph.enforced()) {
        sinkDeps_[d.dst].push_back(d);
        if (stepOf_[d.src] == 0)
            stepOf_[d.src] = 1; // provisional; renumbered below
    }
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        if (stepOf_[s] != 0) {
            stepOf_[s] = ++step;
            lastSource_ = s;
            hasSources_ = true;
        }
    }

    // One PC per process, folded onto X counters. PC[i] starts
    // owned by the first process that maps to it: <i, 0> (or <X, 0>
    // for counter 0 with 1-based pids).
    pcBase_ = fabric.allocate(numPcs_, 0);
    for (unsigned v = 0; v < numPcs_; ++v) {
        std::uint32_t first_owner = (v == 0) ? numPcs_ : v;
        fabric.poke(pcBase_ + v, sim::PcWord::pack(first_owner, 0));
        if (cfg.tracer) {
            cfg.tracer->nameSyncVar(pcBase_ + v,
                                    "pc[" + std::to_string(v) + "]");
        }
    }

    // The exact-boundary check and one get_PC, then per statement
    // its sink waits, its body and its set/mark/transfer.
    maxOpsPerIter_ = 2;
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        maxOpsPerIter_ += sinkDeps_[s].size() +
                          statementBodyOps(loop.body[s]) +
                          (stepOf_[s] != 0 ? 1 : 0);
    }

    SchemePlan result;
    result.numSyncVars = numPcs_;
    result.syncStorageBytes = static_cast<std::uint64_t>(numPcs_) * 8;
    result.initWrites = numPcs_;
    result.depsVerified = graph.crossIteration();
    return result;
}

void
ProcessOrientedScheme::classKey(std::uint64_t lpid,
                                std::vector<std::uint64_t> &key) const
{
    // Folding maps a process to PC[lpid mod X] and every source to
    // PC[(lpid - dist) mod X]: the counters an iteration touches
    // repeat with period X, the words written are affine in lpid.
    key.push_back((lpid - 1) % numPcs_);
    counterSinkKey(graph_->loop(), sinkDeps_, cfg_.exactBoundaries,
                   lpid, key);
}

sim::Program
ProcessOrientedScheme::emit(std::uint64_t lpid) const
{
    const dep::Loop &loop = graph_->loop();
    sim::Program prog = newProgram(lpid);
    ir::ProgramBuilder b(prog);
    long i = 0, j = 0;
    loop.indicesOf(lpid, i, j);
    const long m = loop.innerTrip();

    sim::SyncVarId my_pc = pcVarOf(lpid);
    std::uint32_t pid = static_cast<std::uint32_t>(lpid);
    bool acquired = false; // basic primitives: get_PC emitted yet?

    // Exact-boundary mode charges the O(r*d) test once per
    // iteration, like the data-oriented schemes (Example 2).
    if (cfg_.exactBoundaries && loop.depth >= 2) {
        unsigned total_refs = 0;
        for (const dep::Statement &stmt : loop.body)
            total_refs += stmt.refs.size();
        sim::Tick check = static_cast<sim::Tick>(total_refs) *
                          loop.depth * cfg_.boundaryCheckCost;
        if (check > 0)
            b.compute(check);
    }

    auto emit_get = [&]() {
        if (!improved_ && !acquired) {
            b.waitGE(my_pc, sim::PcWord::pack(pid, 0));
            acquired = true;
        }
    };

    for (unsigned s = 0; s < loop.body.size(); ++s) {
        bool active = dep::stmtActive(loop, loop.body[s], lpid);

        if (active) {
            // Sink first: wait for every enforced source instance.
            for (const dep::Dep &d : sinkDeps_[s]) {
                long dist = d.linearDistance(m);
                if (dist <= 0) {
                    // Folded to <= 0 by linearization: no instance
                    // of this arc has an in-bounds source, and a
                    // zero distance would make this process wait
                    // on its own PC reaching a later source's step
                    // — a same-program deadlock.
                    continue;
                }
                if (static_cast<std::uint64_t>(dist) >= lpid)
                    continue; // source before the first iteration
                if (cfg_.exactBoundaries &&
                    !dep::sinkHasSource(loop, d, lpid)) {
                    continue; // a linearization-only arc
                }
                std::uint64_t src_lpid = lpid - dist;
                b.waitGE(pcVarOf(src_lpid),
                         sim::PcWord::pack(
                             static_cast<std::uint32_t>(src_lpid),
                             stepOf_[d.src]));
            }
            emitStatementBody(loop, s, i, j, *layout_, b);
        }

        if (stepOf_[s] == 0)
            continue; // not a source

        if (s == lastSource_) {
            // Completion of the last source statement transfers the
            // PC to process lpid + X — on every path (Example 3).
            sim::SyncWord next =
                sim::PcWord::pack(pid + numPcs_, 0);
            if (improved_) {
                b.pcTransfer(my_pc, next,
                             sim::PcWord::pack(pid, 0));
            } else {
                emit_get();
                b.write(my_pc, next);
            }
        } else if (active || cfg_.earlyBranchSignals) {
            // set_PC / mark_PC after a completed source. When the
            // source sits on an untaken branch arm, the early
            // placement signals it here anyway (Fig. 5.3); the late
            // placement omits it — the final transfer covers it,
            // at the cost of delayed sinks.
            sim::SyncWord val = sim::PcWord::pack(pid, stepOf_[s]);
            if (improved_) {
                b.pcMark(my_pc, val);
            } else {
                emit_get();
                b.write(my_pc, val);
            }
        }
    }
    return prog;
}

} // namespace sync
} // namespace psync
