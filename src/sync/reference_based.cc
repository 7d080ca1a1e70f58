#include "sync/reference_based.hh"

#include "sim/logging.hh"

namespace psync {
namespace sync {

SchemePlan
ReferenceBasedScheme::plan(const dep::DepGraph &graph,
                           const dep::DataLayout &layout,
                           sim::SyncFabric &fabric,
                           const SchemeConfig &cfg)
{
    graph_ = &graph;
    layout_ = &layout;
    cfg_ = cfg;

    const dep::Loop &loop = graph.loop();
    std::uint64_t iterations = loop.iterations();

    // Flat slot numbering for (stmt, ref).
    refSlot_.assign(loop.body.size(), {});
    slotsPerIter_ = 0;
    unsigned total_refs = 0;
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        refSlot_[s].resize(loop.body[s].refs.size());
        for (unsigned r = 0; r < loop.body[s].refs.size(); ++r)
            refSlot_[s][r] = slotsPerIter_++;
        total_refs += loop.body[s].refs.size();
    }

    // One key per element of every referenced array.
    std::uint64_t num_keys = layout.totalElements();
    keyBase_ = fabric.allocate(
        static_cast<unsigned>(num_keys), 0);
    for (std::uint64_t v = 0; v < num_keys; ++v) {
        if (cfg.tracer) {
            cfg.tracer->nameSyncVar(keyBase_ + v,
                                    "key[" + std::to_string(v) + "]");
        }
    }

    // Assign order numbers by replaying the loop sequentially with
    // branches resolved exactly as execution will resolve them.
    // Writes order after every prior access; a run of consecutive
    // reads shares the order number of the run's start.
    struct ElemState
    {
        sim::SyncWord count = 0;
        sim::SyncWord runStart = 0;
        bool lastWasRead = false;
    };
    std::vector<ElemState> state(layout.totalElements());

    orders_.assign(iterations * slotsPerIter_, 0);
    for (std::uint64_t lpid = 1; lpid <= iterations; ++lpid) {
        sim::SyncWord *row = orders_.data() + (lpid - 1) * slotsPerIter_;
        long i = 0, j = 0;
        loop.indicesOf(lpid, i, j);
        for (unsigned s = 0; s < loop.body.size(); ++s) {
            const dep::Statement &stmt = loop.body[s];
            if (!dep::stmtActive(loop, stmt, lpid))
                continue;
            // Replay in *emission* order — reads before writes
            // within a statement (see emit() and
            // emitStatementBody) — so a statement that writes and
            // then reads the same element gets consistent order
            // numbers and cannot deadlock on itself.
            auto visit = [&](unsigned r) {
                const dep::ArrayRef &ref = stmt.refs[r];
                ElemState &es = state[layout.globalOrdinal(ref, i, j)];
                sim::SyncWord order;
                if (!ref.isWrite && es.lastWasRead) {
                    order = es.runStart;
                } else {
                    order = es.count;
                    es.runStart = es.count;
                }
                es.lastWasRead = !ref.isWrite;
                ++es.count;
                row[refSlot_[s][r]] = order;
            };
            for (unsigned r = 0; r < stmt.refs.size(); ++r) {
                if (!stmt.refs[r].isWrite)
                    visit(r);
            }
            for (unsigned r = 0; r < stmt.refs.size(); ++r) {
                if (stmt.refs[r].isWrite)
                    visit(r);
            }
        }
    }

    // O(r*d) boundary-testing overhead per iteration for nested
    // loops (section 5, Example 2).
    boundaryCost_ = loop.depth >= 2
        ? static_cast<sim::Tick>(total_refs) * loop.depth *
              cfg.boundaryCheckCost
        : 0;

    // The boundary check, then per statement its markers, compute
    // and a wait/access/increment triple per reference (one keyed
    // request when combined).
    const unsigned ops_per_ref = cfg.cedarCombining ? 1 : 3;
    maxOpsPerIter_ = 1;
    for (const dep::Statement &stmt : loop.body)
        maxOpsPerIter_ += 3 + ops_per_ref * stmt.refs.size();

    SchemePlan result;
    result.numSyncVars = num_keys;
    // Cedar-style keys are a word of order state per element; we
    // charge 4 bytes each.
    result.syncStorageBytes = num_keys * 4;
    result.initWrites = num_keys;
    result.depsVerified = graph.crossIteration();
    return result;
}

sim::SyncWord
ReferenceBasedScheme::orderOf(std::uint64_t lpid, unsigned stmt_idx,
                              unsigned ref_idx) const
{
    return orders_[(lpid - 1) * slotsPerIter_ +
                   refSlot_[stmt_idx][ref_idx]];
}

void
ReferenceBasedScheme::classKey(std::uint64_t lpid,
                               std::vector<std::uint64_t> &key) const
{
    // Keys and addresses are affine in the iteration; the order
    // numbers are not, so the whole order row joins the key.
    loopClassKey(graph_->loop(), lpid, key);
    const sim::SyncWord *row = orders_.data() + (lpid - 1) * slotsPerIter_;
    key.insert(key.end(), row, row + slotsPerIter_);
}

sim::Program
ReferenceBasedScheme::emit(std::uint64_t lpid) const
{
    const dep::Loop &loop = graph_->loop();
    sim::Program prog = newProgram(lpid);
    ir::ProgramBuilder b(prog);
    long i = 0, j = 0;
    loop.indicesOf(lpid, i, j);

    if (boundaryCost_ > 0)
        b.compute(boundaryCost_);

    for (unsigned s = 0; s < loop.body.size(); ++s) {
        const dep::Statement &stmt = loop.body[s];
        if (!dep::stmtActive(loop, stmt, lpid))
            continue;

        b.stmtStart(s);
        // One synchronized access per reference. Combined (Cedar)
        // mode sends a single keyed request; split mode issues the
        // Fig. 3.1a triple: wait key >= N, access, ++key.
        auto emit_access = [&](unsigned r, bool is_write) {
            const dep::ArrayRef &ref = stmt.refs[r];
            sim::SyncVarId key = keyOf(ref, i, j);
            sim::SyncWord order = orderOf(lpid, s, r);
            sim::Addr addr = layout_->addrOf(ref, i, j);
            if (cfg_.cedarCombining) {
                b.keyed(is_write, key, order, addr, s,
                        static_cast<std::uint16_t>(r));
            } else {
                b.waitGE(key, order);
                b.data(is_write, addr, s,
                       static_cast<std::uint16_t>(r));
                b.fetchInc(key);
            }
        };
        for (unsigned r = 0; r < stmt.refs.size(); ++r) {
            if (!stmt.refs[r].isWrite)
                emit_access(r, false);
        }
        if (stmt.cost > 0)
            b.compute(stmt.cost);
        for (unsigned r = 0; r < stmt.refs.size(); ++r) {
            if (stmt.refs[r].isWrite)
                emit_access(r, true);
        }
        b.stmtEnd(s);
    }
    return prog;
}

} // namespace sync
} // namespace psync
