#include "sync/scheme.hh"

#include "dep/transform.hh"
#include "sim/logging.hh"
#include "sync/instance_based.hh"
#include "sync/process_oriented.hh"
#include "sync/reference_based.hh"
#include "sync/statement_oriented.hh"

namespace psync {
namespace sync {

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::none:              return "none";
      case SchemeKind::referenceBased:    return "reference";
      case SchemeKind::instanceBased:     return "instance";
      case SchemeKind::statementOriented: return "statement";
      case SchemeKind::processBasic:      return "process-basic";
      case SchemeKind::processImproved:   return "process-improved";
    }
    return "unknown";
}

namespace {

/** Baseline: no cross-iteration synchronization at all. */
class NoneScheme : public Scheme
{
  public:
    SchemeKind kind() const override { return SchemeKind::none; }

    SchemePlan
    plan(const dep::DepGraph &graph, const dep::DataLayout &layout,
         sim::SyncFabric &fabric, const SchemeConfig &cfg) override
    {
        (void)fabric;
        (void)cfg;
        graph_ = &graph;
        layout_ = &layout;
        maxOpsPerIter_ = 0;
        for (const dep::Statement &stmt : graph.loop().body)
            maxOpsPerIter_ += statementBodyOps(stmt);
        return SchemePlan{};
    }

    sim::Program
    emit(std::uint64_t lpid) const override
    {
        const dep::Loop &loop = graph_->loop();
        sim::Program prog = newProgram(lpid);
        ir::ProgramBuilder b(prog);
        long i = 0, j = 0;
        loop.indicesOf(lpid, i, j);
        for (unsigned s = 0; s < loop.body.size(); ++s) {
            if (!dep::stmtActive(loop, loop.body[s], lpid))
                continue;
            emitStatementBody(loop, s, i, j, *layout_, b);
        }
        return prog;
    }

    void
    classKey(std::uint64_t lpid,
             std::vector<std::uint64_t> &key) const override
    {
        loopClassKey(graph_->loop(), lpid, key);
    }

  private:
    const dep::DepGraph *graph_ = nullptr;
    const dep::DataLayout *layout_ = nullptr;
};

} // namespace

std::unique_ptr<Scheme>
makeScheme(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::none:
        return std::make_unique<NoneScheme>();
      case SchemeKind::referenceBased:
        return std::make_unique<ReferenceBasedScheme>();
      case SchemeKind::instanceBased:
        return std::make_unique<InstanceBasedScheme>();
      case SchemeKind::statementOriented:
        return std::make_unique<StatementOrientedScheme>();
      case SchemeKind::processBasic:
        return std::make_unique<ProcessOrientedScheme>(false);
      case SchemeKind::processImproved:
        return std::make_unique<ProcessOrientedScheme>(true);
    }
    sim::panic("unknown scheme kind");
}

std::vector<SchemeKind>
allSyncSchemes()
{
    return {SchemeKind::referenceBased, SchemeKind::instanceBased,
            SchemeKind::statementOriented, SchemeKind::processBasic,
            SchemeKind::processImproved};
}

void
loopClassKey(const dep::Loop &loop, std::uint64_t lpid,
             std::vector<std::uint64_t> &key)
{
    if (loop.depth == 2)
        key.push_back((lpid - 1) % static_cast<std::uint64_t>(
                                       loop.innerTrip()));
    KeyBits bits(key);
    for (const dep::Statement &stmt : loop.body)
        if (stmt.guard.conditional())
            bits.push(dep::stmtActive(loop, stmt, lpid));
}

void
counterSinkKey(const dep::Loop &loop,
               const std::vector<std::vector<dep::Dep>> &sink_deps,
               bool exact_boundaries, std::uint64_t lpid,
               std::vector<std::uint64_t> &key)
{
    loopClassKey(loop, lpid, key);
    const long m = loop.innerTrip();
    KeyBits bits(key);
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        const bool active = dep::stmtActive(loop, loop.body[s], lpid);
        for (const dep::Dep &d : sink_deps[s]) {
            const long dist = d.linearDistance(m);
            if (dist <= 0)
                continue; // never waited on, at any iteration
            bits.push(active &&
                      static_cast<std::uint64_t>(dist) >= lpid);
            if (exact_boundaries)
                bits.push(active && !dep::sinkHasSource(loop, d, lpid));
        }
    }
}

void
emitStatementBody(const dep::Loop &loop, unsigned stmt_idx, long i,
                  long j, const dep::DataLayout &layout,
                  ir::ProgramBuilder &out)
{
    const dep::Statement &stmt = loop.body[stmt_idx];
    out.stmtStart(stmt_idx);
    for (unsigned r = 0; r < stmt.refs.size(); ++r) {
        const dep::ArrayRef &ref = stmt.refs[r];
        if (!ref.isWrite) {
            out.data(false, layout.addrOf(ref, i, j), stmt_idx,
                     static_cast<std::uint16_t>(r));
        }
    }
    if (stmt.cost > 0)
        out.compute(stmt.cost);
    for (unsigned r = 0; r < stmt.refs.size(); ++r) {
        const dep::ArrayRef &ref = stmt.refs[r];
        if (ref.isWrite) {
            out.data(true, layout.addrOf(ref, i, j), stmt_idx,
                     static_cast<std::uint16_t>(r));
        }
    }
    out.stmtEnd(stmt_idx);
}

} // namespace sync
} // namespace psync
