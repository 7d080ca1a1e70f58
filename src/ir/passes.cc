#include "ir/passes.hh"

#include <algorithm>
#include <array>
#include <sstream>

namespace psync {
namespace ir {

namespace {

/** Signal capability of one sync variable across the whole plan. */
struct VarReach
{
    SyncWord maxWritten = 0;
    bool written = false;
    std::uint64_t increments = 0;
};

std::string
renderWord(SyncWord w)
{
    std::ostringstream os;
    os << w;
    // PC-packed words are easier to read as <owner,step>; plain
    // counters have owner 0, where the packed form adds nothing.
    if (sim::PcWord::owner(w) != 0)
        os << " <" << sim::PcWord::owner(w) << ","
           << sim::PcWord::step(w) << ">";
    return os.str();
}

/**
 * The verifier's per-variable reach over a whole plan: a flat table
 * indexed by variable id (fabric ids are dense from 0). Every
 * program is folded in first; only then can a wait be checked.
 */
class ReachTable
{
  public:
    /** Fold one op's signal sources into the table. */
    void
    add(const Op &op)
    {
        switch (op.kind) {
          case OpKind::syncWrite:
          case OpKind::pcMark:
          case OpKind::pcTransfer:
            write(op.var, op.value);
            break;
          case OpKind::syncFetchInc:
          case OpKind::keyedRead:
          case OpKind::keyedWrite:
            at(op.var).increments += 1;
            break;
          case OpKind::ctrBarrier:
            at(op.var).increments += 1;
            write(op.aux, op.value);
            break;
          default:
            break;
        }
    }

    /**
     * Append one error per wait-like op of `program` whose
     * threshold its variable cannot reach.
     */
    void
    check(const Program &program, const InitValueFn &init_value,
          std::vector<std::string> &errors) const
    {
        auto require = [&](const Op &op, SyncVarId var,
                           SyncWord need) {
            SyncWord reach = reachable(var, init_value);
            if (reach >= need)
                return;
            std::ostringstream os;
            os << "iter " << program.iter << " op " << op.id << " ("
               << opKindName(op.kind) << "): waits var " << var
               << " >= " << renderWord(need)
               << " but max reachable value is "
               << renderWord(reach);
            errors.push_back(os.str());
        };
        for (const Op &op : program.ops) {
            switch (op.kind) {
              case OpKind::syncWaitGE:
              case OpKind::keyedRead:
              case OpKind::keyedWrite:
                require(op, op.var, op.value);
                break;
              case OpKind::pcTransfer:
                require(op, op.var, op.aux);
                break;
              case OpKind::ctrBarrier:
                require(op, op.aux, op.value);
                break;
              default:
                break;
            }
        }
    }

  private:
    VarReach &
    at(SyncVarId var)
    {
        if (var >= vars_.size())
            vars_.resize(std::size_t{var} + 1);
        return vars_[var];
    }

    void
    write(SyncVarId var, SyncWord value)
    {
        VarReach &r = at(var);
        r.maxWritten = std::max(r.maxWritten, value);
        r.written = true;
    }

    /**
     * Max value `var` can reach: max(initial value, any written
     * value) plus every increment.
     */
    SyncWord
    reachable(SyncVarId var, const InitValueFn &init_value) const
    {
        SyncWord base = init_value ? init_value(var) : 0;
        if (var >= vars_.size())
            return base;
        const VarReach &r = vars_[var];
        if (r.written)
            base = std::max(base, r.maxWritten);
        return base + r.increments;
    }

    std::vector<VarReach> vars_;
};

/**
 * Lower bounds known for the variables one program has touched so
 * far. A program touches few variables, so a flat table searched
 * linearly beats hashing; it lives on the stack and spills to the
 * heap only past kInline variables.
 */
class BoundTable
{
  public:
    /** The bound known for `var`, or null if none is. */
    SyncWord *
    find(SyncVarId var)
    {
        for (std::size_t k = 0; k < size_; ++k) {
            Entry &e = slot(k);
            if (e.var == var)
                return &e.bound;
        }
        return nullptr;
    }

    /** The bound known for `var`, starting from 0 if none was. */
    SyncWord &
    operator[](SyncVarId var)
    {
        if (SyncWord *bound = find(var))
            return *bound;
        if (size_ < kInline)
            inline_[size_] = Entry{var, 0};
        else
            spill_.push_back(Entry{var, 0});
        return slot(size_++).bound;
    }

  private:
    struct Entry
    {
        SyncVarId var;
        SyncWord bound;
    };

    static constexpr std::size_t kInline = 32;

    Entry &
    slot(std::size_t k)
    {
        return k < kInline ? inline_[k] : spill_[k - kInline];
    }

    std::array<Entry, kInline> inline_;
    std::size_t size_ = 0;
    std::vector<Entry> spill_;
};

std::uint64_t
waitsIn(const Program &program)
{
    std::uint64_t n = 0;
    for (const Op &op : program.ops)
        n += op.kind == OpKind::syncWaitGE;
    return n;
}

} // namespace

std::vector<std::string>
verifyPrograms(const std::vector<Program> &programs,
               const InitValueFn &init_value)
{
    ReachTable reach;
    for (const Program &program : programs)
        for (const Op &op : program.ops)
            reach.add(op);
    std::vector<std::string> errors;
    for (const Program &program : programs)
        reach.check(program, init_value, errors);
    return errors;
}

std::uint64_t
eliminateRedundantWaits(Program &program)
{
    // Known lower bound on each variable's value at the current
    // point of this program, established by earlier ops. Kept ops
    // are compacted in place.
    BoundTable bound;
    std::vector<Op> &ops = program.ops;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const Op &op = ops[k];
        switch (op.kind) {
          case OpKind::syncWaitGE: {
            SyncWord *known = bound.find(op.var);
            if (known != nullptr && *known >= op.value)
                continue; // dominated: drop the wait
            SyncWord &b = bound[op.var];
            b = std::max(b, op.value);
            break;
          }
          case OpKind::syncWrite: {
            SyncWord &b = bound[op.var];
            b = std::max(b, op.value);
            break;
          }
          case OpKind::pcTransfer: {
            // Waits var >= aux, then writes value.
            SyncWord &b = bound[op.var];
            b = std::max(b, std::max(op.aux, op.value));
            break;
          }
          case OpKind::syncFetchInc:
            if (SyncWord *known = bound.find(op.var))
                *known += 1; // own increment; var is monotone
            break;
          case OpKind::keyedRead:
          case OpKind::keyedWrite: {
            // Waits key >= value, then the module increments it.
            SyncWord &b = bound[op.var];
            b = std::max(b, op.value) + 1;
            break;
          }
          case OpKind::ctrBarrier: {
            SyncWord &rel = bound[op.aux];
            rel = std::max(rel, op.value);
            if (SyncWord *known = bound.find(op.var))
                *known += 1;
            break;
          }
          case OpKind::pcMark:
            // Conditional write (skipped while unowned): does NOT
            // establish var >= value.
            break;
          default:
            break;
        }
        if (kept != k)
            ops[kept] = op;
        ++kept;
    }
    const std::uint64_t removed = ops.size() - kept;
    ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(kept),
              ops.end());
    return removed;
}

std::uint64_t
peephole(Program &program)
{
    // Each op merges into the last kept one or is compacted in
    // place after it.
    std::vector<Op> &ops = program.ops;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const Op &op = ops[k];
        if (kept != 0) {
            Op &prev = ops[kept - 1];
            if (op.kind == OpKind::compute &&
                prev.kind == OpKind::compute &&
                op.iterTag == prev.iterTag) {
                prev.cycles += op.cycles;
                continue;
            }
            // Adjacent monotone releases to one variable: the later
            // write supersedes the earlier (waiters only ever see
            // the final, larger value — released later, never
            // earlier, which preserves every enforced ordering).
            if (op.kind == OpKind::syncWrite &&
                prev.kind == OpKind::syncWrite &&
                op.var == prev.var && op.value >= prev.value) {
                prev = op;
                continue;
            }
        }
        if (kept != k)
            ops[kept] = op;
        ++kept;
    }
    const std::uint64_t merged = ops.size() - kept;
    ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(kept),
              ops.end());
    return merged;
}

std::uint64_t
countWaits(const std::vector<Program> &programs)
{
    std::uint64_t n = 0;
    for (const Program &program : programs)
        n += waitsIn(program);
    return n;
}

std::uint64_t
countOps(const std::vector<Program> &programs)
{
    std::uint64_t n = 0;
    for (const Program &program : programs)
        n += program.ops.size();
    return n;
}

PassStats
runPasses(std::vector<Program> &programs, const PassConfig &config,
          const InitValueFn &init_value)
{
    PassStats stats;
    const bool eliminate =
        config.enabled && config.eliminateRedundantWaits;
    const bool merge = config.enabled && config.peephole;
    const bool verify = config.enabled && config.verify;
    ReachTable reach;
    // One walk: each program goes through both transforms, the
    // counts and the verifier's reach fold while its ops are in
    // cache.
    for (Program &program : programs) {
        stats.opsBefore += program.ops.size();
        stats.waitsBefore += waitsIn(program);
        if (eliminate)
            stats.waitsEliminated += eliminateRedundantWaits(program);
        if (merge)
            stats.opsMerged += peephole(program);
        stats.opsAfter += program.ops.size();
        for (const Op &op : program.ops) {
            stats.waitsAfter += op.kind == OpKind::syncWaitGE;
            if (verify)
                reach.add(op);
        }
    }
    // Every threshold is checked against the finished reach table.
    if (verify) {
        for (const Program &program : programs)
            reach.check(program, init_value, stats.verifierErrors);
        stats.verified = stats.verifierErrors.empty();
    }
    return stats;
}

} // namespace ir
} // namespace psync
