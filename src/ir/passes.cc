#include "ir/passes.hh"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "ir/semantics.hh"

namespace psync {
namespace ir {

namespace {

/** Signal capability of one sync variable across the whole plan. */
struct VarReach
{
    SyncWord maxWritten = 0;
    bool written = false;
    std::uint64_t increments = 0;
    /** reachable(), memoized once the fold is complete. */
    mutable SyncWord reach = 0;
    mutable bool reachKnown = false;
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
 * program is folded in first; only then can a wait be checked, and
 * the first check of a variable fixes its reach.
 */
class ReachTable
{
  public:
    /**
     * Fold one op's signal sources into the table: a write or
     * maybe-write raises its variable's maximum, an increment adds 1.
     */
    void
    add(const Op &op)
    {
        forEachEffect(op.kind, [&](EffectSpec e) {
            if (e.effect == Effect::increment) {
                at(field(op, e.on)).increments += 1;
            } else if (e.effect == Effect::write ||
                       e.effect == Effect::maybeWrite) {
                VarReach &r = at(field(op, e.on));
                r.maxWritten = std::max(r.maxWritten, field(op, e.arg));
                r.written = true;
            }
        });
    }

    /**
     * Append an error for each wait of `op` (of iteration `iter`)
     * whose threshold its variable cannot reach.
     */
    void
    check(std::uint64_t iter, const Op &op,
          const InitValueFn &init_value,
          std::vector<std::string> &errors) const
    {
        forEachEffect(op.kind, [&](EffectSpec e) {
            if (e.effect != Effect::wait)
                return;
            const SyncVarId var = field(op, e.on);
            const SyncWord need = field(op, e.arg);
            const SyncWord reach = reachable(var, init_value);
            if (reach >= need)
                return;
            std::ostringstream os;
            os << "iter " << iter << " op " << op.id << " ("
               << opKindName(op.kind) << "): waits var " << var
               << " >= " << renderWord(need)
               << " but max reachable value is "
               << renderWord(reach);
            errors.push_back(os.str());
        });
    }

  private:
    VarReach &
    at(SyncVarId var)
    {
        if (var >= vars_.size())
            vars_.resize(std::size_t{var} + 1);
        return vars_[var];
    }

    /**
     * Max value `var` can reach: max(initial value, any written
     * value) plus every increment.
     */
    SyncWord
    reachable(SyncVarId var, const InitValueFn &init_value) const
    {
        if (var < vars_.size() && vars_[var].reachKnown)
            return vars_[var].reach;
        SyncWord base = init_value ? init_value(var) : 0;
        if (var >= vars_.size())
            return base;
        const VarReach &r = vars_[var];
        if (r.written)
            base = std::max(base, r.maxWritten);
        r.reach = base + r.increments;
        r.reachKnown = true;
        return r.reach;
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

/**
 * Take one program through the enabled transforms, counting its ops
 * and waits before and after into `stats`.
 */
void
transform(Program &program, bool eliminate, bool merge,
          PassStats &stats)
{
    stats.opsBefore += program.ops.size();
    stats.waitsBefore += waitsIn(program);
    if (eliminate)
        stats.waitsEliminated += eliminateRedundantWaits(program);
    if (merge)
        stats.opsMerged += peephole(program);
    stats.opsAfter += program.ops.size();
    stats.waitsAfter += waitsIn(program);
}

/** Add `count` copies of `one`'s counts to `total`. */
void
addTimes(PassStats &total, const PassStats &one, std::uint64_t count)
{
    total.opsBefore += one.opsBefore * count;
    total.opsAfter += one.opsAfter * count;
    total.waitsBefore += one.waitsBefore * count;
    total.waitsAfter += one.waitsAfter * count;
    total.waitsEliminated += one.waitsEliminated * count;
    total.opsMerged += one.opsMerged * count;
}

/** (y - x) / dt as an exact integer, or false. */
bool
slopeOf(std::uint64_t x, std::uint64_t y, std::int64_t dt,
        std::int64_t &slope)
{
    const auto diff = static_cast<std::int64_t>(y - x);
    if (diff == 0) {
        slope = 0;
        return true;
    }
    if (dt == 0 || diff % dt != 0)
        return false;
    slope = diff / dt;
    return true;
}

/**
 * Slopes taking `a` to `b`, `dt` coordinates later. False when the
 * two differ in shape (kind, id, statement or reference of an op) or
 * a field does not move by a whole multiple of dt.
 */
bool
fitSlopes(const Program &a, const Program &b, std::int64_t dt,
          std::vector<OpSlope> &slopes)
{
    if (a.ops.size() != b.ops.size())
        return false;
    slopes.resize(a.ops.size());
    for (std::size_t k = 0; k < a.ops.size(); ++k) {
        const Op &x = a.ops[k];
        const Op &y = b.ops[k];
        OpSlope &s = slopes[k];
        if (x.kind != y.kind || x.id != y.id || x.stmt != y.stmt ||
            x.ref != y.ref || !slopeOf(x.cycles, y.cycles, dt, s.cycles) ||
            !slopeOf(x.addr, y.addr, dt, s.addr) ||
            !slopeOf(x.var, y.var, dt, s.var) ||
            !slopeOf(x.value, y.value, dt, s.value) ||
            !slopeOf(x.aux, y.aux, dt, s.aux) ||
            !slopeOf(x.iterTag, y.iterTag, dt, s.iterTag))
            return false;
    }
    return true;
}

/**
 * True when elimination and peephole decide alike on every member of
 * a class whose first member emitted `raw` and whose members span
 * `span` coordinates: ops that share a variable keep sharing it and
 * shift their values together, ops on different variables never
 * meet, and no iteration tag moves (peephole compares them). The
 * variables compared are those of each op's waits, writes and
 * increments; maybe-writes teach elimination nothing, so they take
 * no part.
 */
bool
transformsDecideAlike(const Program &raw,
                      const std::vector<OpSlope> &slopes,
                      std::int64_t span)
{
    struct Use
    {
        std::uint64_t var;
        std::int64_t varSlope;
        bool hasValue;
        std::int64_t valueSlope;
    };
    std::vector<Use> uses;
    for (std::size_t k = 0; k < raw.ops.size(); ++k) {
        const Op &op = raw.ops[k];
        const OpSlope &s = slopes[k];
        if (s.iterTag != 0)
            return false;
        forEachEffect(op.kind, [&](EffectSpec e) {
            if (e.effect == Effect::wait || e.effect == Effect::write)
                uses.push_back({field(op, e.on), field(s, e.on), true,
                                field(s, e.arg)});
            else if (e.effect == Effect::increment)
                uses.push_back({field(op, e.on), field(s, e.on), false,
                                0});
        });
    }
    for (std::size_t a = 0; a < uses.size(); ++a) {
        for (std::size_t b = a + 1; b < uses.size(); ++b) {
            const Use &x = uses[a];
            const Use &y = uses[b];
            if (x.var == y.var) {
                if (x.varSlope != y.varSlope ||
                    (x.hasValue && y.hasValue &&
                     x.valueSlope != y.valueSlope))
                    return false;
                continue;
            }
            if (x.varSlope == y.varSlope)
                continue; // parallel: never meet
            // x.var + x.varSlope t == y.var + y.varSlope t at
            // t = (y.var - x.var) / (x.varSlope - y.varSlope).
            const auto gap = static_cast<std::int64_t>(y.var - x.var);
            const std::int64_t closing = x.varSlope - y.varSlope;
            if (gap % closing == 0 && gap / closing >= 0 &&
                gap / closing <= span)
                return false;
        }
    }
    return true;
}

} // namespace

std::vector<std::string>
verifyPool(const IterationPool &pool, const InitValueFn &init_value)
{
    // Kinds never vary within a body, so each class's signal and
    // wait-like ops are listed once, and only those are instantiated.
    struct Listed
    {
        std::uint32_t signals = 0, waits = 0, end = 0;
        bool done = false;
    };
    std::vector<Listed> listed(pool.numClasses());
    std::vector<std::uint32_t> indices;
    auto list = [&](std::size_t i) -> const Listed & {
        Listed &l = listed[pool.classOf(i)];
        if (l.done)
            return l;
        const Iteration it = pool.at(i);
        l.signals = static_cast<std::uint32_t>(indices.size());
        for (std::uint32_t k = 0; k < it.size; ++k)
            if (signals(it.ops[k].kind))
                indices.push_back(k);
        l.waits = static_cast<std::uint32_t>(indices.size());
        for (std::uint32_t k = 0; k < it.size; ++k)
            if (has(it.ops[k].kind, Effect::wait))
                indices.push_back(k);
        l.end = static_cast<std::uint32_t>(indices.size());
        l.done = true;
        return l;
    };

    ReachTable reach;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Listed &l = list(i);
        const Iteration it = pool.at(i);
        for (std::uint32_t n = l.signals; n < l.waits; ++n)
            reach.add(it.op(indices[n]));
    }
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Listed &l = listed[pool.classOf(i)];
        const Iteration it = pool.at(i);
        for (std::uint32_t n = l.waits; n < l.end; ++n)
            reach.check(it.iter, it.op(indices[n]), init_value, errors);
    }
    return errors;
}

IterationPool
lowerPool(const IterationSource &source, std::uint64_t iterations,
          std::uint64_t divisor, const PassConfig &config,
          const InitValueFn &init_value, PassStats &stats)
{
    stats = PassStats{};
    const bool eliminate =
        config.enabled && config.eliminateRedundantWaits;
    const bool merge = config.enabled && config.peephole;
    divisor = std::max<std::uint64_t>(1, divisor);
    auto coord = [divisor](std::uint64_t lpid) {
        return static_cast<std::int64_t>((lpid - 1) / divisor);
    };

    IterationPool pool;
    pool.iterations_ = iterations;
    pool.divisor_ = divisor;
    pool.classOf_.resize(iterations);

    // Name every iteration's class; remember the first two members
    // and the last of each.
    struct Members
    {
        std::uint64_t first = 0;
        std::uint64_t second = 0;
        std::uint64_t last = 0;
        std::uint64_t count = 0;
    };
    std::vector<Members> members;
    {
        std::map<std::vector<std::uint64_t>, std::uint32_t> classes;
        std::vector<std::uint64_t> key;
        for (std::uint64_t lpid = 1; lpid <= iterations; ++lpid) {
            key.clear();
            source.classKey(lpid, key);
            auto it = classes.find(key);
            if (it == classes.end()) {
                it = classes
                         .emplace(key, static_cast<std::uint32_t>(
                                           members.size()))
                         .first;
                members.push_back({lpid, 0, lpid, 0});
            }
            const std::uint32_t c = it->second;
            Members &m = members[c];
            if (m.count == 1)
                m.second = lpid;
            m.last = lpid;
            ++m.count;
            pool.classOf_[lpid - 1] = c;
        }
    }

    // Build each body from its first member, and its slopes from the
    // first two; a class they cannot describe is split below.
    struct Body
    {
        Program ops;
        /** Empty when no field of the body moves. */
        std::vector<OpSlope> slopes;
        std::int64_t anchor = 0;
    };
    std::vector<Body> bodies(members.size());
    std::vector<bool> split(members.size(), false);
    bool any_split = false;
    std::vector<OpSlope> raw_slopes;
    auto moves = [](const std::vector<OpSlope> &slopes) {
        return std::any_of(slopes.begin(), slopes.end(),
                           [](const OpSlope &s) {
                               return s.cycles || s.addr || s.var ||
                                      s.value || s.aux || s.iterTag;
                           });
    };
    for (std::size_t c = 0; c < members.size(); ++c) {
        const Members &m = members[c];
        Body &body = bodies[c];
        body.ops = source.emit(m.first);
        body.anchor = coord(m.first);
        PassStats one;
        if (m.count == 1) {
            transform(body.ops, eliminate, merge, one);
            addTimes(stats, one, 1);
            continue;
        }
        Program second = source.emit(m.second);
        const std::int64_t dt = coord(m.second) - coord(m.first);
        bool fits = fitSlopes(body.ops, second, dt, raw_slopes);
        if (fits && (eliminate || merge)) {
            fits = transformsDecideAlike(
                body.ops, raw_slopes, coord(m.last) - coord(m.first));
        }
        if (fits) {
            PassStats other;
            transform(body.ops, eliminate, merge, one);
            transform(second, eliminate, merge, other);
            fits = fitSlopes(body.ops, second, dt, body.slopes);
        }
        if (!fits) {
            split[c] = true;
            any_split = true;
            continue;
        }
        addTimes(stats, one, m.count);
        if (!moves(body.slopes))
            body.slopes.clear();
    }

    // Every member of a split class becomes a class of its own.
    if (any_split) {
        for (std::uint64_t lpid = 1; lpid <= iterations; ++lpid) {
            std::uint32_t &c = pool.classOf_[lpid - 1];
            if (!split[c])
                continue;
            Body body;
            body.ops = source.emit(lpid);
            body.anchor = coord(lpid);
            PassStats one;
            transform(body.ops, eliminate, merge, one);
            addTimes(stats, one, 1);
            c = static_cast<std::uint32_t>(bodies.size());
            bodies.push_back(std::move(body));
        }
    }

    // Drop the split classes' slots, then lay the bodies out end to
    // end, sized once, and point into them.
    if (any_split) {
        std::vector<std::uint32_t> number(bodies.size());
        std::size_t kept = 0;
        for (std::size_t c = 0; c < bodies.size(); ++c) {
            if (c < split.size() && split[c])
                continue;
            number[c] = static_cast<std::uint32_t>(kept);
            if (kept != c)
                bodies[kept] = std::move(bodies[c]);
            ++kept;
        }
        bodies.resize(kept);
        for (std::uint32_t &c : pool.classOf_)
            c = number[c];
    }
    std::size_t ops = 0, slopes = 0;
    for (const Body &body : bodies) {
        ops += body.ops.ops.size();
        slopes += body.slopes.size();
    }
    pool.ops_.reserve(ops);
    pool.slopes_.reserve(slopes);
    pool.bodies_.resize(bodies.size());
    for (std::size_t c = 0; c < bodies.size(); ++c) {
        const Body &body = bodies[c];
        IterationPool::Body &out = pool.bodies_[c];
        out.ops = pool.ops_.data() + pool.ops_.size();
        out.size = static_cast<std::uint32_t>(body.ops.ops.size());
        out.anchor = body.anchor;
        pool.ops_.insert(pool.ops_.end(), body.ops.ops.begin(),
                         body.ops.ops.end());
        if (!body.slopes.empty()) {
            out.slopes = pool.slopes_.data() + pool.slopes_.size();
            pool.slopes_.insert(pool.slopes_.end(), body.slopes.begin(),
                                body.slopes.end());
        }
    }

    if (config.enabled && config.verify) {
        stats.verifierErrors = verifyPool(pool, init_value);
        stats.verified = stats.verifierErrors.empty();
    }
    return pool;
}

std::vector<std::string>
verifyPrograms(const std::vector<Program> &programs,
               const InitValueFn &init_value)
{
    return verifyPool(IterationPool::borrow(programs), init_value);
}

std::uint64_t
eliminateRedundantWaits(Program &program)
{
    // Known lower bound on each variable's value at the current
    // point of this program, established by earlier ops' effects in
    // program order. Kept ops are compacted in place.
    BoundTable bound;
    std::vector<Op> &ops = program.ops;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const Op &op = ops[k];
        // A wait that is the op's only effect is dropped when the
        // bound already covers it.
        const bool lone = effectsOf(op.kind)[1].effect == Effect::none;
        bool drop = false;
        forEachEffect(op.kind, [&](EffectSpec e) {
            const SyncVarId var = field(op, e.on);
            if (e.effect == Effect::wait && lone) {
                const SyncWord *known = bound.find(var);
                if (known != nullptr && *known >= field(op, e.arg)) {
                    drop = true;
                    return;
                }
            }
            if (e.effect == Effect::wait || e.effect == Effect::write) {
                SyncWord &b = bound[var];
                b = std::max(b, field(op, e.arg));
            } else if (e.effect == Effect::increment) {
                if (SyncWord *known = bound.find(var))
                    *known += 1; // own increment; var is monotone
            }
            // A maybe-write may be skipped: it establishes nothing.
        });
        if (drop)
            continue;
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
        transform(program, eliminate, merge, stats);
        if (verify)
            for (const Op &op : program.ops)
                reach.add(op);
    }
    // Every threshold is checked against the finished reach table.
    if (verify) {
        for (const Program &program : programs)
            for (const Op &op : program.ops)
                reach.check(program.iter, op, init_value,
                            stats.verifierErrors);
        stats.verified = stats.verifierErrors.empty();
    }
    return stats;
}

} // namespace ir
} // namespace psync
