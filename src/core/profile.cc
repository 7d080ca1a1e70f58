#include "core/profile.hh"

#include <algorithm>
#include <iomanip>

#include "ir/semantics.hh"

namespace psync {
namespace core {

namespace {

using sim::TraceEvent;
using sim::TraceKind;
using Segment = CriticalPathProfile::Segment;
using SegmentKind = CriticalPathProfile::SegmentKind;

/** Events of one kind, one list per processor. */
using PerProc = std::vector<std::vector<const TraceEvent *>>;

/** `lists[p]`, growing `lists` to cover processor `p`. */
std::vector<const TraceEvent *> &
procList(PerProc &lists, sim::ProcId p)
{
    if (p >= lists.size())
        lists.resize(static_cast<std::size_t>(p) + 1);
    return lists[p];
}

/** Stable-sort `v` by `key`, so push order breaks ties. */
template <typename Key>
void
sortBy(std::vector<const TraceEvent *> &v, Key key)
{
    std::stable_sort(v.begin(), v.end(),
                     [&](const TraceEvent *a, const TraceEvent *b) {
                         return key(a) < key(b);
                     });
}

const char *
segmentKindName(SegmentKind kind)
{
    switch (kind) {
      case SegmentKind::op:
        return "op";
      case SegmentKind::wait:
        return "wait";
      case SegmentKind::dispatch:
        return "dispatch";
      case SegmentKind::start:
        return "start";
    }
    return "?";
}

/** Sync-var accesses that commit a new value (vs. observe one). */
bool
isCommitOp(sim::SyncOp op)
{
    switch (op) {
      case sim::SyncOp::write:
      case sim::SyncOp::broadcast:
      case sim::SyncOp::rmw:
      case sim::SyncOp::keyed:
      case sim::SyncOp::coalesced:
        return true;
      default:
        return false;
    }
}

} // namespace

CriticalPathProfile
buildCriticalPathProfile(const sim::TraceLog &log,
                         sim::Tick run_cycles, sim::Tick bound_cycles)
{
    CriticalPathProfile prof;
    prof.boundCycles = bound_cycles;

    // --- Per-processor indices, one pass over the log ---
    PerProc proc_spans, proc_edges, proc_phases, proc_modules;
    std::map<sim::SyncVarId, std::vector<const TraceEvent *>>
        var_events;
    std::size_t num_spans = 0;
    log.forEach([&](const TraceEvent &e) {
        switch (e.kind) {
          case TraceKind::span:
            procList(proc_spans, e.proc).push_back(&e);
            ++num_spans;
            break;
          case TraceKind::wait:
            procList(proc_edges, e.proc).push_back(&e);
            break;
          case TraceKind::phase:
            procList(proc_phases, e.proc).push_back(&e);
            break;
          case TraceKind::syncOp:
            if (isCommitOp(e.codeAs<sim::SyncOp>()))
                var_events[e.id].push_back(&e);
            break;
          case TraceKind::busy:
            if (e.codeAs<sim::Resource>() == sim::Resource::module)
                procList(proc_modules, e.proc).push_back(&e);
            break;
          default:
            break;
        }
    });
    const std::size_t np = std::max(
        {proc_spans.size(), proc_edges.size(), proc_phases.size()});
    proc_spans.resize(np);
    proc_edges.resize(np);
    proc_phases.resize(np);
    proc_modules.resize(np);
    auto by_end = [](const TraceEvent *e) { return e->t1; };
    auto by_start = [](const TraceEvent *e) { return e->t0; };
    for (auto &v : proc_spans)
        sortBy(v, by_end);
    for (auto &v : proc_edges)
        sortBy(v, by_end);
    for (auto &v : proc_phases)
        sortBy(v, by_start);
    for (auto &v : proc_modules)
        sortBy(v, by_start);
    for (auto &entry : var_events)
        sortBy(entry.second, by_start);

    // Op `op` of processor `p` that completed at `end`; the first
    // recorded one when several match. Op ids restart at 1 per
    // program, so the id alone is ambiguous across program shapes
    // (init vs. main loop, branch variants).
    auto span_ending = [&](sim::ProcId p, std::uint32_t op,
                           sim::Tick end) -> const TraceEvent * {
        const auto &v = proc_spans[p];
        auto it = std::lower_bound(
            v.begin(), v.end(), end,
            [](const TraceEvent *s, sim::Tick t) { return s->t1 < t; });
        for (; it != v.end() && (*it)->t1 == end; ++it) {
            if ((*it)->op == op)
                return *it;
        }
        return nullptr;
    };

    // --- Latency histograms (independent of the path walk) ---
    // The blocking op's span ends exactly when its wait does.
    for (const auto &edges : proc_edges) {
        for (const TraceEvent *e : edges) {
            prof.waitAll.record(e->cycles());
            prof.waitByVar[e->id].record(e->cycles());
            const TraceEvent *s = span_ending(e->proc, e->op, e->t1);
            const char *name =
                s ? ir::opKindName(s->codeAs<ir::OpKind>())
                  : "unknown";
            prof.waitByKind[name].record(e->cycles());
        }
    }

    if (num_spans == 0 || run_cycles == 0)
        return prof;

    // --- Lookup helpers over the indices ---
    // Latest wait of `p` satisfied inside (lo, hi].
    auto latest_edge_in = [&](sim::ProcId p, sim::Tick lo,
                              sim::Tick hi) -> const TraceEvent * {
        const auto &v = proc_edges[p];
        auto it = std::upper_bound(
            v.begin(), v.end(), hi,
            [](sim::Tick t, const TraceEvent *e) { return t < e->t1; });
        if (it == v.begin())
            return nullptr;
        const TraceEvent *e = *(it - 1);
        return e->t1 > lo ? e : nullptr;
    };

    // Latest span of `p` completing at or before `t`.
    auto latest_span_before = [&](sim::ProcId p,
                                  sim::Tick t) -> const TraceEvent * {
        const auto &v = proc_spans[p];
        auto it = std::upper_bound(
            v.begin(), v.end(), t,
            [](sim::Tick tt, const TraceEvent *s) { return tt < s->t1; });
        if (it == v.begin())
            return nullptr;
        return *(it - 1);
    };

    // Producer op on `q` whose result reached the fabric by `t`:
    // prefer a recent sync-writing op on `var`, fall back to the
    // latest op of `q` (its completion still happens-before `t`).
    auto producer_span = [&](sim::ProcId q, sim::SyncVarId var,
                             sim::Tick t) -> const TraceEvent * {
        const auto &v = proc_spans[q];
        auto it = std::upper_bound(
            v.begin(), v.end(), t,
            [](sim::Tick tt, const TraceEvent *s) { return tt < s->t1; });
        const TraceEvent *fallback = nullptr;
        unsigned scanned = 0;
        while (it != v.begin() && scanned < 8) {
            --it;
            ++scanned;
            const TraceEvent *s = *it;
            if (!fallback)
                fallback = s;
            // Only an op that may change a sync variable can have
            // produced the value a waiter saw.
            if (s->id == var && ir::signals(s->codeAs<ir::OpKind>()))
                return s;
        }
        return fallback;
    };

    // The committing access on the waited variable that woke the
    // waiter: latest commit event by another processor at or
    // before the wake tick; returns that writer's producing span.
    auto find_writer = [&](const TraceEvent &edge,
                           sim::ProcId waiter) -> const TraceEvent * {
        auto itv = var_events.find(edge.id);
        if (itv == var_events.end())
            return nullptr;
        const auto &v = itv->second;
        auto it = std::upper_bound(
            v.begin(), v.end(), edge.t1,
            [](sim::Tick t, const TraceEvent *e) { return t < e->t0; });
        unsigned scanned = 0;
        while (it != v.begin() && scanned < 64) {
            --it;
            ++scanned;
            if ((*it)->proc == waiter)
                continue;
            if ((*it)->proc >= np)
                continue;
            const TraceEvent *sq =
                producer_span((*it)->proc, edge.id, edge.t1);
            if (sq)
                return sq;
        }
        return nullptr;
    };

    // --- Backward walk from the op that finished last ---
    // Ties go to the lowest processor, then to the first recorded.
    const TraceEvent *cur = nullptr;
    for (const auto &v : proc_spans) {
        if (v.empty())
            continue;
        auto last = std::lower_bound(
            v.begin(), v.end(), v.back()->t1,
            [](const TraceEvent *s, sim::Tick t) { return s->t1 < t; });
        if (!cur || (*last)->t1 > cur->t1)
            cur = *last;
    }

    std::vector<Segment> segs;
    sim::Tick frontier = run_cycles;

    // Close the path tile [from, frontier) and move the frontier.
    auto push_seg = [&](SegmentKind kind, sim::ProcId proc,
                        sim::Tick from, const TraceEvent *sp,
                        sim::SyncVarId var, bool has_var) {
        if (from >= frontier)
            return;
        Segment g;
        g.kind = kind;
        g.proc = proc;
        g.start = from;
        g.end = frontier;
        if (sp) {
            g.opId = sp->op;
            g.opKind = sp->codeAs<ir::OpKind>();
            g.iter = sp->iter;
        }
        g.var = var;
        g.hasVar = has_var;
        segs.push_back(g);
        frontier = from;
    };
    auto push_op = [&](const TraceEvent *sp, sim::Tick from) {
        // A sync op's span names the variable it acted on.
        push_seg(SegmentKind::op, sp->proc, from, sp, sp->id,
                 ir::isSync(sp->codeAs<ir::OpKind>()));
    };

    // Drain between the last op and the completion tick.
    if (cur->t1 < frontier)
        push_seg(SegmentKind::dispatch, cur->proc, cur->t1, nullptr,
                 0, false);

    const std::size_t max_steps = num_spans * 2 + 64;
    std::size_t steps = 0;
    while (true) {
        if (++steps > max_steps) {
            prof.truncated = true;
            break;
        }
        const TraceEvent *edge = latest_edge_in(
            cur->proc, cur->t0, std::min(cur->t1, frontier));
        if (edge) {
            // Post-wake part of the op.
            push_op(cur, edge->t1);
            const TraceEvent *sq = find_writer(*edge, cur->proc);
            if (sq && sq->t1 <= edge->t1 && sq != cur) {
                // Producer completion -> waiter wake: fabric
                // propagation charged to the variable.
                push_seg(SegmentKind::wait, cur->proc, sq->t1,
                         nullptr, edge->id, true);
                cur = sq;
                continue;
            }
            // No visible causal writer (e.g. the value predates the
            // recorded window): charge the block to the variable
            // and continue in this processor's program order.
            push_seg(SegmentKind::wait, cur->proc, cur->t0,
                     nullptr, edge->id, true);
        } else {
            push_op(cur, cur->t0);
        }
        const TraceEvent *prev = latest_span_before(
            cur->proc, std::min(cur->t0, frontier));
        if (prev == nullptr) {
            push_seg(SegmentKind::start, cur->proc, 0, nullptr, 0,
                     false);
            break;
        }
        push_seg(SegmentKind::dispatch, cur->proc, prev->t1, nullptr,
                 0, false);
        cur = prev;
    }
    // A truncated walk leaves [0, frontier) unattributed; tile it
    // so the achieved length still equals total cycles.
    if (frontier > 0)
        push_seg(SegmentKind::start, cur->proc, 0, nullptr, 0, false);

    std::reverse(segs.begin(), segs.end());
    prof.segments = std::move(segs);

    // --- Phase decomposition and attribution ---
    std::map<sim::SyncVarId, sim::Tick> var_cycles;
    std::map<sim::ProcId, sim::Tick> proc_cycles;
    std::map<unsigned, sim::Tick> module_cycles;

    for (auto &g : prof.segments) {
        sim::Tick len = g.cycles();
        prof.achievedCycles += len;
        if (g.kind == SegmentKind::wait) {
            prof.propagationCycles += len;
            var_cycles[g.var] += len;
            continue;
        }
        proc_cycles[g.proc] += len;

        sim::Tick covered = 0;
        for (const TraceEvent *p : proc_phases[g.proc]) {
            if (p->t1 <= g.start)
                continue;
            if (p->t0 >= g.end)
                break;
            sim::Tick ov = std::min(p->t1, g.end) -
                           std::max(p->t0, g.start);
            covered += ov;
            switch (p->codeAs<sim::TracePhase>()) {
              case sim::TracePhase::compute:
                g.compute += ov;
                break;
              case sim::TracePhase::spin:
                g.spin += ov;
                break;
              case sim::TracePhase::syncOverhead:
                g.sync += ov;
                break;
              case sim::TracePhase::stall:
                g.stall += ov;
                break;
              case sim::TracePhase::dispatch:
                g.dispatch += ov;
                break;
            }
        }
        g.other = len > covered ? len - covered : 0;
        prof.computeCycles += g.compute;
        prof.spinCycles += g.spin;
        prof.syncCycles += g.sync;
        prof.stallCycles += g.stall;
        prof.dispatchCycles += g.dispatch;
        prof.otherCycles += g.other;

        for (const TraceEvent *r : proc_modules[g.proc]) {
            if (r->t1 <= g.start)
                continue;
            if (r->t0 >= g.end)
                break;
            module_cycles[r->id] += std::min(r->t1, g.end) -
                                    std::max(r->t0, g.start);
        }
    }

    for (const auto &entry : var_cycles) {
        CriticalPathProfile::VarShare share;
        share.var = entry.first;
        share.label = log.syncVarLabel(entry.first);
        share.cycles = entry.second;
        prof.varShares.push_back(std::move(share));
    }
    std::stable_sort(prof.varShares.begin(), prof.varShares.end(),
                     [](const CriticalPathProfile::VarShare &a,
                        const CriticalPathProfile::VarShare &b) {
                         return a.cycles > b.cycles;
                     });

    for (const auto &entry : proc_cycles)
        prof.procShares.push_back({entry.first, entry.second});
    std::stable_sort(prof.procShares.begin(), prof.procShares.end(),
                     [](const CriticalPathProfile::ProcShare &a,
                        const CriticalPathProfile::ProcShare &b) {
                         return a.cycles > b.cycles;
                     });

    for (const auto &entry : module_cycles)
        prof.moduleShares.push_back({entry.first, entry.second});
    std::stable_sort(
        prof.moduleShares.begin(), prof.moduleShares.end(),
        [](const CriticalPathProfile::ModuleShare &a,
           const CriticalPathProfile::ModuleShare &b) {
            return a.cycles > b.cycles;
        });

    return prof;
}

json::Value
CriticalPathProfile::toJson() const
{
    json::Value v = json::object();
    v.set("achieved_cycles",
          static_cast<std::uint64_t>(achievedCycles));
    v.set("bound_cycles", static_cast<std::uint64_t>(boundCycles));
    v.set("gap_pct", gapPct());
    v.set("truncated", truncated);

    json::Value ph = json::object();
    ph.set("compute", static_cast<std::uint64_t>(computeCycles));
    ph.set("spin", static_cast<std::uint64_t>(spinCycles));
    ph.set("sync_overhead", static_cast<std::uint64_t>(syncCycles));
    ph.set("stall", static_cast<std::uint64_t>(stallCycles));
    ph.set("dispatch", static_cast<std::uint64_t>(dispatchCycles));
    ph.set("propagation",
           static_cast<std::uint64_t>(propagationCycles));
    ph.set("other", static_cast<std::uint64_t>(otherCycles));
    v.set("phases", std::move(ph));

    json::Value by_var = json::array();
    for (const auto &s : varShares) {
        json::Value e = json::object();
        e.set("var", static_cast<std::uint64_t>(s.var));
        if (!s.label.empty())
            e.set("label", s.label);
        e.set("cycles", static_cast<std::uint64_t>(s.cycles));
        by_var.push(std::move(e));
    }
    v.set("by_var", std::move(by_var));

    json::Value by_proc = json::array();
    for (const auto &s : procShares) {
        json::Value e = json::object();
        e.set("proc", static_cast<std::uint64_t>(s.proc));
        e.set("cycles", static_cast<std::uint64_t>(s.cycles));
        by_proc.push(std::move(e));
    }
    v.set("by_proc", std::move(by_proc));

    json::Value by_module = json::array();
    for (const auto &s : moduleShares) {
        json::Value e = json::object();
        e.set("module", s.module);
        e.set("cycles", static_cast<std::uint64_t>(s.cycles));
        by_module.push(std::move(e));
    }
    v.set("by_module", std::move(by_module));

    v.set("wait_latency", waitAll.toJson());

    json::Value by_kind = json::object();
    for (const auto &entry : waitByKind)
        by_kind.set(entry.first, entry.second.toJson());
    v.set("wait_by_kind", std::move(by_kind));

    json::Value wait_by_var = json::array();
    for (const auto &entry : waitByVar) {
        json::Value e = entry.second.toJson();
        json::Value out = json::object();
        out.set("var", static_cast<std::uint64_t>(entry.first));
        for (auto &member : e.asObject())
            out.set(member.first, std::move(member.second));
        wait_by_var.push(std::move(out));
    }
    v.set("wait_by_var", std::move(wait_by_var));

    json::Value segs = json::array();
    for (const auto &g : segments) {
        json::Value e = json::object();
        e.set("kind", segmentKindName(g.kind));
        e.set("proc", static_cast<std::uint64_t>(g.proc));
        e.set("start", static_cast<std::uint64_t>(g.start));
        e.set("end", static_cast<std::uint64_t>(g.end));
        if (g.kind == SegmentKind::op) {
            e.set("op_kind", ir::opKindName(g.opKind));
            e.set("op_id", g.opId);
            e.set("iter", g.iter);
        }
        if (g.hasVar)
            e.set("var", static_cast<std::uint64_t>(g.var));
        if (g.kind != SegmentKind::wait) {
            json::Value d = json::object();
            d.set("compute", static_cast<std::uint64_t>(g.compute));
            d.set("spin", static_cast<std::uint64_t>(g.spin));
            d.set("sync_overhead",
                  static_cast<std::uint64_t>(g.sync));
            d.set("stall", static_cast<std::uint64_t>(g.stall));
            d.set("dispatch",
                  static_cast<std::uint64_t>(g.dispatch));
            d.set("other", static_cast<std::uint64_t>(g.other));
            e.set("phases", std::move(d));
        }
        segs.push(std::move(e));
    }
    v.set("segments", std::move(segs));
    return v;
}

namespace {

void
printPct(std::ostream &os, const char *name, sim::Tick part,
         sim::Tick whole)
{
    if (part == 0)
        return;
    os << "  " << name << " " << part << " ("
       << std::fixed << std::setprecision(1)
       << (whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0)
       << "%)";
}

void
printHistLine(std::ostream &os, const char *label,
              const LogHistogram &h)
{
    os << "    " << std::left << std::setw(14) << label
       << std::right << " n=" << std::setw(7) << h.count()
       << "  p50=" << std::setw(8) << h.percentile(0.50)
       << "  p95=" << std::setw(8) << h.percentile(0.95)
       << "  p99=" << std::setw(8) << h.percentile(0.99)
       << "  max=" << std::setw(8) << h.max() << "\n";
}

} // namespace

void
CriticalPathProfile::writeText(std::ostream &os,
                               const std::string &label) const
{
    os << "critical path";
    if (!label.empty())
        os << " [" << label << "]";
    os << ": achieved " << achievedCycles << " cycles, bound "
       << boundCycles;
    if (boundCycles) {
        os << " (gap " << std::fixed << std::setprecision(1)
           << gapPct() << "%)";
    }
    if (truncated)
        os << " [truncated]";
    os << "\n  composition:";
    printPct(os, "compute", computeCycles, achievedCycles);
    printPct(os, "spin", spinCycles, achievedCycles);
    printPct(os, "sync", syncCycles, achievedCycles);
    printPct(os, "stall", stallCycles, achievedCycles);
    printPct(os, "dispatch", dispatchCycles, achievedCycles);
    printPct(os, "propagation", propagationCycles, achievedCycles);
    printPct(os, "other", otherCycles, achievedCycles);
    os << "\n";

    if (!varShares.empty()) {
        os << "  hottest sync vars on path:";
        std::size_t shown = 0;
        for (const auto &s : varShares) {
            if (shown++ == 5)
                break;
            os << "  v" << s.var;
            if (!s.label.empty())
                os << "(" << s.label << ")";
            os << "=" << s.cycles;
        }
        if (varShares.size() > 5)
            os << "  (+" << varShares.size() - 5 << " more)";
        os << "\n";
    }
    if (!procShares.empty()) {
        os << "  path cycles by proc:";
        std::size_t shown = 0;
        for (const auto &s : procShares) {
            if (shown++ == 5)
                break;
            os << "  p" << s.proc << "=" << s.cycles;
        }
        if (procShares.size() > 5)
            os << "  (+" << procShares.size() - 5 << " more)";
        os << "\n";
    }
    if (!moduleShares.empty()) {
        os << "  module busy under path:";
        std::size_t shown = 0;
        for (const auto &s : moduleShares) {
            if (shown++ == 3)
                break;
            os << "  m" << s.module << "=" << s.cycles;
        }
        if (moduleShares.size() > 3)
            os << "  (+" << moduleShares.size() - 3 << " more)";
        os << "\n";
    }

    if (waitAll.count()) {
        os << "  wait latency (cycles):\n";
        printHistLine(os, "all waits", waitAll);
        for (const auto &entry : waitByKind)
            printHistLine(os, entry.first.c_str(), entry.second);
    }

    constexpr std::size_t kMaxSegs = 32;
    os << "  path (" << segments.size() << " segments";
    if (segments.size() > kMaxSegs)
        os << ", first " << kMaxSegs;
    os << "):\n";
    std::size_t shown = 0;
    for (const auto &g : segments) {
        if (shown++ == kMaxSegs)
            break;
        os << "    [" << std::setw(9) << g.start << ","
           << std::setw(9) << g.end << ") ";
        switch (g.kind) {
          case SegmentKind::op:
            os << "p" << g.proc << " " << ir::opKindName(g.opKind)
               << "#" << g.opId << " iter " << g.iter;
            if (g.hasVar)
                os << " var " << g.var;
            break;
          case SegmentKind::wait:
            os << "p" << g.proc << " wait var " << g.var
               << " (propagation)";
            break;
          case SegmentKind::dispatch:
            os << "p" << g.proc << " dispatch";
            break;
          case SegmentKind::start:
            os << "p" << g.proc << " lead-in";
            break;
        }
        os << "\n";
    }
}

json::Value
CriticalPathProfile::perfettoEvents() const
{
    // Dedicated "critical path" process so the track sits next to
    // the per-processor phase tracks from chromeTrace().
    constexpr int pid_critpath = 2;
    json::Value events = json::array();

    json::Value meta = json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", pid_critpath);
    meta.set("tid", 0);
    json::Value margs = json::object();
    margs.set("name", "critical path");
    meta.set("args", std::move(margs));
    events.push(std::move(meta));

    for (const auto &g : segments) {
        json::Value ev = json::object();
        std::string name;
        switch (g.kind) {
          case SegmentKind::op:
            name = std::string(ir::opKindName(g.opKind)) + " p" +
                   std::to_string(g.proc);
            break;
          case SegmentKind::wait:
            name = "wait v" + std::to_string(g.var);
            break;
          case SegmentKind::dispatch:
            name = "dispatch p" + std::to_string(g.proc);
            break;
          case SegmentKind::start:
            name = "lead-in";
            break;
        }
        ev.set("name", name);
        ev.set("cat", "critpath");
        ev.set("ph", "X");
        ev.set("ts", static_cast<std::uint64_t>(g.start));
        ev.set("dur", static_cast<std::uint64_t>(g.cycles()));
        ev.set("pid", pid_critpath);
        ev.set("tid", 0);
        json::Value args = json::object();
        args.set("kind", segmentKindName(g.kind));
        args.set("proc", static_cast<std::uint64_t>(g.proc));
        if (g.kind == SegmentKind::op)
            args.set("op_id", g.opId);
        if (g.hasVar)
            args.set("var", static_cast<std::uint64_t>(g.var));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    return events;
}

} // namespace core
} // namespace psync
