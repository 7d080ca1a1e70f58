#include "core/blame.hh"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

namespace psync {
namespace core {

std::string
BlameReport::VarBlame::name() const
{
    if (!label.empty())
        return label;
    return std::string("v").append(std::to_string(var));
}

std::string
BlameReport::SiteBlame::name() const
{
    std::string base =
        label.empty() ? std::string("v").append(std::to_string(var))
                      : label;
    return base + "@op" + std::to_string(opId);
}

BlameReport
buildBlameReport(const sim::TraceLog &log, const RunResult &run,
                 sim::Tick bound)
{
    BlameReport report;
    report.run = run;
    report.totalSpinCycles = run.spinCycles;
    report.achievedCycles = run.cycles;
    report.boundCycles = bound;

    std::map<sim::SyncVarId, BlameReport::VarBlame> by_var;
    std::map<std::pair<sim::SyncVarId, std::uint32_t>,
             BlameReport::SiteBlame>
        by_site;
    std::map<unsigned, BlameReport::ModuleHeat> by_module;
    log.forEach([&](const sim::TraceEvent &e) {
        if (e.kind == sim::TraceKind::wait) {
            BlameReport::VarBlame &blame = by_var[e.id];
            blame.var = e.id;
            ++blame.waits;
            blame.blockedCycles += e.cycles();
            blame.maxWait = std::max(blame.maxWait, e.cycles());
            blame.perProc[e.proc] += e.cycles();
            report.attributedSpinCycles += e.cycles();

            BlameReport::SiteBlame &site = by_site[{e.id, e.op}];
            site.var = e.id;
            site.opId = e.op;
            ++site.waits;
            site.blockedCycles += e.cycles();
            site.maxWait = std::max(site.maxWait, e.cycles());
        } else if (e.kind == sim::TraceKind::busy &&
                   e.codeAs<sim::Resource>() == sim::Resource::module) {
            BlameReport::ModuleHeat &heat = by_module[e.id];
            heat.module = e.id;
            heat.busyCycles += e.cycles();
            ++heat.accesses;
        }
    });

    for (auto &entry : by_var) {
        entry.second.label = log.syncVarLabel(entry.first);
        report.vars.push_back(std::move(entry.second));
    }
    std::stable_sort(report.vars.begin(), report.vars.end(),
                     [](const auto &a, const auto &b) {
                         return a.blockedCycles > b.blockedCycles;
                     });

    for (auto &entry : by_site) {
        entry.second.label = log.syncVarLabel(entry.first.first);
        report.sites.push_back(std::move(entry.second));
    }
    std::stable_sort(report.sites.begin(), report.sites.end(),
                     [](const auto &a, const auto &b) {
                         return a.blockedCycles > b.blockedCycles;
                     });

    for (auto &entry : by_module)
        report.modules.push_back(entry.second);

    // Topology heat rides on the run's collected aggregates rather
    // than the trace: the per-stage / per-cluster counters are
    // whole-run sums the fabric keeps anyway.
    for (std::size_t s = 0; s < run.netStageConflicts.size(); ++s) {
        BlameReport::StageHeat heat;
        heat.stage = static_cast<unsigned>(s);
        heat.conflicts = run.netStageConflicts[s];
        heat.conflictCycles = run.netStageConflictCycles[s];
        heat.combines = run.netStageCombines[s];
        heat.utilization = run.netStageUtilization[s];
        report.netStages.push_back(heat);
    }
    for (std::size_t c = 0; c < run.clusterBusUtilization.size();
         ++c) {
        BlameReport::ClusterHeat heat;
        heat.cluster = static_cast<unsigned>(c);
        heat.busUtilization = run.clusterBusUtilization[c];
        report.clusters.push_back(heat);
    }

    return report;
}

json::Value
BlameReport::toJson() const
{
    json::Value doc = json::object();

    json::Value vars_json = json::array();
    for (const auto &blame : vars) {
        json::Value v = json::object();
        v.set("var", static_cast<std::uint64_t>(blame.var));
        if (!blame.label.empty())
            v.set("label", blame.label);
        v.set("waits", blame.waits);
        v.set("blocked_cycles",
              static_cast<std::uint64_t>(blame.blockedCycles));
        v.set("max_wait", static_cast<std::uint64_t>(blame.maxWait));
        json::Value per_proc = json::object();
        for (const auto &entry : blame.perProc) {
            per_proc.set(std::to_string(entry.first),
                         static_cast<std::uint64_t>(entry.second));
        }
        v.set("blocked_cycles_by_proc", std::move(per_proc));
        vars_json.push(std::move(v));
    }
    doc.set("vars", std::move(vars_json));

    json::Value sites_json = json::array();
    for (const auto &site : sites) {
        json::Value s = json::object();
        s.set("var", static_cast<std::uint64_t>(site.var));
        s.set("op_id", static_cast<std::uint64_t>(site.opId));
        if (!site.label.empty())
            s.set("label", site.label);
        s.set("waits", site.waits);
        s.set("blocked_cycles",
              static_cast<std::uint64_t>(site.blockedCycles));
        s.set("max_wait", static_cast<std::uint64_t>(site.maxWait));
        sites_json.push(std::move(s));
    }
    doc.set("wait_sites", std::move(sites_json));

    json::Value modules_json = json::array();
    for (const auto &heat : modules) {
        json::Value m = json::object();
        m.set("module", heat.module);
        m.set("busy_cycles",
              static_cast<std::uint64_t>(heat.busyCycles));
        m.set("accesses", heat.accesses);
        modules_json.push(std::move(m));
    }
    doc.set("modules", std::move(modules_json));

    if (!netStages.empty()) {
        json::Value stages_json = json::array();
        for (const auto &heat : netStages) {
            json::Value s = json::object();
            s.set("stage", heat.stage);
            s.set("conflicts", heat.conflicts);
            s.set("conflict_cycles",
                  static_cast<std::uint64_t>(heat.conflictCycles));
            s.set("combines", heat.combines);
            s.set("utilization", heat.utilization);
            stages_json.push(std::move(s));
        }
        doc.set("net_stages", std::move(stages_json));
    }

    if (!clusters.empty()) {
        json::Value clusters_json = json::array();
        for (const auto &heat : clusters) {
            json::Value c = json::object();
            c.set("cluster", heat.cluster);
            c.set("bus_utilization", heat.busUtilization);
            clusters_json.push(std::move(c));
        }
        doc.set("clusters", std::move(clusters_json));
    }

    doc.set("attributed_spin_cycles",
            static_cast<std::uint64_t>(attributedSpinCycles));
    doc.set("total_spin_cycles",
            static_cast<std::uint64_t>(totalSpinCycles));
    doc.set("spin_coverage", spinCoverage());
    doc.set("achieved_cycles",
            static_cast<std::uint64_t>(achievedCycles));
    doc.set("bound_cycles", static_cast<std::uint64_t>(boundCycles));
    doc.set("slack_factor", slackFactor());

    json::Value split = json::object();
    split.set("compute_cycles",
              static_cast<std::uint64_t>(run.computeCycles));
    split.set("spin_cycles",
              static_cast<std::uint64_t>(run.spinCycles));
    split.set("sync_overhead_cycles",
              static_cast<std::uint64_t>(run.syncOverheadCycles));
    split.set("stall_cycles",
              static_cast<std::uint64_t>(run.stallCycles));
    doc.set("cycle_split", std::move(split));
    return doc;
}

void
BlameReport::writeText(std::ostream &os) const
{
    auto pct = [](double fraction) {
        std::ostringstream s;
        s << std::fixed << std::setprecision(1) << fraction * 100.0
          << "%";
        return s.str();
    };

    os << "-- contention blame "
       << "--------------------------------------------\n";
    os << "spin cycles attributed: " << attributedSpinCycles << " / "
       << totalSpinCycles << " (" << pct(spinCoverage()) << ")\n";
    os << std::left << std::setw(16) << "variable" << std::right
       << std::setw(8) << "waits" << std::setw(13) << "blocked-cyc"
       << std::setw(8) << "share" << std::setw(10) << "max-wait"
       << std::setw(7) << "procs" << "\n";
    for (const auto &blame : vars) {
        double share =
            totalSpinCycles
                ? static_cast<double>(blame.blockedCycles) /
                      static_cast<double>(totalSpinCycles)
                : 0.0;
        os << std::left << std::setw(16) << blame.name()
           << std::right << std::setw(8) << blame.waits
           << std::setw(13) << blame.blockedCycles << std::setw(8)
           << pct(share) << std::setw(10) << blame.maxWait
           << std::setw(7) << blame.perProc.size() << "\n";
    }
    if (vars.empty())
        os << "(no blocking waits recorded)\n";

    os << "-- wait sites (variable @ IR op id) "
       << "----------------------------\n";
    if (sites.empty()) {
        os << "(no per-op wait edges recorded)\n";
    } else {
        os << std::left << std::setw(20) << "site" << std::right
           << std::setw(8) << "waits" << std::setw(13)
           << "blocked-cyc" << std::setw(10) << "max-wait" << "\n";
        for (const auto &site : sites) {
            os << std::left << std::setw(20) << site.name()
               << std::right << std::setw(8) << site.waits
               << std::setw(13) << site.blockedCycles
               << std::setw(10) << site.maxWait << "\n";
        }
    }

    os << "-- memory-module heat "
       << "------------------------------------------\n";
    if (modules.empty()) {
        os << "(no module activity recorded)\n";
    } else {
        sim::Tick max_busy = 0;
        sim::Tick total_busy = 0;
        for (const auto &heat : modules) {
            max_busy = std::max(max_busy, heat.busyCycles);
            total_busy += heat.busyCycles;
        }
        os << std::left << std::setw(8) << "module" << std::right
           << std::setw(10) << "accesses" << std::setw(11)
           << "busy-cyc" << std::setw(8) << "share" << "  \n";
        for (const auto &heat : modules) {
            double share =
                total_busy ? static_cast<double>(heat.busyCycles) /
                                 static_cast<double>(total_busy)
                           : 0.0;
            unsigned bar =
                max_busy ? static_cast<unsigned>(
                               (heat.busyCycles * 24) / max_busy)
                         : 0;
            os << std::left << std::setw(8) << heat.module
               << std::right << std::setw(10) << heat.accesses
               << std::setw(11) << heat.busyCycles << std::setw(8)
               << pct(share) << "  "
               << std::string(bar, '#') << "\n";
        }
    }

    if (!netStages.empty()) {
        os << "-- combining-network stage heat "
           << "--------------------------------\n";
        sim::Tick max_wait = 0;
        for (const auto &heat : netStages)
            max_wait = std::max(max_wait, heat.conflictCycles);
        os << std::left << std::setw(7) << "stage" << std::right
           << std::setw(11) << "conflicts" << std::setw(13)
           << "wait-cyc" << std::setw(11) << "combines"
           << std::setw(8) << "util" << "  \n";
        for (const auto &heat : netStages) {
            unsigned bar =
                max_wait ? static_cast<unsigned>(
                               (heat.conflictCycles * 24) / max_wait)
                         : 0;
            os << std::left << std::setw(7) << heat.stage
               << std::right << std::setw(11) << heat.conflicts
               << std::setw(13) << heat.conflictCycles
               << std::setw(11) << heat.combines << std::setw(8)
               << pct(heat.utilization) << "  "
               << std::string(bar, '#') << "\n";
        }
    }

    if (!clusters.empty()) {
        os << "-- cluster-bus heat "
           << "--------------------------------------------\n";
        double max_util = 0.0;
        for (const auto &heat : clusters)
            max_util = std::max(max_util, heat.busUtilization);
        os << std::left << std::setw(9) << "cluster" << std::right
           << std::setw(8) << "util" << "  \n";
        for (const auto &heat : clusters) {
            unsigned bar =
                max_util > 0.0
                    ? static_cast<unsigned>(heat.busUtilization /
                                            max_util * 24.0)
                    : 0;
            os << std::left << std::setw(9) << heat.cluster
               << std::right << std::setw(8)
               << pct(heat.busUtilization) << "  "
               << std::string(bar, '#') << "\n";
        }
    }

    os << "-- achieved vs bound "
       << "-------------------------------------------\n";
    os << "achieved " << achievedCycles << " cycles";
    if (boundCycles) {
        os << " vs bound " << boundCycles << " (" << std::fixed
           << std::setprecision(2) << slackFactor() << "x)";
    }
    os << "\n";
    sim::Tick proc_cycles =
        static_cast<sim::Tick>(run.cycles) * run.numProcs;
    if (proc_cycles) {
        sim::Tick accounted = run.computeCycles + run.spinCycles +
                              run.syncOverheadCycles +
                              run.stallCycles;
        sim::Tick idle =
            proc_cycles > accounted ? proc_cycles - accounted : 0;
        auto line = [&](const char *what, sim::Tick cycles) {
            os << "  " << std::left << std::setw(9) << what
               << std::right << std::setw(7)
               << pct(static_cast<double>(cycles) /
                      static_cast<double>(proc_cycles))
               << std::setw(13) << cycles << "\n";
        };
        os << "cycle split (" << run.numProcs << " procs x "
           << run.cycles << " = " << proc_cycles
           << " proc-cycles):\n";
        line("compute", run.computeCycles);
        line("spin", run.spinCycles);
        line("sync", run.syncOverheadCycles);
        line("stall", run.stallCycles);
        line("idle", idle);
    }
}

} // namespace core
} // namespace psync
