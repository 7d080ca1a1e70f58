#include "bench/compare.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

#include "bench/registry.hh"

namespace psync {
namespace bench {

core::json::Value
makeTrajectoryDoc()
{
    core::json::Value doc = core::json::object();
    doc.set("schema_version", kTrajectorySchemaVersion);
    doc.set("records", core::json::array());
    return doc;
}

bool
readJsonFile(const std::string &path, core::json::Value &out)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << is.rdbuf();
    auto parsed = core::json::parse(text.str());
    if (!parsed.ok) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     parsed.error.c_str());
        return false;
    }
    out = std::move(parsed.value);
    return true;
}

bool
writeJsonFile(const std::string &path, const core::json::Value &doc)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    doc.dump(os, 2);
    os << "\n";
    return true;
}

bool
openTrajectory(const std::string &path, core::json::Value &doc)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        doc = makeTrajectoryDoc();
        return true;
    }
    core::json::Value existing;
    if (!readJsonFile(path, existing))
        return false;
    Trajectory loaded = loadTrajectory(existing);
    if (!loaded.ok) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     loaded.error.c_str());
        return false;
    }
    // The loader read the first header member, so it is current;
    // drop any an older writer stacked after it.
    bool seen = false;
    auto &members = existing.asObject();
    for (auto it = members.begin(); it != members.end();) {
        if (it->first == "schema_version" && std::exchange(seen, true))
            it = members.erase(it);
        else
            ++it;
    }
    doc = std::move(existing);
    return true;
}

void
mergeRecord(core::json::Value &doc, core::json::Value record)
{
    const core::json::Value *id = record.find("scenario");
    for (auto &member : doc.asObject()) {
        if (member.first != "records")
            continue;
        if (id && id->isString()) {
            for (auto &existing : member.second.asArray()) {
                const core::json::Value *existing_id =
                    existing.find("scenario");
                if (existing_id && existing_id->isString() &&
                    existing_id->asString() == id->asString()) {
                    existing = std::move(record);
                    return;
                }
            }
        }
        member.second.push(std::move(record));
        return;
    }
    doc.set("records", core::json::Value(
                           core::json::Array{std::move(record)}));
}

Trajectory
loadTrajectory(const core::json::Value &doc)
{
    Trajectory t;
    const core::json::Value *version = doc.find("schema_version");
    if (!version || !version->isNumber()) {
        t.error = "missing schema_version";
        return t;
    }
    int v = static_cast<int>(version->asNumber());
    if (v != kTrajectorySchemaVersion) {
        t.error = "unsupported schema_version " + std::to_string(v) +
                  " (this build reads only v" +
                  std::to_string(kTrajectorySchemaVersion) + ")";
        return t;
    }
    const core::json::Value *records = doc.find("records");
    if (!records || !records->isArray()) {
        t.error = "missing records array";
        return t;
    }
    for (const auto &record : records->asArray()) {
        // Only sim records have simulated cycles to compare; skip
        // the native, fuzz and serve (wall-time) records. A record
        // without a kind is a sim record.
        const core::json::Value *kind = record.find("kind");
        if (kind && kind->isString() && kind->asString() != "sim")
            continue;
        const core::json::Value *id = record.find("scenario");
        const core::json::Value *cycles = record.find("cycles");
        if (!id || !id->isString() || !cycles ||
            !cycles->isNumber()) {
            t.error = "record without scenario id or cycles";
            return t;
        }
        t.cycles.emplace_back(
            id->asString(),
            static_cast<std::uint64_t>(cycles->asNumber()));
    }
    t.ok = true;
    return t;
}

CompareResult
compareTrajectories(const core::json::Value &baseline,
                    const core::json::Value &current,
                    const CompareOptions &opts)
{
    CompareResult result;
    auto fail = [&result](const std::string &what) {
        ScenarioDelta delta;
        delta.id = what;
        delta.kind = ScenarioDelta::Kind::regression;
        result.deltas.push_back(std::move(delta));
        ++result.regressions;
        return result;
    };

    Trajectory base = loadTrajectory(baseline);
    if (!base.ok)
        return fail("malformed baseline: " + base.error);
    Trajectory cur = loadTrajectory(current);
    if (!cur.ok)
        return fail("malformed current: " + cur.error);

    std::map<std::string, std::uint64_t> base_cycles(
        base.cycles.begin(), base.cycles.end());

    for (const auto &entry : cur.cycles) {
        ScenarioDelta delta;
        delta.id = entry.first;
        delta.currentCycles = entry.second;
        auto it = base_cycles.find(entry.first);
        if (it == base_cycles.end()) {
            delta.kind = ScenarioDelta::Kind::added;
            ++result.added;
            // An exact comparison demands the same scenario set on
            // both sides.
            if (opts.requireIdentical)
                ++result.regressions;
        } else {
            delta.baselineCycles = it->second;
            base_cycles.erase(it);
            if (delta.baselineCycles != 0) {
                delta.deltaPct =
                    (static_cast<double>(delta.currentCycles) -
                     static_cast<double>(delta.baselineCycles)) *
                    100.0 /
                    static_cast<double>(delta.baselineCycles);
            }
            bool regressed, improved;
            if (opts.requireIdentical) {
                regressed =
                    delta.currentCycles != delta.baselineCycles;
                improved = false;
            } else {
                regressed =
                    delta.deltaPct > opts.regressThresholdPct;
                improved =
                    delta.deltaPct < -opts.regressThresholdPct;
            }
            if (regressed) {
                delta.kind = ScenarioDelta::Kind::regression;
                ++result.regressions;
            } else if (improved) {
                delta.kind = ScenarioDelta::Kind::improvement;
                ++result.improvements;
            } else {
                delta.kind = ScenarioDelta::Kind::unchanged;
                ++result.unchanged;
            }
        }
        result.deltas.push_back(std::move(delta));
    }

    // Whatever is left in the baseline map vanished from the
    // current run — report it, but losing a scenario is a
    // registry-editing decision, not a perf regression.
    for (const auto &entry : base.cycles) {
        auto it = base_cycles.find(entry.first);
        if (it == base_cycles.end())
            continue;
        ScenarioDelta delta;
        delta.id = entry.first;
        delta.baselineCycles = entry.second;
        delta.kind = ScenarioDelta::Kind::removed;
        ++result.removed;
        if (opts.requireIdentical)
            ++result.regressions;
        result.deltas.push_back(std::move(delta));
    }
    return result;
}

namespace {

const char *
deltaKindName(ScenarioDelta::Kind kind)
{
    switch (kind) {
      case ScenarioDelta::Kind::regression:  return "REGRESSION";
      case ScenarioDelta::Kind::improvement: return "improved";
      case ScenarioDelta::Kind::unchanged:   return "unchanged";
      case ScenarioDelta::Kind::added:       return "added";
      case ScenarioDelta::Kind::removed:     return "removed";
    }
    return "?";
}

} // namespace

void
printCompare(std::ostream &os, const CompareResult &result,
             const CompareOptions &opts)
{
    os << std::left << std::setw(40) << "scenario" << std::right
       << std::setw(12) << "baseline" << std::setw(12) << "current"
       << std::setw(9) << "delta" << "  " << "verdict" << "\n";
    for (const auto &delta : result.deltas) {
        os << std::left << std::setw(40) << delta.id << std::right;
        if (delta.kind == ScenarioDelta::Kind::added) {
            os << std::setw(12) << "-" << std::setw(12)
               << delta.currentCycles << std::setw(9) << "-";
        } else if (delta.kind == ScenarioDelta::Kind::removed) {
            os << std::setw(12) << delta.baselineCycles
               << std::setw(12) << "-" << std::setw(9) << "-";
        } else {
            std::ostringstream pct;
            pct << std::showpos << std::fixed
                << std::setprecision(1) << delta.deltaPct << "%";
            os << std::setw(12) << delta.baselineCycles
               << std::setw(12) << delta.currentCycles
               << std::setw(9) << pct.str();
        }
        os << "  " << deltaKindName(delta.kind) << "\n";
    }
    os << (result.ok() ? "OK" : "FAIL") << ": ";
    if (opts.requireIdentical) {
        os << result.regressions
           << " difference(s), exact match required, ";
    } else {
        os << result.regressions << " regression(s) beyond "
           << std::fixed << std::setprecision(1)
           << opts.regressThresholdPct << "%, ";
    }
    os << result.improvements << " improved, " << result.unchanged
       << " unchanged, " << result.added << " added, "
       << result.removed << " removed\n";
}

} // namespace bench
} // namespace psync
