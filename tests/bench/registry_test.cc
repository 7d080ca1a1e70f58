/** @file Scenario registry: ids, matching, and record contents. */

#include <gtest/gtest.h>

#include <set>

#include "bench/registry.hh"
#include "sim/tracing.hh"

using namespace psync;

TEST(RegistryTest, IdsAreUniqueAndGroupSlashVariant)
{
    const auto &scenarios = bench::allScenarios();
    ASSERT_GE(scenarios.size(), 20u);
    std::set<std::string> ids;
    for (const auto &s : scenarios) {
        EXPECT_TRUE(ids.insert(s.id).second)
            << "duplicate id " << s.id;
        EXPECT_NE(s.id.find('/'), std::string::npos) << s.id;
        EXPECT_FALSE(s.workload.empty()) << s.id;
        EXPECT_FALSE(s.scheme.empty()) << s.id;
        // Every scenario can produce its programs: a loop plus a
        // scheme to plan it, or a build function (whose loop, if
        // any, is what its run is trace-checked against).
        EXPECT_TRUE(s.build != nullptr ||
                    (s.loop != nullptr &&
                     s.kind != sync::SchemeKind::none))
            << s.id;
    }
}

TEST(RegistryTest, FindAndMatch)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/statement");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, sync::SchemeKind::statementOriented);
    EXPECT_EQ(bench::findScenario("no/such"), nullptr);

    // An exact id match selects just that scenario even though the
    // id is also a substring of nothing else.
    auto exact = bench::matchScenarios("fig21-n64/statement");
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0], s);

    // A group prefix matches the whole group.
    auto group = bench::matchScenarios("fig21-n64");
    EXPECT_EQ(group.size(), 3u);

    // Empty pattern matches everything.
    EXPECT_EQ(bench::matchScenarios("").size(),
              bench::allScenarios().size());
    EXPECT_TRUE(bench::matchScenarios("zzz-nothing").empty());
}

TEST(RegistryTest, RunProducesBoundAndSchemaVersionedRecord)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/process-improved");
    ASSERT_NE(s, nullptr);

    bench::ScenarioRecord record = bench::runScenario(*s);
    EXPECT_TRUE(record.result.run.completed);
    EXPECT_GT(record.result.run.cycles, 0u);
    EXPECT_GT(record.depBoundCycles, 0u);
    EXPECT_GE(record.boundCycles, record.depBoundCycles > 0 ? 1u
                                                           : 0u);
    // The run can never beat the dependence-or-work bound.
    EXPECT_GE(record.result.run.cycles, record.boundCycles);

    core::json::Value j = record.toJson();
    const core::json::Value *version = j.find("schema_version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->asNumber(), bench::kTrajectorySchemaVersion);
    EXPECT_EQ(j.find("scenario")->asString(), s->id);
    EXPECT_EQ(j.find("scheme")->asString(), s->scheme);
    EXPECT_GT(j.find("cycles")->asNumber(), 0);
    EXPECT_GT(j.find("bound_cycles")->asNumber(), 0);
    const core::json::Value *split = j.find("cycle_split");
    ASSERT_NE(split, nullptr);
    ASSERT_TRUE(split->isObject());
    EXPECT_NE(split->find("compute_cycles"), nullptr);
    EXPECT_NE(split->find("spin_cycles"), nullptr);
    EXPECT_NE(split->find("sync_overhead_cycles"), nullptr);
    EXPECT_NE(split->find("stall_cycles"), nullptr);
    ASSERT_NE(j.find("result"), nullptr);
    EXPECT_TRUE(j.find("result")->isObject());
}

TEST(RegistryTest, TracedRunRecordsWaitEdges)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/reference");
    ASSERT_NE(s, nullptr);
    sim::TraceLog rec;
    bench::ScenarioRecord record = bench::runScenario(*s, &rec);
    EXPECT_TRUE(record.result.run.completed);
    std::size_t waits = 0;
    rec.forEach([&](const sim::TraceEvent &e) {
        waits += e.kind == sim::TraceKind::wait;
    });
    EXPECT_GT(waits, 0u);
}

TEST(RegistryTest, GlobMatchSemantics)
{
    EXPECT_TRUE(bench::globMatch("fig32-*", "fig32-jitter/statement"));
    EXPECT_TRUE(bench::globMatch("*statement", "fig32-jitter/statement"));
    EXPECT_TRUE(bench::globMatch("*/statement", "fig21-n64/statement"));
    EXPECT_TRUE(bench::globMatch("fig21-n6?/*", "fig21-n64/reference"));
    EXPECT_TRUE(bench::globMatch("*", "anything/at-all"));
    EXPECT_TRUE(bench::globMatch("", ""));

    // Whole-string match, not substring.
    EXPECT_FALSE(bench::globMatch("fig32", "fig32-jitter/statement"));
    EXPECT_FALSE(bench::globMatch("?", "ab"));
    EXPECT_FALSE(bench::globMatch("a*c", "abd"));

    // '*' crosses '/' (scenario ids are flat strings).
    EXPECT_TRUE(bench::globMatch("fig21*reference",
                                 "fig21-n64/reference"));
}

TEST(RegistryTest, MatchScenariosGlobSelectsGroups)
{
    auto group = bench::matchScenariosGlob("fig21-n64/*");
    EXPECT_EQ(group.size(), 3u);
    // perfbench's serve workloads draw their plans from this group.
    EXPECT_EQ(bench::matchScenariosGlob("fig21-n256/*").size(), 6u);
    for (const auto *s : group)
        EXPECT_EQ(s->id.rfind("fig21-n64/", 0), 0u) << s->id;

    auto schemes = bench::matchScenariosGlob("*/statement");
    EXPECT_GE(schemes.size(), 2u);
    for (const auto *s : schemes)
        EXPECT_NE(s->id.find("/statement"), std::string::npos)
            << s->id;

    // Without metacharacters, globs degrade to substring matching
    // so --scenarios accepts the same patterns --run does.
    EXPECT_EQ(bench::matchScenariosGlob("fig21-n64").size(), 3u);
    EXPECT_TRUE(bench::matchScenariosGlob("zzz-*").empty());
}

TEST(RegistryTest, SampledRunAttachesTimelineSummary)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/statement");
    ASSERT_NE(s, nullptr);

    // Unsampled record: no timeline field (byte-comparable with
    // v5 output apart from the version stamp).
    bench::ScenarioRecord plain = bench::runScenario(*s);
    EXPECT_EQ(plain.timeline, nullptr);
    EXPECT_FALSE(plain.toJson().has("timeline"));

    sim::TraceLog rec;
    bench::ScenarioRecord sampled = bench::runScenario(
        *s, &rec, nullptr, /*profile=*/false, /*timeline=*/true);

    // Sampling is passive: identical cycles.
    EXPECT_EQ(sampled.result.run.cycles, plain.result.run.cycles);

    ASSERT_NE(sampled.timeline, nullptr);
    EXPECT_FALSE(sampled.timeline->empty());
    EXPECT_EQ(sampled.timeline->boundaries.back(),
              sampled.result.run.cycles);

    core::json::Value j = sampled.toJson();
    EXPECT_EQ(j.find("schema_version")->asNumber(),
              bench::kTrajectorySchemaVersion);
    const core::json::Value *tl = j.find("timeline");
    ASSERT_NE(tl, nullptr);
    ASSERT_TRUE(tl->isObject());
    EXPECT_GT(tl->find("samples")->asNumber(), 1);
    EXPECT_NE(tl->find("peak_bus_occupancy"), nullptr);
    EXPECT_NE(tl->find("hotspots"), nullptr);
}
