/** @file Trajectory merge/load and the regression detector. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/compare.hh"
#include "bench/registry.hh"

using namespace psync;

namespace {

core::json::Value
record(const std::string &id, std::uint64_t cycles)
{
    core::json::Value r = core::json::object();
    r.set("scenario", id);
    r.set("cycles", cycles);
    return r;
}

core::json::Value
trajectory(
    std::initializer_list<std::pair<const char *, std::uint64_t>>
        entries)
{
    core::json::Value doc = bench::makeTrajectoryDoc();
    for (const auto &entry : entries)
        bench::mergeRecord(doc, record(entry.first, entry.second));
    return doc;
}

const bench::ScenarioDelta &
deltaFor(const bench::CompareResult &result, const std::string &id)
{
    for (const auto &delta : result.deltas) {
        if (delta.id == id)
            return delta;
    }
    static bench::ScenarioDelta missing;
    ADD_FAILURE() << "no delta for " << id;
    return missing;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "psync_compare_test_" + name;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

void
writeBytes(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
}

unsigned
headerCount(const core::json::Value &doc)
{
    unsigned count = 0;
    for (const auto &member : doc.asObject())
        count += member.first == "schema_version";
    return count;
}

} // namespace

TEST(CompareTest, MergeReplacesSameScenarioId)
{
    core::json::Value doc = bench::makeTrajectoryDoc();
    bench::mergeRecord(doc, record("a/x", 100));
    bench::mergeRecord(doc, record("a/y", 200));
    bench::mergeRecord(doc, record("a/x", 150));

    bench::Trajectory t = bench::loadTrajectory(doc);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 2u);
    EXPECT_EQ(t.cycles[0].first, "a/x");
    EXPECT_EQ(t.cycles[0].second, 150u);
    EXPECT_EQ(t.cycles[1].first, "a/y");
}

TEST(CompareTest, LoadRejectsMalformedDocuments)
{
    core::json::Value empty = core::json::object();
    EXPECT_FALSE(bench::loadTrajectory(empty).ok);

    core::json::Value wrong_version = core::json::object();
    wrong_version.set("schema_version", 999);
    wrong_version.set("records", core::json::array());
    EXPECT_FALSE(bench::loadTrajectory(wrong_version).ok);

    core::json::Value bad_record = bench::makeTrajectoryDoc();
    core::json::Value no_cycles = core::json::object();
    no_cycles.set("scenario", "a/x");
    bench::mergeRecord(bad_record, std::move(no_cycles));
    EXPECT_FALSE(bench::loadTrajectory(bad_record).ok);

    EXPECT_TRUE(
        bench::loadTrajectory(bench::makeTrajectoryDoc()).ok);
}

TEST(CompareTest, LoadRejectsThePreviousSchemaVersion)
{
    // The loader reads the current schema only: a file one version
    // behind is regenerated, never half-read.
    core::json::Value doc = core::json::object();
    doc.set("schema_version", bench::kTrajectorySchemaVersion - 1);
    doc.set("records", core::json::array());
    bench::mergeRecord(doc, record("a/x", 100));
    bench::Trajectory t = bench::loadTrajectory(doc);
    EXPECT_FALSE(t.ok);
    EXPECT_NE(t.error.find("unsupported schema_version"),
              std::string::npos)
        << t.error;
}

TEST(CompareTest, OpenTrajectoryKeepsOneHeaderAcrossMerges)
{
    const std::string path = tempPath("merge.json");
    std::remove(path.c_str());
    for (int cycle = 0; cycle < 3; ++cycle) {
        core::json::Value doc;
        ASSERT_TRUE(bench::openTrajectory(path, doc));
        bench::mergeRecord(
            doc, record("a/" + std::to_string(cycle), 100 + cycle));
        ASSERT_TRUE(bench::writeJsonFile(path, doc));
    }

    core::json::Value reread;
    ASSERT_TRUE(bench::readJsonFile(path, reread));
    EXPECT_EQ(headerCount(reread), 1u);
    EXPECT_EQ(reread.find("schema_version")->asNumber(),
              bench::kTrajectorySchemaVersion);
    bench::Trajectory t = bench::loadTrajectory(reread);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 3u);
    for (int cycle = 0; cycle < 3; ++cycle) {
        EXPECT_EQ(t.cycles[cycle].first, "a/" + std::to_string(cycle));
        EXPECT_EQ(t.cycles[cycle].second, 100u + cycle);
    }

    // A header stacked by an older writer collapses to one member.
    reread.set("schema_version", bench::kTrajectorySchemaVersion);
    ASSERT_TRUE(bench::writeJsonFile(path, reread));
    core::json::Value reopened;
    ASSERT_TRUE(bench::openTrajectory(path, reopened));
    EXPECT_EQ(headerCount(reopened), 1u);
    EXPECT_EQ(bench::loadTrajectory(reopened).cycles.size(), 3u);
    std::remove(path.c_str());
}

TEST(CompareTest, OpenTrajectoryRefusesUnloadableFileAndLeavesIt)
{
    const std::string path = tempPath("unloadable.json");
    const std::string foreign =
        "{\"schema_version\": 2, \"records\": ["
        "{\"scenario\": \"a/x\", \"cycles\": 1}, "
        "{\"scenario\": \"a/y\", \"cycles\": 2}]}\n";
    const std::string unparsable = "{\"schema_version\": 9, \"rec";
    for (const std::string &text : {foreign, unparsable}) {
        writeBytes(path, text);
        core::json::Value doc;
        EXPECT_FALSE(bench::openTrajectory(path, doc)) << text;
        EXPECT_EQ(fileBytes(path), text);
    }
    std::remove(path.c_str());
}

TEST(CompareTest, ServeRecordsAreIgnoredByCycleComparison)
{
    // Serve records carry wall-time throughput, not simulated
    // cycles — the loader must skip them (like native records), so
    // mixed files still compare on the sim subset alone.
    core::json::Value doc = trajectory({{"a/x", 100}});
    core::json::Value serve = core::json::object();
    serve.set("scenario", "serve/uniform#g2x4");
    serve.set("kind", "serve");
    serve.set("programs_per_sec", 123456.0);
    bench::mergeRecord(doc, std::move(serve));

    bench::Trajectory t = bench::loadTrajectory(doc);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 1u);
    EXPECT_EQ(t.cycles[0].first, "a/x");

    // And the regression detector treats two such files as equal.
    bench::CompareOptions exact;
    exact.requireIdentical = true;
    EXPECT_TRUE(bench::compareTrajectories(doc, doc, exact).ok());
}

TEST(CompareTest, ExactModeFlagsAnyCycleDifference)
{
    bench::CompareOptions exact;
    exact.requireIdentical = true;

    // One cycle slower AND one cycle faster both fail; the default
    // 2% threshold would call these unchanged.
    auto base = trajectory({{"a/x", 1000}, {"a/y", 1000}});
    auto cur = trajectory({{"a/x", 1001}, {"a/y", 999}});
    bench::CompareResult result =
        bench::compareTrajectories(base, cur, exact);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.regressions, 2u);
    EXPECT_EQ(deltaFor(result, "a/x").kind,
              bench::ScenarioDelta::Kind::regression);
    EXPECT_EQ(deltaFor(result, "a/y").kind,
              bench::ScenarioDelta::Kind::regression);

    bench::CompareResult loose =
        bench::compareTrajectories(base, cur, {});
    EXPECT_TRUE(loose.ok());
}

TEST(CompareTest, ExactModeRequiresSameScenarioSet)
{
    bench::CompareOptions exact;
    exact.requireIdentical = true;
    auto base = trajectory({{"a/x", 100}, {"a/y", 200}});
    auto cur = trajectory({{"a/x", 100}, {"a/z", 300}});
    bench::CompareResult result =
        bench::compareTrajectories(base, cur, exact);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.added, 1u);
    EXPECT_EQ(result.removed, 1u);
}

TEST(CompareTest, ExactModePassesOnIdenticalTrajectories)
{
    bench::CompareOptions exact;
    exact.requireIdentical = true;
    auto base = trajectory({{"a/x", 100}, {"a/y", 200}});
    auto cur = trajectory({{"a/x", 100}, {"a/y", 200}});
    bench::CompareResult result =
        bench::compareTrajectories(base, cur, exact);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.unchanged, 2u);
}

TEST(CompareTest, ClassifiesRegressionImprovementUnchanged)
{
    auto baseline = trajectory(
        {{"a/slower", 1000}, {"a/faster", 1000}, {"a/same", 1000}});
    auto current = trajectory(
        {{"a/slower", 1100}, {"a/faster", 800}, {"a/same", 1005}});

    bench::CompareOptions opts;
    opts.regressThresholdPct = 2.0;
    auto result =
        bench::compareTrajectories(baseline, current, opts);

    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.regressions, 1u);
    EXPECT_EQ(result.improvements, 1u);
    EXPECT_EQ(result.unchanged, 1u);
    EXPECT_EQ(deltaFor(result, "a/slower").kind,
              bench::ScenarioDelta::Kind::regression);
    EXPECT_NEAR(deltaFor(result, "a/slower").deltaPct, 10.0, 1e-9);
    EXPECT_EQ(deltaFor(result, "a/faster").kind,
              bench::ScenarioDelta::Kind::improvement);
    EXPECT_EQ(deltaFor(result, "a/same").kind,
              bench::ScenarioDelta::Kind::unchanged);
}

TEST(CompareTest, ThresholdGatesTheVerdict)
{
    auto baseline = trajectory({{"a/x", 1000}});
    auto current = trajectory({{"a/x", 1100}});

    bench::CompareOptions loose;
    loose.regressThresholdPct = 15.0;
    EXPECT_TRUE(
        bench::compareTrajectories(baseline, current, loose).ok());

    bench::CompareOptions tight;
    tight.regressThresholdPct = 5.0;
    EXPECT_FALSE(
        bench::compareTrajectories(baseline, current, tight).ok());
}

TEST(CompareTest, NewAndRemovedScenariosAreNotRegressions)
{
    auto baseline = trajectory({{"a/kept", 1000}, {"a/gone", 500}});
    auto current = trajectory({{"a/kept", 1000}, {"a/new", 700}});

    auto result = bench::compareTrajectories(baseline, current, {});
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.added, 1u);
    EXPECT_EQ(result.removed, 1u);
    EXPECT_EQ(deltaFor(result, "a/new").kind,
              bench::ScenarioDelta::Kind::added);
    EXPECT_EQ(deltaFor(result, "a/gone").kind,
              bench::ScenarioDelta::Kind::removed);
}

TEST(CompareTest, MalformedInputFailsSafe)
{
    core::json::Value bogus = core::json::object();
    auto current = trajectory({{"a/x", 100}});
    auto result = bench::compareTrajectories(bogus, current, {});
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_NE(result.deltas[0].id.find("malformed baseline"),
              std::string::npos);
}

TEST(CompareTest, PrintedTableNamesEveryVerdict)
{
    auto baseline = trajectory({{"a/slower", 1000}, {"a/gone", 10}});
    auto current = trajectory({{"a/slower", 2000}, {"a/new", 20}});
    auto result = bench::compareTrajectories(baseline, current, {});

    std::ostringstream os;
    bench::printCompare(os, result, {});
    EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(os.str().find("added"), std::string::npos);
    EXPECT_NE(os.str().find("removed"), std::string::npos);
    EXPECT_NE(os.str().find("FAIL"), std::string::npos);
    EXPECT_NE(os.str().find("+100.0%"), std::string::npos);
}
