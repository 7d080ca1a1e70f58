/** @file Paper claims as predicates over registry records. */

#include <gtest/gtest.h>

#include <set>

#include "bench/registry.hh"

using namespace psync;

namespace {

/** Run every scenario the given claims read, as registered. */
std::vector<bench::ScenarioRecord>
runClaimScenarios(const std::vector<const bench::Claim *> &claims)
{
    std::set<std::string> ids;
    for (const bench::Claim *c : claims)
        ids.insert(c->scenarios.begin(), c->scenarios.end());
    std::vector<bench::ScenarioRecord> records;
    for (const std::string &id : ids) {
        const bench::Scenario *s = bench::findScenario(id);
        EXPECT_NE(s, nullptr) << id;
        if (s)
            records.push_back(bench::runScenario(*s));
    }
    return records;
}

bench::ClaimRecords
byId(const std::vector<bench::ScenarioRecord> &records)
{
    bench::ClaimRecords by_id;
    for (const auto &r : records)
        by_id[r.scenario->id] = &r.result;
    return by_id;
}

} // namespace

TEST(ClaimsTest, EveryClaimHoldsOnItsScenarios)
{
    std::vector<const bench::Claim *> claims;
    for (const auto &c : bench::allClaims())
        claims.push_back(&c);
    ASSERT_GE(claims.size(), 15u);
    auto records = runClaimScenarios(claims);

    auto results = bench::evaluateClaims(byId(records));
    ASSERT_EQ(results.size(), claims.size());
    for (const auto &r : results) {
        EXPECT_TRUE(r.verdict.holds)
            << r.claim->id << ": " << r.verdict.numbers;
        EXPECT_FALSE(r.verdict.numbers.empty()) << r.claim->id;
    }
}

TEST(ClaimsTest, SwappedRowsAreReportedByClaimId)
{
    const bench::Claim *e14 = nullptr;
    for (const auto &c : bench::allClaims())
        if (c.id == "E14")
            e14 = &c;
    ASSERT_NE(e14, nullptr);
    auto records = runClaimScenarios({e14});
    bench::ClaimRecords by_id = byId(records);

    auto holds = bench::evaluateClaims(by_id);
    ASSERT_EQ(holds.size(), 1u);
    EXPECT_TRUE(holds[0].verdict.holds) << holds[0].verdict.numbers;

    // Swap the jittered self-scheduling and static-cyclic rows.
    std::swap(by_id.at("sched-j400/self"),
              by_id.at("sched-j400/static-cyclic"));
    auto fails = bench::evaluateClaims(by_id);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_EQ(fails[0].claim->id, "E14");
    EXPECT_FALSE(fails[0].verdict.holds);
    EXPECT_NE(fails[0].verdict.numbers.find("(fails)"),
              std::string::npos);

    // A record set missing a claim's scenario does not judge it.
    by_id.erase("sched-j0/guided");
    EXPECT_TRUE(bench::evaluateClaims(by_id).empty());
}

TEST(ClaimsTest, BarrierScenarioCompletesNatively)
{
    const bench::Scenario *s =
        bench::findScenario("barrier-p4/butterfly-mem");
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(s->build != nullptr);

    // Per-processor program lists fix the thread count at P.
    bench::NativeScenarioRecord record =
        bench::runScenarioNative(*s, 2);
    EXPECT_TRUE(record.result.correct());
    EXPECT_EQ(record.numThreads, 4u);
    EXPECT_EQ(record.result.run.programsRun, 4u);
    EXPECT_GT(record.result.run.syncOps, 0u);
}
