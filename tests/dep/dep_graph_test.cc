/** @file Coverage elimination must match the paper's Fig. 2.1. */

#include <gtest/gtest.h>

#include "dep/dep_graph.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"

using namespace psync;

namespace {

const dep::Dep *
findDep(const std::vector<dep::Dep> &deps, unsigned src, unsigned dst,
        dep::DepType type)
{
    for (const auto &d : deps) {
        if (d.src == src && d.dst == dst && d.type == type)
            return &d;
    }
    return nullptr;
}

} // namespace

TEST(DepGraphTest, Fig21OutputDepIsCovered)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    dep::DepGraph graph(loop);

    // "by enforcing dependences S1->S3 and S3->S4, the dependence
    // S1->S4 can be covered."
    const dep::Dep *out = findDep(graph.deps(), 0, 3,
                                  dep::DepType::output);
    ASSERT_NE(out, nullptr);
    EXPECT_TRUE(out->covered);

    // The covering arcs themselves stay enforced.
    const dep::Dep *s1s3 = findDep(graph.deps(), 0, 2,
                                   dep::DepType::flow);
    const dep::Dep *s3s4 = findDep(graph.deps(), 2, 3,
                                   dep::DepType::anti);
    ASSERT_NE(s1s3, nullptr);
    ASSERT_NE(s3s4, nullptr);
    EXPECT_FALSE(s1s3->covered);
    EXPECT_FALSE(s3s4->covered);
}

TEST(DepGraphTest, Fig21EnforcedSetIsMinimal)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    dep::DepGraph graph(loop);
    auto enforced = graph.enforced();
    // 7 cross-iteration arcs, minus covered output S1->S4 (d3,
    // covered by S1->S3 + S3->S4) and flow S1->S5 (d4, covered by
    // S1->S3/S3->S4/S4->S5 chains with exact sums 1+2+1 = 4).
    for (const auto &d : enforced) {
        EXPECT_FALSE(d.covered);
        EXPECT_TRUE(d.crossIteration());
    }
    EXPECT_EQ(enforced.size(), 5u);
    EXPECT_EQ(graph.numCovered(), 2u);
}

TEST(DepGraphTest, CoverageDisabledKeepsAllArcs)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    dep::DepGraph graph(loop, false);
    EXPECT_EQ(graph.numCovered(), 0u);
    EXPECT_EQ(graph.enforced().size(), 7u);
}

TEST(DepGraphTest, NestedLoopNothingCovered)
{
    dep::Loop loop = workloads::makeNestedLoop(8, 8);
    dep::DepGraph graph(loop);
    EXPECT_EQ(graph.numCovered(), 0u);
    EXPECT_EQ(graph.enforced().size(), 2u);
}

TEST(DepGraphTest, ShorterPathDoesNotCover)
{
    // flow S1->S2 d=1 and flow S1->S3 d=3 with S2->S3 absent:
    // nothing covers the d=3 arc even though d=1 < 3.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 32};
    auto ref = [](const char *a, long off, bool w) {
        dep::ArrayRef r;
        r.array = a;
        r.subs = {dep::Subscript{1, 0, off}};
        r.isWrite = w;
        return r;
    };
    dep::Statement s1, s2, s3;
    s1.label = "S1";
    s1.refs = {ref("A", 0, true)};
    s2.label = "S2";
    s2.refs = {ref("A", -1, false)};
    s3.label = "S3";
    s3.refs = {ref("A", -3, false)};
    loop.body = {s1, s2, s3};

    dep::DepGraph graph(loop);
    const dep::Dep *far = findDep(graph.deps(), 0, 2,
                                  dep::DepType::flow);
    ASSERT_NE(far, nullptr);
    EXPECT_FALSE(far->covered);
}

TEST(DepGraphTest, ExactChainCovers)
{
    // S1 -> S2 (d=1), S2 -> S3 (d=2), S1 -> S3 (d=3): covered.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 32};
    auto ref = [](const char *a, long off, bool w) {
        dep::ArrayRef r;
        r.array = a;
        r.subs = {dep::Subscript{1, 0, off}};
        r.isWrite = w;
        return r;
    };
    dep::Statement s1, s2, s3;
    s1.label = "S1";
    s1.refs = {ref("A", 0, true), ref("C", 0, true)};
    s2.label = "S2";
    s2.refs = {ref("A", -1, false), ref("B", 0, true)};
    s3.label = "S3";
    s3.refs = {ref("B", -2, false), ref("C", -3, false)};
    loop.body = {s1, s2, s3};

    dep::DepGraph graph(loop);
    const dep::Dep *far = findDep(graph.deps(), 0, 2,
                                  dep::DepType::flow);
    ASSERT_NE(far, nullptr);
    EXPECT_TRUE(far->covered) << graph.toString();
}

TEST(DepGraphTest, GuardedIntermediateBlocksCoverage)
{
    // Same chain as ExactChainCovers but S2 is branch-guarded: the
    // path through it is unreliable, so S1->S3 stays enforced.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 32};
    loop.branchProb = {0.5};
    auto ref = [](const char *a, long off, bool w) {
        dep::ArrayRef r;
        r.array = a;
        r.subs = {dep::Subscript{1, 0, off}};
        r.isWrite = w;
        return r;
    };
    dep::Statement s1, s2, s3;
    s1.label = "S1";
    s1.refs = {ref("A", 0, true), ref("C", 0, true)};
    s2.label = "S2";
    s2.refs = {ref("A", -1, false), ref("B", 0, true)};
    s2.guard = dep::Guard{0, true};
    s3.label = "S3";
    s3.refs = {ref("B", -2, false), ref("C", -3, false)};
    loop.body = {s1, s2, s3};

    dep::DepGraph graph(loop);
    const dep::Dep *far = findDep(graph.deps(), 0, 2,
                                  dep::DepType::flow);
    ASSERT_NE(far, nullptr);
    EXPECT_FALSE(far->covered) << graph.toString();
}

TEST(DepGraphTest, ToStringListsEveryArc)
{
    dep::Loop loop = workloads::makeFig21Loop(16);
    dep::DepGraph graph(loop);
    std::string text = graph.toString();
    EXPECT_NE(text.find("flow S1->S2 d=(2)"), std::string::npos);
    EXPECT_NE(text.find("output S1->S4 d=(3) [covered]"),
              std::string::npos);
}
