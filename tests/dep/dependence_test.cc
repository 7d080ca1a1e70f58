/**
 * @file
 * Dependence analysis must reproduce the paper's Fig. 2.1 graph
 * exactly: flow S1->S2 (d=2), S1->S3 (d=1), S4->S5 (d=1);
 * anti S2->S4 (d=1), S3->S4 (d=2); output S1->S4 (d=3).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dep/dependence.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"

using namespace psync;

namespace {

bool
hasDep(const std::vector<dep::Dep> &deps, unsigned src, unsigned dst,
       dep::DepType type, long d1, long d2 = 0)
{
    return std::any_of(deps.begin(), deps.end(),
                       [&](const dep::Dep &d) {
        return d.src == src && d.dst == dst && d.type == type &&
               d.d1 == d1 && d.d2 == d2;
    });
}

} // namespace

TEST(DependenceTest, Fig21GraphMatchesPaper)
{
    dep::Loop loop = workloads::makeFig21Loop(100);
    dep::DepAnalysis analysis = dep::analyze(loop);
    const auto &deps = analysis.deps;

    EXPECT_TRUE(analysis.nonConstantPairs.empty());

    // Statement indices: S1=0, S2=1, S3=2, S4=3, S5=4.
    EXPECT_TRUE(hasDep(deps, 0, 1, dep::DepType::flow, 2));
    EXPECT_TRUE(hasDep(deps, 0, 2, dep::DepType::flow, 1));
    EXPECT_TRUE(hasDep(deps, 3, 4, dep::DepType::flow, 1));
    EXPECT_TRUE(hasDep(deps, 1, 3, dep::DepType::anti, 1));
    EXPECT_TRUE(hasDep(deps, 2, 3, dep::DepType::anti, 2));
    EXPECT_TRUE(hasDep(deps, 0, 3, dep::DepType::output, 3));

    // ... and nothing else crosses iterations except those six
    // plus the S4->S2/S4->S3 and S5 interactions implied by the
    // subscripts. Enumerate and count the exact cross set.
    unsigned cross = 0;
    for (const auto &d : deps) {
        if (d.crossIteration())
            ++cross;
    }
    // A[I+3] also conflicts with A[I+1]/A[I+2]/A[I-1] backwards:
    // S2->S1? No: S1 writes A[I+3], S2 reads A[I+1]; conflict at
    // distance 2 (S1 source). The full cross set additionally
    // contains flow S1->S5 (d=4), anti S5->S4? A[I-1] read at i
    // vs A[I] written at i-1: distance -1 -> source S4, flow
    // S4->S5 d=1 already counted. S2 vs S5 are both reads. So the
    // remaining extras are flow S1->S5 (d=4) and anti
    // S5->S1? A[I-1]@i = A[I+3]@i-4 -> read before write? The
    // write S1@i-4 precedes: flow S1->S5 d=4.
    EXPECT_TRUE(hasDep(deps, 0, 4, dep::DepType::flow, 4));
    // anti S2->S1: A[I+1]@i = A[I+3]@(i-2): S1@(i-2) writes first
    // (flow, counted). The reverse pairing A[I+1]@i vs
    // A[I+3]@(i+?) : i+1+? ... S1@j writes A[j+3]=A[i+1] => j=i-2
    // only. So no extra anti arcs from S2/S3/S5 to S1.
    // anti S5->S4: A[I-1]@i = A[I]@(i-1): S4@(i-1) earlier: flow.
    EXPECT_EQ(cross, 7u);
}

TEST(DependenceTest, Fig21NoIntraIterationArcs)
{
    // All of Fig. 2.1's distances are >= 1.
    dep::Loop loop = workloads::makeFig21Loop(50);
    for (const auto &d : dep::analyze(loop).deps)
        EXPECT_TRUE(d.crossIteration());
}

TEST(DependenceTest, NestedLoopDistanceVectors)
{
    dep::Loop loop = workloads::makeNestedLoop(10, 8);
    dep::DepAnalysis analysis = dep::analyze(loop);
    const auto &deps = analysis.deps;

    EXPECT_TRUE(analysis.nonConstantPairs.empty());
    // S1 writes A[I,J]; S2 reads A[I,J-1]: flow (0,1).
    EXPECT_TRUE(hasDep(deps, 0, 1, dep::DepType::flow, 0, 1));
    // S2 writes B[I,J]; S3 reads B[I-1,J-1]: flow (1,1).
    EXPECT_TRUE(hasDep(deps, 1, 2, dep::DepType::flow, 1, 1));
    EXPECT_EQ(deps.size(), 2u);
}

TEST(DependenceTest, LinearizedDistances)
{
    dep::Loop loop = workloads::makeNestedLoop(10, 8);
    auto deps = dep::analyze(loop).deps;
    for (const auto &d : deps) {
        if (d.src == 0) {
            EXPECT_EQ(d.linearDistance(loop.innerTrip()), 1);
        }
        if (d.src == 1) {
            EXPECT_EQ(d.linearDistance(loop.innerTrip()), 9);
        }
    }
}

TEST(DependenceTest, ReadsOnlyNoDependence)
{
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 10};
    dep::Statement s;
    s.label = "S1";
    dep::ArrayRef r;
    r.array = "A";
    r.subs = {dep::Subscript{1, 0, 0}};
    r.isWrite = false;
    s.refs = {r};
    loop.body = {s, s};
    EXPECT_TRUE(dep::analyze(loop).deps.empty());
}

TEST(DependenceTest, DisjointConstantElements)
{
    // X[1] and X[2] never conflict.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 10};
    const dep::ArrayRef w1{.array = "X",
                           .subs = {dep::Subscript{0, 0, 1}},
                           .isWrite = true};
    const dep::ArrayRef w2{.array = "X",
                           .subs = {dep::Subscript{0, 0, 2}},
                           .isWrite = true};
    loop.body = {
        dep::Statement{.label = "S1", .cost = 1, .refs = {w1}, .guard = {}},
        dep::Statement{.label = "S2", .cost = 1, .refs = {w2}, .guard = {}}};
    EXPECT_TRUE(dep::analyze(loop).deps.empty());
}

TEST(DependenceTest, SameConstantElementEveryIterationIsNonConstant)
{
    // X[5] written every iteration: distance is not constant.
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 10};
    dep::Statement a;
    a.label = "S1";
    dep::ArrayRef w;
    w.array = "X";
    w.subs = {dep::Subscript{0, 0, 5}};
    w.isWrite = true;
    a.refs = {w};
    loop.body = {a};
    dep::DepAnalysis analysis = dep::analyze(loop);
    EXPECT_TRUE(analysis.deps.empty());
    EXPECT_FALSE(analysis.nonConstantPairs.empty());
}
