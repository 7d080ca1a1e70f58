/**
 * @file
 * Combining omega network at scale: routing latency, the
 * single-hot-module combine tree, adversarial bit-reversal traffic,
 * per-stage counter accounting, and determinism of the whole model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/omega_network.hh"

using namespace psync::sim;

namespace {

/** `bits`-wide bit reversal (the classic omega adversary). */
unsigned
bitReverse(unsigned v, unsigned bits)
{
    unsigned r = 0;
    for (unsigned b = 0; b < bits; ++b)
        r |= ((v >> b) & 1u) << (bits - 1 - b);
    return r;
}

} // namespace

TEST(CombiningNetworkTest, SinglePacketCrossesEveryStage)
{
    CombiningOmegaNetwork net(8, 8, 2);
    EXPECT_EQ(net.stages(), 3u);
    EXPECT_EQ(net.switchesPerStage(), 4u);

    auto d = net.inject(3, 5, 0, CombineClass::none, 1, 10);
    EXPECT_FALSE(d.combined);
    EXPECT_EQ(d.arrive, 10u + 3u * 2u);
    EXPECT_EQ(net.transactions(), 1u);
    EXPECT_EQ(net.combinedTotal(), 0u);
    for (unsigned s = 0; s < net.stages(); ++s) {
        EXPECT_EQ(net.stageConflicts(s), 0u);
        EXPECT_EQ(net.stageCombines(s), 0u);
        EXPECT_EQ(net.stageBusyCycles(s), 2u);
    }
}

TEST(CombiningNetworkTest, HotModuleBurstCombinesAsTreeP512)
{
    // 512 same-variable fetch&adds to module 0, all injected in the
    // same cycle. The combine tree halves the survivors at every
    // stage: ports w and w+256 share a stage-0 switch, the stage-1
    // survivors pair (w, w+128), and so on — one packet reaches the
    // module, 511 are absorbed on the way.
    CombiningOmegaNetwork net(512, 512, 1);
    ASSERT_EQ(net.stages(), 9u);

    Tick root_arrival = 0;
    unsigned reached = 0;
    for (ProcId p = 0; p < 512; ++p) {
        auto d = net.inject(p, 0, 7, CombineClass::fetchAdd, p, 0);
        if (!d.combined) {
            ++reached;
            root_arrival = d.arrive;
        }
    }

    EXPECT_EQ(reached, 1u);
    EXPECT_EQ(root_arrival, 9u);
    EXPECT_EQ(net.transactions(), 512u);
    EXPECT_EQ(net.combinedTotal(), 511u);
    // Stage 0 absorbs the 256 second-of-pair ports; each later
    // stage halves what survived the one before.
    EXPECT_EQ(net.stageCombines(0), 256u);
    for (unsigned s = 1; s < 9; ++s)
        EXPECT_EQ(net.stageCombines(s), 256u >> s);
    // Only the root crossed the module-side stage.
    EXPECT_EQ(net.busiestSwitchCycles(8), 1u);
}

TEST(CombiningNetworkTest, UncombinableHotModuleSerializesP512)
{
    // The same burst without combining: every packet funnels into
    // the single module-side switch, which must carry all of them
    // back to back.
    CombiningOmegaNetwork net(512, 512, 1);

    Tick last_arrival = 0;
    for (ProcId p = 0; p < 512; ++p) {
        auto d = net.inject(p, 0, 7, CombineClass::none, p, 0);
        ASSERT_FALSE(d.combined);
        last_arrival = std::max(last_arrival, d.arrive);
    }

    EXPECT_EQ(net.transactions(), 512u);
    EXPECT_EQ(net.combinedTotal(), 0u);
    // Every packet crosses every stage once.
    for (unsigned s = 0; s < 9; ++s)
        EXPECT_EQ(net.stageBusyCycles(s), 512u);
    // The final switch serializes the full burst...
    EXPECT_EQ(net.busiestSwitchCycles(8), 512u);
    // ...so the last delivery cannot beat its throughput.
    EXPECT_GE(last_arrival, 512u);
    // Conflict-cycle accounting covers the whole queueing delay
    // (every port injected exactly once, so no port-side waits).
    Tick conflict_cycles = 0;
    for (unsigned s = 0; s < 9; ++s)
        conflict_cycles += net.stageConflictCycles(s);
    EXPECT_EQ(net.queueDelay(), conflict_cycles);
    EXPECT_GT(conflict_cycles, 0u);
}

TEST(CombiningNetworkTest, BitReversalConflictsAtP1024)
{
    // Bit-reversal is the textbook non-routable permutation for an
    // omega network: distinct destinations, yet packets collide in
    // the interior stages.
    CombiningOmegaNetwork net(1024, 1024, 1);
    ASSERT_EQ(net.stages(), 10u);
    ASSERT_EQ(net.switchesPerStage(), 512u);

    for (ProcId p = 0; p < 1024; ++p) {
        auto d = net.inject(p, bitReverse(p, 10), p,
                            CombineClass::none, p, 0);
        ASSERT_FALSE(d.combined);
    }

    EXPECT_EQ(net.transactions(), 1024u);
    for (unsigned s = 0; s < 10; ++s)
        EXPECT_EQ(net.stageBusyCycles(s), 1024u);
    std::uint64_t conflicts = 0;
    for (unsigned s = 0; s < 10; ++s)
        conflicts += net.stageConflicts(s);
    EXPECT_GT(conflicts, 0u);
}

TEST(CombiningNetworkTest, ModelIsDeterministic)
{
    // Two networks fed the identical injection sequence must agree
    // on every counter — the property the bench's --jobs determinism
    // gate rests on.
    auto drive = [](CombiningOmegaNetwork &net) {
        for (ProcId p = 0; p < 1024; ++p)
            net.inject(p, bitReverse(p, 10), 3,
                       CombineClass::fetchAdd, p, p % 7);
    };
    CombiningOmegaNetwork a(1024, 1024, 1);
    CombiningOmegaNetwork b(1024, 1024, 1);
    drive(a);
    drive(b);
    EXPECT_EQ(a.transactions(), b.transactions());
    EXPECT_EQ(a.combinedTotal(), b.combinedTotal());
    EXPECT_EQ(a.queueDelay(), b.queueDelay());
    for (unsigned s = 0; s < 10; ++s) {
        EXPECT_EQ(a.stageConflicts(s), b.stageConflicts(s));
        EXPECT_EQ(a.stageConflictCycles(s), b.stageConflictCycles(s));
        EXPECT_EQ(a.stageCombines(s), b.stageCombines(s));
        EXPECT_EQ(a.stageBusyCycles(s), b.stageBusyCycles(s));
    }
}

TEST(CombiningNetworkTest, HoldExtendsTheCombiningWindow)
{
    // Without a hold, a packet's wait-buffer entry expires after one
    // stage crossing and a staggered arrival passes by; held until
    // the reply returns, the same arrival merges.
    CombiningOmegaNetwork cold(8, 8, 1);
    auto r1 = cold.inject(0, 0, 9, CombineClass::fetchAdd, 1, 0);
    ASSERT_FALSE(r1.combined);
    auto r2 = cold.inject(4, 0, 9, CombineClass::fetchAdd, 2, 5);
    EXPECT_FALSE(r2.combined);

    CombiningOmegaNetwork warm(8, 8, 1);
    auto h1 = warm.inject(0, 0, 9, CombineClass::fetchAdd, 1, 0);
    ASSERT_FALSE(h1.combined);
    warm.holdResidents(0, 0, 9, CombineClass::fetchAdd, 1, 20);
    auto h2 = warm.inject(4, 0, 9, CombineClass::fetchAdd, 2, 5);
    EXPECT_TRUE(h2.combined);
    EXPECT_EQ(h2.mergedWith, 1u);
}
