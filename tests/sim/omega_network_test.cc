/** @file Multistage network: latency, port serialization, scaling. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hh"
#include "sim/omega_network.hh"

using namespace psync::sim;
using psync::ir::Iteration;

TEST(OmegaNetworkTest, TraversalLatency)
{
    EventQueue eq;
    OmegaNetwork net(eq, 4, 3, 2);
    Tick done = 0;
    eq.schedule(10, [&]() {
        net.transact(0, [&](Tick grant) {
            EXPECT_EQ(grant, 10u);
            done = eq.now();
        });
    });
    eq.run();
    EXPECT_EQ(done, 16u); // 3 stages x 2 cycles
    EXPECT_EQ(net.traversalCycles(), 6u);
}

TEST(OmegaNetworkTest, DistinctPortsDoNotSerialize)
{
    EventQueue eq;
    OmegaNetwork net(eq, 4, 2, 1);
    std::vector<Tick> done;
    eq.schedule(0, [&]() {
        for (ProcId p = 0; p < 4; ++p)
            net.transact(p, [&](Tick) { done.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    for (Tick t : done)
        EXPECT_EQ(t, 2u); // all in parallel
    EXPECT_EQ(net.queueDelay(), 0u);
}

TEST(OmegaNetworkTest, SamePortSerializesInjection)
{
    EventQueue eq;
    OmegaNetwork net(eq, 2, 2, 1, 3);
    std::vector<Tick> done;
    eq.schedule(0, [&]() {
        net.transact(0, [&](Tick) { done.push_back(eq.now()); });
        net.transact(0, [&](Tick) { done.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 2u);
    EXPECT_EQ(done[1], 5u); // injected 3 cycles later
    EXPECT_EQ(net.queueDelay(), 3u);
}

TEST(OmegaNetworkTest, GrantHookFiresAtInjection)
{
    EventQueue eq;
    OmegaNetwork net(eq, 2, 2, 1, 4);
    std::vector<Tick> grants;
    eq.schedule(0, [&]() {
        net.transact(0, [&](Tick) { grants.push_back(eq.now()); },
                     [](Tick) {});
        net.transact(0, [&](Tick) { grants.push_back(eq.now()); },
                     [](Tick) {});
    });
    eq.run();
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0], 0u);
    EXPECT_EQ(grants[1], 4u);
}

TEST(OmegaNetworkTest, MachineBuildsNetworkMachine)
{
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.interconnect = InterconnectKind::omega;
    cfg.memory.numModules = 16;
    cfg.fabric = FabricKind::memory;
    Machine m(cfg);
    EXPECT_EQ(m.dataBus(), nullptr);

    // A simple program still runs.
    std::vector<std::vector<Program>> progs(16);
    for (unsigned p = 0; p < 16; ++p) {
        progs[p].resize(1);
        progs[p][0].iter = p + 1;
        progs[p][0].ops = {Op::mkData(false, p * 8, 0),
                           Op::mkCompute(3)};
    }
    std::vector<size_t> next(16, 0);
    auto dispatch = [&](ProcId who,
                        std::function<void(const Iteration *)> cb) {
        if (next[who] >= progs[who].size()) {
            cb(nullptr);
            return;
        }
        const auto it = Iteration::of(progs[who][next[who]++]);
        cb(&it);
    };
    ASSERT_TRUE(m.run(dispatch));
    EXPECT_EQ(m.dataNet().transactions(), 16u);
}

TEST(OmegaNetworkTest, NetworkScalesWhereBusSaturates)
{
    // 32 processors each issuing 8 independent reads to their own
    // module: the bus serializes all 256, the network does not.
    auto run = [](InterconnectKind kind) {
        MachineConfig cfg;
        cfg.numProcs = 32;
        cfg.interconnect = kind;
        cfg.memory.numModules = 32;
        Machine m(cfg);
        std::vector<std::vector<Program>> progs(32);
        for (unsigned p = 0; p < 32; ++p) {
            progs[p].resize(1);
            progs[p][0].iter = p + 1;
            for (int k = 0; k < 8; ++k) {
                progs[p][0].ops.push_back(
                    Op::mkData(false, p * 8, 0));
            }
        }
        std::vector<size_t> next(32, 0);
        auto dispatch =
            [&](ProcId who, std::function<void(const Iteration *)> cb) {
            if (next[who] >= progs[who].size()) {
                cb(nullptr);
                return;
            }
            const auto it = Iteration::of(progs[who][next[who]++]);
            cb(&it);
        };
        EXPECT_TRUE(m.run(dispatch));
        return m.completionTick();
    };
    EXPECT_LT(run(InterconnectKind::omega),
              run(InterconnectKind::bus) / 2);
}
