/**
 * @file
 * Fabric topology layer: Machine assembles its sync fabric from a
 * cluster description, each FabricKind yields the right fabric and
 * bus wiring, and the mapping from MachineConfig is faithful.
 */

#include <gtest/gtest.h>

#include "sim/cluster_fabric.hh"
#include "sim/combining_fabric.hh"
#include "sim/machine.hh"
#include "sim/topology.hh"

using namespace psync::sim;
using psync::ir::Iteration;

TEST(TopologyTest, SyncTopologyMapsMachineConfig)
{
    MachineConfig cfg;
    cfg.numProcs = 64;
    cfg.fabric = FabricKind::hierarchical;
    cfg.numClusters = 8;
    cfg.clusterBusCycles = 3;
    cfg.syncBusCycles = 2;
    cfg.memory.numModules = 16;
    cfg.memory.serviceCycles = 6;

    SyncTopology topo = syncTopologyOf(cfg);
    EXPECT_EQ(topo.fabric, FabricKind::hierarchical);
    EXPECT_EQ(topo.numProcs, 64u);
    EXPECT_EQ(topo.numClusters, 8u);
    EXPECT_EQ(topo.clusterBusCycles, 3u);
    EXPECT_EQ(topo.syncBusCycles, 2u);
    EXPECT_EQ(topo.syncModules, 16u);
    EXPECT_EQ(topo.syncServiceCycles, 6u);
    EXPECT_EQ(topo.procsPerCluster(), 8u);
    EXPECT_EQ(topo.clusterOf(0), 0u);
    EXPECT_EQ(topo.clusterOf(63), 7u);
}

TEST(TopologyTest, RegisterMachineKeepsFlatSyncBus)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.fabric = FabricKind::registers;
    Machine m(cfg);
    EXPECT_EQ(m.fabric().kind(), FabricKind::registers);
    ASSERT_NE(m.syncBus(), nullptr);
    EXPECT_TRUE(m.clusterBuses().empty());
}

TEST(TopologyTest, MemoryMachineHasNoSyncBus)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.fabric = FabricKind::memory;
    Machine m(cfg);
    EXPECT_EQ(m.fabric().kind(), FabricKind::memory);
    EXPECT_EQ(m.syncBus(), nullptr);
    EXPECT_TRUE(m.clusterBuses().empty());
}

TEST(TopologyTest, CombiningMachineBuildsNetworkFabric)
{
    MachineConfig cfg;
    cfg.numProcs = 64;
    cfg.fabric = FabricKind::combining;
    cfg.memory.numModules = 8;
    Machine m(cfg);
    EXPECT_EQ(m.fabric().kind(), FabricKind::combining);
    EXPECT_EQ(m.syncBus(), nullptr);
    EXPECT_TRUE(m.clusterBuses().empty());

    auto *comb = dynamic_cast<CombiningSyncFabric *>(&m.fabric());
    ASSERT_NE(comb, nullptr);
    // Network sized to the processor count (64 ports -> 6 stages).
    EXPECT_EQ(comb->net().stages(), 6u);
}

TEST(TopologyTest, HierarchicalMachineBuildsClusterBuses)
{
    MachineConfig cfg;
    cfg.numProcs = 64;
    cfg.fabric = FabricKind::hierarchical;
    cfg.numClusters = 8;
    Machine m(cfg);
    EXPECT_EQ(m.fabric().kind(), FabricKind::hierarchical);
    ASSERT_NE(m.syncBus(), nullptr); // the global stage
    EXPECT_EQ(m.clusterBuses().size(), 8u);

    auto *hier = dynamic_cast<HierarchicalSyncFabric *>(&m.fabric());
    ASSERT_NE(hier, nullptr);
    EXPECT_EQ(hier->numClusters(), 8u);
    EXPECT_EQ(hier->procsPerCluster(), 8u);
}

TEST(TopologyTest, ComposedFabricsRunPrograms)
{
    // A tiny producer/consumer program must complete on every
    // composed fabric, not just the flat ones.
    for (FabricKind kind :
         {FabricKind::combining, FabricKind::hierarchical}) {
        MachineConfig cfg;
        cfg.numProcs = 4;
        cfg.fabric = kind;
        cfg.numClusters = 2;
        Machine m(cfg);
        SyncVarId var = m.fabric().allocate(1, 0);

        std::vector<std::vector<Program>> progs(4);
        for (unsigned p = 0; p < 4; ++p) {
            progs[p].resize(1);
            progs[p][0].iter = p + 1;
            if (p == 0) {
                progs[p][0].ops = {Op::mkCompute(5),
                                   Op::mkWrite(var, 1)};
            } else {
                progs[p][0].ops = {Op::mkWaitGE(var, 1),
                                   Op::mkCompute(2)};
            }
        }
        std::vector<size_t> next(4, 0);
        auto dispatch = [&](ProcId who,
                            std::function<void(const Iteration *)> cb) {
            if (next[who] >= progs[who].size()) {
                cb(nullptr);
                return;
            }
            const auto it = Iteration::of(progs[who][next[who]++]);
            cb(&it);
        };
        ASSERT_TRUE(m.run(dispatch))
            << "fabric " << fabricKindName(kind);
        EXPECT_EQ(m.fabric().peek(var), 1u)
            << "fabric " << fabricKindName(kind);
    }
}
