/**
 * @file
 * Tests of the machine configuration: derived values and the
 * validation that rejects malformed configurations.
 */

#include <gtest/gtest.h>

#include "mem/config.hh"

namespace oscache
{
namespace
{

TEST(ConfigTest, BaseMatchesPaperSection24)
{
    const MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.numCpus, 4u);
    EXPECT_EQ(cfg.l1Size, 32u * 1024);
    EXPECT_EQ(cfg.l1LineSize, 16u);
    EXPECT_EQ(cfg.l2Size, 256u * 1024);
    EXPECT_EQ(cfg.l2LineSize, 32u);
    EXPECT_EQ(cfg.l1HitLatency, 1u);
    EXPECT_EQ(cfg.l2HitLatency, 12u);
    EXPECT_EQ(cfg.memLatency, 51u);
    EXPECT_EQ(cfg.lineTransferOccupancy, 20u);
    EXPECT_EQ(cfg.l1WriteBufferDepth, 4u);
    EXPECT_EQ(cfg.l2WriteBufferDepth, 8u);
    EXPECT_EQ(cfg.protocol, CoherenceProtocol::Illinois);
    EXPECT_EQ(cfg.l1Ways, 1u);
    cfg.check(); // Must not die.
}

TEST(ConfigTest, DerivedValues)
{
    const MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.l1Sets(), 2048u);
    EXPECT_EQ(cfg.l2Sets(), 8192u);
    EXPECT_EQ(cfg.l1LinesPerL2Line(), 2u);
    EXPECT_EQ(cfg.busMemLatency(), 39u);
}

TEST(ConfigTest, DmaCostsMatchPaperSection42)
{
    const MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.dmaStartup, 19u);
    // 8 bytes per 2 bus cycles at 5 CPU cycles per bus cycle.
    EXPECT_EQ(cfg.dmaPer8Bytes, 2u * cfg.busCycle);
}

TEST(ConfigDeathTest, RejectsNonPowerOfTwo)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.l1Size = 30000;
    EXPECT_DEATH(cfg.check(), "powers of two");
}

TEST(ConfigDeathTest, RejectsL1LineLargerThanL2Line)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.l1LineSize = 64;
    cfg.l2LineSize = 32;
    EXPECT_DEATH(cfg.check(), "line larger");
}

TEST(ConfigDeathTest, RejectsInclusionViolation)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.l1Size = 512 * 1024;
    EXPECT_DEATH(cfg.check(), "inclusion");
}

TEST(ConfigDeathTest, RejectsBadLatencyOrder)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.memLatency = 10;
    EXPECT_DEATH(cfg.check(), "latency");
}

TEST(ConfigDeathTest, RejectsZeroCpus)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numCpus = 0;
    EXPECT_DEATH(cfg.check(), "cpu");
}

TEST(ConfigDeathTest, RejectsMoreCpusThanCpuIdsName)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numCpus = 255;
    cfg.check();
    cfg.numCpus = 256;
    EXPECT_DEATH(cfg.check(), "at most 255 cpus");
}

TEST(ConfigDeathTest, RejectsBadAssociativity)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.l1Ways = 3;
    EXPECT_DEATH(cfg.check(), "associativity");
}

TEST(ConfigDeathTest, RejectsMoreWaysThanLines)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.l1Size = 64;
    cfg.l1LineSize = 16;
    cfg.l1Ways = 8;
    EXPECT_DEATH(cfg.check(), "ways");
}

} // namespace
} // namespace oscache
