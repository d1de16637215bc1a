/**
 * @file
 * Tests of the machine configuration: derived values, the
 * validation that rejects malformed configurations, and a checked
 * run of the widest socket count it accepts; of the one
 * workload/system name table the CLIs parse names with; of the one
 * number grammar they parse flag values with; and of the sampling
 * plan's tryParse(), which rejects what parse() rejects.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/flags.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "mem/config.hh"
#include "sample/plan.hh"
#include "synth/generator.hh"
#include "synth/profile.hh"

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

TEST(ConfigDeathTest, RejectsMoreSocketsThanSocketMasksHold)
{
    // Socket sets are 32-bit masks: a 33rd socket would alias the
    // first in the directory filter.
    MachineConfig::numa(32, 1).check();
    EXPECT_DEATH(MachineConfig::numa(33, 1).check(), "at most 32 sockets");
    EXPECT_DEATH(MachineConfig::numa(40, 1).check(), "at most 32 sockets");
}

TEST(ConfigTest, ThirtyTwoSocketsRunCheckedAndClean)
{
    // The widest accepted shape replays with the coherence checker
    // on; RunAssembly panics on any violation.
    const MachineConfig machine = MachineConfig::numa(32, 1);
    WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::SyscallStorm);
    profile.quanta = 2;
    const SimOptions options = profile.simOptions();
    ASSERT_TRUE(options.checkCoherence);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none(), machine.numCpus);
    const RunResult r = runOnTrace(trace, machine, options,
                                   SystemSetup::forKind(SystemKind::Base));
    EXPECT_EQ(r.bus.numSockets, 32u);
    EXPECT_GT(r.stats.osReads, 0u);
    EXPECT_GT(r.bus.linkTransactions, 0u);
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

TEST(NameTable, EveryWorkloadRoundTrips)
{
    for (WorkloadKind kind : allWorkloads)
        EXPECT_EQ(parseWorkloadKind(toString(kind)), kind) << toString(kind);
    for (WorkloadKind kind : serverWorkloads)
        EXPECT_EQ(parseWorkloadKind(toString(kind)), kind) << toString(kind);
}

TEST(NameTable, EverySystemRoundTrips)
{
    for (SystemKind kind : allSystems)
        EXPECT_EQ(parseSystemKind(toString(kind)), kind) << toString(kind);
}

TEST(NameTable, AcceptsEveryHistoricalAlias)
{
    // The spellings the CLIs' private tables accepted.
    const std::pair<const char *, WorkloadKind> workloads[] = {
        {"trfd4", WorkloadKind::Trfd4},
        {"trfd_4", WorkloadKind::Trfd4},
        {"trfd+make", WorkloadKind::TrfdMake},
        {"trfdmake", WorkloadKind::TrfdMake},
        {"arc2d+fsck", WorkloadKind::Arc2dFsck},
        {"arc2dfsck", WorkloadKind::Arc2dFsck},
        {"shell", WorkloadKind::Shell},
    };
    for (const auto &[name, kind] : workloads)
        EXPECT_EQ(parseWorkloadKind(name), kind) << name;

    const std::pair<const char *, SystemKind> systems[] = {
        {"base", SystemKind::Base},
        {"blk_pref", SystemKind::BlkPref},
        {"blk_bypass", SystemKind::BlkBypass},
        {"blk_bypref", SystemKind::BlkByPref},
        {"blk_dma", SystemKind::BlkDma},
        {"bcoh_reloc", SystemKind::BCohReloc},
        {"bcoh_relup", SystemKind::BCohRelUp},
        {"bcpref", SystemKind::BCPref},
    };
    for (const auto &[name, kind] : systems)
        EXPECT_EQ(parseSystemKind(name), kind) << name;
}

TEST(NameTable, NamesTheServerMixes)
{
    EXPECT_EQ(parseWorkloadKind("syscallstorm"), WorkloadKind::SyscallStorm);
    EXPECT_EQ(parseWorkloadKind("IntrFlood"), WorkloadKind::IntrFlood);
    EXPECT_EQ(parseWorkloadKind("pagecachechurn"),
              WorkloadKind::PageCacheChurn);
    EXPECT_EQ(parseWorkloadKind("FORKCHURN"), WorkloadKind::ForkChurn);
}

TEST(NameTable, RejectsUnknownNames)
{
    for (const char *name : {"", "trfd", "trfd-4", "trfd4x", "base "})
        EXPECT_FALSE(parseWorkloadKind(name).has_value()) << name;
    for (const char *name : {"", "dma", "blk-dma", "bcpref2", "bc_pref"})
        EXPECT_FALSE(parseSystemKind(name).has_value()) << name;
}

/** Inputs no number grammar accepts, whatever the target type. */
const char *const malformedNumbers[] = {
    "", "abc", "2x", "-1", "nan", "1.5kq", " 1", "1 ", "+1", "0x10",
};

TEST(FlagNumbers, UnsignedAcceptsWholeNumbersInRange)
{
    EXPECT_EQ(tryParseNumber<unsigned>("0"), 0u);
    EXPECT_EQ(tryParseNumber<unsigned>("4096"), 4096u);
    EXPECT_EQ(tryParseNumber<unsigned>("4294967295"),
              std::numeric_limits<unsigned>::max());
    EXPECT_EQ(tryParseNumber<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(FlagNumbers, UnsignedRejectsEverythingElse)
{
    for (const char *text : malformedNumbers) {
        EXPECT_FALSE(tryParseNumber<unsigned>(text)) << text;
        EXPECT_FALSE(tryParseNumber<std::uint64_t>(text)) << text;
    }
    // Overflow, fractions and exponents.
    EXPECT_FALSE(tryParseNumber<unsigned>("4294967296"));
    EXPECT_FALSE(tryParseNumber<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(tryParseNumber<std::uint64_t>("99999999999999999999999"));
    EXPECT_FALSE(tryParseNumber<unsigned>("1e30"));
    EXPECT_FALSE(tryParseNumber<unsigned>("1.5"));
}

TEST(FlagNumbers, DoubleAcceptsOnlyFiniteNumbers)
{
    EXPECT_EQ(tryParseNumber<double>("0"), 0.0);
    EXPECT_EQ(tryParseNumber<double>("4096"), 4096.0);
    EXPECT_EQ(tryParseNumber<double>("0.05"), 0.05);
    EXPECT_EQ(tryParseNumber<double>("1e30"), 1e30);
    for (const char *text : {"", "abc", "2x", "nan", "inf", "-inf", "1.5kq",
                             "1e999"})
        EXPECT_FALSE(tryParseNumber<double>(text)) << text;
}

TEST(FlagNumbers, CountAcceptsSuffixesAndTheFullRange)
{
    EXPECT_EQ(sample::tryParseCount("0"), 0u);
    EXPECT_EQ(sample::tryParseCount("4096"), 4096u);
    EXPECT_EQ(sample::tryParseCount("100k"), 100'000u);
    EXPECT_EQ(sample::tryParseCount("1.5k"), 1'500u);
    EXPECT_EQ(sample::tryParseCount("2M"), 2'000'000u);
    EXPECT_EQ(sample::tryParseCount("2g"), 2'000'000'000u);
    EXPECT_EQ(sample::tryParseCount("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(FlagNumbers, CountRejectsEverythingElse)
{
    for (const char *text : malformedNumbers)
        EXPECT_FALSE(sample::tryParseCount(text)) << text;
    for (const char *text :
         {"k", "18446744073709551616", "18446744073709552k", "1e30",
          "inf", "nan", "-0.5k", "2kk"})
        EXPECT_FALSE(sample::tryParseCount(text)) << text;
    EXPECT_FALSE(sample::SamplingPlan::tryParse(
        "period=nan,measure=2k,warmup=8k"));
    EXPECT_FALSE(sample::SamplingPlan::tryParse("error=nan"));
    EXPECT_FALSE(sample::SamplingPlan::tryParse("error=0.05x"));
    EXPECT_FALSE(sample::SamplingPlan::tryParse("rounds=4294967296"));
    EXPECT_FALSE(sample::SamplingPlan::tryParse("bogus=1"));
    EXPECT_FALSE(sample::SamplingPlan::tryParse(
        "period=1k,measure=2k,warmup=8k"))
        << "warmup + measure > period";
}

TEST(FlagNumbers, ReaderNamesTheFlagOnABadValue)
{
    const auto read = [](std::string value) {
        std::string flag = "--count";
        char *argv[] = {flag.data(), value.data()};
        FlagReader flags(2, argv, 0);
        flags.next();
        return flags.number<std::uint64_t>();
    };
    EXPECT_EQ(read("4096"), 4096u);
    for (const char *bad : {"abc", "", "-1", "1e30"})
        EXPECT_EXIT(read(bad), ::testing::ExitedWithCode(1),
                    "flag --count wants a whole number")
            << bad;
}

TEST(ServeCellrun, SamplingPlanTryParseMirrorsParse)
{
    const auto good = sample::SamplingPlan::tryParse(
        "period=100k,measure=2k,warmup=8k");
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->period, 100'000u);
    EXPECT_EQ(good->measure, 2'000u);

    std::string error;
    EXPECT_FALSE(sample::SamplingPlan::tryParse("period=", &error)
                     .has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        sample::SamplingPlan::tryParse("bogus=1", &error).has_value());
    EXPECT_FALSE(sample::SamplingPlan::tryParse(
                     "period=1k,measure=2k,warmup=8k", &error)
                     .has_value())
        << "invalid geometry (warmup+measure > period) must be caught";
}

} // namespace
} // namespace oscache
