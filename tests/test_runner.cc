/**
 * @file
 * Integration tests: the full pipeline from synthetic trace through
 * the named systems, checking that the paper's qualitative claims
 * hold on downsized workloads.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/runner.hh"
#include "report/figures.hh"
#include "synth/generator.hh"

namespace oscache
{
namespace
{

WorkloadProfile
tiny(WorkloadKind kind)
{
    WorkloadProfile p = WorkloadProfile::forKind(kind);
    p.quanta = 6;
    return p;
}

RunResult
runTiny(WorkloadKind kind, SystemKind system,
        const MachineConfig &machine = MachineConfig::base())
{
    const SystemSetup setup = SystemSetup::forKind(system);
    const WorkloadProfile p = tiny(kind);
    const Trace trace = generateTrace(p, setup.coherence);
    return runOnTrace(trace, machine, p.simOptions(), setup);
}

TEST(RunnerTest, HotspotPassEqualsMaterializedRewrite)
{
    // runOnTrace() is runOnSource() over a materialized trace, whose
    // prefetch pass rewrites the trace as it streams.  It must equal
    // the explicit path: profile pass, selectHotspots(),
    // insertPrefetches(), then a plain pass over the rewritten trace.
    const SystemSetup setup = SystemSetup::forKind(SystemKind::BCPref);
    ASSERT_TRUE(setup.hotspotPrefetch);
    for (const MachineConfig &machine :
         {MachineConfig::base(), MachineConfig::numa(2, 2)}) {
        for (const WorkloadKind kind : allWorkloads) {
            SCOPED_TRACE(std::string(toString(kind)) + " on " +
                         std::to_string(machine.numSockets) + " sockets");
            const WorkloadProfile p = tiny(kind);
            const SimOptions opts = p.simOptions();
            const Trace trace =
                generateTrace(p, setup.coherence, machine.numCpus);

            const RunResult profile =
                runOnce(trace, machine, opts, setup.blockScheme);
            const HotspotPlan plan =
                selectHotspots(profile.stats, paperHotspotCount);
            const Trace rewritten = insertPrefetches(trace, plan);
            const RunResult expected =
                runOnce(rewritten, machine, opts, setup.blockScheme);

            const RunResult r = runOnTrace(trace, machine, opts, setup);
            EXPECT_EQ(r.stats, expected.stats);
            EXPECT_EQ(r.bus, expected.bus);
            EXPECT_EQ(r.hotspots.hotBlocks, plan.hotBlocks);
            EXPECT_DOUBLE_EQ(r.hotspotCoverage,
                             hotspotCoverage(profile.stats, plan));
            EXPECT_EQ(r.traceMode, "materialized");

            // extension_more_prefetches' prefetch column: what the
            // adapter inserts is what the rewrite adds, one prefetch
            // per hot-block read.
            std::uint64_t hot_reads = 0;
            for (CpuId c = 0; c < trace.numCpus(); ++c)
                for (const TraceRecord &rec : trace.stream(c))
                    hot_reads += rec.type == RecordType::Read &&
                                 plan.hotBlocks.count(rec.bb);
            EXPECT_GT(hot_reads, 0u);
            EXPECT_EQ(rewritten.totalRecords() - trace.totalRecords(),
                      hot_reads);
            PrefetchStreamSource adapter(
                std::make_unique<MaterializedTraceSource>(trace), plan);
            const RunResult streamed =
                runOnce(adapter, machine, opts, setup.blockScheme);
            EXPECT_EQ(streamed.stats, expected.stats);
            EXPECT_EQ(adapter.insertedPrefetches(), hot_reads);
        }
    }
}

TEST(RunnerTest, BaseRunProducesStats)
{
    const RunResult r = runTiny(WorkloadKind::Trfd4, SystemKind::Base);
    EXPECT_GT(r.stats.osMissTotal(), 0u);
    EXPECT_GT(r.stats.osTime(), 0u);
    EXPECT_GT(r.stats.userTime(), 0u);
    EXPECT_GT(r.bus.totalTransactions, 0u);
}

TEST(RunnerTest, DmaRemovesBlockMisses)
{
    const RunResult base = runTiny(WorkloadKind::Trfd4, SystemKind::Base);
    const RunResult dma = runTiny(WorkloadKind::Trfd4, SystemKind::BlkDma);
    EXPECT_GT(base.stats.osMissBlock, 0u);
    EXPECT_EQ(dma.stats.osMissBlock, 0u);
}

TEST(RunnerTest, BypassIncreasesMissesOnTrfd)
{
    const RunResult base = runTiny(WorkloadKind::Trfd4, SystemKind::Base);
    const RunResult bypass =
        runTiny(WorkloadKind::Trfd4, SystemKind::BlkBypass);
    EXPECT_GT(bypass.stats.osMissTotal(), base.stats.osMissTotal());
}

TEST(RunnerTest, PrefHidesBlockMisses)
{
    const RunResult base = runTiny(WorkloadKind::Trfd4, SystemKind::Base);
    const RunResult pref =
        runTiny(WorkloadKind::Trfd4, SystemKind::BlkPref);
    EXPECT_LT(remainingOsMisses(pref.stats),
              remainingOsMisses(base.stats));
}

TEST(RunnerTest, SelectiveUpdateCutsCoherenceMisses)
{
    const RunResult reloc =
        runTiny(WorkloadKind::Trfd4, SystemKind::BCohReloc);
    const RunResult relup =
        runTiny(WorkloadKind::Trfd4, SystemKind::BCohRelUp);
    EXPECT_LT(relup.stats.osMissCoherenceTotal(),
              reloc.stats.osMissCoherenceTotal());
}

TEST(RunnerTest, PrivatizationCutsInfreqCommMisses)
{
    const RunResult dma = runTiny(WorkloadKind::Trfd4, SystemKind::BlkDma);
    const RunResult reloc =
        runTiny(WorkloadKind::Trfd4, SystemKind::BCohReloc);
    const auto idx = static_cast<std::size_t>(DataCategory::InfreqComm);
    EXPECT_LT(reloc.stats.osMissCoherence[idx],
              dma.stats.osMissCoherence[idx]);
}

TEST(RunnerTest, HotspotPassReturnsPlanAndHidesMisses)
{
    const RunResult relup =
        runTiny(WorkloadKind::Trfd4, SystemKind::BCohRelUp);
    const RunResult bcpref =
        runTiny(WorkloadKind::Trfd4, SystemKind::BCPref);
    EXPECT_FALSE(bcpref.hotspots.hotBlocks.empty());
    EXPECT_GT(bcpref.hotspotCoverage, 0.0);
    EXPECT_LT(remainingOsMisses(bcpref.stats),
              remainingOsMisses(relup.stats));
}

TEST(RunnerTest, FullStackBeatsBaseOnTimeEverywhere)
{
    for (WorkloadKind kind : allWorkloads) {
        const RunResult base = runTiny(kind, SystemKind::Base);
        const RunResult best = runTiny(kind, SystemKind::BCPref);
        EXPECT_LT(best.stats.osTime(), base.stats.osTime())
            << toString(kind);
        EXPECT_LT(remainingOsMisses(best.stats),
                  0.75 * remainingOsMisses(base.stats))
            << toString(kind);
    }
}

TEST(RunnerTest, UserTimeLargelyUnaffected)
{
    // Section 7: "the user execution time is practically unaffected
    // by the proposed optimizations."
    const RunResult base = runTiny(WorkloadKind::Trfd4, SystemKind::Base);
    const RunResult best =
        runTiny(WorkloadKind::Trfd4, SystemKind::BCPref);
    const double ratio =
        double(best.stats.userTime()) / double(base.stats.userTime());
    // On these downsized traces some second-order effects (reuse
    // misses on DMA-written pages the application then touches) show
    // through; the full-size benches stay closer to 1.
    EXPECT_GT(ratio, 0.70);
    EXPECT_LT(ratio, 1.45);
}

TEST(RunnerTest, SmallerCacheMoreMisses)
{
    MachineConfig small = MachineConfig::base();
    small.l1Size = 16 * 1024;
    MachineConfig big = MachineConfig::base();
    big.l1Size = 64 * 1024;
    const RunResult s = runTiny(WorkloadKind::Trfd4, SystemKind::Base,
                                small);
    const RunResult b = runTiny(WorkloadKind::Trfd4, SystemKind::Base,
                                big);
    EXPECT_GT(s.stats.totalMisses(), b.stats.totalMisses());
}

TEST(RunnerTest, DmaBeatsBaseAcrossCacheSizes)
{
    // The Figure 6 claim, on a downsized workload.
    for (unsigned kb : {16u, 32u, 64u}) {
        MachineConfig machine = MachineConfig::base();
        machine.l1Size = kb * 1024;
        const RunResult base =
            runTiny(WorkloadKind::Arc2dFsck, SystemKind::Base, machine);
        const RunResult dma =
            runTiny(WorkloadKind::Arc2dFsck, SystemKind::BlkDma, machine);
        EXPECT_LT(dma.stats.osTime(), base.stats.osTime()) << kb << "KB";
    }
}

TEST(RunnerTest, SetupStacksCorrectly)
{
    const SystemSetup base = SystemSetup::forKind(SystemKind::Base);
    EXPECT_EQ(base.blockScheme, BlockScheme::Base);
    EXPECT_FALSE(base.coherence.privatizeCounters);
    EXPECT_FALSE(base.hotspotPrefetch);

    const SystemSetup relup = SystemSetup::forKind(SystemKind::BCohRelUp);
    EXPECT_EQ(relup.blockScheme, BlockScheme::Dma);
    EXPECT_TRUE(relup.coherence.privatizeCounters);
    EXPECT_TRUE(relup.coherence.relocate);
    EXPECT_TRUE(relup.coherence.selectiveUpdate);
    EXPECT_FALSE(relup.hotspotPrefetch);

    const SystemSetup bcpref = SystemSetup::forKind(SystemKind::BCPref);
    EXPECT_TRUE(bcpref.hotspotPrefetch);
}

TEST(RunnerTest, SystemNamesMatchPaper)
{
    EXPECT_STREQ(toString(SystemKind::BlkDma), "Blk_Dma");
    EXPECT_STREQ(toString(SystemKind::BCohRelUp), "BCoh_RelUp");
    EXPECT_STREQ(toString(SystemKind::BCPref), "BCPref");
}

TEST(RunnerTest, DeterministicAcrossRuns)
{
    const RunResult a = runTiny(WorkloadKind::Shell, SystemKind::BlkDma);
    const RunResult b = runTiny(WorkloadKind::Shell, SystemKind::BlkDma);
    EXPECT_EQ(a.stats.osMissTotal(), b.stats.osMissTotal());
    EXPECT_EQ(a.stats.osTime(), b.stats.osTime());
    EXPECT_EQ(a.bus.totalBytes, b.bus.totalBytes);
}

} // namespace
} // namespace oscache
