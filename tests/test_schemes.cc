/**
 * @file
 * Tests of the Section 4 block-operation schemes: each executor's
 * miss behaviour, instruction cost, timing, and side effects, plus
 * the deferred-copy evaluator.
 */

#include <gtest/gtest.h>

#include "core/blockop/analyzer.hh"
#include "core/blockop/schemes.hh"
#include "mem/memsys.hh"

namespace oscache
{
namespace
{

class SchemeTest : public ::testing::Test
{
  protected:
    SchemeTest() : mem(MachineConfig::base()) {}

    BlockOp
    pageCopy(Addr src = 0x100000, Addr dst = 0x204000)
    {
        BlockOp op;
        op.src = src;
        op.dst = dst;
        op.size = 4096;
        op.kind = BlockOpKind::Copy;
        return op;
    }

    BlockOp
    pageZero(Addr dst = 0x300000)
    {
        BlockOp op;
        op.dst = dst;
        op.size = 4096;
        op.kind = BlockOpKind::Zero;
        return op;
    }

    /** Warm the originator's caches with the whole block. */
    void
    warm(CpuId cpu, Addr base, std::uint32_t size)
    {
        AccessContext ctx;
        ctx.os = true;
        Cycles t = 0;
        for (Addr a = base; a < base + size; a += 16)
            t = mem.read(cpu, a, t, ctx).completeAt;
    }

    MemorySystem mem;
    SimStats stats;
    SimOptions opts;
};

TEST_F(SchemeTest, BaseColdCopyMissesPerLine)
{
    BaseExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    // One miss per cold 16-byte source line.
    EXPECT_EQ(stats.osMissBlock, 4096u / 16);
    EXPECT_EQ(stats.osReads, 1024u);
    EXPECT_EQ(stats.osWrites, 1024u);
}

TEST_F(SchemeTest, BaseWarmCopyHits)
{
    warm(0, 0x100000, 4096);
    const auto misses_before = stats.osMissBlock;
    BaseExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 100000, true);
    EXPECT_EQ(stats.osMissBlock, misses_before);
}

TEST_F(SchemeTest, BaseZeroHasNoReads)
{
    BaseExecutor exec(mem, stats, opts);
    exec.execute(0, pageZero(), 0, true);
    EXPECT_EQ(stats.osReads, 0u);
    EXPECT_EQ(stats.osWrites, 1024u);
    EXPECT_EQ(stats.osMissBlock, 0u);
}

TEST_F(SchemeTest, BaseAllocatesDestination)
{
    BaseExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    EXPECT_TRUE(mem.l1Contains(0, 0x204000));
    EXPECT_EQ(mem.l2State(0, 0x204000), LineState::Modified);
}

TEST_F(SchemeTest, BaseColorConflictCostsOneMissPerLine)
{
    // Source and destination 32 KB apart: same L1 sets.  The
    // line-batched copy still pays only ~1 read miss per line.
    BaseExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(0x100000, 0x100000 + 32 * 1024), 0, true);
    EXPECT_LE(stats.osMissBlock, 4096u / 16 + 8);
}

TEST_F(SchemeTest, PrefHidesMostMisses)
{
    BlkPrefExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    const auto visible = stats.osMissBlock - stats.osMissPartiallyHidden;
    // Fully hidden misses disappear; only the prolog's late
    // prefetches remain, partially hidden.
    EXPECT_LT(visible, 8u);
    EXPECT_GT(stats.osMissPartiallyHidden, 0u);
}

TEST_F(SchemeTest, PrefFallsBackToBaseForZero)
{
    BlkPrefExecutor exec(mem, stats, opts);
    exec.execute(0, pageZero(), 0, true);
    EXPECT_EQ(stats.osReads, 0u);
    EXPECT_EQ(stats.osWrites, 1024u);
}

TEST_F(SchemeTest, BypassDoesNotAllocate)
{
    BypassExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    EXPECT_FALSE(mem.l1Contains(0, 0x100000));
    EXPECT_FALSE(mem.l1Contains(0, 0x204000));
    EXPECT_EQ(mem.l2State(0, 0x204000), LineState::Invalid);
}

TEST_F(SchemeTest, BypassLeavesReuseCandidates)
{
    BypassExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    AccessContext ctx;
    ctx.os = true;
    const auto res = mem.read(0, 0x204000, 1'000'000, ctx);
    EXPECT_EQ(res.cause, MissCause::Reuse);
}

TEST_F(SchemeTest, BypassChainedCopyCountsInsideReuses)
{
    BypassExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(0x100000, 0x204000), 0, true);
    const auto reuse_before = stats.reuseInside;
    // Second copy reads the first copy's (bypassed) destination.
    exec.execute(0, pageCopy(0x204000, 0x309000), 1'000'000, true);
    EXPECT_GT(stats.reuseInside, reuse_before);
}

TEST_F(SchemeTest, BypassUsesCachesWhenResident)
{
    warm(0, 0x100000, 4096);
    const auto misses_before = stats.osMissBlock;
    BypassExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 100000, true);
    EXPECT_EQ(stats.osMissBlock, misses_before);
}

TEST_F(SchemeTest, BypassWritesLoadTheBusWordwise)
{
    const auto bytes_before = mem.bus().bytes(BusTxn::WriteBack);
    BypassExecutor exec(mem, stats, opts);
    exec.execute(0, pageZero(), 0, true);
    // 1024 bypassed word writes of 4 bytes each.
    EXPECT_EQ(mem.bus().bytes(BusTxn::WriteBack) - bytes_before, 4096u);
}

TEST_F(SchemeTest, ByPrefReadsThroughBuffer)
{
    ByPrefExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    // The source stays out of the caches; the destination is cached
    // (writes are cached in Blk_ByPref).
    EXPECT_FALSE(mem.l1Contains(0, 0x100000 + 2048));
    EXPECT_TRUE(mem.l1Contains(0, 0x204000 + 2048));
}

TEST_F(SchemeTest, ByPrefHidesMostSourceMisses)
{
    ByPrefExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    const auto visible = stats.osMissBlock - stats.osMissPartiallyHidden;
    EXPECT_LT(visible, 4096u / 16 / 2);
}

TEST_F(SchemeTest, DmaNoProcessorMisses)
{
    DmaExecutor exec(mem, stats, opts);
    exec.execute(0, pageCopy(), 0, true);
    EXPECT_EQ(stats.osMissBlock, 0u);
    EXPECT_EQ(stats.osReads, 0u);
}

TEST_F(SchemeTest, DmaStallChargedToReadBucket)
{
    DmaExecutor exec(mem, stats, opts);
    const Cycles done = exec.execute(0, pageCopy(), 0, true);
    EXPECT_GT(stats.osReadStall, 4096u); // The whole transfer stall.
    EXPECT_GT(done, 4096u);
}

TEST_F(SchemeTest, DmaFewInstructions)
{
    DmaExecutor dma(mem, stats, opts);
    dma.execute(0, pageCopy(), 0, true);
    const auto dma_instr = stats.osInstrs;

    SimStats base_stats;
    MemorySystem mem2(MachineConfig::base());
    BaseExecutor base(mem2, base_stats, opts);
    base.execute(0, pageCopy(), 0, true);
    EXPECT_LT(dma_instr * 10, base_stats.osInstrs);
}

TEST_F(SchemeTest, DmaZeroFasterThanCopy)
{
    DmaExecutor exec(mem, stats, opts);
    const Cycles copy_done = exec.execute(0, pageCopy(), 0, true);
    const Cycles zero_start = copy_done;
    const Cycles zero_done =
        exec.execute(0, pageZero(), zero_start, true) - zero_start;
    EXPECT_LT(zero_done, copy_done);
}

TEST_F(SchemeTest, DeferredElidesReadOnlySmallCopy)
{
    auto inner = std::make_unique<BaseExecutor>(mem, stats, opts);
    DeferredCopyExecutor exec(std::move(inner), mem, stats, opts);
    BlockOp op = pageCopy();
    op.size = 512;
    op.readOnlyAfter = true;
    exec.execute(0, op, 0, true);
    EXPECT_EQ(exec.elidedCopies(), 1u);
    EXPECT_EQ(stats.osReads, 0u);
}

TEST_F(SchemeTest, DeferredRunsWrittenSmallCopy)
{
    auto inner = std::make_unique<BaseExecutor>(mem, stats, opts);
    DeferredCopyExecutor exec(std::move(inner), mem, stats, opts);
    BlockOp op = pageCopy();
    op.size = 512;
    op.readOnlyAfter = false;
    exec.execute(0, op, 0, true);
    EXPECT_EQ(exec.elidedCopies(), 0u);
    EXPECT_EQ(stats.osReads, 128u);
}

TEST_F(SchemeTest, DeferredRunsPageCopyRegardless)
{
    auto inner = std::make_unique<BaseExecutor>(mem, stats, opts);
    DeferredCopyExecutor exec(std::move(inner), mem, stats, opts);
    BlockOp op = pageCopy();
    op.readOnlyAfter = true; // Page-sized: copy-on-write handles it.
    exec.execute(0, op, 0, true);
    EXPECT_EQ(exec.elidedCopies(), 0u);
    EXPECT_EQ(stats.osReads, 1024u);
}

TEST_F(SchemeTest, FactoryProducesAllSchemes)
{
    for (BlockScheme s :
         {BlockScheme::Base, BlockScheme::Pref, BlockScheme::Bypass,
          BlockScheme::ByPref, BlockScheme::Dma}) {
        auto exec = makeBlockOpExecutor(s, mem, stats, opts);
        ASSERT_NE(exec, nullptr) << toString(s);
    }
}

TEST_F(SchemeTest, AnalyzerSamplesPreOpState)
{
    warm(0, 0x100000, 2048); // Half the source.
    BlockOpCensus census;
    AnalyzingExecutor analyzer(
        std::make_unique<BaseExecutor>(mem, stats, opts), mem, census);
    analyzer.execute(0, pageCopy(), 100000, true);
    EXPECT_EQ(census.operations, 1u);
    EXPECT_EQ(census.copies, 1u);
    EXPECT_NEAR(census.srcCachedPct(), 50.0, 1.0);
    EXPECT_EQ(census.sizePage, 1u);
}

TEST_F(SchemeTest, AnalyzerSizeClasses)
{
    BlockOpCensus census;
    AnalyzingExecutor analyzer(
        std::make_unique<BaseExecutor>(mem, stats, opts), mem, census);
    BlockOp small = pageCopy();
    small.size = 256;
    BlockOp medium = pageCopy();
    medium.size = 2048;
    analyzer.execute(0, small, 0, true);
    analyzer.execute(0, medium, 100000, true);
    analyzer.execute(0, pageZero(), 200000, true);
    EXPECT_EQ(census.sizeSmall, 1u);
    EXPECT_EQ(census.sizeMedium, 1u);
    EXPECT_EQ(census.sizePage, 1u);
    EXPECT_EQ(census.copies, 2u); // Zeros are not copies.
}

TEST_F(SchemeTest, AnalyzerDstDirtyDetection)
{
    // Dirty the destination in L2 first.
    AccessContext ctx;
    ctx.os = true;
    Cycles t = 0;
    for (Addr a = 0x204000; a < 0x205000; a += 32)
        t = mem.write(0, a, t, ctx).completeAt;
    BlockOpCensus census;
    AnalyzingExecutor analyzer(
        std::make_unique<BaseExecutor>(mem, stats, opts), mem, census);
    analyzer.execute(0, pageCopy(), t + 1000, true);
    EXPECT_NEAR(census.dstDirtyExclPct(), 100.0, 1.0);
}

/** Parameterized: every scheme must preserve basic accounting. */
class AllSchemes : public ::testing::TestWithParam<BlockScheme>
{
};

TEST_P(AllSchemes, CompletesAndAdvancesTime)
{
    MemorySystem mem(MachineConfig::base());
    SimStats stats;
    SimOptions opts;
    auto exec = makeBlockOpExecutor(GetParam(), mem, stats, opts);
    BlockOp op;
    op.src = 0x100000;
    op.dst = 0x200000;
    op.size = 4096;
    op.kind = BlockOpKind::Copy;
    const Cycles done = exec->execute(0, op, 1000, true);
    EXPECT_GT(done, 1000u);
}

TEST_P(AllSchemes, ZeroOpCompletes)
{
    MemorySystem mem(MachineConfig::base());
    SimStats stats;
    SimOptions opts;
    auto exec = makeBlockOpExecutor(GetParam(), mem, stats, opts);
    BlockOp op;
    op.dst = 0x200000;
    op.size = 4096;
    op.kind = BlockOpKind::Zero;
    EXPECT_GT(exec->execute(0, op, 0, true), 0u);
}

TEST_P(AllSchemes, SubLineSizedOpWorks)
{
    MemorySystem mem(MachineConfig::base());
    SimStats stats;
    SimOptions opts;
    auto exec = makeBlockOpExecutor(GetParam(), mem, stats, opts);
    BlockOp op;
    op.src = 0x100000;
    op.dst = 0x200000;
    op.size = 16;
    op.kind = BlockOpKind::Copy;
    EXPECT_GT(exec->execute(0, op, 0, true), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, AllSchemes,
                         ::testing::Values(BlockScheme::Base,
                                           BlockScheme::Pref,
                                           BlockScheme::Bypass,
                                           BlockScheme::ByPref,
                                           BlockScheme::Dma));

} // namespace
} // namespace oscache
