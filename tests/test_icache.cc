/**
 * @file
 * Tests of the detailed instruction-cache model and its integration
 * with the simulation engine.
 */

#include <gtest/gtest.h>

#include "core/blockop/schemes.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"

namespace oscache
{
namespace
{

constexpr Addr code = 0xc000'0000;

TEST(ICacheTest, ColdFetchPaysBusLatency)
{
    MemorySystem mem(MachineConfig::base());
    // One 16-byte code line, cold everywhere: L2 probe + bus fetch.
    const Cycles stall = mem.instructionFetch(0, code, 16, 0);
    EXPECT_GE(stall, MachineConfig::base().memLatency);
}

TEST(ICacheTest, SecondFetchHits)
{
    MemorySystem mem(MachineConfig::base());
    mem.instructionFetch(0, code, 256, 0);
    EXPECT_EQ(mem.instructionFetch(0, code, 256, 1000), 0u);
}

TEST(ICacheTest, L2ResidentCodeCostsL2Latency)
{
    MemorySystem mem(MachineConfig::base());
    mem.instructionFetch(0, code, 16, 0);     // Install in I$ and L2.
    // Evict from the I-cache by filling the aliasing set (16-KB I$).
    mem.instructionFetch(0, code + 16 * 1024, 16, 1000);
    const Cycles stall = mem.instructionFetch(0, code, 16, 2000);
    EXPECT_EQ(stall, MachineConfig::base().l2HitLatency);
}

TEST(ICacheTest, PerCpuPrivate)
{
    MemorySystem mem(MachineConfig::base());
    mem.instructionFetch(0, code, 16, 0);
    // Another processor's I-cache is cold, but the line may be
    // supplied from its own L2 only if it fetched it; it did not.
    const Cycles stall = mem.instructionFetch(1, code, 16, 1000);
    EXPECT_GT(stall, 0u);
}

TEST(ICacheTest, MultiLineBlockSumsStalls)
{
    MemorySystem mem(MachineConfig::base());
    const Cycles one = mem.instructionFetch(0, code, 16, 0);
    MemorySystem mem2(MachineConfig::base());
    const Cycles four = mem2.instructionFetch(0, code, 64, 0);
    EXPECT_GT(four, one);
}

TEST(ICacheTest, CodeFillsEvictDataFromL2)
{
    MemorySystem mem(MachineConfig::base());
    AccessContext ctx;
    ctx.os = true;
    // Install a data line whose L2 set aliases the code address.
    const Addr data = 0x4000'0000 + (code % (256 * 1024));
    mem.read(0, data, 0, ctx);
    ASSERT_NE(mem.l2State(0, data), LineState::Invalid);
    mem.instructionFetch(0, code, 32, 1000);
    EXPECT_EQ(mem.l2State(0, data), LineState::Invalid);
}

TEST(ICacheTest, SystemUsesDetailedModelWhenEnabled)
{
    // Same single-block trace under both models: the detailed model
    // charges a cold fetch, the statistical model charges cpi*instr.
    for (const bool detailed : {false, true}) {
        Trace trace(1);
        trace.stream(0).push_back(TraceRecord::exec(100, 42, true));
        MachineConfig cfg = MachineConfig::base();
        cfg.numCpus = 1;
        MemorySystem mem(cfg);
        SimStats stats;
        SimOptions opts;
        opts.osImissCpi = 0.5;
        opts.modelICache = detailed;
        auto exec = makeBlockOpExecutor(BlockScheme::Base, mem, stats,
                                        opts);
        MaterializedTraceSource source(trace);
        System system(source, mem, *exec, opts, stats);
        system.run();
        if (detailed) {
            // 100 instructions = 800 modeled code bytes = 50 cold
            // lines; far more than the statistical 50 cycles.
            EXPECT_GT(stats.osImiss, 100u);
        } else {
            EXPECT_EQ(stats.osImiss, 50u);
        }
    }
}

TEST(ICacheTest, HotLoopCheapUnderDetailedModel)
{
    // The same block executed many times: only the first fetch pays.
    Trace trace(1);
    for (int i = 0; i < 100; ++i)
        trace.stream(0).push_back(TraceRecord::exec(10, 42, true));
    MachineConfig cfg = MachineConfig::base();
    cfg.numCpus = 1;
    MemorySystem mem(cfg);
    SimStats stats;
    SimOptions opts;
    opts.modelICache = true;
    auto exec = makeBlockOpExecutor(BlockScheme::Base, mem, stats, opts);
    MaterializedTraceSource source(trace);
    System system(source, mem, *exec, opts, stats);
    system.run();
    // First execution fetches ~5 lines; the other 99 are free.
    EXPECT_LT(stats.osImiss, 6 * MachineConfig::base().memLatency);
}

} // namespace
} // namespace oscache
