/**
 * @file
 * Tests of the differential-testing subsystem (src/dft): the
 * reference oracle must agree with the timing engine on the paper's
 * workloads and on seeded adversarial traces, the differ must catch
 * an injected protocol mutation, and the metamorphic properties of
 * the simulator must hold.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>

#include "core/blockop/schemes.hh"
#include "core/runner.hh"
#include "dft/differ.hh"
#include "dft/fuzz.hh"
#include "dft/golden.hh"
#include "dft/oracle.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"
#include "synth/generator.hh"
#include "testutil.hh"
#include "trace/io.hh"
#include "trace/source.hh"

namespace oscache
{
namespace
{

using dft::DiffResult;
using dft::FuzzReport;
using dft::OracleDiffer;
using dft::RefCounts;
using dft::ReferenceMachine;

// ---------------------------------------------------------------------
// Differential oracle vs engine.
// ---------------------------------------------------------------------

TEST(DftWorkloadTest, FullWorkloadsAgreeWithEngine)
{
    for (const WorkloadKind kind : allWorkloads) {
        SCOPED_TRACE(toString(kind));
        Trace trace = generateTrace(kind, CoherenceOptions::none());
        MaterializedTraceSource source(trace);
        const MachineConfig machine;
        const SimOptions options;
        const DiffResult diff =
            dft::runDiff(source, machine, options, BlockScheme::Base);
        EXPECT_FALSE(diff.diverged) << diff.report;
        EXPECT_GT(diff.eventsChecked, 100000u);
    }
}

TEST(DftFuzzTest, SeededBatchNoDivergence)
{
    const std::uint64_t base = testutil::testSeed(1);
    const int iters = testutil::propIters(150);
    for (int i = 0; i < iters; ++i) {
        const FuzzReport report = dft::fuzzOne(base + std::uint64_t(i));
        ASSERT_FALSE(report.diff.diverged)
            << "seed " << report.seed << " (reproduce: oscache-dft fuzz "
            << "--seed-base " << report.seed << " --count 1)\n"
            << report.diff.report;
    }
}

TEST(DftFuzzTest, CasesAreDeterministicFunctionsOfTheSeed)
{
    const dft::FuzzCase a = dft::makeFuzzCase(77);
    const dft::FuzzCase b = dft::makeFuzzCase(77);
    ASSERT_EQ(a.machine.numCpus, b.machine.numCpus);
    ASSERT_EQ(a.scheme, b.scheme);
    ASSERT_EQ(a.trace.numCpus(), b.trace.numCpus());
    for (CpuId c = 0; c < a.trace.numCpus(); ++c) {
        const auto &sa = a.trace.stream(c);
        const auto &sb = b.trace.stream(c);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].type, sb[i].type);
            EXPECT_EQ(sa[i].addr, sb[i].addr);
        }
    }
}

// The documented mutation-kill check (see TESTING.md): silently
// flipping one line's MESI state mid-run — the effect of a one-line
// protocol bug such as installing Shared fills as Exclusive — must be
// caught by the differ's per-event tag cross-check.
TEST(DftMutationTest, InjectedMesiMutationCaught)
{
    MachineConfig machine;
    machine.numCpus = 2;
    MemorySystem mem(machine);
    std::unordered_set<Addr> update_pages;
    OracleDiffer differ(mem, &update_pages);
    mem.setObserver(&differ);

    AccessContext ctx;
    ctx.os = true;
    const Addr addr = kernelSpaceBase + 0x1000;
    Cycles now = 0;
    now = mem.write(0, addr, now, ctx).completeAt;
    now = mem.read(1, addr, now, ctx).completeAt;
    ASSERT_FALSE(differ.diverged()) << differ.report();

    // The mutation: cpu 0's Shared copy silently becomes Modified —
    // exactly one line of protocol state, no event fired.
    mem.debugSetL2State(0, addr, LineState::Modified);

    // The very next checked event on that line exposes it.
    now = mem.read(1, addr, now, ctx).completeAt;
    EXPECT_TRUE(differ.diverged());
    EXPECT_NE(differ.report().find("secondary state mismatch"),
              std::string::npos)
        << differ.report();
}

// ---------------------------------------------------------------------
// Metamorphic properties.
// ---------------------------------------------------------------------

namespace prop
{

/**
 * A permutation-symmetric trace: each stream touches its own private
 * region (derived from the stream's position in `streams`, not from
 * the processor it lands on) plus a set of read-only shared lines.
 */
Trace
symmetricTrace(unsigned num_cpus, Rng &rng)
{
    Trace trace(num_cpus);
    const MachineConfig machine;
    for (CpuId c = 0; c < num_cpus; ++c) {
        auto &s = trace.stream(c);
        const Addr priv = kernelSpaceBase + 0x100000 + Addr{c} * 0x8000;
        for (int i = 0; i < 400; ++i) {
            const double roll = rng.uniform();
            if (roll < 0.5) {
                s.push_back(TraceRecord::read(
                    priv + rng.below(256) * machine.l1LineSize,
                    DataCategory::KernelPrivate, 0, true));
            } else if (roll < 0.8) {
                s.push_back(TraceRecord::write(
                    priv + rng.below(256) * machine.l1LineSize,
                    DataCategory::KernelPrivate, 0, true));
            } else {
                // Read-only shared lines: hit/miss behaviour per
                // processor is order-independent.
                s.push_back(TraceRecord::read(
                    kernelSpaceBase + rng.below(32) * machine.l1LineSize,
                    DataCategory::FreqShared, 0, true));
            }
        }
    }
    return trace;
}

/** Per-stream read/miss counts after an oracle standalone run. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
oracleCounts(const Trace &trace, MachineConfig machine = MachineConfig())
{
    machine.numCpus = trace.numCpus();
    ReferenceMachine ref(machine, &trace.updatePages());
    Trace copy = trace;
    MaterializedTraceSource source(copy);
    ref.runStandalone(source);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (CpuId c = 0; c < trace.numCpus(); ++c)
        counts.emplace_back(ref.counts(c).reads, ref.counts(c).misses());
    return counts;
}

struct EngineRun
{
    Cycles busCycles = 0;
    std::uint64_t blockMisses = 0;
};

/** Run a trace through the engine under @p scheme. */
EngineRun
engineRun(Trace &trace, const MachineConfig &machine, BlockScheme scheme)
{
    MaterializedTraceSource source(trace);
    MemorySystem mem(machine);
    SimStats stats;
    const SimOptions options;
    const auto executor =
        makeBlockOpExecutor(scheme, mem, stats, options);
    System system(source, mem, *executor, options, stats);
    system.run();
    return {mem.bus().totalBusyCycles(), stats.osMissBlock};
}

} // namespace prop

// P1: processor-ID permutation of a symmetric trace leaves each
// stream's read and miss counts unchanged.
TEST(DftPropertyTest, MissCountsInvariantUnderCpuPermutation)
{
    Rng rng = testutil::testRng(101);
    const unsigned num_cpus = 4;
    const Trace original = prop::symmetricTrace(num_cpus, rng);

    // Rotate the streams: the stream cpu c carried now runs on c+1.
    Trace rotated(num_cpus);
    for (CpuId c = 0; c < num_cpus; ++c)
        rotated.stream((c + 1) % num_cpus) = original.stream(c);

    const auto base = prop::oracleCounts(original);
    const auto perm = prop::oracleCounts(rotated);
    for (CpuId c = 0; c < num_cpus; ++c) {
        EXPECT_EQ(base[c], perm[(c + 1) % num_cpus])
            << "stream " << int(c) << " changed counts when moved";
    }
}

// P2: with the line size and set count held fixed, added
// associativity never increases the miss count (per-set LRU stack
// property).
TEST(DftPropertyTest, MissesMonotoneNonIncreasingWithAssociativity)
{
    Rng rng = testutil::testRng(202);
    // One address sequence, replayed against every geometry.
    std::vector<Addr> seq;
    const int iters = testutil::propIters(4000);
    for (int i = 0; i < iters; ++i)
        seq.push_back(kernelSpaceBase + 64 * rng.below(2048));

    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::uint32_t ways : {1u, 2u, 4u}) {
        MachineConfig machine;
        machine.numCpus = 1;
        machine.l1Size = 8 * 1024 * ways; // Set count stays fixed.
        machine.l1Ways = ways;
        machine.l2Size = 512 * 1024;
        MemorySystem mem(machine);
        AccessContext ctx;
        ctx.os = true;
        Cycles now = 0;
        std::uint64_t misses = 0;
        for (const Addr addr : seq) {
            const AccessResult res = mem.read(0, addr, now, ctx);
            misses += res.l1Miss;
            now = res.completeAt;
        }
        EXPECT_LE(misses, prev) << ways << " ways";
        prev = misses;
    }
}

// P3: the DMA-engine block-operation scheme bypasses the data caches
// entirely — it never takes a block-operation cache miss, while Base
// (per-word cached copies) always does on cold data.  The bus-side
// half of the paper's claim holds only for the fast DMA hardware the
// paper proposes: under the default calibration (dmaPer8Bytes = 10,
// i.e. 2 bus cycles per 8 bytes) DMA streams every byte across the
// bus at a *higher* per-byte cost than a 32-byte line fill, so on
// reused data Base occupies the bus less, not more (the blessed
// golden cells show the same: Blk_Dma moves more bus bytes than Base
// but takes zero block-op misses).  We therefore assert the occupancy
// bound only with cold (streamed-once) block data and the paper's
// cheap-DMA calibration.
TEST(DftPropertyTest, DmaBypassesCachesAndCheapDmaNeverIncreasesBus)
{
    Rng rng = testutil::testRng(303);
    const int iters = testutil::propIters(5);
    for (int round = 0; round < iters; ++round) {
        Trace trace(2);
        Addr fresh = kernelSpaceBase + 0x100000;
        for (CpuId c = 0; c < 2; ++c) {
            auto &s = trace.stream(c);
            for (int i = 0; i < 10; ++i) {
                BlockOp op;
                op.kind =
                    rng.chance(0.5) ? BlockOpKind::Copy : BlockOpKind::Zero;
                op.size = std::uint32_t(2048 + 1024 * rng.below(3));
                // Every operation touches brand-new lines so neither
                // scheme benefits from earlier rounds' residency.
                op.src = fresh;
                fresh += 0x2000;
                op.dst = fresh;
                fresh += 0x2000;
                const BlockOpId id = trace.blockOps().add(op);
                TraceRecord begin;
                begin.type = RecordType::BlockOpBegin;
                begin.aux = id;
                begin.flags = flagOs;
                s.push_back(TraceRecord::exec(20, 0, true));
                s.push_back(begin);
                TraceRecord end = begin;
                end.type = RecordType::BlockOpEnd;
                s.push_back(end);
            }
        }
        MachineConfig machine;
        machine.numCpus = 2;
        machine.dmaPer8Bytes = 2; // The paper's DMA engine, not the
                                  // conservative default.
        Trace base_trace = trace;
        Trace dma_trace = trace;
        const prop::EngineRun base =
            prop::engineRun(base_trace, machine, BlockScheme::Base);
        const prop::EngineRun dma =
            prop::engineRun(dma_trace, machine, BlockScheme::Dma);
        EXPECT_EQ(dma.blockMisses, 0u) << "round " << round;
        EXPECT_GT(base.blockMisses, 0u) << "round " << round;
        EXPECT_LE(dma.busCycles, base.busCycles) << "round " << round;
    }
}

// P4: replaying a stored (chunked v4) trace is equivalent to
// consuming the materialized trace directly — same event count, no
// divergence, identical miss totals.
TEST(DftPropertyTest, StoredReplayEquivalentToDirectConsumption)
{
    const dft::FuzzCase fc =
        dft::makeFuzzCase(testutil::testSeed(404));
    const std::string path = "/tmp/oscache_dft_replay.otb";
    writeTraceFile(path, fc.trace, TraceFormat::Chunked);

    Trace direct_trace = fc.trace;
    MaterializedTraceSource direct(direct_trace);
    const SimOptions options;
    const DiffResult a =
        dft::runDiff(direct, fc.machine, options, fc.scheme);
    ASSERT_FALSE(a.diverged) << a.report;

    auto stored = FileTraceSource::tryOpen(path);
    ASSERT_NE(stored, nullptr);
    const DiffResult b =
        dft::runDiff(*stored, fc.machine, options, fc.scheme);
    ASSERT_FALSE(b.diverged) << b.report;

    EXPECT_EQ(a.eventsChecked, b.eventsChecked);
    const auto key = [](const SimStats &s) {
        return std::make_tuple(s.osReads, s.osWrites, s.userReads,
                               s.userMisses, s.osMissBlock, s.osMissOther,
                               s.osReadStall, s.osWriteStall, s.osSpin,
                               s.idle);
    };
    EXPECT_EQ(key(a.stats), key(b.stats));
}

// P6: socket permutation.  On a multi-socket machine the functional
// semantics are topology-independent, so rotating whole socket
// blocks of streams moves each stream's counts with it — including
// the total of home-attributed memory reads, even though the
// local/remote split flips when a stream changes sockets.
TEST(DftPropertyTest, MissCountsInvariantUnderSocketPermutation)
{
    Rng rng = testutil::testRng(606);
    const MachineConfig machine = MachineConfig::numa(2, 2);
    const unsigned num_cpus = machine.numCpus;
    const unsigned per = machine.cpusPerSocket();
    const Trace original = prop::symmetricTrace(num_cpus, rng);

    // Rotate by a whole socket: the block socket s carried now runs
    // on socket s+1.
    Trace rotated(num_cpus);
    for (CpuId c = 0; c < num_cpus; ++c)
        rotated.stream((c + per) % num_cpus) = original.stream(c);

    const auto base = prop::oracleCounts(original, machine);
    const auto perm = prop::oracleCounts(rotated, machine);
    for (CpuId c = 0; c < num_cpus; ++c) {
        EXPECT_EQ(base[c], perm[(c + per) % num_cpus])
            << "stream " << int(c) << " changed counts when its socket "
            << "moved";
    }

    // Home-attribution totals follow the streams too (the split
    // between local and remote legitimately flips).
    const auto homeTotals = [&](const Trace &t) {
        MachineConfig m = machine;
        m.numCpus = t.numCpus();
        ReferenceMachine ref(m, &t.updatePages());
        Trace copy = t;
        MaterializedTraceSource source(copy);
        ref.runStandalone(source);
        std::vector<std::uint64_t> totals;
        for (CpuId c = 0; c < t.numCpus(); ++c)
            totals.push_back(ref.counts(c).homeLocalReads +
                             ref.counts(c).homeRemoteReads);
        return totals;
    };
    const auto base_home = homeTotals(original);
    const auto perm_home = homeTotals(rotated);
    std::uint64_t any = 0;
    for (CpuId c = 0; c < num_cpus; ++c) {
        EXPECT_EQ(base_home[c], perm_home[(c + per) % num_cpus]);
        any += base_home[c];
    }
    EXPECT_GT(any, 0u) << "trace never reached memory";
}

// Degenerate equivalence: a one-socket machine is the flat bus, no
// matter how the (inert) NUMA knobs are set — same stats, same bus
// traffic, and no link or filter activity reported.
TEST(DftPropertyTest, OneSocketNumaIdenticalToFlatBus)
{
    Rng rng = testutil::testRng(707);
    const Trace trace = prop::symmetricTrace(4, rng);

    const MachineConfig flat = MachineConfig::base();
    MachineConfig degenerate = MachineConfig::base();
    degenerate.numSockets = 1;
    degenerate.remoteMemPenalty = 9999;
    degenerate.linkTransferOccupancy = 1234;
    degenerate.linkMsgOccupancy = 321;
    degenerate.homeGranule = 64;

    const SimOptions options;
    const SystemSetup setup;
    const RunResult a = runOnTrace(trace, flat, options, setup);
    const RunResult b = runOnTrace(trace, degenerate, options, setup);

    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.bus.totalBytes, b.bus.totalBytes);
    EXPECT_EQ(a.bus.totalTransactions, b.bus.totalTransactions);
    EXPECT_EQ(a.bus.busyCycles, b.bus.busyCycles);
    EXPECT_EQ(b.bus.numSockets, 0u);
    EXPECT_EQ(b.bus.linkTransactions, 0u);
    EXPECT_EQ(b.bus.snoopsFiltered + b.bus.snoopsForwarded, 0u);
}

// P5: inserting Idle records changes nothing the clockless oracle
// observes — counts are invariant.
TEST(DftPropertyTest, OracleCountsInvariantUnderIdleInsertion)
{
    Rng rng = testutil::testRng(505);
    const unsigned num_cpus = 3;
    const Trace plain = prop::symmetricTrace(num_cpus, rng);
    Trace padded(num_cpus);
    for (CpuId c = 0; c < num_cpus; ++c) {
        for (const TraceRecord &rec : plain.stream(c)) {
            if (rng.chance(0.25))
                padded.stream(c).push_back(TraceRecord::idle(7));
            padded.stream(c).push_back(rec);
        }
    }
    EXPECT_EQ(prop::oracleCounts(plain), prop::oracleCounts(padded));
}

// ---------------------------------------------------------------------
// Golden normalization unit checks (the full 18-cell comparison runs
// as the oscache_dft_golden ctest entry).
// ---------------------------------------------------------------------

TEST(DftGoldenTest, NormalizationZeroesVolatileFieldsOnly)
{
    const std::string row =
        "{\"experiment\":\"figure1\",\"cell\":\"x\",\"wall_ms\":12.5,"
        "\"shared\":true,\"peak_rss_kb\":4096,\"stats\":{\"os_time\":42}}";
    EXPECT_EQ(dft::normalizeResultLine(row),
              "{\"experiment\":\"figure1\",\"cell\":\"x\",\"wall_ms\":0,"
              "\"shared\":false,\"peak_rss_kb\":0,"
              "\"stats\":{\"os_time\":42}}");
}

TEST(DftGoldenTest, CompareReportsMissingAndExtraRows)
{
    const std::vector<std::string> blessed = {"a", "b", "c"};
    const std::vector<std::string> current = {"a", "c", "d"};
    const dft::GoldenDiff diff = dft::compareGolden(blessed, current);
    EXPECT_FALSE(diff.matches);
    EXPECT_NE(diff.report.find("only in blessed: b"), std::string::npos)
        << diff.report;
    EXPECT_NE(diff.report.find("only in current: d"), std::string::npos)
        << diff.report;
    EXPECT_TRUE(dft::compareGolden(blessed, blessed).matches);
}

} // namespace
} // namespace oscache
