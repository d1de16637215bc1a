/**
 * @file
 * Performance-refactor safety net (ctest label "Perf").
 *
 * The data-oriented engine overhaul introduced a batched replay path
 * (System::runBatched), a packed open-addressing mark table
 * (MarkTable), and a devirtualized observer fan-out.  These tests pin
 * the properties the refactor must preserve:
 *
 *  - batched replay is record-for-record equivalent to driving
 *    tick() one step at a time, for every block-operation scheme,
 *    with and without observers attached, including the selective
 *    update protocol;
 *  - sampled replay through run() — phase-clipped spans and spin
 *    breaks in closed form — reports exactly what a run that ticks
 *    almost to the end reports, bare, checked and with metrics, on
 *    Base and Blk_Dma, at the default and a short spin-break budget;
 *  - a simulation with no observers performs no observer dispatch
 *    and no heap allocation on the steady-state hit path;
 *  - the coherence checker never perturbs the outcome (checker on
 *    equals checker off for every scheme, on two sockets, and under
 *    the update protocol) and, once warm, allocates nothing either;
 *  - MarkTable behaves exactly like the three unordered sets it
 *    replaced (flags, populations, sorted snapshots, class clears,
 *    probe-chain integrity across backward-shift deletions and
 *    growth);
 *  - a packed trace (PackedTraceSource, what the trace cache holds)
 *    replays exactly like its 24-byte records, on every system, flat
 *    and on two sockets, in full and sampled.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "common/binio.hh"
#include "core/blockop/schemes.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "mem/marks.hh"
#include "mem/memsys.hh"
#include "sample/run.hh"
#include "sim/system.hh"
#include "synth/generator.hh"
#include "synth/profile.hh"
#include "synth/stream_source.hh"
#include "trace/packed.hh"

// ---------------------------------------------------------------------
// Global allocation counter for the zero-allocation test.  Counting
// every path through the replacement set keeps the "no allocation in
// the measured window" assertion honest.
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> g_alloc_count{0};
}

// noinline keeps GCC from pairing the malloc in the replacement new
// with the free in the replacement delete at inlined use sites and
// raising -Wmismatched-new-delete false positives.
__attribute__((noinline)) void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace oscache
{
namespace
{

// ---------------------------------------------------------------------
// Batched vs stepped equivalence
// ---------------------------------------------------------------------

/** Everything observable a replay produces. */
struct ReplayResult
{
    SimStats stats;
    SimStats warm;
    std::string memState;
    std::string sysState;
};

/**
 * Replay @p trace under @p scheme.  @p stepped drives tick() one
 * record at a time; otherwise run() takes the batched fast path.
 * @p checked attaches the coherence checker so the
 * observer-notification schedule is exercised too.  A @p sampler
 * routes statistics to the measured and warm sinks per its phases.
 */
ReplayResult
replay(const Trace &trace, BlockScheme scheme, bool checked, bool stepped,
       const MachineConfig &machine = MachineConfig::base(),
       SampleController *sampler = nullptr)
{
    ReplayResult out;
    SimOptions opts;
    MemorySystem mem(machine);
    std::unique_ptr<CoherenceChecker> checker;
    if (checked) {
        checker = std::make_unique<CoherenceChecker>(machine);
        mem.setObserver(checker.get());
    }
    std::unique_ptr<BlockOpExecutor> exec =
        makeBlockOpExecutor(scheme, mem, out.stats, opts);
    MaterializedTraceSource source(trace);
    System system(source, mem, *exec, opts, out.stats);
    if (sampler != nullptr)
        system.setSampling(sampler, &out.warm);
    if (stepped) {
        while (system.tick()) {
        }
    } else {
        system.run();
    }
    std::ostringstream mem_bytes, sys_bytes;
    binio::BinaryWriter mw(mem_bytes);
    mem.saveState(mw);
    binio::BinaryWriter sw(sys_bytes);
    system.saveState(sw);
    out.memState = mem_bytes.str();
    out.sysState = sys_bytes.str();
    return out;
}

/** A short but block-op-rich workload (page faults, forks, I/O). */
const Trace &
shortTrace(const CoherenceOptions &coh)
{
    static const Trace none = [] {
        WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
        p.quanta = 3;
        return generateTrace(p, CoherenceOptions::none());
    }();
    static const Trace update = [] {
        WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
        p.quanta = 3;
        return generateTrace(p, CoherenceOptions::relocUpdate());
    }();
    return coh.selectiveUpdate ? update : none;
}

void
expectEquivalent(const ReplayResult &batched, const ReplayResult &stepped)
{
    EXPECT_TRUE(batched.stats == stepped.stats);
    EXPECT_TRUE(batched.warm == stepped.warm);
    EXPECT_EQ(batched.memState, stepped.memState);
    EXPECT_EQ(batched.sysState, stepped.sysState);
}

constexpr BlockScheme allSchemes[] = {
    BlockScheme::Base, BlockScheme::Pref, BlockScheme::Bypass,
    BlockScheme::ByPref, BlockScheme::Dma,
};

TEST(BatchedEquivalence, AllSchemesBare)
{
    const Trace &trace = shortTrace(CoherenceOptions::none());
    for (const BlockScheme scheme : allSchemes) {
        SCOPED_TRACE(toString(scheme));
        expectEquivalent(replay(trace, scheme, false, false),
                         replay(trace, scheme, false, true));
    }
}

TEST(BatchedEquivalence, AllSchemesWithObserver)
{
    const Trace &trace = shortTrace(CoherenceOptions::none());
    for (const BlockScheme scheme : allSchemes) {
        SCOPED_TRACE(toString(scheme));
        expectEquivalent(replay(trace, scheme, true, false),
                         replay(trace, scheme, true, true));
    }
}

TEST(BatchedEquivalence, AllSchemesOnTheNumaGeometry)
{
    // The two-level interconnect threads different timing through the
    // replay; the batched fast path must stay record-for-record
    // equivalent there too, with the coherence checker attached.
    const Trace &trace = shortTrace(CoherenceOptions::none());
    const MachineConfig machine = MachineConfig::numa(2, 2);
    for (const BlockScheme scheme : allSchemes) {
        SCOPED_TRACE(toString(scheme));
        expectEquivalent(replay(trace, scheme, true, false, machine),
                         replay(trace, scheme, true, true, machine));
    }
}

TEST(BatchedEquivalence, SelectiveUpdateProtocol)
{
    const Trace &trace = shortTrace(CoherenceOptions::relocUpdate());
    expectEquivalent(replay(trace, BlockScheme::Base, false, false),
                     replay(trace, BlockScheme::Base, false, true));
    expectEquivalent(replay(trace, BlockScheme::Base, true, false),
                     replay(trace, BlockScheme::Base, true, true));
}

TEST(BatchedEquivalence, BatchedAndSteppedAgreeAcrossObserverToggle)
{
    // The checker must not perturb the simulated outcome: bare and
    // checked replays of the same trace produce the same statistics
    // and the same memory image, for every scheme on the flat and the
    // two-socket machine, and under the selective update protocol.
    const Trace &trace = shortTrace(CoherenceOptions::none());
    for (const MachineConfig &machine :
         {MachineConfig::base(), MachineConfig::numa(2, 2)}) {
        for (const BlockScheme scheme : allSchemes) {
            SCOPED_TRACE(std::string(toString(scheme)) + " on " +
                         std::to_string(machine.numSockets) + " socket(s)");
            expectEquivalent(replay(trace, scheme, false, false, machine),
                             replay(trace, scheme, true, false, machine));
        }
    }
    SCOPED_TRACE("selective update");
    const Trace &update = shortTrace(CoherenceOptions::relocUpdate());
    expectEquivalent(replay(update, BlockScheme::Base, false, false),
                     replay(update, BlockScheme::Base, true, false));
}

// ---------------------------------------------------------------------
// Sampled replay: batched run() vs stepped tick()
// ---------------------------------------------------------------------

/** A TRFD_4 stream long enough for a dozen windows per processor. */
WorkloadProfile
sampledProfile()
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = 24;
    return p;
}

sample::SamplingPlan
sampledPlan(std::uint64_t period, Cycles spin_break)
{
    sample::SamplingPlan plan;
    plan.period = period;
    plan.warmup = period / 5;
    plan.measure = period / 20;
    plan.spinBreak = spin_break;
    return plan;
}

/**
 * A live point late in the last window: the start of the last skip
 * stretch the shortest processor stream reaches.  runSampled() ticks
 * until it takes the live point, so a run given it replays almost
 * all of the stream through tick().
 */
std::uint64_t
lateLivePoint(const WorkloadProfile &profile,
              const CoherenceOptions &coherence,
              const sample::SamplingPlan &plan)
{
    const Trace trace = generateTrace(profile, coherence);
    std::size_t shortest = trace.stream(0).size();
    for (CpuId cpu = 1; cpu < trace.numCpus(); ++cpu)
        shortest = std::min(shortest, trace.stream(cpu).size());
    const std::uint64_t keep = plan.replayedPerWindow();
    EXPECT_GT(shortest, 4 * plan.period);
    return (shortest - keep) / plan.period * plan.period + keep;
}

sample::SampleRunOutcome
sampledRun(const WorkloadProfile &profile, const SystemSetup &setup,
           const SimOptions &options, const sample::SamplingPlan &plan,
           std::uint64_t live_point)
{
    sample::SampleRunOptions run;
    run.plan = plan;
    if (live_point != 0) {
        run.saveCheckpoint =
            (std::filesystem::temp_directory_path() /
             ("oscache_perf_equiv_" + std::to_string(getpid()) + ".oslp"))
                .string();
        run.checkpointAfter = live_point;
    }
    sample::SampleRunOutcome out = sample::runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<SynthTraceSource>(profile,
                                                      setup.coherence);
        },
        MachineConfig::base(), options, setup.blockScheme, run);
    if (!run.saveCheckpoint.empty()) {
        EXPECT_TRUE(std::filesystem::remove(run.saveCheckpoint))
            << "the live point was never written";
    }
    return out;
}

std::string
metricsText(const RunResult &r)
{
    std::ostringstream os;
    if (r.obs != nullptr)
        r.obs->metrics.render(os);
    return os.str();
}

/** Every result a sampled run reports. */
void
expectSameSampledRun(const sample::SampleRunOutcome &batched,
                     const sample::SampleRunOutcome &stepped)
{
    ASSERT_TRUE(batched.ok) << batched.error;
    ASSERT_TRUE(stepped.ok) << stepped.error;
    EXPECT_TRUE(batched.result.stats == stepped.result.stats);
    EXPECT_TRUE(batched.warmStats == stepped.warmStats);
    EXPECT_EQ(metricsText(batched.result), metricsText(stepped.result));
    ASSERT_NE(batched.result.sample, nullptr);
    ASSERT_NE(stepped.result.sample, nullptr);
    const sample::SampleReport &a = *batched.result.sample;
    const sample::SampleReport &b = *stepped.result.sample;
    EXPECT_GT(a.windows.size(), 10u);
    EXPECT_TRUE(a.windows == b.windows);
    EXPECT_EQ(a.syncBreaks, b.syncBreaks);
    EXPECT_EQ(a.totalRecords, b.totalRecords);
    EXPECT_EQ(a.replayedRecords, b.replayedRecords);
    EXPECT_EQ(a.measuredRecords, b.measuredRecords);
    EXPECT_EQ(a.skippedRecords, b.skippedRecords);
}

void
expectSampledBatchedEqualsStepped(const sample::SamplingPlan &plan,
                                  std::uint64_t min_breaks)
{
    const WorkloadProfile profile = sampledProfile();
    for (const SystemKind system : {SystemKind::Base, SystemKind::BlkDma}) {
        const SystemSetup setup = SystemSetup::forKind(system);
        const std::uint64_t live_point =
            lateLivePoint(profile, setup.coherence, plan);
        for (const bool checked : {false, true}) {
            for (const bool metrics : {false, true}) {
                SCOPED_TRACE(std::string(toString(system)) +
                             (checked ? " checked" : " bare") +
                             (metrics ? " with metrics" : ""));
                SimOptions opts = profile.simOptions();
                opts.checkCoherence = checked;
                opts.obs.metrics = metrics;
                const sample::SampleRunOutcome batched =
                    sampledRun(profile, setup, opts, plan, 0);
                const sample::SampleRunOutcome stepped =
                    sampledRun(profile, setup, opts, plan, live_point);
                expectSameSampledRun(batched, stepped);
                if (batched.result.sample != nullptr) {
                    EXPECT_GE(batched.result.sample->syncBreaks,
                              min_breaks);
                }
            }
        }
    }
}

TEST(SampledBatchedEquivalence, DefaultSpinBreak)
{
    expectSampledBatchedEqualsStepped(
        sampledPlan(20'000, sample::SamplingPlan{}.spinBreak), 1);
}

TEST(SampledBatchedEquivalence, ShortSpinBreakFiresOften)
{
    // Dense windows skip many releases, and a short budget breaks
    // each wait they strand: the closed form fires at well over a
    // hundred breaks per run here.
    expectSampledBatchedEqualsStepped(sampledPlan(2'000, 20'000), 100);
}

/**
 * Phases by cpu parity, nothing skipped: odd cpus measured, even
 * ones warming, and every spin broken after @p budget cycles.
 */
class ParityController final : public SampleController
{
  public:
    explicit ParityController(Cycles budget) : breakAfter(budget) {}

    SamplePhase
    phaseFor(CpuId cpu) override
    {
        return cpu % 2 != 0 ? SamplePhase::Measure : SamplePhase::Warm;
    }

    Cycles spinBreakCycles() const override { return breakAfter; }

  private:
    Cycles breakAfter;
};

/**
 * Processor 0 takes a lock and finishes holding it; the others keep
 * contending for it and arriving at a barrier no episode completes,
 * separated by idle stretches of random length.  Every wait ends in a
 * forced break, mostly with all live processors blocked, and the
 * random gaps make break steps coincide in time now and then.
 */
Trace
strandedSpinTrace()
{
    constexpr Addr lock = 0x40'0000;
    constexpr Addr bar = 0x40'1000;
    Trace trace(4);
    trace.stream(0).push_back(TraceRecord::idle(3));
    TraceRecord acquire;
    acquire.type = RecordType::LockAcquire;
    acquire.addr = lock;
    acquire.flags = flagOs;
    TraceRecord release = acquire;
    release.type = RecordType::LockRelease;
    TraceRecord arrive;
    arrive.type = RecordType::BarrierArrive;
    arrive.addr = bar;
    arrive.aux = 5; // One more party than processors.
    arrive.flags = flagOs;
    trace.stream(0).push_back(acquire);
    trace.stream(0).push_back(TraceRecord::exec(40, 1, true));
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::uint32_t> gap(1, 90);
    for (CpuId cpu = 1; cpu < 4; ++cpu) {
        RecordStream &s = trace.stream(cpu);
        for (int i = 0; i < 150; ++i) {
            s.push_back(TraceRecord::idle(gap(rng)));
            s.push_back(acquire);
            s.push_back(TraceRecord::exec(gap(rng), 2, true));
            if (i % 3 == 0)
                s.push_back(release);
            s.push_back(TraceRecord::idle(gap(rng)));
            s.push_back(arrive);
        }
    }
    return trace;
}

TEST(SampledBatchedEquivalence, StrandedSpinsBreakInClosedForm)
{
    // Batched replay collapses each all-blocked stretch to its next
    // break: per-processor times, osSpin in each phase's sink, break
    // order and tie-breaks must match the quantum-by-quantum replay.
    const Trace trace = strandedSpinTrace();
    for (const Cycles budget : {Cycles{500}, Cycles{1'337}}) {
        SCOPED_TRACE("spin break after " + std::to_string(budget));
        ParityController batched_ctl(budget);
        ParityController stepped_ctl(budget);
        const ReplayResult batched =
            replay(trace, BlockScheme::Base, true, false,
                   MachineConfig::base(), &batched_ctl);
        const ReplayResult stepped =
            replay(trace, BlockScheme::Base, true, true,
                   MachineConfig::base(), &stepped_ctl);
        expectEquivalent(batched, stepped);
        EXPECT_GT(batched.stats.osSpin, 0u);
        EXPECT_GT(batched.warm.osSpin, 0u);
    }
}

// ---------------------------------------------------------------------
// Packed vs 24-byte replay
// ---------------------------------------------------------------------

TEST(PackedReplay, EveryPaperCellMatchesTheRecords)
{
    // All eight systems on the four paper workloads, flat and on two
    // sockets, at reduced quanta: the same stats, bus snapshot and
    // hot-spot plan as a replay of the 24-byte records.
    for (const WorkloadKind kind : allWorkloads) {
        WorkloadProfile profile = WorkloadProfile::forKind(kind);
        profile.quanta = 2;
        const SimOptions opts = profile.simOptions();
        for (const SystemKind system : allSystems) {
            const SystemSetup setup = SystemSetup::forKind(system);
            const Trace trace = generateTrace(profile, setup.coherence);
            const auto packed = std::make_shared<const PackedTrace>(
                generatePacked(profile, setup.coherence));
            for (const MachineConfig &machine :
                 {MachineConfig::base(), MachineConfig::numa(2, 2)}) {
                SCOPED_TRACE(std::string(toString(kind)) + " " +
                             toString(system) + " on " +
                             std::to_string(machine.numSockets) +
                             " socket(s)");
                const RunResult want =
                    runOnTrace(trace, machine, opts, setup);
                const RunResult got = runOnSource(
                    [&] { return std::make_unique<PackedTraceSource>(packed); },
                    machine, opts, setup);
                EXPECT_TRUE(got.stats == want.stats);
                EXPECT_EQ(got.bus, want.bus);
                EXPECT_EQ(got.hotspots.hotBlocks, want.hotspots.hotBlocks);
                EXPECT_EQ(got.hotspots.lookahead, want.hotspots.lookahead);
                EXPECT_EQ(got.traceMode, want.traceMode);
            }
        }
    }
}

TEST(PackedReplay, SampledRunMatchesTheRecords)
{
    // A sampled replay skips by block-index arithmetic and reads spans
    // that end at block edges; it must report what a sampled replay of
    // the 24-byte records reports.
    const WorkloadProfile profile = sampledProfile();
    const SystemSetup setup = SystemSetup::forKind(SystemKind::BlkDma);
    const auto trace = std::make_shared<const Trace>(
        generateTrace(profile, setup.coherence));
    const auto packed = std::make_shared<const PackedTrace>(
        generatePacked(profile, setup.coherence));
    sample::SampleRunOptions run;
    run.plan = sampledPlan(20'000, sample::SamplingPlan{}.spinBreak);
    const auto sampled = [&](const TraceSourceFactory &open) {
        return sample::runSampled(open, MachineConfig::base(),
                                  profile.simOptions(), setup.blockScheme,
                                  run);
    };
    expectSameSampledRun(
        sampled([&] { return std::make_unique<PackedTraceSource>(packed); }),
        sampled([&] {
            return std::make_unique<MaterializedTraceSource>(trace);
        }));
}

// ---------------------------------------------------------------------
// Null-observer guarantees
// ---------------------------------------------------------------------

/** Observer that counts every dispatch it receives. */
class CountingObserver : public MemEventObserver
{
  public:
    bool wantsAccessEvents() const override { return true; }
    void onAccess(const MemAccessEvent &) override { ++accesses; }
    void onL2Transition(CpuId, Addr, LineState, LineState) override
    {
        ++transitions;
    }
    std::uint64_t accesses = 0;
    std::uint64_t transitions = 0;
};

TEST(NullObserver, FanoutIsInactiveByDefault)
{
    MemorySystem mem(MachineConfig::base());
    EXPECT_TRUE(mem.observers().empty());
    EXPECT_FALSE(mem.observers().active());
    EXPECT_FALSE(mem.observers().wantsAccessEvents());
}

TEST(NullObserver, AttachedObserverSeesDispatch)
{
    // Sanity check of the fan-out: the zero-dispatch claim below is
    // only meaningful if an attached tap actually receives events.
    MemorySystem mem(MachineConfig::base());
    CountingObserver counter;
    mem.setObserver(&counter);
    EXPECT_TRUE(mem.observers().active());
    EXPECT_TRUE(mem.observers().wantsAccessEvents());
    AccessContext ctx;
    Cycles t = 0;
    for (Addr a = 0x4000; a < 0x4400; a += 16)
        t = mem.read(0, a, t, ctx).completeAt;
    EXPECT_GT(counter.accesses, 0u);
    EXPECT_GT(counter.transitions, 0u);

    mem.setObserver(nullptr);
    EXPECT_TRUE(mem.observers().empty());
    const std::uint64_t before = counter.accesses;
    mem.read(0, 0x4000, t, ctx);
    EXPECT_EQ(counter.accesses, before);
}

TEST(NullObserver, SteadyStateHitPathDoesNotAllocate)
{
    MemorySystem mem(MachineConfig::base());
    AccessContext ctx;
    Cycles t = 0;
    // Warm a footprint that fits the 32 KB L1 and settle every
    // transient (write-buffer ring growth, mark-table sizing).
    const Addr base = 0x10000;
    const Addr span = 16 * 1024;
    for (Addr a = base; a < base + span; a += 16) {
        t = mem.read(0, a, t, ctx).completeAt;
        t = mem.write(0, a, t, ctx).completeAt;
    }
    for (Addr a = base; a < base + span; a += 16) {
        t = mem.read(0, a, t, ctx).completeAt;
        t = mem.write(0, a, t, ctx).completeAt;
    }

    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int pass = 0; pass < 8; ++pass) {
        for (Addr a = base; a < base + span; a += 16) {
            t = mem.read(0, a, t, ctx).completeAt;
            t = mem.write(0, a, t, ctx).completeAt;
        }
    }
    const std::uint64_t after =
        g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "steady-state L1 hits allocated " << (after - before)
        << " times";
}

TEST(CheckedSteadyState, PingPongWritesDoNotAllocate)
{
    // Two processors take turns writing every line of a warmed
    // footprint: each write invalidates the other copy, so every
    // operation drives transitions, primary drops and fills, and an
    // operation-end check through the checker.
    const MachineConfig machine = MachineConfig::base();
    MemorySystem mem(machine);
    CoherenceChecker checker(machine);
    mem.setObserver(&checker);
    AccessContext ctx;
    Cycles t = 0;
    const Addr base = 0x10000;
    const Addr span = 8 * 1024;
    const auto pass = [&] {
        for (Addr a = base; a < base + span; a += 32) {
            t = mem.write(0, a, t, ctx).completeAt;
            t = mem.write(1, a, t, ctx).completeAt;
        }
    };
    // Warm-up sizes the touched list and the line table, and the
    // engine's own rings and marks.
    pass();
    pass();

    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int round = 0; round < 8; ++round)
        pass();
    const std::uint64_t after =
        g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "checked ping-pong writes allocated " << (after - before)
        << " times";
    EXPECT_GT(checker.transitions(), 0u);
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean()) << format(checker.findings().front());
}

// ---------------------------------------------------------------------
// MarkTable unit tests
// ---------------------------------------------------------------------

TEST(MarkTable, SetTestClear)
{
    MarkTable t;
    EXPECT_FALSE(t.test(0x100, MarkTable::coherence));
    t.set(0x100, MarkTable::coherence);
    EXPECT_TRUE(t.test(0x100, MarkTable::coherence));
    EXPECT_FALSE(t.test(0x100, MarkTable::blockEvict));
    EXPECT_FALSE(t.test(0x110, MarkTable::coherence));

    t.set(0x100, MarkTable::blockEvict);
    EXPECT_EQ(t.flagsAt(0x100),
              MarkTable::coherence | MarkTable::blockEvict);

    t.clear(0x100, MarkTable::coherence);
    EXPECT_EQ(t.flagsAt(0x100), MarkTable::blockEvict);
    t.clear(0x100, MarkTable::blockEvict);
    EXPECT_EQ(t.flagsAt(0x100), 0);
}

TEST(MarkTable, ClearAllDropsEveryRequestedFlag)
{
    MarkTable t;
    t.set(0x40, MarkTable::coherence);
    t.set(0x40, MarkTable::blockEvict);
    t.set(0x40, MarkTable::bypass);
    t.clearAll(0x40, MarkTable::coherence | MarkTable::blockEvict);
    EXPECT_EQ(t.flagsAt(0x40), MarkTable::bypass);
    EXPECT_EQ(t.population(MarkTable::coherence), 0u);
    EXPECT_EQ(t.population(MarkTable::blockEvict), 0u);
    EXPECT_EQ(t.population(MarkTable::bypass), 1u);
}

TEST(MarkTable, PopulationTracksDistinctLines)
{
    MarkTable t;
    for (Addr a = 0; a < 100; ++a)
        t.set(a * 16, MarkTable::coherence);
    EXPECT_EQ(t.population(MarkTable::coherence), 100u);
    EXPECT_TRUE(t.any(MarkTable::coherence));
    EXPECT_FALSE(t.any(MarkTable::bypass));

    // Re-setting is idempotent.
    t.set(0, MarkTable::coherence);
    EXPECT_EQ(t.population(MarkTable::coherence), 100u);

    // Clearing an absent flag is a no-op.
    t.clear(0, MarkTable::bypass);
    EXPECT_EQ(t.population(MarkTable::coherence), 100u);

    for (Addr a = 0; a < 100; ++a)
        t.clear(a * 16, MarkTable::coherence);
    EXPECT_FALSE(t.any(MarkTable::coherence));
}

TEST(MarkTable, SnapshotIsSortedAndPerClass)
{
    MarkTable t;
    const std::vector<Addr> lines = {0x900, 0x100, 0x500, 0x300, 0x700};
    for (const Addr a : lines)
        t.set(a, MarkTable::blockEvict);
    t.set(0x200, MarkTable::coherence);

    const std::vector<Addr> snap = t.snapshot(MarkTable::blockEvict);
    ASSERT_EQ(snap.size(), lines.size());
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
    std::vector<Addr> expected = lines;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(snap, expected);
    EXPECT_EQ(t.snapshot(MarkTable::coherence),
              std::vector<Addr>{0x200});
}

TEST(MarkTable, ClearClassKeepsOtherFlags)
{
    MarkTable t;
    t.set(0x10, MarkTable::coherence);
    t.set(0x10, MarkTable::bypass);
    t.set(0x20, MarkTable::bypass);
    t.set(0x30, MarkTable::blockEvict);

    t.clearClass(MarkTable::bypass);
    EXPECT_EQ(t.population(MarkTable::bypass), 0u);
    EXPECT_TRUE(t.snapshot(MarkTable::bypass).empty());
    EXPECT_EQ(t.flagsAt(0x10), MarkTable::coherence);
    EXPECT_EQ(t.flagsAt(0x20), 0);
    EXPECT_EQ(t.flagsAt(0x30), MarkTable::blockEvict);
}

TEST(MarkTable, GrowPreservesEveryMark)
{
    // Push far past the initial capacity so the table doubles
    // several times, then verify every mark survived.
    MarkTable t;
    std::mt19937_64 rng(42);
    std::set<Addr> coh, blk;
    for (int i = 0; i < 5000; ++i) {
        const Addr a = (rng() % 100000) * 16;
        if (rng() & 1) {
            t.set(a, MarkTable::coherence);
            coh.insert(a);
        } else {
            t.set(a, MarkTable::blockEvict);
            blk.insert(a);
        }
    }
    EXPECT_EQ(t.population(MarkTable::coherence), coh.size());
    EXPECT_EQ(t.population(MarkTable::blockEvict), blk.size());
    for (const Addr a : coh)
        EXPECT_TRUE(t.test(a, MarkTable::coherence)) << a;
    for (const Addr a : blk)
        EXPECT_TRUE(t.test(a, MarkTable::blockEvict)) << a;
}

TEST(MarkTable, RandomizedAgainstReferenceSets)
{
    // Differential test: MarkTable vs the three std::set instances
    // it replaced, under a random workload of sets, clears, class
    // wipes, and probes — including enough inserts and removals to
    // exercise backward-shift deletion chains and growth.
    MarkTable t;
    std::set<Addr> ref[3];
    constexpr std::uint8_t flags[3] = {
        MarkTable::coherence, MarkTable::blockEvict, MarkTable::bypass};
    std::mt19937_64 rng(7);
    for (int step = 0; step < 200000; ++step) {
        // A small address universe forces heavy collision/reuse.
        const Addr a = (rng() % 4096) * 16;
        const int f = int(rng() % 3);
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2:
            t.set(a, flags[f]);
            ref[f].insert(a);
            break;
          case 3:
          case 4:
            t.clear(a, flags[f]);
            ref[f].erase(a);
            break;
          case 5: {
            const std::uint8_t m =
                std::uint8_t(flags[f] | flags[(f + 1) % 3]);
            t.clearAll(a, m);
            ref[f].erase(a);
            ref[(f + 1) % 3].erase(a);
            break;
          }
          case 6: {
            std::uint8_t expect = 0;
            for (int k = 0; k < 3; ++k)
                if (ref[k].count(a))
                    expect |= flags[k];
            ASSERT_EQ(t.flagsAt(a), expect) << "addr " << a;
            break;
          }
          case 7:
            if (rng() % 1000 == 0) {
                t.clearClass(flags[f]);
                ref[f].clear();
            }
            break;
        }
    }
    for (int k = 0; k < 3; ++k) {
        ASSERT_EQ(t.population(flags[k]), ref[k].size());
        const std::vector<Addr> snap = t.snapshot(flags[k]);
        const std::vector<Addr> expect(ref[k].begin(), ref[k].end());
        ASSERT_EQ(snap, expect);
    }
}

TEST(MarkTable, BackwardShiftKeepsCollidingChainsReachable)
{
    // Build a long probe chain by inserting many keys, then remove
    // interior members and verify the rest stay reachable.  The
    // random differential above covers this statistically; this case
    // removes every other element of a dense run to hit the
    // move-or-skip decision in removeSlot directly.
    MarkTable t;
    std::vector<Addr> keys;
    for (Addr a = 1; a <= 600; ++a) {
        t.set(a, MarkTable::coherence);
        keys.push_back(a);
    }
    for (std::size_t i = 0; i < keys.size(); i += 2)
        t.clear(keys[i], MarkTable::coherence);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 2 == 0)
            EXPECT_FALSE(t.test(keys[i], MarkTable::coherence)) << keys[i];
        else
            EXPECT_TRUE(t.test(keys[i], MarkTable::coherence)) << keys[i];
    }
    EXPECT_EQ(t.population(MarkTable::coherence), keys.size() / 2);
}

} // namespace
} // namespace oscache
