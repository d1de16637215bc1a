/**
 * @file
 * The metrics contract of the observability hub.
 *
 * ObsHub keeps each run's metrics in plain fields and takes the bus
 * and link totals from the engine's Bus counters.  These tests pin
 * its snapshots to a reference observer that counts every event
 * itself into plain maps, attached beside the hub through the
 * observer fan-out's spare tap; to snapshots of sampled runs
 * recorded from that per-event counting
 * (tests/golden/obs_sampled_metrics.txt); and check that a sampled
 * multi-socket cell reports what its full run does.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "common/json.hh"
#include "core/blockop/schemes.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "exp/results.hh"
#include "mem/memsys.hh"
#include "obs/hub.hh"
#include "obs/metrics.hh"
#include "sample/run.hh"
#include "sim/system.hh"
#include "synth/generator.hh"
#include "trace/blockop.hh"

namespace oscache
{
namespace
{

/**
 * Counts every metric event into plain name-keyed maps: each access,
 * transition, block operation and bus grant adds to a counter or
 * histogram as it happens, including the bus and link totals the hub
 * reads off the engine.  Every metric is registered up front, so one
 * that never fires still appears with zero.  Attach with attach(),
 * which puts it on every bus beside the probe already there.
 */
class PerEventReference : public MemEventObserver, public BusProbe
{
  public:
    PerEventReference(const ObsOptions &options, MemorySystem &mem)
        : opts(options), memsys(&mem),
          cReads(counter("mem.reads")), cWrites(counter("mem.writes")),
          cPrefetchIssued(counter("mem.prefetch.issued")),
          cPrefetchDropped(counter("mem.prefetch.dropped")),
          cL1Miss(counter("mem.l1.read_miss")),
          cMissCoherence(counter("mem.miss.coherence")),
          cMissOther(counter("mem.miss.other")),
          cPartiallyHidden(counter("mem.miss.partially_hidden")),
          cL1Fills(counter("mem.l1.fills")),
          cL1Drops(counter("mem.l1.drops")),
          cL2Invalidations(counter("mem.l2.invalidations")),
          cBlockOps(counter("blockop.count")),
          cBusTxns(counter("bus.txns")), cBusBytes(counter("bus.bytes")),
          cBusBusyCycles(counter("bus.busy_cycles")),
          cBusWaitCycles(counter("bus.wait_cycles")),
          hReadStall(histogram("mem.read.stall_cycles")),
          hBusWait(histogram("bus.wait")),
          hBlockOpCycles(histogram("blockop.cycles")),
          hWbDepth(histogram("wb.l2.depth"))
    {
        if (mem.numaActive()) {
            cLinkTxns = &counter("link.txns");
            cLinkBytes = &counter("link.bytes");
            cLinkBusyCycles = &counter("link.busy_cycles");
            cLinkWaitCycles = &counter("link.wait_cycles");
            hLinkWait = &histogram("link.wait");
        }
    }

    /** Tee every bus of the memory system into this observer. */
    void
    attach(MemorySystem &mem)
    {
        if (!mem.numaActive()) {
            tee(mem.bus(), this);
            return;
        }
        for (unsigned s = 0; s < mem.config().numSockets; ++s)
            tee(mem.socketBus(s), this);
        tee(mem.linkBus(), &linkTap);
    }

    /** Everything counted so far, each list sorted by name. */
    MetricsSnapshot
    snapshot() const
    {
        MetricsSnapshot snap;
        for (const auto &[name, value] : counters)
            snap.counters.push_back({name, value});
        snap.gauges.push_back(gLastCycle);
        for (const auto &[name, h] : histograms)
            snap.histograms.push_back(h);
        return snap;
    }

    bool wantsAccessEvents() const override { return true; }

    void
    onAccess(const MemAccessEvent &event) override
    {
        const bool tick = sampleTick();
        switch (event.kind) {
          case MemOpKind::Read:
            ++cReads;
            break;
          case MemOpKind::Write:
          case MemOpKind::BypassWrite:
            ++cWrites;
            break;
          case MemOpKind::Prefetch:
            if (event.dropped)
                ++cPrefetchDropped;
            else
                ++cPrefetchIssued;
            break;
          default:
            break;
        }
        if (event.result.l1Miss && event.kind == MemOpKind::Read) {
            ++cL1Miss;
            if (event.result.cause == MissCause::Coherence)
                ++cMissCoherence;
            else
                ++cMissOther;
            if (event.result.partiallyHidden)
                ++cPartiallyHidden;
            hReadStall.record(event.result.stall);
        }
        if (tick)
            setLastCycle(event.result.completeAt);
        hWbDepth.record(memsys->l2WriteBuffer(event.cpu).size());
    }

    void
    onBlockOp(CpuId, const BlockOp &, Cycles start, Cycles end) override
    {
        ++cBlockOps;
        hBlockOpCycles.record(end - start);
        setLastCycle(end);
    }

    void
    onL2Transition(CpuId, Addr, LineState from, LineState to) override
    {
        if (to != LineState::Invalid || from == LineState::Invalid)
            return;
        ++cL2Invalidations;
        if (opts.timeline)
            sampleTick();
    }

    void
    onL1Fill(CpuId, Addr) override
    {
        ++cL1Fills;
    }

    void
    onL1Drop(CpuId, Addr) override
    {
        ++cL1Drops;
    }

    void
    onBusAcquire(BusTxn, Cycles requested, Cycles grant, Cycles occupancy,
                 std::uint32_t bytes) override
    {
        ++cBusTxns;
        cBusBytes += bytes;
        cBusBusyCycles += occupancy;
        cBusWaitCycles += grant - requested;
        hBusWait.record(grant - requested);
        if (opts.timeline)
            sampleTick();
    }

  private:
    /** Forwards one bus's grants to the probe it had and to ours. */
    struct Tee : BusProbe
    {
        BusProbe *first = nullptr;
        BusProbe *second = nullptr;
        void
        onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                     Cycles occupancy, std::uint32_t bytes) override
        {
            if (first != nullptr)
                first->onBusAcquire(kind, requested, grant, occupancy,
                                    bytes);
            second->onBusAcquire(kind, requested, grant, occupancy, bytes);
        }
    };

    /** Link grants land in the link metrics. */
    struct LinkTap : BusProbe
    {
        explicit LinkTap(PerEventReference &r) : ref(r) {}
        void
        onBusAcquire(BusTxn, Cycles requested, Cycles grant,
                     Cycles occupancy, std::uint32_t bytes) override
        {
            ++*ref.cLinkTxns;
            *ref.cLinkBytes += bytes;
            *ref.cLinkBusyCycles += occupancy;
            *ref.cLinkWaitCycles += grant - requested;
            ref.hLinkWait->record(grant - requested);
            if (ref.opts.timeline)
                ref.sampleTick();
        }
        PerEventReference &ref;
    };

    void
    tee(Bus &bus, BusProbe *ours)
    {
        auto t = std::make_unique<Tee>();
        t->first = bus.attachedProbe();
        t->second = ours;
        bus.setProbe(t.get());
        tees.push_back(std::move(t));
    }

    bool
    sampleTick()
    {
        if (opts.samplePeriod <= 1)
            return true;
        return sampleSeq++ % opts.samplePeriod == 0;
    }

    /** Register (at zero) and return the counter named @p name. */
    std::uint64_t &counter(const std::string &name) { return counters[name]; }

    /** Register (empty) and return the histogram named @p name. */
    HistogramSnapshot &
    histogram(const std::string &name)
    {
        HistogramSnapshot &h = histograms[name];
        h.name = name;
        return h;
    }

    /** The gauge keeps the last value written. */
    void
    setLastCycle(Cycles cycle)
    {
        gLastCycle.value = static_cast<double>(cycle);
        gLastCycle.assigned = true;
    }

    ObsOptions opts;
    MemorySystem *memsys;
    std::uint64_t sampleSeq = 0;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;
    GaugeSnapshot gLastCycle{"sim.last_cycle"};
    LinkTap linkTap{*this};
    std::vector<std::unique_ptr<Tee>> tees;

    std::uint64_t &cReads, &cWrites, &cPrefetchIssued, &cPrefetchDropped;
    std::uint64_t &cL1Miss, &cMissCoherence, &cMissOther, &cPartiallyHidden;
    std::uint64_t &cL1Fills, &cL1Drops, &cL2Invalidations;
    std::uint64_t &cBlockOps;
    std::uint64_t &cBusTxns, &cBusBytes, &cBusBusyCycles, &cBusWaitCycles;
    HistogramSnapshot &hReadStall, &hBusWait, &hBlockOpCycles, &hWbDepth;
    /** Registered on multi-socket machines only. */
    std::uint64_t *cLinkTxns = nullptr, *cLinkBytes = nullptr;
    std::uint64_t *cLinkBusyCycles = nullptr, *cLinkWaitCycles = nullptr;
    HistogramSnapshot *hLinkWait = nullptr;
};

/**
 * Every field of @p snap, one metric a line: counters, the gauge, and
 * each histogram's count, sum, min, max and non-empty buckets.
 */
std::string
dumpSnapshot(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    for (const CounterSnapshot &c : snap.counters)
        os << "counter " << c.name << " " << c.value << "\n";
    for (const GaugeSnapshot &g : snap.gauges) {
        os << "gauge " << g.name << " ";
        if (g.assigned)
            os << static_cast<std::uint64_t>(g.value);
        else
            os << "unset";
        os << "\n";
    }
    for (const HistogramSnapshot &h : snap.histograms) {
        os << "histogram " << h.name << " count=" << h.count
           << " sum=" << h.sum << " min=" << h.min << " max=" << h.max
           << " buckets=";
        for (std::size_t b = 0; b < numHistogramBuckets; ++b)
            if (h.buckets[b] != 0)
                os << b << ":" << h.buckets[b] << " ";
        os << "\n";
    }
    return os.str();
}

/** The two option sets every comparison runs under. */
std::vector<ObsOptions>
observedVariants()
{
    ObsOptions plain;
    plain.metrics = true;
    plain.profiler = true;
    ObsOptions decimated;
    decimated.metrics = true;
    decimated.timeline = true;
    decimated.timelineCapacity = 256;
    decimated.busWindows = true;
    decimated.samplePeriod = 7;
    return {plain, decimated};
}

/** The hub's and the reference's snapshots of one pass, and its stats. */
struct BothSnapshots
{
    MetricsSnapshot hub;
    MetricsSnapshot reference;
    SimStats stats;
};

/** One checked pass of @p trace with both observers attached. */
BothSnapshots
runBoth(const Trace &trace, const MachineConfig &machine,
        const SimOptions &options, BlockScheme scheme, const ObsOptions &obs)
{
    BothSnapshots out;
    MemorySystem mem(machine);
    CoherenceChecker checker(machine);
    ObsHub hub(obs);
    hub.attach(mem);
    PerEventReference reference(obs, mem);
    reference.attach(mem);
    mem.setObservers({&checker, &hub, &reference});

    MaterializedTraceSource source(trace);
    auto executor = makeBlockOpExecutor(scheme, mem, out.stats, options);
    System system(source, mem, *executor, options, out.stats);
    system.run();
    EXPECT_TRUE(checker.clean());
    out.hub = hub.finish()->metrics;
    out.reference = reference.snapshot();
    return out;
}

class HubContract : public ::testing::TestWithParam<bool>
{
  protected:
    MachineConfig
    machine() const
    {
        return GetParam() ? MachineConfig::numa(2, 2) : MachineConfig::base();
    }

    Trace
    trace(const CoherenceOptions &coherence) const
    {
        WorkloadProfile p = WorkloadProfile::forKind(
            GetParam() ? WorkloadKind::SyscallStorm : WorkloadKind::TrfdMake);
        p.quanta = 2;
        return generateTrace(p, coherence, machine().numCpus);
    }

    static SimOptions
    simOptions()
    {
        return WorkloadProfile::forKind(WorkloadKind::TrfdMake).simOptions();
    }

    static void
    expectSame(const BothSnapshots &both, const std::string &what)
    {
        SCOPED_TRACE(what);
        EXPECT_EQ(dumpSnapshot(both.hub), dumpSnapshot(both.reference));
        EXPECT_GT(both.hub.counters.size(), 0u);
    }
};

TEST_P(HubContract, EveryBlockSchemeMatchesPerEventCounting)
{
    const Trace t = trace(CoherenceOptions::none());
    for (const ObsOptions &obs : observedVariants()) {
        for (BlockScheme scheme :
             {BlockScheme::Base, BlockScheme::Pref, BlockScheme::Bypass,
              BlockScheme::ByPref, BlockScheme::Dma}) {
            const BothSnapshots both =
                runBoth(t, machine(), simOptions(), scheme, obs);
            expectSame(both, std::string(toString(scheme)) + " period " +
                                 std::to_string(obs.samplePeriod));
        }
    }
}

TEST_P(HubContract, BothHotspotPassesMatchPerEventCounting)
{
    const SystemSetup setup = SystemSetup::forKind(SystemKind::BCPref);
    ASSERT_TRUE(setup.hotspotPrefetch);
    const Trace t = trace(setup.coherence);
    for (const ObsOptions &obs : observedVariants()) {
        const std::string period =
            " period " + std::to_string(obs.samplePeriod);
        const BothSnapshots profile =
            runBoth(t, machine(), simOptions(), setup.blockScheme, obs);
        expectSame(profile, "profile pass" + period);

        const HotspotPlan plan =
            selectHotspots(profile.stats, paperHotspotCount);
        ASSERT_FALSE(plan.hotBlocks.empty());
        const Trace rewritten = insertPrefetches(t, plan);
        const BothSnapshots prefetching = runBoth(
            rewritten, machine(), simOptions(), setup.blockScheme, obs);
        expectSame(prefetching, "prefetch pass" + period);
    }
}

INSTANTIATE_TEST_SUITE_P(FlatAndNuma, HubContract, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &param) {
                             return param.param ? "Numa2x2" : "Flat";
                         });

// ------------------------------------------------- sampled snapshots

/** One sampled flat run whose snapshot is pinned in the golden file. */
struct SampledCase
{
    const char *label;
    WorkloadKind workload;
    BlockScheme scheme;
    std::uint32_t samplePeriod;
};

const SampledCase sampledCases[] = {
    {"trfd4-base-p1", WorkloadKind::Trfd4, BlockScheme::Base, 1},
    {"trfd4-dma-p7", WorkloadKind::Trfd4, BlockScheme::Dma, 7},
    {"trfdmake-bypass-p7", WorkloadKind::TrfdMake, BlockScheme::Bypass, 7},
    {"arc2dfsck-bypref-p1", WorkloadKind::Arc2dFsck, BlockScheme::ByPref,
     1},
};

/** The snapshot of @p c's sampled run, as dumpSnapshot() text. */
std::string
sampledDump(const SampledCase &c)
{
    WorkloadProfile profile = WorkloadProfile::forKind(c.workload);
    profile.quanta = 4;
    const Trace trace = generateTrace(profile, CoherenceOptions::none());
    SimOptions options = profile.simOptions();
    options.obs = observedVariants()[c.samplePeriod == 1 ? 0 : 1];
    sample::SampleRunOptions plan;
    plan.plan.period = 20'000;
    plan.plan.warmup = 4'000;
    plan.plan.measure = 2'000;
    const sample::SampleRunOutcome outcome = sample::runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<MaterializedTraceSource>(trace);
        },
        MachineConfig::base(), options, c.scheme, plan);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    if (outcome.result.obs == nullptr)
        return "";
    return dumpSnapshot(outcome.result.obs->metrics);
}

/** Golden dumps by label ("run <label>" headers). */
std::map<std::string, std::string>
loadSampledGolden()
{
    std::ifstream in(OSCACHE_TEST_GOLDEN_DIR "/obs_sampled_metrics.txt");
    std::map<std::string, std::string> out;
    std::string line;
    std::string *current = nullptr;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.rfind("run ", 0) == 0) {
            current = &out[line.substr(4)];
            continue;
        }
        if (current != nullptr)
            *current += line + "\n";
    }
    return out;
}

TEST(SampledHubContract, FlatSnapshotsMatchPerEventRecordings)
{
    const std::map<std::string, std::string> golden = loadSampledGolden();
    ASSERT_EQ(golden.size(), std::size(sampledCases));
    for (const SampledCase &c : sampledCases) {
        SCOPED_TRACE(c.label);
        const auto it = golden.find(c.label);
        ASSERT_NE(it, golden.end());
        EXPECT_EQ(sampledDump(c), it->second);
    }
}

// ----------------------------------------------- sampled NUMA rows

/** Every key path of @p json ("a.b.c"), objects only. */
void
collectKeys(const Json &json, const std::string &prefix,
            std::set<std::string> &out)
{
    if (!json.isObject())
        return;
    for (const auto &[key, value] : json.members()) {
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        out.insert(path);
        collectKeys(value, path, out);
    }
}

std::set<std::string>
rowKeys(const RunResult &run)
{
    CellOutcome outcome;
    outcome.run = run;
    ResultRow row;
    row.experiment = "numa";
    row.cell = "2x2/Base/SyscallStorm";
    row.canonical = true;
    row.outcome = &outcome;
    Json json;
    std::string error;
    EXPECT_TRUE(Json::parse(resultRowJsonl(row), json, &error)) << error;
    std::set<std::string> keys;
    collectKeys(json, "", keys);
    return keys;
}

std::uint64_t
counterValue(const MetricsSnapshot &snap, const std::string &name)
{
    for (const CounterSnapshot &c : snap.counters)
        if (c.name == name)
            return c.value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
}

TEST(SampledNuma, RowKeysMatchTheFullRun)
{
    const MachineConfig machine = MachineConfig::numa(2, 2);
    WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::SyscallStorm);
    profile.quanta = 4;
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none(), machine.numCpus);
    SimOptions options = profile.simOptions();
    options.obs.metrics = true;

    const RunResult full = runOnTrace(
        trace, machine, options, SystemSetup::forKind(SystemKind::Base));

    sample::SampleRunOptions plan;
    plan.plan.period = 20'000;
    plan.plan.warmup = 4'000;
    plan.plan.measure = 2'000;
    const sample::SampleRunOutcome sampled = sample::runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<MaterializedTraceSource>(trace);
        },
        machine, options, BlockScheme::Base, plan);
    ASSERT_TRUE(sampled.ok) << sampled.error;
    ASSERT_NE(sampled.result.sample, nullptr);
    ASSERT_GT(sampled.result.sample->windows.size(), 1u);

    // The sampled row adds its "sample" object; everything else,
    // the numa object and the per-metric keys included, must match.
    std::set<std::string> sampled_keys = rowKeys(sampled.result);
    std::erase_if(sampled_keys, [](const std::string &k) {
        return k.rfind("sample", 0) == 0;
    });
    EXPECT_EQ(sampled_keys, rowKeys(full));

    const BusSnapshot &bus = sampled.result.bus;
    EXPECT_EQ(bus.numSockets, 2u);
    EXPECT_GT(bus.totalBytes, 0u);
    EXPECT_GT(bus.linkTransactions, 0u);

    // The hub saw the measured windows' share of the link traffic.
    ASSERT_NE(sampled.result.obs, nullptr);
    const MetricsSnapshot &m = sampled.result.obs->metrics;
    EXPECT_GT(counterValue(m, "bus.txns"), 0u);
    EXPECT_GT(counterValue(m, "link.txns"), 0u);
    EXPECT_LT(counterValue(m, "link.txns"), bus.linkTransactions);
    EXPECT_GT(counterValue(m, "link.bytes"), 0u);
    EXPECT_GT(counterValue(m, "link.busy_cycles"), 0u);
}

} // namespace
} // namespace oscache
