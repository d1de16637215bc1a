#include "core/runner.hh"

#include <memory>

#include "check/invariants.hh"
#include "common/log.hh"
#include "core/blockop/schemes.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"

namespace oscache
{

namespace
{

/** One plain simulation pass (no hot-spot rewriting). */
RunResult
runOnce(TraceSource &source, const MachineConfig &machine,
        const SimOptions &options, BlockScheme scheme)
{
    RunResult result;
    MemorySystem mem(machine);
    std::unique_ptr<CoherenceChecker> checker;
    if (options.checkCoherence)
        checker = std::make_unique<CoherenceChecker>(machine);

    // Observability: the run-level opt-ins merged with the
    // process-wide default (oscache-bench --metrics).
    const ObsOptions obs_opts = effectiveObsOptions(options.obs);
    std::unique_ptr<ObsHub> hub;
    if (obs_opts.any()) {
        hub = std::make_unique<ObsHub>(obs_opts);
        hub->attach(mem);
    }
    mem.setObservers({checker.get(), hub.get()});

    auto executor = makeBlockOpExecutor(scheme, mem, result.stats, options);
    System system(source, mem, *executor, options, result.stats);
    system.run();
    result.traceMode = source.mode();

    if (hub)
        result.obs = hub->finish();

    if (checker) {
        checker->auditFull(mem);
        if (!checker->clean())
            panic("coherence invariant violated: ",
                  format(checker->findings().front()));
    }

    result.bus = busSnapshot(mem);
    return result;
}

} // namespace

BusSnapshot
busSnapshot(const MemorySystem &mem)
{
    BusSnapshot snap;
    const auto fold = [&snap](const Bus &bus) {
        snap.totalBytes += bus.totalBytes();
        snap.totalTransactions += bus.totalTransactions();
        snap.busyCycles += bus.totalBusyCycles();
        snap.fillBytes += bus.bytes(BusTxn::LineFill);
        snap.writebackBytes += bus.bytes(BusTxn::WriteBack);
        snap.invalidateTransactions += bus.transactions(BusTxn::Invalidate);
        snap.updateTransactions += bus.transactions(BusTxn::Update);
        snap.updateBytes += bus.bytes(BusTxn::Update);
        snap.dmaBytes += bus.bytes(BusTxn::Dma);
    };
    if (!mem.numaActive()) {
        fold(mem.bus());
        return snap;
    }
    // Per-kind totals aggregate across the socket buses; the link and
    // the directory-filter counters are reported on their own.
    const unsigned sockets = mem.config().numSockets;
    for (unsigned s = 0; s < sockets; ++s)
        fold(mem.socketBus(s));
    const Bus &link = mem.linkBus();
    snap.numSockets = sockets;
    snap.linkTransactions = link.totalTransactions();
    snap.linkBytes = link.totalBytes();
    snap.linkBusyCycles = link.totalBusyCycles();
    const MemorySystem::NumaCounters nc = mem.numaCounters();
    snap.snoopsFiltered = nc.snoopsFiltered;
    snap.snoopsForwarded = nc.snoopsForwarded;
    snap.localHomeReads = nc.localHomeReads;
    snap.remoteHomeReads = nc.remoteHomeReads;
    return snap;
}

RunResult
runOnTrace(const Trace &trace, const MachineConfig &machine,
           const SimOptions &options, const SystemSetup &setup)
{
    MaterializedTraceSource source(trace);
    if (!setup.hotspotPrefetch)
        return runOnce(source, machine, options, setup.blockScheme);

    // Two-phase hot-spot methodology: profile, select, rewrite, rerun.
    RunResult profile = runOnce(source, machine, options,
                                setup.blockScheme);
    HotspotPlan plan = selectHotspots(profile.stats, paperHotspotCount);
    const double coverage = oscache::hotspotCoverage(profile.stats, plan);
    Trace rewritten = insertPrefetches(trace, plan);
    MaterializedTraceSource rewrittenSource(rewritten);
    RunResult result = runOnce(rewrittenSource, machine, options,
                               setup.blockScheme);
    result.hotspots = std::move(plan);
    result.hotspotCoverage = coverage;
    return result;
}

RunResult
runOnSource(const TraceSourceFactory &open, const MachineConfig &machine,
            const SimOptions &options, const SystemSetup &setup)
{
    if (!setup.hotspotPrefetch) {
        auto source = open();
        return runOnce(*source, machine, options, setup.blockScheme);
    }

    // Two-phase hot-spot methodology, streaming flavor: the profile
    // pass consumes one source; the prefetch pass re-opens and
    // inserts the prefetches on the fly.
    RunResult profile;
    {
        auto source = open();
        profile = runOnce(*source, machine, options, setup.blockScheme);
    }
    HotspotPlan plan = selectHotspots(profile.stats, paperHotspotCount);
    const double coverage = oscache::hotspotCoverage(profile.stats, plan);
    PrefetchStreamSource prefetching(open(), plan);
    RunResult result = runOnce(prefetching, machine, options,
                               setup.blockScheme);
    result.hotspots = std::move(plan);
    result.hotspotCoverage = coverage;
    return result;
}

} // namespace oscache
