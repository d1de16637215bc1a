#include "core/runner.hh"

#include <memory>

#include "check/invariants.hh"
#include "common/log.hh"
#include "core/blockop/schemes.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"

namespace oscache
{

RunAssembly::RunAssembly(TraceSource &trace_source,
                         const MachineConfig &machine,
                         const SimOptions &options, BlockScheme scheme,
                         const ExecutorWrap &wrap)
    : source(trace_source), mem(std::make_unique<MemorySystem>(machine))
{
    if (options.checkCoherence)
        check = std::make_unique<CoherenceChecker>(machine);

    // Observability: the run-level opt-ins merged with the
    // process-wide default (oscache-bench --metrics).
    const ObsOptions obs_opts = effectiveObsOptions(options.obs);
    if (obs_opts.any()) {
        obsHub = std::make_unique<ObsHub>(obs_opts);
        obsHub->attach(*mem);
    }
    mem->setObservers({check.get(), obsHub.get()});

    executor = makeBlockOpExecutor(scheme, *mem, result.stats, options);
    if (wrap)
        executor = wrap(std::move(executor), *mem, result.stats);
    system = std::make_unique<System>(source, *mem, *executor, options,
                                      result.stats);
}

RunAssembly::~RunAssembly() = default;

void
RunAssembly::attachTap(MemEventObserver &tap)
{
    mem->setObservers({check.get(), obsHub.get(), &tap});
}

RunResult
RunAssembly::run()
{
    system->run();
    return finish();
}

void
RunAssembly::finishObservers()
{
    if (obsHub && !result.obs)
        result.obs = obsHub->finish();
}

RunResult
RunAssembly::finish()
{
    finishObservers();
    if (check) {
        check->auditFull(*mem);
        if (!check->clean())
            panic("coherence invariant violated: ",
                  format(check->findings().front()));
    }
    result.bus = busSnapshot(*mem);
    result.traceMode = source.mode();
    return std::move(result);
}

RunResult
runOnce(TraceSource &source, const MachineConfig &machine,
        const SimOptions &options, BlockScheme scheme,
        const ExecutorWrap &wrap)
{
    return RunAssembly(source, machine, options, scheme, wrap).run();
}

RunResult
runOnce(const Trace &trace, const MachineConfig &machine,
        const SimOptions &options, BlockScheme scheme,
        const ExecutorWrap &wrap)
{
    MaterializedTraceSource source(trace);
    return runOnce(source, machine, options, scheme, wrap);
}

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
    return runOnSource(
        [&trace] { return std::make_unique<MaterializedTraceSource>(trace); },
        machine, options, setup);
}

RunResult
runOnSource(const TraceSourceFactory &open, const MachineConfig &machine,
            const SimOptions &options, const SystemSetup &setup)
{
    if (!setup.hotspotPrefetch)
        return runOnce(*open(), machine, options, setup.blockScheme);

    // Two-phase hot-spot methodology: the profile pass consumes one
    // source; the prefetch pass re-opens it and inserts the
    // prefetches on the fly.
    const RunResult profile =
        runOnce(*open(), machine, options, setup.blockScheme);
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
