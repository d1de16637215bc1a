#include "obs/hub.hh"

#include <algorithm>

#include "mem/memsys.hh"
#include "trace/blockop.hh"

namespace oscache
{

namespace
{

/** Timeline lane for bus events (above any plausible cpu id). */
constexpr std::uint32_t busLane = 64;
/** Timeline lane for inter-socket link events. */
constexpr std::uint32_t linkLane = 65;

const char *
busTxnName(BusTxn kind)
{
    switch (kind) {
      case BusTxn::LineFill:   return "bus.fill";
      case BusTxn::WriteBack:  return "bus.writeback";
      case BusTxn::Invalidate: return "bus.invalidate";
      case BusTxn::Update:     return "bus.update";
      case BusTxn::Dma:        return "bus.dma";
      default:                 return "bus.txn";
    }
}

const char *
linkTxnName(BusTxn kind)
{
    switch (kind) {
      case BusTxn::LineFill:   return "link.fill";
      case BusTxn::WriteBack:  return "link.writeback";
      case BusTxn::Invalidate: return "link.invalidate";
      case BusTxn::Update:     return "link.update";
      case BusTxn::Dma:        return "link.dma";
      default:                 return "link.txn";
    }
}

} // namespace

ObsHub::ObsHub(const ObsOptions &options)
    : opts(options), timeline(opts.timeline ? opts.timelineCapacity : 0),
      busOccupancy(opts.windowCycles), writeBufferDepth(opts.windowCycles),
      linkOccupancy(opts.windowCycles)
{}

void
ObsHub::attach(MemorySystem &mem)
{
    memsys = &mem;
    if (!mem.numaActive()) {
        mem.bus().setProbe(this);
        buses.push_back(&mem.bus());
    } else {
        for (unsigned s = 0; s < mem.config().numSockets; ++s) {
            mem.socketBus(s).setProbe(this);
            buses.push_back(&mem.socketBus(s));
        }
        mem.linkBus().setProbe(&linkTap);
        links.push_back(&mem.linkBus());
    }
    if (enabled)
        openWindow();
}

ObsHub::Traffic
ObsHub::trafficOf(const std::vector<const Bus *> &of)
{
    Traffic t;
    for (const Bus *bus : of) {
        t.txns += bus->totalTransactions();
        t.bytes += bus->totalBytes();
        t.busyCycles += bus->totalBusyCycles();
    }
    return t;
}

void
ObsHub::openWindow()
{
    busAtOpen = trafficOf(buses);
    linkAtOpen = trafficOf(links);
}

void
ObsHub::closeWindow()
{
    const auto add = [](Traffic &seen, const Traffic &open,
                        const Traffic &now) {
        seen.txns += now.txns - open.txns;
        seen.bytes += now.bytes - open.bytes;
        seen.busyCycles += now.busyCycles - open.busyCycles;
    };
    add(busSeen, busAtOpen, trafficOf(buses));
    add(linkSeen, linkAtOpen, trafficOf(links));
}

void
ObsHub::setEnabled(bool on)
{
    if (on == enabled)
        return;
    enabled = on;
    if (on)
        openWindow();
    else
        closeWindow();
}

bool
ObsHub::wantsAccessEvents() const
{
    // busWindows needs per-access completions too: write-buffer depth
    // is sampled at each operation end.
    return opts.any();
}

bool
ObsHub::sampleTick()
{
    if (opts.samplePeriod <= 1)
        return true;
    return sampleSeq++ % opts.samplePeriod == 0;
}

void
ObsHub::onAccess(const MemAccessEvent &event)
{
    if (!enabled)
        return;
    const bool tick = sampleTick();

    if (opts.profiler)
        profiler.record(event);

    if (opts.metrics) {
        switch (event.kind) {
          case MemOpKind::Read:
            ++reads;
            break;
          case MemOpKind::Write:
          case MemOpKind::BypassWrite:
            ++writes;
            break;
          case MemOpKind::Prefetch:
            ++(event.dropped ? prefetchDropped : prefetchIssued);
            break;
          default:
            break;
        }
        if (event.result.l1Miss && event.kind == MemOpKind::Read) {
            missCoherence += event.result.cause == MissCause::Coherence;
            partiallyHidden += event.result.partiallyHidden;
            readStall.record(event.result.stall);
        }
        if (tick) {
            lastCycle.value = static_cast<double>(event.result.completeAt);
            lastCycle.assigned = true;
        }
    }

    const std::size_t wb_depth =
        opts.busWindows || opts.metrics
            ? (memsys != nullptr
                   ? memsys->l2WriteBuffer(event.cpu).size()
                   : 0)
            : 0;
    if (memsys != nullptr) {
        if (opts.busWindows)
            writeBufferDepth.sample(event.result.completeAt, wb_depth);
        if (opts.metrics)
            wbDepth.record(wb_depth);
    }

    if (opts.timeline && tick) {
        if (event.kind == MemOpKind::Prefetch && event.dropped) {
            timeline.instant("prefetch.drop", "mem", event.result.completeAt,
                             event.cpu, "addr", event.addr);
        } else if (event.kind == MemOpKind::Prefetch) {
            timeline.instant("prefetch.issue", "mem",
                             event.result.completeAt, event.cpu, "addr",
                             event.addr);
        } else if (event.result.l1Miss) {
            timeline.span(event.result.cause == MissCause::Coherence
                              ? "miss.coherence"
                              : "miss.other",
                          "mem", event.issued, event.result.completeAt,
                          event.cpu, "addr", event.addr);
        }
        if (memsys != nullptr && (opts.busWindows || opts.metrics))
            timeline.counter("wb.l2.depth", "mem", event.result.completeAt,
                             event.cpu, wb_depth);
    }
}

void
ObsHub::onBlockOp(CpuId cpu, const BlockOp &op, Cycles start, Cycles end)
{
    if (!enabled)
        return;
    if (opts.metrics) {
        blockOpCycles.record(end - start);
        lastCycle.value = static_cast<double>(end);
        lastCycle.assigned = true;
    }
    // Block operations are rare and long: always traced, never
    // decimated.
    if (opts.timeline)
        timeline.span(op.isCopy() ? "blockop.copy" : "blockop.zero",
                      "blockop", start, end, cpu, "bytes", op.size);
}

void
ObsHub::onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                       LineState to)
{
    if (!enabled)
        return;
    if (to != LineState::Invalid || from == LineState::Invalid)
        return;
    if (opts.metrics)
        ++l2Invalidations;
    // The transition callback carries no cycle; the grant time of the
    // bus transaction that caused it (tracked in onBusAcquire) is the
    // best available timestamp.
    if (opts.timeline && sampleTick())
        timeline.instant("l2.invalidate", "coh", approxNow, cpu, "line",
                         l2_line);
}

void
ObsHub::onL1Fill(CpuId cpu, Addr l1_line)
{
    (void)cpu;
    (void)l1_line;
    if (enabled && opts.metrics)
        ++l1Fills;
}

void
ObsHub::onL1Drop(CpuId cpu, Addr l1_line)
{
    (void)cpu;
    (void)l1_line;
    if (enabled && opts.metrics)
        ++l1Drops;
}

void
ObsHub::onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                     Cycles occupancy, std::uint32_t bytes)
{
    if (!enabled)
        return;
    approxNow = grant;
    if (opts.metrics)
        busWait.record(grant - requested);
    if (opts.busWindows)
        busOccupancy.addSpan(grant, occupancy);
    if (opts.timeline && sampleTick())
        timeline.span(busTxnName(kind), "bus", grant, grant + occupancy,
                      busLane, "bytes", bytes);
}

void
ObsHub::onLinkAcquire(BusTxn kind, Cycles requested, Cycles grant,
                      Cycles occupancy, std::uint32_t bytes)
{
    if (!enabled)
        return;
    if (opts.metrics)
        linkWait.record(grant - requested);
    if (opts.busWindows)
        linkOccupancy.addSpan(grant, occupancy);
    if (opts.timeline && sampleTick())
        timeline.span(linkTxnName(kind), "link", grant,
                      grant + occupancy, linkLane, "bytes", bytes);
}

MetricsSnapshot
ObsHub::metricsSnapshot() const
{
    MetricsSnapshot snap;
    snap.counters = {
        {"mem.reads", reads},
        {"mem.writes", writes},
        {"mem.prefetch.issued", prefetchIssued},
        {"mem.prefetch.dropped", prefetchDropped},
        {"mem.l1.read_miss", readStall.count},
        {"mem.miss.coherence", missCoherence},
        {"mem.miss.other", readStall.count - missCoherence},
        {"mem.miss.partially_hidden", partiallyHidden},
        {"mem.l1.fills", l1Fills},
        {"mem.l1.drops", l1Drops},
        {"mem.l2.invalidations", l2Invalidations},
        {"blockop.count", blockOpCycles.count},
        {"bus.txns", busSeen.txns},
        {"bus.bytes", busSeen.bytes},
        {"bus.busy_cycles", busSeen.busyCycles},
        {"bus.wait_cycles", busWait.sum},
    };
    snap.histograms = {readStall, busWait, blockOpCycles, wbDepth};
    if (!links.empty()) {
        snap.counters.insert(snap.counters.end(),
                             {{"link.txns", linkSeen.txns},
                              {"link.bytes", linkSeen.bytes},
                              {"link.busy_cycles", linkSeen.busyCycles},
                              {"link.wait_cycles", linkWait.sum}});
        snap.histograms.push_back(linkWait);
    }
    snap.gauges = {lastCycle};

    const auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
    return snap;
}

std::shared_ptr<const ObsReport>
ObsHub::finish()
{
    if (enabled)
        closeWindow();
    auto report = std::make_shared<ObsReport>();
    report->options = opts;
    if (opts.metrics)
        report->metrics = metricsSnapshot();
    if (opts.profiler)
        report->profiler = profiler;
    if (opts.busWindows) {
        report->windowCycles = opts.windowCycles;
        report->busOccupancy = busOccupancy.data();
        report->writeBufferDepth = writeBufferDepth.data();
        report->linkOccupancy = linkOccupancy.data();
    }
    if (opts.timeline)
        report->timeline = std::move(timeline);
    return report;
}

} // namespace oscache
