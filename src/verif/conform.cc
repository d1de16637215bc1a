#include "verif/conform.hh"

#include <memory>
#include <sstream>

#include "common/log.hh"
#include "core/cohopt.hh"
#include "core/runner.hh"
#include "mem/memsys.hh"
#include "synth/generator.hh"
#include "synth/profile.hh"

namespace oscache
{
namespace verif
{

ConformanceExtractor::ConformanceExtractor(const SchemeSpec &s) : spec(s)
{
}

void
ConformanceExtractor::onOperationBegin(const MemorySystem &mem,
                                       MemOpKind kind, CpuId cpu,
                                       Addr addr)
{
    memsys = &mem;
    op.kind = kind;
    op.cpu = cpu;
    op.line = alignDown(addr, mem.config().l2LineSize);
    op.hadShared = mem.l2State(cpu, addr) == LineState::Shared;
    op.active = true;
    if (kind != MemOpKind::Dma)
        dma.active = false;
}

void
ConformanceExtractor::onDmaBegin(CpuId cpu, const BlockOp &blockOp)
{
    (void)cpu;
    if (memsys == nullptr)
        return;
    const Addr line = memsys->config().l2LineSize;
    dma.dstBegin = alignDown(blockOp.dst, line);
    dma.dstEnd = blockOp.dst + blockOp.size;
    if (blockOp.isCopy()) {
        dma.srcBegin = alignDown(blockOp.src, line);
        dma.srcEnd = blockOp.src + blockOp.size;
    } else {
        dma.srcBegin = dma.srcEnd = 0;
    }
    dma.active = true;
}

void
ConformanceExtractor::onOperationEnd(const MemorySystem &mem,
                                     MemOpKind kind, CpuId cpu,
                                     Addr addr)
{
    (void)mem;
    (void)cpu;
    (void)addr;
    if (kind == MemOpKind::Dma)
        dma.active = false;
    op.active = false;
}

bool
ConformanceExtractor::otherSharerExists(CpuId cpu, Addr line) const
{
    if (memsys == nullptr)
        return false;
    const unsigned n = memsys->config().numCpus;
    for (unsigned j = 0; j < n; ++j)
        if (j != cpu &&
            memsys->l2State(static_cast<CpuId>(j), line) !=
                LineState::Invalid)
            return true;
    return false;
}

void
ConformanceExtractor::record(CpuId cpu, Addr line, LineState from,
                             ProtoEvent event, LineState to)
{
    ++observed;
    if (event == ProtoEvent::NumEvents) {
        ++forbidden;
        if (findings.size() >= maxFindings)
            return;
        CheckFinding f;
        f.code = CheckCode::ForbiddenTransition;
        f.cpu = cpu;
        f.addr = line;
        std::ostringstream os;
        os << toString(spec.scheme) << ": engine moved "
           << toString(from) << " -> " << toString(to)
           << " but no protocol event classifies the transition";
        f.message = os.str();
        findings.push_back(f);
        return;
    }
    const ProtoTransition &cell = spec.at(from, event);
    if (spec.hasEvent(event) && cell.legal && cell.next == to) {
        covered[static_cast<std::size_t>(from)]
               [static_cast<std::size_t>(event)] = true;
        return;
    }
    ++forbidden;
    if (findings.size() >= maxFindings)
        return;
    CheckFinding f;
    f.code = CheckCode::ForbiddenTransition;
    f.cpu = cpu;
    f.addr = line;
    std::ostringstream os;
    os << toString(spec.scheme) << ": engine moved " << toString(from)
       << " -> " << toString(to) << " on " << toString(event)
       << " but the spec ";
    if (!spec.hasEvent(event))
        os << "has no such event";
    else if (!cell.legal)
        os << "forbids the event from " << toString(from);
    else
        os << "requires " << toString(from) << " -> "
           << toString(cell.next);
    f.message = os.str();
    findings.push_back(f);
}

void
ConformanceExtractor::classify(CpuId cpu, Addr line, LineState from,
                               LineState to)
{
    // DMA engine transitions: classified by the descriptor's ranges.
    if (dma.active) {
        if (line >= dma.dstBegin && line < dma.dstEnd) {
            record(cpu, line, from, ProtoEvent::DmaDestWrite, to);
            return;
        }
        if (dma.srcEnd != 0 && line >= dma.srcBegin &&
            line < dma.srcEnd) {
            record(cpu, line, from, ProtoEvent::DmaSourceRead, to);
            return;
        }
        // Fall through: a DMA replay can still cause ordinary
        // processor-side transitions (e.g. setup accesses).
    }

    if (!op.active) {
        // A transition with no operation in flight: nothing in the
        // protocol produces one.
        record(cpu, line, from, ProtoEvent::NumEvents, to);
        return;
    }

    // Instruction-side fills are outside the data-protocol model.
    if (op.kind == MemOpKind::CodeFill ||
        op.kind == MemOpKind::InstructionFetch)
        return;

    const bool own = cpu == op.cpu;
    const bool update =
        memsys != nullptr && memsys->isUpdateAddr(line);

    if (own && line != op.line) {
        // The initiator touched a different line than the operation
        // target: a replacement victim.
        record(cpu, line, from, ProtoEvent::Evict, to);
        return;
    }

    if (own) {
        if (to == LineState::Invalid) {
            record(cpu, line, from, ProtoEvent::Evict, to);
            return;
        }
        if (from == LineState::Invalid) {
            // A fill.  Shared-ness is read live: remote copies are
            // demoted, never removed, by a read miss, so the sharer
            // query still distinguishes the two miss flavours here.
            switch (op.kind) {
              case MemOpKind::Read:
              case MemOpKind::Prefetch:
                record(cpu, line, from,
                       otherSharerExists(cpu, line)
                           ? ProtoEvent::LoadMissShared
                           : ProtoEvent::LoadMissAlone,
                       to);
                return;
              case MemOpKind::Write:
                record(cpu, line, from,
                       update ? ProtoEvent::StoreUpdateFill
                              : ProtoEvent::StoreMiss,
                       to);
                return;
              case MemOpKind::BypassWrite:
                record(cpu, line, from, ProtoEvent::BypassWrite, to);
                return;
              default:
                break;
            }
            record(cpu, line, from, ProtoEvent::NumEvents, to);
            return;
        }
        // An own-copy upgrade.
        if (op.kind == MemOpKind::Write) {
            if (from == LineState::Shared) {
                record(cpu, line, from,
                       update ? ProtoEvent::StoreUpdateAlone
                              : ProtoEvent::StoreShared,
                       to);
                return;
            }
            record(cpu, line, from, ProtoEvent::StoreHit, to);
            return;
        }
        record(cpu, line, from, ProtoEvent::NumEvents, to);
        return;
    }

    // A remote copy reacting to the initiator's bus transaction.
    if (to == LineState::Invalid) {
        if (op.kind == MemOpKind::BypassWrite) {
            record(cpu, line, from, ProtoEvent::RemoteBypassInval, to);
            return;
        }
        if (op.kind == MemOpKind::Write) {
            // The requester's pre-operation state tells an upgrade's
            // invalidation apart from a write miss's read-exclusive.
            record(cpu, line, from,
                   op.hadShared ? ProtoEvent::RemoteInval
                                : ProtoEvent::RemoteReadExcl,
                   to);
            return;
        }
        record(cpu, line, from, ProtoEvent::RemoteInval, to);
        return;
    }
    if (to == LineState::Shared &&
        (from == LineState::Exclusive || from == LineState::Modified)) {
        record(cpu, line, from, ProtoEvent::RemoteRead, to);
        return;
    }
    record(cpu, line, from, ProtoEvent::NumEvents, to);
}

void
ConformanceExtractor::onL2Transition(CpuId cpu, Addr l2_line,
                                     LineState from, LineState to)
{
    classify(cpu, l2_line, from, to);
}

ConformReport
ConformanceExtractor::report() const
{
    ConformReport rep;
    rep.observed = observed;
    rep.forbidden = forbidden;
    rep.findings = findings;
    for (std::size_t s = 0; s < numLineStates; ++s) {
        for (std::size_t e = 0; e < numEvents; ++e) {
            const auto state = static_cast<LineState>(s);
            const auto event = static_cast<ProtoEvent>(e);
            const ProtoTransition &cell = spec.at(state, event);
            if (!spec.hasEvent(event) || !cell.legal ||
                cell.next == state)
                continue;
            ++rep.specTotal;
            if (covered[s][e]) {
                ++rep.specCovered;
            } else {
                std::ostringstream os;
                os << toString(state) << " --" << toString(event)
                   << "--> " << toString(cell.next);
                rep.uncovered.push_back(os.str());
            }
        }
    }
    return rep;
}

namespace
{

/** Replay @p trace with @p extractor attached to the run's machine. */
void
replayInto(ConformanceExtractor &extractor, const Trace &trace,
           const MachineConfig &machine, BlockScheme blockScheme)
{
    // The extractor reports forbidden edges itself; a checker panic
    // would pre-empt them.
    SimOptions options;
    options.checkCoherence = false;
    MaterializedTraceSource source(trace);
    RunAssembly run(source, machine, options, blockScheme);
    extractor.attach(run.memory());
    run.attachTap(extractor);
    run.run();
}

} // namespace

ConformReport
conformTrace(const SchemeSpec &spec, const Trace &trace,
             const MachineConfig &machine, BlockScheme blockScheme)
{
    ConformanceExtractor extractor(spec);
    replayInto(extractor, trace, machine, blockScheme);
    return extractor.report();
}

MachineConfig
conformMachine(ProtoScheme scheme)
{
    MachineConfig machine;
    machine.protocol = scheme == ProtoScheme::Msi
                           ? CoherenceProtocol::Msi
                           : CoherenceProtocol::Illinois;
    return machine;
}

BlockScheme
conformBlockScheme(ProtoScheme scheme)
{
    switch (scheme) {
      case ProtoScheme::MesiBypass:
        return BlockScheme::Bypass;
      case ProtoScheme::MesiDma:
        return BlockScheme::Dma;
      default:
        return BlockScheme::Base;
    }
}

ConformReport
runConformance(ProtoScheme scheme, unsigned quanta, unsigned sockets)
{
    const SchemeSpec &spec = schemeSpec(scheme);
    const CoherenceOptions options =
        scheme == ProtoScheme::MesiUpdate ? CoherenceOptions::relocUpdate()
                                          : CoherenceOptions::none();
    MachineConfig machine = conformMachine(scheme);
    if (sockets > 1) {
        // The two-level machine keeps its processor count; a small
        // home granule interleaves home sockets across the workload
        // footprint so both the filtered and the forwarded snoop
        // paths feed the extractor.
        machine.numSockets = sockets;
        machine.homeGranule = 256;
    }
    // Small-cache variant: conflict misses exercise the replacement
    // (Evict) edges that the paper-sized caches rarely take.
    MachineConfig small = machine;
    small.l1Size = 1024;
    small.iCacheSize = 1024;
    small.l2Size = 4096;
    const BlockScheme blockScheme = conformBlockScheme(scheme);

    ConformanceExtractor extractor(spec);
    for (WorkloadKind kind : allWorkloads) {
        WorkloadProfile profile = WorkloadProfile::forKind(kind);
        if (quanta != 0)
            profile.quanta = quanta;
        const Trace trace = generateTrace(profile, options);
        const MachineConfig *machines[] = {&machine, &small};
        for (const MachineConfig *m : machines)
            replayInto(extractor, trace, *m, blockScheme);
    }
    return extractor.report();
}

} // namespace verif
} // namespace oscache
