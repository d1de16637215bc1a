#include "dft/differ.hh"

#include <memory>
#include <sstream>

#include "common/log.hh"
#include "core/runner.hh"
#include "sim/system.hh"

namespace oscache
{
namespace dft
{

namespace
{

const char *
stateName(LineState st)
{
    switch (st) {
      case LineState::Invalid:   return "I";
      case LineState::Shared:    return "S";
      case LineState::Exclusive: return "E";
      case LineState::Modified:  return "M";
    }
    return "?";
}

const char *
causeName(MissCause cause)
{
    switch (cause) {
      case MissCause::None:         return "none";
      case MissCause::Coherence:    return "coherence";
      case MissCause::Displacement: return "displacement";
      case MissCause::Reuse:        return "reuse";
      case MissCause::Plain:        return "plain";
    }
    return "?";
}

const char *
levelName(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::L1:             return "L1";
      case ServiceLevel::PrefetchBuffer: return "PrefetchBuffer";
      case ServiceLevel::InFlight:       return "InFlight";
      case ServiceLevel::L2:             return "L2";
      case ServiceLevel::Memory:         return "Memory";
    }
    return "?";
}

const char *
kindName(MemOpKind kind)
{
    switch (kind) {
      case MemOpKind::Read:             return "Read";
      case MemOpKind::Write:            return "Write";
      case MemOpKind::Prefetch:         return "Prefetch";
      case MemOpKind::BypassWrite:      return "BypassWrite";
      case MemOpKind::CodeFill:         return "CodeFill";
      case MemOpKind::InstructionFetch: return "InstructionFetch";
      case MemOpKind::Dma:              return "Dma";
    }
    return "?";
}

void
dumpEvent(std::ostream &os, const MemAccessEvent &event)
{
    os << kindName(event.kind) << " cpu=" << unsigned(event.cpu)
       << " addr=0x" << std::hex << event.addr << std::dec
       << " issued=" << event.issued
       << " ctx{os=" << event.ctx.os
       << " blockOpBody=" << event.ctx.blockOpBody
       << " allocate=" << event.ctx.allocate
       << " category=" << toString(event.ctx.category) << "}"
       << " result{l1Miss=" << event.result.l1Miss
       << " level=" << levelName(event.result.level)
       << " cause=" << causeName(event.result.cause)
       << " partiallyHidden=" << event.result.partiallyHidden << "}"
       << " dropped=" << event.dropped
       << " wholeLine=" << event.wholeLine
       << " invalidated=" << event.invalidated
       << " viaBuffer=" << event.viaBuffer;
}

} // namespace

OracleDiffer::OracleDiffer(const MemorySystem &mem,
                           const std::unordered_set<Addr> *update_pages)
    : engine(&mem), ref(mem.config(), update_pages)
{
    const MachineConfig &cfg = mem.config();
    if (cfg.l1Ways != 1 || cfg.l2Ways != 1)
        panic("OracleDiffer requires direct-mapped caches");
}

void
OracleDiffer::flag(const MemAccessEvent *event, std::string what)
{
    if (divergedFlag)
        return;
    divergedFlag = true;
    std::ostringstream os;
    os << "divergence at event " << eventIndex << ": " << what;
    if (event != nullptr) {
        os << "\n  event: ";
        dumpEvent(os, *event);
        const Addr l2line =
            alignDown(event->addr, Addr{engine->config().l2LineSize});
        os << "\n  l2 line 0x" << std::hex << l2line << std::dec
           << " engine/oracle per cpu:";
        for (CpuId c = 0; c < engine->config().numCpus; ++c)
            os << " cpu" << unsigned(c) << "="
               << stateName(engine->l2State(c, l2line)) << "/"
               << stateName(ref.l2StateOf(c, l2line));
    }
    firstReport = os.str();
}

void
OracleDiffer::checkL2Line(Addr l2_line, const MemAccessEvent *event)
{
    if (divergedFlag)
        return;
    const MachineConfig &cfg = engine->config();
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        const LineState eng = engine->l2State(c, l2_line);
        const LineState orc = ref.l2StateOf(c, l2_line);
        if (eng != orc) {
            std::ostringstream os;
            os << "secondary state mismatch on cpu " << unsigned(c)
               << " line 0x" << std::hex << l2_line << std::dec
               << ": engine " << stateName(eng) << ", oracle "
               << stateName(orc);
            flag(event, os.str());
            return;
        }
        for (std::uint32_t off = 0; off < cfg.l2LineSize;
             off += cfg.l1LineSize) {
            const Addr sub = l2_line + off;
            const bool eng1 = engine->l1Contains(c, sub);
            const bool orc1 = ref.l1Has(c, sub);
            if (eng1 != orc1) {
                std::ostringstream os;
                os << "primary residency mismatch on cpu " << unsigned(c)
                   << " line 0x" << std::hex << sub << std::dec
                   << ": engine " << (eng1 ? "present" : "absent")
                   << ", oracle " << (orc1 ? "present" : "absent");
                flag(event, os.str());
                return;
            }
        }
    }
}

void
OracleDiffer::applyRead(const MemAccessEvent &event)
{
    const CpuId cpu = event.cpu;
    const Addr addr = event.addr;
    const AccessResult &res = event.result;

    if (event.viaBuffer) {
        // readViaPrefetchBuffer's own-cache or buffer paths: no tag
        // or mark changes on either machine.  A ready buffer entry
        // reads at primary-cache speed (l1Miss stays false), so the
        // paths are told apart by the service level, not the hit bit.
        if (res.level == ServiceLevel::L1) {
            if (!ref.l1Has(cpu, addr))
                flag(&event, "engine hit via buffer path but the line "
                             "is absent from the oracle primary cache");
        } else if (res.level == ServiceLevel::PrefetchBuffer ||
                   res.level == ServiceLevel::InFlight) {
            // Ready vs not-ready is timing; both require the entry.
            if (!ref.inPrefetchBuffer(cpu, addr))
                flag(&event, "engine serviced from the prefetch buffer "
                             "but the oracle buffer lacks the line");
            else if (res.level == ServiceLevel::InFlight &&
                     res.cause != ref.classify(cpu, addr))
                flag(&event,
                     std::string("buffer-read miss cause mismatch: "
                                 "engine ") +
                         causeName(res.cause) + ", oracle " +
                         causeName(ref.classify(cpu, addr)));
        } else {
            flag(&event, "impossible service level for a buffer read");
        }
        return;
    }

    if (res.l1Miss && res.level == ServiceLevel::InFlight) {
        // Demand read merged with an outstanding prefetch fill: the
        // engine charges the cause recorded when the prefetch issued
        // and consumes the fill register; no tag changes.
        if (!ref.hasFillMark(cpu, addr)) {
            flag(&event, "engine merged with an in-flight fill the "
                         "oracle does not know about");
            return;
        }
        if (res.cause != ref.fillMarkCause(cpu, addr))
            flag(&event,
                 std::string("in-flight miss cause mismatch: engine ") +
                     causeName(res.cause) + ", oracle " +
                     causeName(ref.fillMarkCause(cpu, addr)));
        ref.clearFillMark(cpu, addr);
        return;
    }

    const RefOutcome out = ref.read(cpu, addr, event.ctx.allocate,
                                    event.ctx.blockOpBody,
                                    event.ctx.category);
    if (out.l1Miss != res.l1Miss) {
        flag(&event, std::string("hit/miss mismatch: engine ") +
                         (res.l1Miss ? "miss" : "hit") + ", oracle " +
                         (out.l1Miss ? "miss" : "hit"));
        return;
    }
    if (!res.l1Miss)
        return;
    if (out.cause != res.cause) {
        flag(&event, std::string("miss cause mismatch: engine ") +
                         causeName(res.cause) + ", oracle " +
                         causeName(out.cause));
        return;
    }
    if (out.level != res.level)
        flag(&event, std::string("service level mismatch: engine ") +
                         levelName(res.level) + ", oracle " +
                         levelName(out.level));
}

void
OracleDiffer::applyPrefetch(const MemAccessEvent &event)
{
    const CpuId cpu = event.cpu;
    const Addr addr = event.addr;

    if (event.dropped)
        return; // Busy MSHRs: neither machine changes state.

    if (!event.result.l1Miss) {
        // Trivial hit: present, or already being fetched.  The oracle
        // never prunes completed fills, so its marks are a superset of
        // the engine's registers and this check is sound.
        if (!ref.l1Has(cpu, addr) && !ref.hasFillMark(cpu, addr))
            flag(&event, "engine took a trivial prefetch hit but the "
                         "oracle has neither the line nor a fill mark");
        return;
    }

    if (ref.l1Has(cpu, addr)) {
        flag(&event, "engine performed a full prefetch of a line the "
                     "oracle holds in the primary cache");
        return;
    }
    // A leftover oracle mark is stale (the engine pruned the
    // completed fill); prefetch() replaces it.
    const MissCause expect = ref.classify(cpu, addr);
    ref.prefetch(cpu, addr, event.ctx.blockOpBody, event.ctx.category);
    if (event.result.cause != expect)
        flag(&event, std::string("prefetch cause mismatch: engine ") +
                         causeName(event.result.cause) + ", oracle " +
                         causeName(expect));
}

void
OracleDiffer::onAccess(const MemAccessEvent &event)
{
    if (divergedFlag)
        return;
    ++eventIndex;

    switch (event.kind) {
      case MemOpKind::Read:
        applyRead(event);
        break;
      case MemOpKind::Write:
        // A buffered write has no per-access verdict to compare
        // (res.l1Miss is always false); apply the state transition
        // and rely on the tag cross-check below.
        ref.write(event.cpu, event.addr, event.ctx.blockOpBody);
        break;
      case MemOpKind::Prefetch:
        applyPrefetch(event);
        break;
      case MemOpKind::BypassWrite:
        if (event.wholeLine)
            ref.bypassWriteLine(event.cpu, event.addr);
        else
            ref.bypassWriteWord(event.cpu, event.addr, event.invalidated);
        break;
      default:
        flag(&event, "unexpected access event kind");
        return;
    }

    checkL2Line(alignDown(event.addr, Addr{engine->config().l2LineSize}),
                &event);
}

void
OracleDiffer::onCodeFill(CpuId cpu, Addr addr, std::uint32_t bytes)
{
    if (divergedFlag)
        return;
    ++eventIndex;
    ref.codeFill(cpu, addr, bytes);
    const std::uint32_t line = engine->config().l2LineSize;
    const Addr end = alignUp(addr + bytes, Addr{line});
    for (Addr a = alignDown(addr, Addr{line}); a < end && !divergedFlag;
         a += line)
        checkL2Line(a, nullptr);
}

void
OracleDiffer::onDma(CpuId cpu, const BlockOp &op)
{
    if (divergedFlag)
        return;
    ++eventIndex;
    ref.dma(cpu, op);
    const std::uint32_t line = engine->config().l2LineSize;
    for (Addr a = alignDown(op.dst, Addr{line});
         a < alignUp(op.dst + op.size, Addr{line}) && !divergedFlag;
         a += line)
        checkL2Line(a, nullptr);
    if (op.isCopy())
        for (Addr a = alignDown(op.src, Addr{line});
             a < alignUp(op.src + op.size, Addr{line}) && !divergedFlag;
             a += line)
            checkL2Line(a, nullptr);
}

void
OracleDiffer::onBufferPrefetchFill(CpuId cpu, Addr addr)
{
    if (divergedFlag)
        return;
    ++eventIndex;
    ref.bufferPrefetchFill(cpu, addr);
    checkL2Line(alignDown(addr, Addr{engine->config().l2LineSize}),
                nullptr);
}

void
OracleDiffer::finish()
{
    if (divergedFlag)
        return;
    for (const Addr line : ref.touchedL2Lines()) {
        checkL2Line(line, nullptr);
        if (divergedFlag)
            return;
    }
    for (const Addr line : ref.touchedL1Lines()) {
        for (CpuId c = 0; c < engine->config().numCpus; ++c) {
            const bool eng = engine->l1Contains(c, line);
            const bool orc = ref.l1Has(c, line);
            if (eng != orc) {
                std::ostringstream os;
                os << "final audit: primary residency mismatch on cpu "
                   << unsigned(c) << " line 0x" << std::hex << line
                   << std::dec << ": engine "
                   << (eng ? "present" : "absent") << ", oracle "
                   << (orc ? "present" : "absent");
                flag(nullptr, os.str());
                return;
            }
        }
    }
}

DiffResult
runDiff(TraceSource &source, const MachineConfig &machine,
        const SimOptions &options, BlockScheme scheme,
        SampleController *sampler)
{
    if (machine.l1Ways != 1 || machine.l2Ways != 1)
        panic("runDiff: the reference model is direct-mapped only");
    if (options.modelICache)
        panic("runDiff: detailed instruction-cache model unsupported");

    // The differ reports the first divergence itself; a checker panic
    // would pre-empt it.
    SimOptions unchecked = options;
    unchecked.checkCoherence = false;
    RunAssembly run(source, machine, unchecked, scheme);
    OracleDiffer differ(run.memory(), &source.updatePages());
    run.attachTap(differ);
    SimStats warm;
    if (sampler != nullptr)
        run.engine().setSampling(sampler, &warm);

    DiffResult result;
    result.stats = run.run().stats;
    differ.finish();

    result.diverged = differ.diverged();
    result.report = differ.report();
    result.eventsChecked = differ.eventsChecked();
    return result;
}

} // namespace dft
} // namespace oscache
