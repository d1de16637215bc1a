#include "check/invariants.hh"

#include <algorithm>
#include <sstream>

#include "mem/memsys.hh"
#include "verif/spec.hh"

namespace oscache
{

namespace
{

const char *
stateName(LineState st)
{
    switch (st) {
      case LineState::Invalid:
        return "I";
      case LineState::Shared:
        return "S";
      case LineState::Exclusive:
        return "E";
      case LineState::Modified:
        return "M";
    }
    return "?";
}

/** Bit of the from -> to edge in a 4 x 4 edge mask. */
constexpr unsigned
edgeBit(LineState from, LineState to)
{
    return unsigned(from) * verif::numLineStates + unsigned(to);
}

/** Every from -> to edge @p scheme's transition table can take. */
constexpr std::uint16_t
specEdges(verif::ProtoScheme scheme)
{
    const verif::SchemeSpec spec = verif::buildSpec(scheme);
    std::uint16_t edges = 0;
    for (std::size_t s = 0; s < verif::numLineStates; ++s) {
        for (std::size_t e = 0; e < verif::numEvents; ++e) {
            const auto event = verif::ProtoEvent(e);
            const verif::ProtoTransition &t = spec.at(LineState(s), event);
            if (spec.hasEvent(event) && t.legal)
                edges |= std::uint16_t(1u << edgeBit(LineState(s), t.next));
        }
    }
    return edges;
}

static_assert(verif::numLineStates * verif::numLineStates <= 16,
              "edge masks are uint16_t");

/**
 * An Illinois machine runs the MESI core plus whichever of the
 * paper's mechanisms a cell enables (update pages, Blk_Bypass,
 * Blk_Dma), so its legal edges are the union of those tables.
 */
constexpr std::uint16_t illinoisEdges =
    specEdges(verif::ProtoScheme::Mesi) |
    specEdges(verif::ProtoScheme::MesiUpdate) |
    specEdges(verif::ProtoScheme::MesiBypass) |
    specEdges(verif::ProtoScheme::MesiDma);
constexpr std::uint16_t msiEdges = specEdges(verif::ProtoScheme::Msi);

constexpr bool
allows(std::uint16_t edges, LineState from, LineState to)
{
    return ((edges >> edgeBit(from, to)) & 1u) != 0;
}

static_assert(!allows(illinoisEdges, LineState::Shared, LineState::Exclusive),
              "exclusivity is never gained silently");
static_assert(
    !allows(illinoisEdges, LineState::Modified, LineState::Exclusive),
    "dirty data is never downgraded to clean");
static_assert(!allows(msiEdges, LineState::Invalid, LineState::Exclusive) &&
                  !allows(msiEdges, LineState::Shared,
                          LineState::Exclusive) &&
                  !allows(msiEdges, LineState::Exclusive,
                          LineState::Exclusive) &&
                  !allows(msiEdges, LineState::Modified,
                          LineState::Exclusive),
              "MSI has no Exclusive state");

/** The config, validated before any member is sized from it. */
const MachineConfig &
validated(const MachineConfig &config)
{
    config.check();
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// LineTable

CoherenceChecker::LineTable::LineTable(std::size_t min_slots)
{
    std::size_t n = 64;
    while (n < min_slots)
        n *= 2;
    rebuild(n);
}

std::size_t
CoherenceChecker::LineTable::home(Addr line) const
{
    // Fibonacci hashing: the multiply folds every address bit into
    // the high bits the shift keeps.
    return std::size_t((line * 0x9E3779B97F4A7C15ull) >> shift);
}

void
CoherenceChecker::LineTable::rebuild(std::size_t n)
{
    slots.assign(n, LineInfo{});
    mask = n - 1;
    shift = 64 - floorLog2(n);
    used = 0;
}

CoherenceChecker::LineInfo *
CoherenceChecker::LineTable::find(Addr line)
{
    for (std::size_t i = home(line);; i = (i + 1) & mask) {
        LineInfo &slot = slots[i];
        if (slot.line == line)
            return &slot;
        if (slot.line == invalidAddr)
            return nullptr;
    }
}

CoherenceChecker::LineInfo &
CoherenceChecker::LineTable::findOrInsert(Addr line)
{
    for (std::size_t i = home(line);; i = (i + 1) & mask) {
        LineInfo &slot = slots[i];
        if (slot.line == line)
            return slot;
        if (slot.line != invalidAddr)
            continue;
        if (4 * (used + 1) <= 3 * slots.size()) {
            slot.line = line;
            ++used;
            return slot;
        }
        // Past three-quarter load: double, re-place every entry, retry.
        std::vector<LineInfo> old = std::move(slots);
        rebuild(old.size() * 2);
        for (const LineInfo &info : old) {
            if (info.line == invalidAddr)
                continue;
            std::size_t j = home(info.line);
            while (slots[j].line != invalidAddr)
                j = (j + 1) & mask;
            slots[j] = info;
            ++used;
        }
        return findOrInsert(line);
    }
}

void
CoherenceChecker::LineTable::erase(Addr line)
{
    std::size_t hole = home(line);
    while (slots[hole].line != line) {
        if (slots[hole].line == invalidAddr)
            return;
        hole = (hole + 1) & mask;
    }
    // Backward-shift deletion: pull each later entry of the probe
    // chain into the hole unless its home lies between the hole and
    // its current slot.
    for (std::size_t j = (hole + 1) & mask; slots[j].line != invalidAddr;
         j = (j + 1) & mask) {
        const std::size_t h = home(slots[j].line);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole] = LineInfo{};
    --used;
}

void
CoherenceChecker::LineTable::clear()
{
    std::fill(slots.begin(), slots.end(), LineInfo{});
    used = 0;
}

// ---------------------------------------------------------------------
// ShadowTags

CoherenceChecker::ShadowTags::ShadowTags(unsigned cpus, std::uint32_t size,
                                         std::uint32_t line_size,
                                         std::uint32_t way_count)
    : lineShift(floorLog2(line_size)),
      setMask(size / (line_size * way_count) - 1), ways(way_count),
      perCpu(size / line_size), tags(cpus * perCpu, invalidAddr)
{}

std::size_t
CoherenceChecker::ShadowTags::setBase(CpuId cpu, Addr line) const
{
    return cpuBase(cpu) + std::size_t((line >> lineShift) & setMask) * ways;
}

std::size_t
CoherenceChecker::ShadowTags::scan(CpuId cpu, Addr line, Addr tag) const
{
    const std::size_t base = setBase(cpu, line);
    for (std::uint32_t w = 0; w < ways; ++w)
        if (tags[base + w] == tag)
            return base + w;
    return none;
}

void
CoherenceChecker::ShadowTags::clear()
{
    std::fill(tags.begin(), tags.end(), invalidAddr);
}

// ---------------------------------------------------------------------
// CoherenceChecker

CoherenceChecker::CoherenceChecker(const MachineConfig &config)
    : cfg(validated(config)),
      legalEdges(config.protocol == CoherenceProtocol::Illinois
                     ? illinoisEdges
                     : msiEdges),
      l2(config.numCpus, config.l2Size, config.l2LineSize, config.l2Ways),
      l2States(l2.tags.size(), LineState::Invalid),
      l1(config.numCpus, config.l1Size, config.l1LineSize, config.l1Ways),
      lines(2 * std::size_t{config.l2Sets()}),
      cpuChecks(config.numCpus)
{}

void
CoherenceChecker::report(CheckCode code, CpuId cpu, Addr addr,
                         std::string message)
{
    if (found.size() >= maxFindings) {
        ++suppressed;
        return;
    }
    CheckFinding f;
    f.code = code;
    f.severity = Severity::Error;
    f.cpu = cpu;
    f.addr = addr;
    f.message = std::move(message);
    found.push_back(std::move(f));
}

void
CoherenceChecker::queue(LineInfo &info)
{
    if (!info.queued) {
        info.queued = 1;
        touched.push_back(info.line);
    }
}

LineState
CoherenceChecker::shadowState(CpuId cpu, Addr l2_line) const
{
    const std::size_t slot = l2.find(cpu, l2_line);
    return slot == ShadowTags::none ? LineState::Invalid : l2States[slot];
}

std::uint32_t
CoherenceChecker::residentL1Lines(CpuId cpu, Addr l2_line) const
{
    std::uint32_t n = 0;
    for (std::uint32_t off = 0; off < cfg.l2LineSize; off += cfg.l1LineSize)
        n += l1.find(cpu, l2_line + off) != ShadowTags::none;
    return n;
}

void
CoherenceChecker::dropL2(CpuId cpu, std::size_t slot)
{
    const Addr line = l2.tags[slot];
    if (cpuChecks[cpu].ownedLine == line)
        cpuChecks[cpu].ownedLine = invalidAddr;
    LineInfo &info = lines.findOrInsert(line);
    info.count(l2States[slot], -1);
    l2.tags[slot] = invalidAddr;
    l2States[slot] = LineState::Invalid;
    info.uncovered += residentL1Lines(cpu, line);
    queue(info);
}

std::size_t
CoherenceChecker::allocL2(CpuId cpu, Addr line)
{
    std::size_t slot = l2.freeWay(cpu, line);
    if (slot == ShadowTags::none) {
        // The real set cannot hold one more line either: some line
        // left it without a notification.
        slot = l2.setBase(cpu, line) + l2.ways - 1;
        report(CheckCode::ShadowMismatch, cpu, l2.tags[slot],
               "secondary line left the cache without a notification");
        dropL2(cpu, slot);
    }
    l2.tags[slot] = line;
    return slot;
}

void
CoherenceChecker::onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                                 LineState to)
{
    ++transitionCount;
    if (cpuChecks[cpu].ownedLine == l2_line)
        cpuChecks[cpu].ownedLine = invalidAddr;
    std::size_t slot = l2.find(cpu, l2_line);
    const LineState recorded =
        slot == ShadowTags::none ? LineState::Invalid : l2States[slot];
    if (recorded != from) {
        std::ostringstream os;
        os << "transition reports from=" << stateName(from)
           << " but the shadow recorded " << stateName(recorded);
        report(CheckCode::ShadowMismatch, cpu, l2_line, os.str());
    }
    if (!allows(legalEdges, from, to)) {
        std::ostringstream os;
        os << "illegal MESI edge " << stateName(from) << "->"
           << stateName(to);
        report(CheckCode::IllegalTransition, cpu, l2_line, os.str());
    }

    if (to == LineState::Invalid) {
        if (slot != ShadowTags::none)
            dropL2(cpu, slot);
        else
            queue(lines.findOrInsert(l2_line));
        return;
    }
    const bool installed = slot == ShadowTags::none;
    if (installed)
        slot = allocL2(cpu, l2_line);
    LineInfo &info = lines.findOrInsert(l2_line);
    if (installed && info.uncovered != 0)
        info.uncovered -= residentL1Lines(cpu, l2_line);
    info.count(l2States[slot], -1);
    info.count(to, +1);
    l2States[slot] = to;
    queue(info);
}

void
CoherenceChecker::onL1Fill(CpuId cpu, Addr l1_line)
{
    if (l1.find(cpu, l1_line) != ShadowTags::none)
        return;
    std::size_t slot = l1.freeWay(cpu, l1_line);
    if (slot == ShadowTags::none) {
        slot = l1.setBase(cpu, l1_line) + l1.ways - 1;
        report(CheckCode::ShadowMismatch, cpu, l1.tags[slot],
               "primary line left the cache without a notification");
        onL1Drop(cpu, l1.tags[slot]);
    }
    l1.tags[slot] = l1_line;
    // A primary fill changes no secondary state; only one without a
    // covering secondary copy needs the operation-end check.
    const Addr l2_line = alignDown(l1_line, Addr{cfg.l2LineSize});
    if (l2.find(cpu, l2_line) == ShadowTags::none) {
        LineInfo &info = lines.findOrInsert(l2_line);
        ++info.uncovered;
        queue(info);
    }
}

void
CoherenceChecker::onL1Drop(CpuId cpu, Addr l1_line)
{
    const std::size_t slot = l1.find(cpu, l1_line);
    if (slot == ShadowTags::none)
        return;
    l1.tags[slot] = invalidAddr;
    const Addr l2_line = alignDown(l1_line, Addr{cfg.l2LineSize});
    if (l2.find(cpu, l2_line) != ShadowTags::none)
        return;
    // An uncovered primary line is gone (its entry was kept alive
    // by uncovered > 0).
    LineInfo &info = lines.findOrInsert(l2_line);
    --info.uncovered;
    if (!info.queued && info.idle())
        lines.erase(l2_line);
}

void
CoherenceChecker::checkLine(const LineInfo &info)
{
    if (info.uncovered != 0) {
        for (unsigned c = 0; c < cfg.numCpus; ++c) {
            const CpuId cpu = CpuId(c);
            if (l2.find(cpu, info.line) != ShadowTags::none)
                continue;
            for (std::uint32_t off = 0; off < cfg.l2LineSize;
                 off += cfg.l1LineSize) {
                if (l1.find(cpu, info.line + off) != ShadowTags::none)
                    report(CheckCode::InclusionViolation, cpu,
                           info.line + off,
                           "primary-resident line has no secondary copy");
            }
        }
    }
    checkSwmr(info);
}

void
CoherenceChecker::checkSwmr(const LineInfo &info)
{
    if (info.owners > 1)
        report(CheckCode::SwmrViolation, 0, info.line,
               "more than one Modified/Exclusive copy machine-wide");
    else if (info.owners == 1 && info.sharers > 0)
        report(CheckCode::SwmrViolation, 0, info.line,
               "an exclusive owner coexists with sharers");
}

void
CoherenceChecker::onOperationEnd(const MemorySystem &mem, MemOpKind op,
                                 CpuId cpu, Addr addr)
{
    for (const Addr line : touched) {
        LineInfo *info = lines.find(line);
        info->queued = 0;
        checkLine(*info);
        if (info->idle())
            lines.erase(line);
    }
    touched.clear();

    // Only writes and bypass writes push into the write buffers.
    if (op != MemOpKind::Write && op != MemOpKind::BypassWrite)
        return;

    CpuChecks &checks = cpuChecks[cpu];
    const Addr line = alignDown(addr, Addr{cfg.l2LineSize});
    if (op == MemOpKind::Write && line != checks.ownedLine) {
        const LineState st = shadowState(cpu, line);
        if (st == LineState::Modified) {
            checks.ownedLine = line;
        } else if (st != LineState::Shared || !mem.isUpdateAddr(addr)) {
            std::ostringstream os;
            os << "write completed with line " << stateName(st)
               << " instead of Modified (or Shared on an update page)";
            report(CheckCode::OwnershipViolation, cpu, addr, os.str());
        }
    }

    const WriteBuffer &wb1 = mem.l1WriteBuffer(cpu);
    const WriteBuffer &wb2 = mem.l2WriteBuffer(cpu);
    if (!wb1.drainOrderConsistent())
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L1-to-L2 write buffer drains out of FIFO order");
    if (!wb2.drainOrderConsistent())
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L2-to-bus write buffer drains out of FIFO order");
    if (wb1.lastCompletion() < checks.l1WbHorizon)
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L1-to-L2 write buffer completion horizon moved backwards");
    if (wb2.lastCompletion() < checks.l2WbHorizon)
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L2-to-bus write buffer completion horizon moved backwards");
    checks.l1WbHorizon = wb1.lastCompletion();
    checks.l2WbHorizon = wb2.lastCompletion();
}

void
CoherenceChecker::seed(const MemorySystem &mem)
{
    l2.clear();
    std::fill(l2States.begin(), l2States.end(), LineState::Invalid);
    l1.clear();
    lines.clear();
    touched.clear();
    for (unsigned c = 0; c < cfg.numCpus; ++c) {
        const CpuId cpu = CpuId(c);
        for (const Addr line : mem.l2Cache(cpu).residentLines()) {
            const std::size_t slot = allocL2(cpu, line);
            l2States[slot] = mem.l2State(cpu, line);
            lines.findOrInsert(line).count(l2States[slot], +1);
        }
        for (const Addr line : mem.l1Cache(cpu).residentLines())
            onL1Fill(cpu, line);
        cpuChecks[c] = CpuChecks{mem.l1WriteBuffer(cpu).lastCompletion(),
                                 mem.l2WriteBuffer(cpu).lastCompletion(),
                                 invalidAddr};
    }
}

void
CoherenceChecker::auditFull(const MemorySystem &mem)
{
    // The whole-machine walk below covers the pending lines.
    for (const Addr line : touched) {
        LineInfo *info = lines.find(line);
        info->queued = 0;
        if (info->idle())
            lines.erase(line);
    }
    touched.clear();

    struct Copy
    {
        Addr line;
        LineState state;
    };
    std::vector<Copy> copies;
    for (unsigned c = 0; c < cfg.numCpus; ++c) {
        const CpuId cpu = CpuId(c);
        // Actual -> shadow: every resident line must be shadowed with
        // the same state.
        for (const Addr line : mem.l2Cache(cpu).residentLines()) {
            const LineState actual = mem.l2State(cpu, line);
            copies.push_back({line, actual});
            const std::size_t slot = l2.find(cpu, line);
            if (slot == ShadowTags::none) {
                report(CheckCode::ShadowMismatch, cpu, line,
                       "resident secondary line was never reported to "
                       "the observer");
            } else if (l2States[slot] != actual) {
                std::ostringstream os;
                os << "secondary line is " << stateName(actual)
                   << " but the shadow recorded "
                   << stateName(l2States[slot]);
                report(CheckCode::ShadowMismatch, cpu, line, os.str());
            }
        }
        // Shadow -> actual: no phantom entries.
        for (std::size_t i = l2.cpuBase(cpu); i < l2.cpuBase(cpu) + l2.perCpu;
             ++i) {
            const Addr line = l2.tags[i];
            if (line != invalidAddr &&
                mem.l2State(cpu, line) == LineState::Invalid) {
                std::ostringstream os;
                os << "shadow holds " << stateName(l2States[i])
                   << " for a line the secondary cache lost";
                report(CheckCode::ShadowMismatch, cpu, line, os.str());
            }
        }

        // Primary shadow cross-check and inclusion, both directions.
        for (const Addr line : mem.l1Cache(cpu).residentLines()) {
            if (l1.find(cpu, line) == ShadowTags::none)
                report(CheckCode::ShadowMismatch, cpu, line,
                       "resident primary line was never reported to "
                       "the observer");
            if (mem.l2State(cpu, line) == LineState::Invalid)
                report(CheckCode::InclusionViolation, cpu, line,
                       "primary-resident line has no secondary copy");
        }
        for (std::size_t i = l1.cpuBase(cpu); i < l1.cpuBase(cpu) + l1.perCpu;
             ++i) {
            const Addr line = l1.tags[i];
            if (line != invalidAddr && !mem.l1Contains(cpu, line))
                report(CheckCode::ShadowMismatch, cpu, line,
                       "shadow holds a primary line the cache lost");
        }
    }

    // Global SWMR over every resident line, from the real states.
    std::sort(copies.begin(), copies.end(),
              [](const Copy &a, const Copy &b) { return a.line < b.line; });
    for (std::size_t i = 0; i < copies.size();) {
        LineInfo summary;
        summary.line = copies[i].line;
        for (; i < copies.size() && copies[i].line == summary.line; ++i)
            summary.count(copies[i].state, +1);
        checkSwmr(summary);
    }
}

} // namespace oscache
