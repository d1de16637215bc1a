#include "obs/profiler.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "synth/bbids.hh"

namespace oscache
{

namespace
{

/** Code-page address of a basic block (mirrors System::handleExec). */
Addr
blockPc(BasicBlockId bb)
{
    return codeSpaceBase + Addr{bb} * 4096;
}

std::size_t
causeIndex(MissCause cause)
{
    return static_cast<std::size_t>(cause);
}

/**
 * Index hash of a block id: Fibonacci hashing spreads the kernel's
 * dense ids (100-402) evenly and keeps arbitrary 32-bit trace ids
 * well mixed.
 */
std::size_t
slotHash(BasicBlockId bb)
{
    return (std::uint64_t{bb} * 0x9e3779b97f4a7c15u) >> 32;
}

} // namespace

const char *
basicBlockName(BasicBlockId id)
{
    switch (id) {
      case bb::pteInitLoop:       return "pte_init_loop";
      case bb::pteCopyLoop:       return "pte_copy_loop";
      case bb::pteProtLoop:       return "pte_prot_loop";
      case bb::pteScanLoop:       return "pte_scan_loop";
      case bb::freelistWalk:      return "freelist_walk";
      case bb::resumeProc:        return "resume_proc";
      case bb::timerFuncs:        return "timer_funcs";
      case bb::trapSyscall:       return "trap_syscall";
      case bb::contextSwitch:     return "context_switch";
      case bb::scheduleProc:      return "schedule_proc";
      case bb::syscallDispatch:   return "syscall_dispatch";
      case bb::interruptEntry:    return "interrupt_entry";
      case bb::pageFaultEntry:    return "page_fault_entry";
      case bb::forkEntry:         return "fork_entry";
      case bb::execEntry:         return "exec_entry";
      case bb::fileIo:            return "file_io";
      case bb::bufferCacheLookup: return "buffer_cache_lookup";
      case bb::inodeOps:          return "inode_ops";
      case bb::pagerRun:          return "pager_run";
      case bb::counterUpdate:     return "counter_update";
      case bb::networkStack:      return "network_stack";
      case bb::processExit:       return "process_exit";
      case bb::userNumeric:       return "user_numeric";
      case bb::userCompiler:      return "user_compiler";
      case bb::userShellCmd:      return "user_shell_cmd";
      default:                    return "";
    }
}

void
MissProfiler::record(const MemAccessEvent &event)
{
    // Attribution mirrors SimStats::recordRead exactly: data reads
    // only, and block-operation-body misses belong to the block op,
    // not to the issuing site or category.
    if (event.kind != MemOpKind::Read || event.ctx.blockOpBody ||
        !event.ctx.os)
        return;

    const std::size_t cause = causeIndex(event.result.cause);
    const std::uint64_t miss = event.result.l1Miss ? 1 : 0;
    const Cycles stall = event.result.stall;

    SiteProfile &cat =
        byCategory[static_cast<std::size_t>(event.ctx.category)];
    cat.reads += 1;
    cat.byCause[cause].count += miss;
    cat.byCause[cause].stall += miss != 0 ? stall : 0;

    if (event.ctx.bb == invalidBasicBlock)
        return;
    SiteProfile &site = siteOf(event.ctx.bb);
    site.reads += 1;
    site.byCause[cause].count += miss;
    site.byCause[cause].stall += miss != 0 ? stall : 0;
}

SiteProfile &
MissProfiler::siteOf(BasicBlockId bb)
{
    if (2 * (byBb.size() + 1) > index.size())
        rehash(std::max<std::size_t>(512, 2 * index.size()));
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = slotHash(bb) & mask;; i = (i + 1) & mask) {
        if (index[i].bb == bb)
            return byBb[index[i].site].second;
        if (index[i].bb == invalidBasicBlock) {
            index[i] = {bb, static_cast<std::uint32_t>(byBb.size())};
            return byBb.emplace_back(bb, SiteProfile{}).second;
        }
    }
}

void
MissProfiler::rehash(std::size_t size)
{
    index.assign(size, Slot{});
    const std::size_t mask = size - 1;
    for (std::uint32_t site = 0; site < byBb.size(); ++site) {
        std::size_t i = slotHash(byBb[site].first) & mask;
        while (index[i].bb != invalidBasicBlock)
            i = (i + 1) & mask;
        index[i] = {byBb[site].first, site};
    }
}

std::unordered_map<BasicBlockId, std::uint64_t>
MissProfiler::otherMissByBb() const
{
    std::unordered_map<BasicBlockId, std::uint64_t> out;
    for (const auto &[bb, site] : byBb) {
        const std::uint64_t other =
            site.missTotal() -
            site.byCause[causeIndex(MissCause::Coherence)].count;
        if (other != 0)
            out.emplace(bb, other);
    }
    return out;
}

std::vector<HotspotRow>
MissProfiler::rankedHotspots(unsigned count) const
{
    std::vector<HotspotRow> rows;
    rows.reserve(byBb.size());
    for (const auto &[bb, site] : byBb) {
        const std::size_t coh = causeIndex(MissCause::Coherence);
        HotspotRow row;
        row.bb = bb;
        row.pc = blockPc(bb);
        row.allMisses = site.missTotal();
        row.otherMisses = row.allMisses - site.byCause[coh].count;
        row.otherStall = site.stallTotal() - site.byCause[coh].stall;
        if (row.otherMisses != 0)
            rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const HotspotRow &a, const HotspotRow &b) {
                  if (a.otherMisses != b.otherMisses)
                      return a.otherMisses > b.otherMisses;
                  return a.bb < b.bb; // Deterministic tie-break.
              });
    if (rows.size() > count)
        rows.resize(count);
    return rows;
}

void
MissProfiler::renderHotspots(std::ostream &os, unsigned count) const
{
    const std::vector<HotspotRow> rows = rankedHotspots(count);
    os << "rank  bb    pc          other-miss  stall-cyc  all-miss  site\n";
    unsigned rank = 1;
    for (const HotspotRow &row : rows) {
        os << std::left << std::setw(6) << rank++ << std::setw(6) << row.bb
           << "0x" << std::hex << std::setw(10) << row.pc << std::dec
           << std::setw(12) << row.otherMisses << std::setw(11)
           << row.otherStall << std::setw(10) << row.allMisses
           << basicBlockName(row.bb) << "\n";
    }
    if (rows.empty())
        os << "(no OS conflict misses attributed)\n";
}

void
MissProfiler::renderCategories(std::ostream &os) const
{
    os << "category       reads       coh-miss  displ  reuse  conflict  "
          "stall-cyc\n";
    for (std::size_t c = 0; c < numDataCategories; ++c) {
        const SiteProfile &site = byCategory[c];
        if (site.reads == 0)
            continue;
        os << std::left << std::setw(15)
           << toString(static_cast<DataCategory>(c)) << std::setw(12)
           << site.reads << std::setw(10)
           << site.byCause[causeIndex(MissCause::Coherence)].count
           << std::setw(7)
           << site.byCause[causeIndex(MissCause::Displacement)].count
           << std::setw(7)
           << site.byCause[causeIndex(MissCause::Reuse)].count
           << std::setw(10)
           << site.byCause[causeIndex(MissCause::Plain)].count
           << site.stallTotal() << "\n";
    }
}

} // namespace oscache
