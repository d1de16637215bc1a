/**
 * @file
 * kernel_tuning: the workflow an operating-system performance
 * engineer would run with this library — the Section 6 methodology
 * as a tool.
 *
 * 1. Simulate the workload and collect per-basic-block miss counts.
 * 2. Rank the kernel's miss hot spots.
 * 3. Insert prefetches at the top spots and re-simulate.
 * 4. Report what each hot spot cost and what prefetching recovered.
 */

#include <cstdio>
#include <map>

#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "report/figures.hh"
#include "synth/bbids.hh"
#include "synth/generator.hh"

using namespace oscache;

namespace
{

const char *
blockName(BasicBlockId bb)
{
    switch (bb) {
      case bb::pteInitLoop:   return "pte init loop";
      case bb::pteCopyLoop:   return "pte copy loop";
      case bb::pteProtLoop:   return "pte protect loop";
      case bb::pteScanLoop:   return "pte scan loop";
      case bb::freelistWalk:  return "free-list walk";
      case bb::resumeProc:    return "resume process";
      case bb::timerFuncs:    return "timer/accounting";
      case bb::trapSyscall:   return "trap/syscall seq";
      case bb::contextSwitch: return "context switch";
      case bb::scheduleProc:  return "schedule process";
      case bb::syscallDispatch: return "syscall dispatch";
      case bb::interruptEntry: return "interrupt entry";
      case bb::pageFaultEntry: return "page-fault entry";
      case bb::forkEntry:     return "fork";
      case bb::execEntry:     return "exec";
      case bb::fileIo:        return "file I/O";
      case bb::bufferCacheLookup: return "buffer-cache lookup";
      case bb::inodeOps:      return "inode ops";
      case bb::pagerRun:      return "pager";
      case bb::counterUpdate: return "counter update";
      case bb::networkStack:  return "network stack";
      default:                return "(other)";
    }
}

SimStats
simulate(const Trace &trace, const SimOptions &opts)
{
    return runOnce(trace, MachineConfig::base(), opts, BlockScheme::Dma)
        .stats;
}

} // namespace

int
main()
{
    const WorkloadKind kind = WorkloadKind::TrfdMake;
    std::printf("kernel_tuning: miss hot spots of %s (with block and "
                "coherence optimizations already applied)\n\n",
                toString(kind));

    const WorkloadProfile profile = WorkloadProfile::forKind(kind);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::relocUpdate());
    const SimOptions opts = profile.simOptions();

    // Phase 1: profile.
    const SimStats before = simulate(trace, opts);

    // Phase 2: rank.
    std::multimap<std::uint64_t, BasicBlockId, std::greater<>> ranked;
    for (const auto &[bb, misses] : before.osOtherMissByBb)
        ranked.emplace(misses, bb);

    std::printf("%-4s %-22s %10s %8s\n", "#", "kernel code", "misses",
                "share");
    const double total = double(before.osMissOther);
    unsigned rank = 1;
    for (const auto &[misses, bb] : ranked) {
        if (rank > 12)
            break;
        std::printf("%-4u %-22s %10llu %7.1f%%\n", rank, blockName(bb),
                    (unsigned long long)misses, 100.0 * misses / total);
        ++rank;
    }

    // Phase 3: insert prefetches at the top 12 spots and re-simulate.
    const HotspotPlan plan = selectHotspots(before, paperHotspotCount);
    const Trace tuned = insertPrefetches(trace, plan);
    const SimStats after = simulate(tuned, opts);

    // Phase 4: report.
    std::printf("\nRemaining OS misses: %.0f -> %.0f (%.0f%% of the "
                "hot-spot misses hidden)\n",
                remainingOsMisses(before), remainingOsMisses(after),
                100.0 * (remainingOsMisses(before) -
                         remainingOsMisses(after)) /
                    (hotspotCoverage(before, plan) *
                     double(before.osMissOther)));
    std::printf("OS time: %llu -> %llu cycles (%.1f%% faster)\n",
                (unsigned long long)before.osTime(),
                (unsigned long long)after.osTime(),
                100.0 * (double(before.osTime()) / double(after.osTime()) -
                         1.0));
    return 0;
}
