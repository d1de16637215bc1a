#include "synth/profile.hh"

#include "common/log.hh"
#include "common/names.hh"

namespace oscache
{

const char *
toString(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Trfd4:          return "TRFD_4";
      case WorkloadKind::TrfdMake:       return "TRFD+Make";
      case WorkloadKind::Arc2dFsck:      return "ARC2D+Fsck";
      case WorkloadKind::Shell:          return "Shell";
      case WorkloadKind::SyscallStorm:   return "SyscallStorm";
      case WorkloadKind::IntrFlood:      return "IntrFlood";
      case WorkloadKind::PageCacheChurn: return "PageCacheChurn";
      case WorkloadKind::ForkChurn:      return "ForkChurn";
    }
    panic("unknown WorkloadKind");
}

std::optional<WorkloadKind>
parseWorkloadKind(std::string_view name)
{
    for (WorkloadKind kind : allWorkloads)
        if (matchesDisplayName(name, toString(kind)))
            return kind;
    for (WorkloadKind kind : serverWorkloads)
        if (matchesDisplayName(name, toString(kind)))
            return kind;
    return std::nullopt;
}

WorkloadProfile
WorkloadProfile::forKind(WorkloadKind kind)
{
    WorkloadProfile p;
    p.kind = kind;
    p.name = toString(kind);

    switch (kind) {
      case WorkloadKind::Trfd4:
        // Four parallel TRFD runs: page faults, scheduling,
        // cross-processor interrupts, heavy gang scheduling; almost
        // all block operations are full pages.
        p.seed = 0x7452'4644'0004ULL;
        p.numProcs = 16;
        p.barrierEpisodes = 12.0;
        p.pageFaults = 2.4;
        p.forks = 0.15;
        p.execs = 0.05;
        p.syscalls = 2.0;
        p.fileIos = 0.15;
        p.cpis = 10.0;
        p.networkOps = 0.0;
        p.dirScans = 0.1;
        p.pagerRuns = 0.3;
        p.copyinChance = 0.08;
        p.smallBlockFrac = 0.066;
        p.mediumBlockFrac = 0.019;
        p.readOnlySmallCopyFrac = 0.14;
        p.pageTouchFrac = 0.68;
        p.freshCopyFrac = 0.35;
        p.pageReuseFrac = 0.4;
        p.bufferFrames = 16;
        p.userStyle = UserStyle::Numeric;
        p.userSlices = 14;
        p.userInstrPerSlice = 2400;
        p.idleFraction = 0.12;
        break;

      case WorkloadKind::TrfdMake:
        // One TRFD plus four compilations: regime changes, paging,
        // small copyin/copyout blocks from the compiler's file
        // traffic.
        p.seed = 0x7452'4644'4d4bULL;
        p.numProcs = 20;
        p.barrierEpisodes = 8.0;
        p.pageFaults = 0.75;
        p.forks = 0.15;
        p.execs = 0.1;
        p.syscalls = 6.0;
        p.fileIos = 0.3;
        p.cpis = 8.0;
        p.networkOps = 0.0;
        p.dirScans = 2.6;
        p.pagerRuns = 0.8;
        p.copyinChance = 0.12;
        p.procStickiness = 0.8;
        p.smallBlockFrac = 0.245;
        p.mediumBlockFrac = 0.052;
        p.readOnlySmallCopyFrac = 0.44;
        p.pageTouchFrac = 0.76;
        p.freshCopyFrac = 0.8;
        p.pageReuseFrac = 0.4;
        p.bufferFrames = 10;
        p.userStyle = UserStyle::Compiler;
        p.userSlices = 14;
        p.userInstrPerSlice = 2000;
        p.idleFraction = 0.12;
        break;

      case WorkloadKind::Arc2dFsck:
        // Four ARC2D copies plus fsck: TRFD-like multiprocessor
        // management with a wide variety of I/O; block sizes spread
        // across the whole range, and destinations are often dirty
        // buffers.
        p.seed = 0x4152'4332'4644ULL;
        p.numProcs = 17;
        p.barrierEpisodes = 11.0;
        p.pageFaults = 0.7;
        p.forks = 0.2;
        p.execs = 0.1;
        p.syscalls = 4.0;
        p.fileIos = 1.0;
        p.cpis = 9.0;
        p.networkOps = 0.0;
        p.dirScans = 3.0;
        p.pagerRuns = 0.6;
        p.copyinChance = 0.2;
        p.smallBlockFrac = 0.448;
        p.mediumBlockFrac = 0.244;
        p.readOnlySmallCopyFrac = 0.25;
        p.pageTouchFrac = 0.64;
        p.freshCopyFrac = 0.6;
        p.pageReuseFrac = 0.55;
        p.bufferFrames = 6;
        p.userStyle = UserStyle::Numeric;
        p.userSlices = 16;
        p.userInstrPerSlice = 2200;
        p.idleFraction = 0.17;
        break;

      case WorkloadKind::Shell:
        // 21 background shell commands: serial, fork/exec and
        // syscall heavy, network activity, high idle time, almost
        // no barrier synchronization.
        p.seed = 0x5348'454c'4c00ULL;
        p.numProcs = 42;
        p.barrierEpisodes = 0.4;
        p.pageFaults = 0.3;
        p.forks = 0.05;
        p.execs = 0.12;
        p.syscalls = 10.0;
        p.fileIos = 0.45;
        p.cpis = 3.0;
        p.networkOps = 1.0;
        p.dirScans = 10.0;
        p.pagerRuns = 0.5;
        p.copyinChance = 0.35;
        p.cowChance = 0.4;
        p.smallBlockFrac = 0.673;
        p.mediumBlockFrac = 0.036;
        p.readOnlySmallCopyFrac = 0.087;
        p.pageTouchFrac = 0.42;
        p.freshCopyFrac = 0.12;
        p.pageReuseFrac = 0.02;
        p.bufferFrames = 48;
        p.doubleCounterBumps = false;
        p.userStyle = UserStyle::ShellMix;
        p.userSlices = 18;
        p.userInstrPerSlice = 2200;
        p.idleFraction = 0.33;
        break;

      case WorkloadKind::SyscallStorm:
        // RPC-serving trap storm: a request is a trap, a copyin, a
        // little compute, and a copyout, thousands of times per
        // quantum machine-wide; almost no idle, little barrier
        // synchronization, small transfer sizes.
        p.seed = 0x5359'5343'4c31ULL;
        p.numProcs = 64;
        p.barrierEpisodes = 0.2;
        p.pageFaults = 0.5;
        p.forks = 0.1;
        p.execs = 0.05;
        p.syscalls = 28.0;
        p.fileIos = 1.2;
        p.cpis = 4.0;
        p.networkOps = 6.0;
        p.dirScans = 1.5;
        p.pagerRuns = 0.4;
        p.copyinChance = 0.6;
        p.procStickiness = 0.35;
        p.smallBlockFrac = 0.7;
        p.mediumBlockFrac = 0.1;
        p.readOnlySmallCopyFrac = 0.2;
        p.pageTouchFrac = 0.5;
        p.freshCopyFrac = 0.55;
        p.pageReuseFrac = 0.3;
        p.bufferFrames = 32;
        p.userStyle = UserStyle::ShellMix;
        p.userSlices = 10;
        p.userInstrPerSlice = 900;
        p.idleFraction = 0.05;
        break;

      case WorkloadKind::IntrFlood:
        // Interrupt flood: device and cross-processor interrupts
        // dominate, each touching scheduler and device-driver state;
        // network buffers circulate through small copies.
        p.seed = 0x494e'5452'464cULL;
        p.numProcs = 32;
        p.barrierEpisodes = 0.5;
        p.pageFaults = 0.4;
        p.forks = 0.04;
        p.execs = 0.02;
        p.syscalls = 8.0;
        p.fileIos = 0.6;
        p.cpis = 40.0;
        p.networkOps = 12.0;
        p.dirScans = 0.5;
        p.pagerRuns = 0.3;
        p.copyinChance = 0.4;
        p.procStickiness = 0.5;
        p.smallBlockFrac = 0.6;
        p.mediumBlockFrac = 0.15;
        p.readOnlySmallCopyFrac = 0.3;
        p.pageTouchFrac = 0.5;
        p.freshCopyFrac = 0.5;
        p.pageReuseFrac = 0.3;
        p.bufferFrames = 24;
        p.userStyle = UserStyle::Compiler;
        p.userSlices = 8;
        p.userInstrPerSlice = 1200;
        p.idleFraction = 0.1;
        break;

      case WorkloadKind::PageCacheChurn:
        // Page-cache churn: file I/O far beyond the cache, constant
        // pager activity, dirty buffer frames recycled LIFO — the
        // block-copy-heaviest of the server mixes.
        p.seed = 0x5047'4348'524eULL;
        p.numProcs = 40;
        p.barrierEpisodes = 1.0;
        p.pageFaults = 1.8;
        p.forks = 0.1;
        p.execs = 0.06;
        p.syscalls = 9.0;
        p.fileIos = 4.0;
        p.cpis = 6.0;
        p.networkOps = 2.0;
        p.dirScans = 6.0;
        p.pagerRuns = 2.5;
        p.copyinChance = 0.3;
        p.procStickiness = 0.6;
        p.smallBlockFrac = 0.35;
        p.mediumBlockFrac = 0.3;
        p.readOnlySmallCopyFrac = 0.3;
        p.pageTouchFrac = 0.5;
        p.freshCopyFrac = 0.5;
        p.pageReuseFrac = 0.7;
        p.bufferFrames = 64;
        p.userStyle = UserStyle::Compiler;
        p.userSlices = 10;
        p.userInstrPerSlice = 1400;
        p.idleFraction = 0.12;
        break;

      case WorkloadKind::ForkChurn:
        // Many short-lived processes: fork/exec storms over fresh
        // and COW pages, low processor affinity, moderate idle while
        // parents wait on children.
        p.seed = 0x464f'524b'4348ULL;
        p.numProcs = 96;
        p.barrierEpisodes = 0.3;
        p.pageFaults = 2.0;
        p.forks = 1.2;
        p.execs = 1.0;
        p.syscalls = 12.0;
        p.fileIos = 0.8;
        p.cpis = 5.0;
        p.networkOps = 1.0;
        p.dirScans = 4.0;
        p.pagerRuns = 0.8;
        p.copyinChance = 0.3;
        p.cowChance = 0.9;
        p.procStickiness = 0.2;
        p.smallBlockFrac = 0.5;
        p.mediumBlockFrac = 0.1;
        p.readOnlySmallCopyFrac = 0.15;
        p.pageTouchFrac = 0.45;
        p.freshCopyFrac = 0.3;
        p.pageReuseFrac = 0.35;
        p.bufferFrames = 20;
        p.doubleCounterBumps = false;
        p.userStyle = UserStyle::ShellMix;
        p.userSlices = 12;
        p.userInstrPerSlice = 1000;
        p.idleFraction = 0.15;
        break;
    }
    return p;
}

} // namespace oscache
