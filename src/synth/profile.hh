/**
 * @file
 * The four system-intensive workloads of Section 2.3, expressed as
 * activity-rate profiles for the synthetic trace generator.
 *
 *  - TRFD_4:      four copies of hand-parallelized TRFD (16 processes
 *                 on 4 processors): highly parallel, synchronization
 *                 intensive; page faults, gang scheduling,
 *                 cross-processor interrupts.
 *  - TRFD+Make:   one parallel TRFD plus four C-compiler runs: mixed
 *                 parallel/serial regime changes, substantial paging,
 *                 file traffic.
 *  - ARC2D+Fsck:  four parallel ARC2D copies plus a file-system
 *                 checker: TRFD-like OS activity plus a wide variety
 *                 of I/O.
 *  - Shell:       a heavily multiprogrammed shell script (21 jobs in
 *                 background): serial, fork/exec and syscall heavy,
 *                 high idle time, few coherence misses.
 *
 * Rates are per scheduling quantum per processor unless noted, and
 * were calibrated so the Base system reproduces the shapes of the
 * paper's Tables 1-5.
 */

#ifndef OSCACHE_SYNTH_PROFILE_HH
#define OSCACHE_SYNTH_PROFILE_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/options.hh"

namespace oscache
{

/** Which workload mix to synthesize. */
enum class WorkloadKind : std::uint8_t
{
    Trfd4,
    TrfdMake,
    Arc2dFsck,
    Shell,
    /**
     * @name Server-class mixes (beyond the paper)
     * Heavily loaded network-server behaviour for the multi-socket
     * geometries: they reuse the paper's activity vocabulary with
     * modern rates, so every block-operation scheme and the whole
     * verification net apply unchanged.
     * @{
     */
    SyscallStorm,   ///< RPC-style trap storm, copyin/copyout heavy.
    IntrFlood,      ///< Device + cross-processor interrupt flood.
    PageCacheChurn, ///< File-cache thrash: I/O, pager, dirty reuse.
    ForkChurn,      ///< Many short-lived processes (CGI/CI style).
    /** @} */
};

/** All four paper workloads, in the paper's column order. */
inline constexpr WorkloadKind allWorkloads[] = {
    WorkloadKind::Trfd4,
    WorkloadKind::TrfdMake,
    WorkloadKind::Arc2dFsck,
    WorkloadKind::Shell,
};

/** The server-class mixes, in NUMA-suite column order. */
inline constexpr WorkloadKind serverWorkloads[] = {
    WorkloadKind::SyscallStorm,
    WorkloadKind::IntrFlood,
    WorkloadKind::PageCacheChurn,
    WorkloadKind::ForkChurn,
};

/** Paper-style workload name. */
const char *toString(WorkloadKind kind);

/**
 * The workload whose toString() name is @p name, matched ignoring
 * case and optionally without its '_'/'+' ("trfd4", "Trfd+Make",
 * "syscallstorm"); nullopt when none is.
 */
std::optional<WorkloadKind> parseWorkloadKind(std::string_view name);

/** Style of the user-level computation between OS activities. */
enum class UserStyle : std::uint8_t
{
    Numeric,  ///< Blocked strided numeric kernels (TRFD, ARC2D).
    Compiler, ///< Pointer-heavy moderate-working-set code (Make).
    ShellMix, ///< Short-lived bursts over fresh pages.
};

/** Activity-rate description of one workload. */
struct WorkloadProfile
{
    const char *name = "";
    WorkloadKind kind = WorkloadKind::Trfd4;
    std::uint64_t seed = 1;
    /** Scheduling quanta to generate. */
    unsigned quanta = 36;
    /** Active processes (cycled round-robin over the processors). */
    unsigned numProcs = 16;

    /** @name Synchronization regime @{ */
    /** Gang-scheduling barrier episodes per quantum (machine-wide). */
    double barrierEpisodes = 0.0;
    /** @} */

    /** @name OS activity rates (per quantum per processor) @{ */
    double pageFaults = 0.0;
    double forks = 0.0;
    double execs = 0.0;
    double syscalls = 0.0;
    double fileIos = 0.0;
    /** Cross-processor interrupts (machine-wide per quantum). */
    double cpis = 0.0;
    double networkOps = 0.0;
    /** Directory/inode scans (ls, find, namei, fsck sweeps). */
    double dirScans = 0.0;
    /** Pager invocations (machine-wide per quantum). */
    double pagerRuns = 0.0;
    /** Probability a system call performs a copyin. */
    double copyinChance = 0.5;
    /** Probability a non-leading fault of a burst is COW (vs zero). */
    double cowChance = 0.85;
    /**
     * Fraction of copies whose source is the immediately preceding
     * operation's destination (hot chain) rather than a page last
     * written a quantum ago; drives Table 3's src-cached row.
     */
    double freshCopyFrac = 0.5;
    /**
     * Probability a page allocation reuses a recently freed (still
     * cache-warm, often dirty) frame — BSD's LIFO free list; drives
     * Table 3's dst-dirty row.
     */
    double pageReuseFrac = 0.25;
    /** Distinct file-buffer frames in active circulation. */
    unsigned bufferFrames = 8;
    /** Probability a processor keeps its process across a quantum. */
    double procStickiness = 0.55;
    /** @} */

    /**
     * Bump two event counters per trap (true for the parallel
     * workloads whose kernels count traps and the specific event;
     * the serial Shell mix counts less).
     */
    bool doubleCounterBumps = true;

    /** @name Block-operation size mix @{ */
    /** Fraction of block operations smaller than 1 KB. */
    double smallBlockFrac = 0.1;
    /** Fraction between 1 KB and 4 KB (rest are full pages). */
    double mediumBlockFrac = 0.05;
    /** Fraction of sub-page copies never written afterwards. */
    double readOnlySmallCopyFrac = 0.2;
    /** @} */

    /** @name User-level behaviour @{ */
    /**
     * Fraction of a freshly faulted/copied page's lines the
     * application touches before the page is next used as a block
     * source (drives Table 3's "src lines already cached").
     */
    double pageTouchFrac = 0.6;
    UserStyle userStyle = UserStyle::Numeric;
    /** User compute slices per quantum per processor. */
    unsigned userSlices = 8;
    /** Instructions per user slice. */
    unsigned userInstrPerSlice = 600;
    /** Idle fraction of each quantum (no runnable process). */
    double idleFraction = 0.08;
    /** @} */

    /** @name Instruction-side model @{ */
    /** Multiplier on the activity bodies' OS instruction counts. */
    double osExecScale = 9.0;
    double osImissCpi = 0.5;
    double userImissCpi = 0.04;
    /** @} */

    /** Simulation-engine options implied by this profile. */
    SimOptions
    simOptions() const
    {
        SimOptions opts;
        opts.osImissCpi = osImissCpi;
        opts.userImissCpi = userImissCpi;
        return opts;
    }

    /** The calibrated profile for @p kind. */
    static WorkloadProfile forKind(WorkloadKind kind);
};

} // namespace oscache

#endif // OSCACHE_SYNTH_PROFILE_HH
