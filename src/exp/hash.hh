/**
 * @file
 * Content hashing for experiment artifacts.
 *
 * The artifact cache and the cell-deduplication logic both need a
 * stable fingerprint of "the inputs that determine this result": a
 * workload profile, the coherence options it was generated under,
 * and a machine configuration.  A 64-bit FNV-1a over the explicitly
 * enumerated fields is enough — the keys name cache files, they are
 * not security boundaries — and enumerating the fields by hand (as
 * opposed to hashing raw struct bytes) keeps padding and field-order
 * changes from silently aliasing keys.
 */

#ifndef OSCACHE_EXP_HASH_HH
#define OSCACHE_EXP_HASH_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/cohopt.hh"
#include "mem/config.hh"
#include "synth/profile.hh"
#include "trace/io.hh"

namespace oscache
{

/** Incremental FNV-1a content hash. */
class ContentHash
{
  public:
    /** Mix an integral or floating-point value by its byte image. */
    template <typename T>
    ContentHash &
    mix(T value)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        return mixBytes(bytes, sizeof(T));
    }

    /** Mix a string, length-prefixed so "ab","c" != "a","bc". */
    ContentHash &
    mix(const std::string &s)
    {
        mix(std::uint64_t(s.size()));
        return mixBytes(s.data(), s.size());
    }

    ContentHash &
    mixBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= bytes[i];
            state *= 0x100000001b3ull;
        }
        return *this;
    }

    std::uint64_t value() const { return state; }

    /** 16-digit hex rendering, usable as a file name. */
    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        std::uint64_t v = state;
        for (int i = 15; i >= 0; --i, v >>= 4)
            out[std::size_t(i)] = digits[v & 0xf];
        return out;
    }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** Mix the coherence (trace-layout) options. */
inline ContentHash &
mixCoherence(ContentHash &h, const CoherenceOptions &options)
{
    h.mix(options.privatizeCounters).mix(options.relocate);
    h.mix(options.selectiveUpdate);
    return h;
}

/**
 * Key of the trace generated from (@p profile, @p options, @p num_cpus)
 * in the trace cache and the artifact store: the binary trace format
 * and every generation input.
 */
inline std::string
traceKey(const WorkloadProfile &profile, const CoherenceOptions &options,
         unsigned num_cpus)
{
    ContentHash h;
    h.mix(traceFormatVersion).mix(num_cpus);
    h.mix(std::string(profile.name));
    h.mix(profile.kind).mix(profile.seed).mix(profile.quanta);
    h.mix(profile.numProcs).mix(profile.barrierEpisodes);
    h.mix(profile.pageFaults).mix(profile.forks).mix(profile.execs);
    h.mix(profile.syscalls).mix(profile.fileIos).mix(profile.cpis);
    h.mix(profile.networkOps).mix(profile.dirScans).mix(profile.pagerRuns);
    h.mix(profile.copyinChance).mix(profile.cowChance);
    h.mix(profile.freshCopyFrac).mix(profile.pageReuseFrac);
    h.mix(profile.bufferFrames).mix(profile.procStickiness);
    h.mix(profile.doubleCounterBumps);
    h.mix(profile.smallBlockFrac).mix(profile.mediumBlockFrac);
    h.mix(profile.readOnlySmallCopyFrac);
    h.mix(profile.pageTouchFrac).mix(profile.userStyle);
    h.mix(profile.userSlices).mix(profile.userInstrPerSlice);
    h.mix(profile.idleFraction);
    h.mix(profile.osExecScale).mix(profile.osImissCpi);
    h.mix(profile.userImissCpi);
    return mixCoherence(h, options).hex();
}

/** Mix every field of a machine configuration. */
inline ContentHash &
mixMachine(ContentHash &h, const MachineConfig &machine)
{
    h.mix(machine.numCpus);
    h.mix(machine.l1Size).mix(machine.l1LineSize).mix(machine.l1Ways);
    h.mix(machine.iCacheSize).mix(machine.iCacheLineSize);
    h.mix(machine.l2Size).mix(machine.l2LineSize).mix(machine.l2Ways);
    h.mix(machine.protocol);
    h.mix(machine.l1HitLatency).mix(machine.l2HitLatency);
    h.mix(machine.memLatency).mix(machine.l2WriteLatency);
    h.mix(machine.busCycle).mix(machine.lineTransferOccupancy);
    h.mix(machine.invalOccupancy).mix(machine.updateOccupancy);
    h.mix(machine.wordWriteOccupancy);
    h.mix(machine.l1WriteBufferDepth).mix(machine.l2WriteBufferDepth);
    h.mix(machine.mshrCount);
    h.mix(machine.dmaStartup).mix(machine.dmaPer8Bytes);
    h.mix(machine.dmaDirtySupplyPenalty);
    h.mix(machine.blockPrefetchBufferLines);
    // NUMA geometry mixes in only when active, so every flat
    // machine's key is byte-identical to what it hashed before the
    // multi-socket fields existed.
    if (machine.numSockets > 1) {
        h.mix(machine.numSockets).mix(machine.remoteMemPenalty);
        h.mix(machine.linkTransferOccupancy).mix(machine.linkMsgOccupancy);
        h.mix(machine.homeGranule);
    }
    return h;
}

} // namespace oscache

#endif // OSCACHE_EXP_HASH_HH
