/**
 * @file
 * Persistent on-disk artifact cache for generated traces.
 *
 * Trace generation dominates a cold experiment sweep, and the same
 * trace is an input to many cells (every system with the same
 * coherence options on the same workload replays it).  The store
 * maps a content key — a hash of every generation input: the full
 * workload profile, the coherence options, the cpu count, and the
 * binary trace-format version — to a file in the chunked binary
 * format (trace/io v3), whether the trace was packed in memory
 * (store()) or generated straight to disk (storeStreaming()), and
 * openSource() reads either.  A warm directory turns a sweep's
 * generation phase into pure reloads; the acceptance bar is a rerun
 * with zero regenerations.
 *
 * Robustness: files are written to a temp name and renamed into
 * place so readers never see a half-written artifact, and any file
 * that fails the binary reader's structural checks or checksum is
 * deleted and reported as a miss — the caller regenerates.
 */

#ifndef OSCACHE_EXP_ARTIFACT_CACHE_HH
#define OSCACHE_EXP_ARTIFACT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/cohopt.hh"
#include "report/experiment.hh"
#include "synth/profile.hh"
#include "trace/packed.hh"
#include "trace/source.hh"

namespace oscache
{

/** Disk-backed trace cache, keyed by content hash. */
class TraceStore
{
  public:
    /**
     * Open (creating if needed) the store rooted at @p directory.
     * fatal()s if the directory cannot be created.
     */
    explicit TraceStore(std::string directory);

    /**
     * Content key for a trace generated from (@p profile,
     * @p options, @p num_cpus).  Stable across processes; changes
     * whenever any generation input or the binary format changes.
     */
    static std::string keyFor(const WorkloadProfile &profile,
                              const CoherenceOptions &options,
                              unsigned num_cpus = 4);

    /**
     * Store @p trace under @p key in the chunked format (atomic
     * rename into place), decoding its blocks a chunk at a time.
     */
    void store(const std::string &key, const PackedTrace &trace);

    /**
     * Open a streaming cursor source over the artifact stored under
     * @p key, or nullptr if absent or corrupt (corrupt files are
     * removed so the regenerated artifact can take their place).
     * The returned source reads the file incrementally, with
     * defaultStreamReadAhead records of buffer per processor.
     */
    std::unique_ptr<TraceSource> openSource(const std::string &key);

    /**
     * Generate the trace for (@p profile, @p options, @p num_cpus)
     * and stream it straight to disk under @p key in the chunked
     * format — one quantum of records per processor per chunk —
     * without ever materializing the whole trace.  Atomic rename
     * into place, like store().
     */
    void storeStreaming(const std::string &key,
                        const WorkloadProfile &profile,
                        const CoherenceOptions &options,
                        unsigned num_cpus = 4);

    /** Path of the artifact file for @p key. */
    std::string pathFor(const std::string &key) const;

    const std::string &directory() const { return root; }

    /** @name Counters (process lifetime) @{ */
    std::uint64_t hits() const { return hitCount.load(); }
    std::uint64_t misses() const { return missCount.load(); }
    std::uint64_t rejected() const { return rejectCount.load(); }
    /** @} */

  private:
    std::string root;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
    std::atomic<std::uint64_t> rejectCount{0};
};

/**
 * A TraceCache's hooks over @p store: the cache packs a stored trace
 * from its openSource() and stores the traces it generates, and a
 * streamed source reads the chunked artifact incrementally, with
 * defaultStreamReadAhead records of buffer per processor, after
 * generating a missing one straight to disk.  The store must outlive
 * every cache built with the hooks.
 */
TraceCacheHooks traceStoreHooks(TraceStore &store);

} // namespace oscache

#endif // OSCACHE_EXP_ARTIFACT_CACHE_HH
