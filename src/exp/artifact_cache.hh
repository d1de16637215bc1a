/**
 * @file
 * Persistent on-disk artifact cache for generated traces.
 *
 * Trace generation dominates a cold experiment sweep, and the same
 * trace is an input to many cells (every system with the same
 * coherence options on the same workload replays it).  The store
 * maps a content key, traceKey() — a hash of every generation input:
 * the full workload profile, the coherence options, the cpu count,
 * and the binary trace-format version — to a file in the chunked
 * binary format (trace/io v4), whose records are the trace cache's
 * own PackedTrace blocks at two to three bytes a record.  store()
 * writes a cached trace's blocks as they are, storeStreaming() packs
 * a generation straight to disk, and load() and openSource() read
 * either.  A warm directory turns a sweep's generation phase into
 * pure reloads; the acceptance bar is a rerun with zero
 * regenerations.  Files of an older format version sit under other
 * keys and are never opened.
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
#include <functional>
#include <memory>
#include <optional>
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
     * Store @p trace under @p key in the chunked format, its blocks
     * unchanged (atomic rename into place).
     */
    void store(const std::string &key, const PackedTrace &trace);

    /**
     * The trace stored under @p key, its blocks as the file holds
     * them, or nullopt if absent or corrupt (corrupt files are
     * removed so the regenerated artifact can take their place).
     */
    std::optional<PackedTrace> load(const std::string &key);

    /**
     * Open a streaming cursor source over the artifact stored under
     * @p key, or nullptr if absent or corrupt, as load() does.  It
     * reads the file incrementally, one block per processor at a time.
     */
    std::unique_ptr<TraceSource> openSource(const std::string &key);

    /**
     * Generate the trace for (@p profile, @p options, @p num_cpus)
     * and stream it straight to disk under @p key in the chunked
     * format — each quantum's completed blocks per processor as one
     * chunk — without ever materializing the whole trace.  Atomic
     * rename into place, like store().
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
    /**
     * Read @p key's artifact through @p open (false: rejected, and
     * why), counting a hit or a miss; a rejected file is deleted.
     */
    void fetch(const std::string &key,
               const std::function<bool(const std::string &path,
                                        std::string &why)> &open);

    std::string root;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
    std::atomic<std::uint64_t> rejectCount{0};
};

/**
 * A TraceCache's hooks over @p store: the cache takes a stored trace
 * from its load() and stores the traces it generates, and a
 * streamed source reads the chunked artifact incrementally, one
 * block per processor at a time, after generating a missing one
 * straight to disk.  The store must outlive every cache built with
 * the hooks.
 */
TraceCacheHooks traceStoreHooks(TraceStore &store);

} // namespace oscache

#endif // OSCACHE_EXP_ARTIFACT_CACHE_HH
