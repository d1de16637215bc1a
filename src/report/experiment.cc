#include "report/experiment.hh"

#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/hash.hh"
#include "sample/run.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"

namespace oscache
{

namespace
{

using TracePtr = std::shared_ptr<const Trace>;

/** Approximate in-memory footprint of a materialized trace. */
std::size_t
traceBytes(const Trace &trace)
{
    return trace.totalRecords() * sizeof(TraceRecord) +
           trace.blockOps().size() * sizeof(BlockOp) +
           trace.updatePages().size() * sizeof(Addr);
}

/** Content-hash key for (workload, coherence options, cpu count). */
std::string
traceKey(WorkloadKind workload, const CoherenceOptions &options,
         unsigned num_cpus)
{
    ContentHash h;
    mixProfile(h, WorkloadProfile::forKind(workload));
    mixCoherence(h, options);
    // The historical keys were implicitly 4-cpu; keep them stable.
    if (num_cpus != 4)
        h.mix(num_cpus);
    return h.hex();
}

/**
 * All mutable cache state behind one mutex.  Each entry is a shared
 * future acting as the per-key generation latch: the first requester
 * inserts the future and generates outside the lock; concurrent
 * requesters for the same key block on the future instead of
 * regenerating.  Entries hold shared_ptrs, so evicting or clearing
 * only detaches them from the map — threads still running on a
 * trace keep it alive.  Completed entries carry their footprint and
 * a last-use stamp for the LRU size cap.
 */
struct Entry
{
    std::shared_future<TracePtr> future;
    std::uint64_t lastUse = 0;
    std::size_t bytes = 0;
    bool ready = false;
};

struct CacheState
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<Entry>> entries;
    std::uint64_t useClock = 0;
    std::size_t totalBytes = 0;
    std::size_t capacityBytes = defaultTraceCacheBytes;
    TraceCacheStats stats;
    TraceLoadHook load;
    TraceStoreHook store;

    TraceSourceMode sourceMode = TraceSourceMode::Materialized;
    TraceSourceHook sourceHook;
};

CacheState &
cacheState()
{
    static CacheState state;
    return state;
}

/**
 * Drop least-recently-used completed entries until the total fits
 * the cap again.  @p keep (the entry just inserted or hit) is never
 * the victim, so a single oversized trace still serves its
 * requesters.  Evicted entries are appended to @p out for
 * destruction outside the lock.
 */
void
evictLocked(CacheState &state, const std::shared_ptr<Entry> &keep,
            std::vector<std::shared_ptr<Entry>> &out)
{
    while (state.capacityBytes != 0 &&
           state.totalBytes > state.capacityBytes) {
        auto victim = state.entries.end();
        for (auto it = state.entries.begin(); it != state.entries.end();
             ++it) {
            if (!it->second->ready || it->second == keep)
                continue;
            if (victim == state.entries.end() ||
                it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == state.entries.end())
            break;
        state.totalBytes -= victim->second->bytes;
        ++state.stats.evictions;
        out.push_back(std::move(victim->second));
        state.entries.erase(victim);
    }
}

TracePtr
cachedTrace(WorkloadKind workload, const CoherenceOptions &options,
            unsigned num_cpus)
{
    const std::string key = traceKey(workload, options, num_cpus);
    CacheState &state = cacheState();

    std::promise<TracePtr> promise;
    std::shared_ptr<Entry> entry;
    bool creator = false;
    TraceLoadHook load;
    TraceStoreHook store;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        const auto it = state.entries.find(key);
        if (it != state.entries.end()) {
            ++state.stats.memoryHits;
            entry = it->second;
            entry->lastUse = ++state.useClock;
        } else {
            creator = true;
            entry = std::make_shared<Entry>();
            entry->future = promise.get_future().share();
            entry->lastUse = ++state.useClock;
            state.entries.emplace(key, entry);
            load = state.load;
            store = state.store;
        }
    }

    if (creator) {
        try {
            std::optional<Trace> loaded;
            if (load)
                loaded = load(workload, options, num_cpus);
            const bool fresh = !loaded.has_value();
            TracePtr ptr = std::make_shared<const Trace>(
                fresh ? generateTrace(workload, options, num_cpus)
                      : std::move(*loaded));
            std::vector<std::shared_ptr<Entry>> evicted;
            {
                std::lock_guard<std::mutex> lock(state.mutex);
                ++(fresh ? state.stats.generated
                         : state.stats.persistentHits);
                entry->bytes = traceBytes(*ptr);
                entry->ready = true;
                // The entry may have been detached by a concurrent
                // clearTraceCache(); only account for it if present.
                const auto it = state.entries.find(key);
                if (it != state.entries.end() && it->second == entry) {
                    state.totalBytes += entry->bytes;
                    evictLocked(state, entry, evicted);
                }
            }
            if (fresh && store)
                store(workload, options, num_cpus, *ptr);
            promise.set_value(std::move(ptr));
        } catch (...) {
            // Drop the failed latch (if a clear hasn't already) so a
            // later request retries instead of inheriting the error
            // forever; everyone already waiting sees the exception.
            {
                std::lock_guard<std::mutex> lock(state.mutex);
                const auto it = state.entries.find(key);
                if (it != state.entries.end() && it->second == entry)
                    state.entries.erase(it);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return entry->future.get();
}

} // namespace

std::shared_ptr<const Trace>
cachedWorkloadTrace(WorkloadKind workload, const CoherenceOptions &options,
                    unsigned num_cpus)
{
    return cachedTrace(workload, options, num_cpus);
}

RunResult
runWorkload(WorkloadKind workload, const SystemSetup &setup,
            const MachineConfig &machine)
{
    const WorkloadProfile profile = WorkloadProfile::forKind(workload);

    TraceSourceMode mode;
    TraceSourceHook hook;
    {
        CacheState &state = cacheState();
        std::lock_guard<std::mutex> lock(state.mutex);
        mode = state.sourceMode;
        hook = state.sourceHook;
    }

    // Sampled mode: replay under the process-wide sampling plan.
    // Hot-spot-prefetch cells are exempt — their profile pass needs
    // complete per-block miss counts, which sampling decimates.
    const std::optional<sample::SamplingPlan> &plan =
        sample::globalSamplingPlan();
    const bool sampled = plan.has_value() && !setup.hotspotPrefetch;

    const TracePtr trace = mode == TraceSourceMode::Materialized
        ? cachedWorkloadTrace(workload, setup.coherence, machine.numCpus)
        : nullptr;
    const auto open = [&]() -> std::unique_ptr<TraceSource> {
        if (trace)
            return std::make_unique<MaterializedTraceSource>(*trace);
        if (hook) {
            if (auto source = hook(workload, setup.coherence,
                                   machine.numCpus))
                return source;
        }
        return std::make_unique<SynthTraceSource>(profile, setup.coherence,
                                                  machine.numCpus);
    };
    if (!sampled)
        return runOnSource(open, machine, profile.simOptions(), setup);

    sample::SampleRunOptions sample_options;
    sample_options.plan = *plan;
    sample::SampleRunOutcome outcome = sample::runSampled(
        open, machine, profile.simOptions(), setup.blockScheme,
        sample_options);
    if (!outcome.ok)
        fatal("sampled run failed: ", outcome.error);
    return std::move(outcome.result);
}

RunResult
runWorkload(WorkloadKind workload, SystemKind kind,
            const MachineConfig &machine)
{
    return runWorkload(workload, SystemSetup::forKind(kind), machine);
}

void
clearTraceCache()
{
    CacheState &state = cacheState();
    std::map<std::string, std::shared_ptr<Entry>> detached;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        detached.swap(state.entries);
        state.totalBytes = 0;
    }
    // The detached entries (and any traces only they referenced) are
    // destroyed here, outside the lock.  In-flight generations hold
    // their own Entry reference and complete normally.
}

void
setTraceCacheCapacity(std::size_t bytes)
{
    CacheState &state = cacheState();
    std::vector<std::shared_ptr<Entry>> evicted;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.capacityBytes = bytes;
        evictLocked(state, nullptr, evicted);
    }
}

std::size_t
traceCacheCapacity()
{
    CacheState &state = cacheState();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.capacityBytes;
}

TraceCacheStats
traceCacheStats()
{
    CacheState &state = cacheState();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.stats;
}

void
resetTraceCacheStats()
{
    CacheState &state = cacheState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.stats = TraceCacheStats{};
}

void
setTraceCacheHooks(TraceLoadHook load, TraceStoreHook store)
{
    CacheState &state = cacheState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.load = std::move(load);
    state.store = std::move(store);
}

void
setTraceSourceMode(TraceSourceMode mode)
{
    CacheState &state = cacheState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.sourceMode = mode;
}

void
setTraceSourceHook(TraceSourceHook hook)
{
    CacheState &state = cacheState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.sourceHook = std::move(hook);
}

} // namespace oscache
