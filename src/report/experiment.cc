#include "report/experiment.hh"

#include <algorithm>
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

using TracePtr = std::shared_ptr<const PackedTrace>;

/**
 * One cache entry.  Its shared future is the per-key generation
 * latch: the first requester inserts the future and generates
 * outside the lock; concurrent requesters for the same key block on
 * the future instead of regenerating.  Entries hold shared_ptrs, so
 * evicting or clearing only detaches them from the map — threads
 * still running on a trace keep it alive.  Completed entries carry
 * their footprint and a last-use stamp for the LRU size cap.
 */
struct Entry
{
    std::shared_future<TracePtr> future;
    std::uint64_t lastUse = 0;
    std::size_t bytes = 0;
    bool ready = false;
};

} // namespace

/** All mutable cache state, behind one mutex. */
struct TraceCache::State
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<Entry>> entries;
    std::uint64_t useClock = 0;
    std::size_t totalBytes = 0;
    std::size_t peakBytes = 0;
    std::size_t capacityBytes = defaultTraceCacheBytes;
    TraceCacheStats stats;
    TraceCacheHooks hooks;

    /**
     * Drop least-recently-used completed entries until the total
     * fits the cap again.  @p keep (the entry just inserted or hit)
     * is never the victim, so a single oversized trace still serves
     * its requesters.  Evicted entries are appended to @p out for
     * destruction outside the lock.
     */
    void
    evictLocked(const std::shared_ptr<Entry> &keep,
                std::vector<std::shared_ptr<Entry>> &out)
    {
        while (capacityBytes != 0 && totalBytes > capacityBytes) {
            auto victim = entries.end();
            for (auto it = entries.begin(); it != entries.end(); ++it) {
                if (!it->second->ready || it->second == keep)
                    continue;
                if (victim == entries.end() ||
                    it->second->lastUse < victim->second->lastUse)
                    victim = it;
            }
            if (victim == entries.end())
                break;
            totalBytes -= victim->second->bytes;
            ++stats.evictions;
            out.push_back(std::move(victim->second));
            entries.erase(victim);
        }
    }
};

TraceCache::TraceCache(TraceCacheHooks hooks, std::size_t capacity_bytes)
    : state(std::make_unique<State>())
{
    state->capacityBytes = capacity_bytes;
    state->hooks = std::move(hooks);
}

TraceCache::~TraceCache() = default;

TracePtr
TraceCache::trace(const WorkloadProfile &profile,
                  const CoherenceOptions &options, unsigned num_cpus)
{
    const std::string key = traceKey(profile, options, num_cpus);
    State &s = *state;

    std::promise<TracePtr> promise;
    std::shared_ptr<Entry> entry;
    bool creator = false;
    TraceCacheHooks hooks;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        const auto it = s.entries.find(key);
        if (it != s.entries.end()) {
            ++s.stats.memoryHits;
            entry = it->second;
            entry->lastUse = ++s.useClock;
        } else {
            creator = true;
            entry = std::make_shared<Entry>();
            entry->future = promise.get_future().share();
            entry->lastUse = ++s.useClock;
            s.entries.emplace(key, entry);
            hooks = s.hooks;
        }
    }

    if (creator) {
        try {
            std::optional<PackedTrace> stored;
            if (hooks.load)
                stored = hooks.load(profile, options, num_cpus);
            const bool fresh = !stored;
            TracePtr ptr = std::make_shared<const PackedTrace>(
                fresh ? generatePacked(profile, options, num_cpus)
                      : std::move(*stored));
            std::vector<std::shared_ptr<Entry>> evicted;
            {
                std::lock_guard<std::mutex> lock(s.mutex);
                ++(fresh ? s.stats.generated : s.stats.persistentHits);
                entry->bytes = ptr->bytes();
                entry->ready = true;
                // The entry may have been detached by a concurrent
                // clear(); only account for it if present.
                const auto it = s.entries.find(key);
                if (it != s.entries.end() && it->second == entry) {
                    s.totalBytes += entry->bytes;
                    s.evictLocked(entry, evicted);
                    s.peakBytes = std::max(s.peakBytes, s.totalBytes);
                }
            }
            if (fresh && hooks.store)
                hooks.store(profile, options, num_cpus, *ptr);
            promise.set_value(std::move(ptr));
        } catch (...) {
            // Drop the failed latch (if a clear hasn't already) so a
            // later request retries instead of inheriting the error
            // forever; everyone already waiting sees the exception.
            {
                std::lock_guard<std::mutex> lock(s.mutex);
                const auto it = s.entries.find(key);
                if (it != s.entries.end() && it->second == entry)
                    s.entries.erase(it);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return entry->future.get();
}

std::unique_ptr<TraceSource>
TraceCache::stream(const WorkloadProfile &profile,
                   const CoherenceOptions &options, unsigned num_cpus)
{
    decltype(TraceCacheHooks::open) open;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        open = state->hooks.open;
    }
    std::unique_ptr<TraceSource> source;
    if (open)
        source = open(profile, options, num_cpus);
    const bool stored = source != nullptr;
    if (!stored)
        source =
            std::make_unique<SynthTraceSource>(profile, options, num_cpus);
    std::lock_guard<std::mutex> lock(state->mutex);
    ++(stored ? state->stats.streamedStored
              : state->stats.streamedSynthesized);
    return source;
}

void
TraceCache::clear()
{
    std::map<std::string, std::shared_ptr<Entry>> detached;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        detached.swap(state->entries);
        state->totalBytes = 0;
    }
    // The detached entries (and any traces only they referenced) are
    // destroyed here, outside the lock.  In-flight generations hold
    // their own Entry reference and complete normally.
}

TraceCacheStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(state->mutex);
    return state->stats;
}

std::size_t
TraceCache::heldBytes() const
{
    std::lock_guard<std::mutex> lock(state->mutex);
    return state->totalBytes;
}

std::size_t
TraceCache::peakBytes() const
{
    std::lock_guard<std::mutex> lock(state->mutex);
    return state->peakBytes;
}

TraceCache &
defaultTraceCache()
{
    static TraceCache cache;
    return cache;
}

SimOptions
RunContext::simOptions(const WorkloadProfile &profile) const
{
    SimOptions options = profile.simOptions();
    options.obs = obs;
    return options;
}

TraceSourceFactory
RunContext::open(const WorkloadProfile &profile,
                 const CoherenceOptions &coherence, unsigned num_cpus) const
{
    TraceCache &cache = traces != nullptr ? *traces : defaultTraceCache();
    if (!stream)
        return [trace = cache.trace(profile, coherence, num_cpus)] {
            return std::make_unique<PackedTraceSource>(trace);
        };
    return [&cache, profile, coherence, num_cpus] {
        return cache.stream(profile, coherence, num_cpus);
    };
}

RunResult
runWorkload(WorkloadKind workload, const SystemSetup &setup,
            const MachineConfig &machine, const RunContext &ctx)
{
    return runWorkload(ctx.open(WorkloadProfile::forKind(workload),
                                setup.coherence, machine.numCpus),
                       workload, setup, machine, ctx);
}

RunResult
runWorkload(const TraceSourceFactory &open, WorkloadKind workload,
            const SystemSetup &setup, const MachineConfig &machine,
            const RunContext &ctx)
{
    const SimOptions options =
        ctx.simOptions(WorkloadProfile::forKind(workload));
    // Hot-spot-prefetch systems replay in full (RunContext::samplePlan).
    if (!ctx.samplePlan.has_value() || setup.hotspotPrefetch)
        return runOnSource(open, machine, options, setup);

    sample::SampleRunOptions sample_options;
    sample_options.plan = *ctx.samplePlan;
    sample::SampleRunOutcome outcome = sample::runSampled(
        open, machine, options, setup.blockScheme, sample_options);
    if (!outcome.ok)
        fatal("sampled run failed: ", outcome.error);
    return std::move(outcome.result);
}

RunResult
runWorkload(WorkloadKind workload, SystemKind kind,
            const MachineConfig &machine, const RunContext &ctx)
{
    return runWorkload(workload, SystemSetup::forKind(kind), machine, ctx);
}

std::shared_ptr<const Trace>
cachedWorkloadTrace(WorkloadKind workload, const CoherenceOptions &options,
                    unsigned num_cpus)
{
    return std::make_shared<const Trace>(
        defaultTraceCache()
            .trace(WorkloadProfile::forKind(workload), options, num_cpus)
            ->unpack());
}

void
clearTraceCache()
{
    defaultTraceCache().clear();
}

void
setTraceCacheHooks(TraceLoadHook load, TraceStoreHook store)
{
    TraceCacheHooks hooks;
    if (load)
        hooks.load = [load = std::move(load)](
                         const WorkloadProfile &p, const CoherenceOptions &o,
                         unsigned cpus) -> std::optional<PackedTrace> {
            if (const std::optional<Trace> trace = load(p.kind, o, cpus))
                return PackedTrace::pack(*trace);
            return std::nullopt;
        };
    if (store)
        hooks.store = [store = std::move(store)](const WorkloadProfile &p,
                                                 const CoherenceOptions &o,
                                                 unsigned cpus,
                                                 const PackedTrace &t) {
            store(p.kind, o, cpus, t);
        };
    TraceCache::State &s = *defaultTraceCache().state;
    std::lock_guard<std::mutex> lock(s.mutex);
    s.hooks = std::move(hooks);
}

} // namespace oscache
