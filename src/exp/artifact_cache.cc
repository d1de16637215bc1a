#include "exp/artifact_cache.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "exp/hash.hh"
#include "report/experiment.hh"
#include "synth/generator.hh"
#include "trace/io.hh"

namespace oscache
{

namespace fs = std::filesystem;

namespace
{

/**
 * Unique temp name next to @p path.  Thread ids alone are NOT unique
 * across processes (two oscache-bench runs sharing one --cache-dir
 * routinely get identical pthread handles), so a colliding temp name
 * would let two writers interleave into one file and rename garbage
 * into place.
 * pid + thread id + a process-local sequence number is collision-free
 * across everything that can race on one store directory.
 */
std::string
tempNameFor(const std::string &path)
{
    static std::atomic<std::uint64_t> sequence{0};
    std::ostringstream name;
    name << path << ".tmp." << ::getpid() << "."
         << std::this_thread::get_id() << "."
         << sequence.fetch_add(1);
    return name.str();
}

/**
 * Write an artifact through @p write to a unique temp name next to
 * @p path, then rename it into place.  The rename is atomic within
 * the directory, so concurrent stores of the same key, even from
 * other processes, never expose a half-written file.
 */
void
writeArtifact(const std::string &path,
              const std::function<void(std::ostream &)> &write)
{
    const std::string tmp = tempNameFor(path);
    {
        std::ofstream os(tmp, std::ios::out | std::ios::binary |
                                  std::ios::trunc);
        if (!os) {
            warn("artifact cache: cannot write '", tmp, "'");
            return;
        }
        write(os);
        if (!os) {
            warn("artifact cache: error writing '", tmp, "'");
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("artifact cache: cannot rename '", tmp, "': ", ec.message());
        fs::remove(tmp, ec);
    }
}

} // namespace

TraceStore::TraceStore(std::string directory) : root(std::move(directory))
{
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec)
        fatal("artifact cache: cannot create '", root, "': ",
              ec.message());
}

std::string
TraceStore::pathFor(const std::string &key) const
{
    return root + "/trace_" + key + ".otb";
}

void
TraceStore::fetch(const std::string &key,
                  const std::function<bool(const std::string &path,
                                           std::string &why)> &open)
{
    const std::string path = pathFor(key);
    std::error_code ec;
    std::string why;
    if (!fs::exists(path, ec)) {
        missCount.fetch_add(1);
    } else if (open(path, why)) {
        hitCount.fetch_add(1);
    } else {
        warn("artifact cache: rejecting corrupt '", path, "' (", why,
             "); will regenerate");
        fs::remove(path, ec);
        rejectCount.fetch_add(1);
        missCount.fetch_add(1);
    }
}

std::optional<PackedTrace>
TraceStore::load(const std::string &key)
{
    std::optional<PackedTrace> trace;
    fetch(key, [&trace](const std::string &path, std::string &why) {
        return (trace = readPackedTrace(path, &why)).has_value();
    });
    return trace;
}

std::unique_ptr<TraceSource>
TraceStore::openSource(const std::string &key)
{
    std::unique_ptr<TraceSource> source;
    fetch(key, [&source](const std::string &path, std::string &why) {
        return (source = FileTraceSource::tryOpen(path, &why)) != nullptr;
    });
    return source;
}

void
TraceStore::storeStreaming(const std::string &key,
                           const WorkloadProfile &profile,
                           const CoherenceOptions &options,
                           unsigned num_cpus)
{
    writeArtifact(pathFor(key), [&](std::ostream &os) {
        TraceGenerator gen(profile, options, num_cpus);
        ChunkedTraceWriter writer(os, num_cpus, gen.updatePages());
        std::vector<RecordStream> chunk(num_cpus);
        std::vector<RecordStream *> sinks(num_cpus);
        for (unsigned c = 0; c < num_cpus; ++c)
            sinks[c] = &chunk[c];
        while (!gen.done()) {
            gen.nextQuantum(sinks);
            for (unsigned c = 0; c < num_cpus; ++c) {
                writer.writeChunk(c, chunk[c]);
                chunk[c].clear();
            }
        }
        writer.finish(gen.blockOps());
    });
}

void
TraceStore::store(const std::string &key, const PackedTrace &trace)
{
    writeArtifact(pathFor(key), [&trace](std::ostream &os) {
        writeTraceChunked(os, trace);
    });
}

TraceCacheHooks
traceStoreHooks(TraceStore &store)
{
    TraceCacheHooks hooks;
    hooks.load = [&store](const WorkloadProfile &p, const CoherenceOptions &o,
                          unsigned cpus) {
        return store.load(traceKey(p, o, cpus));
    };
    hooks.store = [&store](const WorkloadProfile &p,
                           const CoherenceOptions &o, unsigned cpus,
                           const PackedTrace &t) {
        store.store(traceKey(p, o, cpus), t);
    };
    hooks.open = [&store](const WorkloadProfile &p, const CoherenceOptions &o,
                          unsigned cpus) -> std::unique_ptr<TraceSource> {
        const std::string key = traceKey(p, o, cpus);
        if (auto source = store.openSource(key))
            return source;
        store.storeStreaming(key, p, o, cpus);
        return store.openSource(key);
    };
    return hooks;
}

} // namespace oscache
