#include "serve/worker.hh"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/ipc.hh"
#include "common/log.hh"
#include "exp/artifact_cache.hh"
#include "sample/plan.hh"
#include "serve/cellrun.hh"
#include "serve/claims.hh"

namespace oscache::serve
{

namespace
{

std::uint64_t
nowMs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Guards every sendFrame: heartbeats interleave with results. */
struct SharedConn
{
    Conn conn;
    std::mutex mutex;

    bool
    send(const Json &message)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return conn.sendJson(message);
    }
};

/** The context one assignment's cell runs under. */
RunContext
assignmentContext(const WorkerOptions &options, TraceStore &store,
                  const std::string &plan)
{
    RunContext ctx;
    ctx.stream = options.stream;
    if (options.stream)
        ctx.openStreamed = streamFromStore(store);
    if (!plan.empty())
        ctx.samplePlan = sample::SamplingPlan::parse(plan);
    return ctx;
}

/** Execute one assignment under the claim discipline. */
Json
processAssignment(const Json &assign, const WorkerOptions &options,
                  TraceStore &store, ClaimStore &claims,
                  ResultCache &results)
{
    const std::string key = assign.get("key").asString();
    const std::string experiment = assign.get("experiment").asString();
    const std::string cell = assign.get("cell").asString();
    const std::string plan = assign.get("sample").asString();

    Json reply = Json::object();
    reply.set("type", "result");
    reply.set("key", key);

    const auto ref = findCell(experiment, cell);
    if (!ref.has_value()) {
        reply.set("ok", false);
        reply.set("error",
                  "unknown cell " + experiment + ":" + cell);
        return reply;
    }

    // 1. Served from the shared result cache: no simulation.
    if (const auto cached = results.load(key)) {
        reply.set("ok", true);
        reply.set("row", cached->row);
        reply.set("cached", true);
        return reply;
    }

    const std::uint64_t wait_deadline = nowMs() + options.claimWaitMs;
    std::uint64_t next_stale_check = 0;
    while (true) {
        // 2. Claim won: we compute.
        if (claims.tryClaim(key, options.name)) {
            std::string fragment;
            try {
                fragment = runCellCanonical(
                    *ref, assignmentContext(options, store, plan));
            } catch (const std::exception &e) {
                claims.release(key);
                reply.set("ok", false);
                reply.set("error", e.what());
                return reply;
            }
            results.store(key, fragment);
            claims.release(key);
            reply.set("ok", true);
            reply.set("row", fragment);
            reply.set("cached", false);
            return reply;
        }
        // 3. Claim lost: a peer is computing.  Wait for its result,
        // breaking the claim if the peer is dead.
        if (const auto cached = results.load(key)) {
            reply.set("ok", true);
            reply.set("row", cached->row);
            reply.set("cached", true);
            return reply;
        }
        const std::uint64_t now = nowMs();
        if (now >= wait_deadline) {
            reply.set("ok", false);
            reply.set("error", "timed out waiting on foreign claim");
            return reply;
        }
        if (now >= next_stale_check) {
            next_stale_check = now + 1000;
            if (claims.breakIfStale(key))
                continue; // dead owner: claim freed, try again now
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

} // namespace

int
runWorker(const WorkerOptions &options)
{
    ::signal(SIGPIPE, SIG_IGN);

    TraceStore store(options.storeDir);
    ClaimStore claims(options.storeDir + "/claims");
    ResultCache results(options.storeDir + "/results");

    // The shared on-disk artifact cache sits under the in-memory
    // trace cache, as in the in-process driver.
    installTraceStore(&store);

    SharedConn shared;
    std::string error;
    shared.conn = Conn::connectTo(options.socketPath, &error);
    if (!shared.conn.valid()) {
        warn("worker: cannot connect to '", options.socketPath, "': ",
             error);
        return 1;
    }

    Json hello = Json::object();
    hello.set("type", "hello");
    hello.set("role", "worker");
    hello.set("token", options.token);
    hello.set("pid", std::int64_t(::getpid()));
    hello.set("name", options.name);
    if (!shared.send(hello))
        return 1;

    // Heartbeats from a separate thread: they keep flowing while the
    // main thread simulates, so the coordinator can distinguish
    // "busy" from "stopped/wedged" (a stopped process stops beating).
    std::atomic<bool> stop{false};
    std::thread heartbeat([&shared, &stop, &options] {
        Json beat = Json::object();
        beat.set("type", "heartbeat");
        while (!stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options.heartbeatMs));
            if (stop.load())
                break;
            if (!shared.send(beat))
                break; // daemon gone; main loop will notice too
        }
    });

    int exit_code = 0;
    while (true) {
        Json message;
        bool parse_ok = false;
        const FrameResult r =
            shared.conn.recvJson(message, parse_ok);
        if (r != FrameResult::Ok) {
            // Daemon went away (shutdown or crash): quiet exit.
            exit_code = r == FrameResult::Closed ? 0 : 1;
            break;
        }
        if (!parse_ok)
            continue; // daemon never sends malformed frames
        const std::string &type = message.get("type").asString();
        if (type == "shutdown")
            break;
        if (type == "assign") {
            Json reply = processAssignment(message, options, store, claims,
                                           results);
            if (!shared.send(reply)) {
                exit_code = 1;
                break;
            }
        }
    }

    stop.store(true);
    heartbeat.join();
    return exit_code;
}

} // namespace oscache::serve
