#include "serve/daemon.hh"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "sample/plan.hh"
#include "serve/cellrun.hh"

namespace oscache::serve
{

namespace
{

volatile std::sig_atomic_t g_stop = 0;
/** Set by maybeFinishDrain(); tells run()'s loop to exit cleanly. */
bool g_finished = false;
/** Worker names stay unique across a daemon's whole lifetime. */
std::uint64_t g_workerSeq = 0;

void
onStopSignal(int)
{
    g_stop = 1;
}

std::uint64_t
nowMs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
makeToken()
{
    std::random_device rd;
    std::ostringstream os;
    os << std::hex << rd() << rd() << "." << ::getpid();
    return os.str();
}

} // namespace

Daemon::Daemon(DaemonOptions options)
    : opts(std::move(options)),
      spawnToken(makeToken()),
      scheduler(SchedulerConfig{opts.maxAttempts, opts.backoffMs,
                                opts.backoffCapMs, opts.maxQueuedCells}),
      claims(opts.storeDir + "/claims"),
      respawnsLeft(opts.respawnBudget)
{}

Daemon::~Daemon()
{
    // Don't leave orphaned workers behind whatever exit path we took.
    for (const SpawnedWorker &child : children)
        ::kill(pid_t(child.pid), SIGKILL);
    for (const SpawnedWorker &child : children)
        ::waitpid(pid_t(child.pid), nullptr, 0);
}

void
Daemon::requestStop()
{
    g_stop = 1;
}

bool
Daemon::spawnWorker()
{
    const std::string name = "worker-" + std::to_string(++g_workerSeq);
    const std::string exe =
        opts.workerExec.empty() ? "/proc/self/exe" : opts.workerExec;

    const pid_t pid = ::fork();
    if (pid < 0) {
        warn("served: fork failed for ", name);
        return false;
    }
    if (pid == 0) {
        std::vector<std::string> args = {
            exe,           "--worker", "--socket", opts.socketPath,
            "--token",     spawnToken, "--store",  opts.storeDir,
            "--name",      name,
        };
        if (opts.stream)
            args.push_back("--stream");
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(exe.c_str(), argv.data());
        ::_exit(127);
    }

    children.push_back(SpawnedWorker{long(pid), name});
    if (!opts.quiet)
        std::fprintf(stderr, "served: spawned %s (pid %ld)\n",
                     name.c_str(), long(pid));
    return true;
}

void
Daemon::declareWorkerGone(int peer_id, const char *why)
{
    const auto it = peers.find(peer_id);
    if (it == peers.end() || it->second.kind != Peer::Kind::Worker)
        return;
    Peer &peer = it->second;
    if (!opts.quiet)
        std::fprintf(stderr, "served: %s gone (%s)\n",
                     peer.workerName.c_str(), why);
    // The dead worker may still hold a claim on its assigned cell;
    // break it now so the retry does not wait out a foreign-claim
    // poll loop.
    if (!peer.assignedKey.empty())
        claims.breakIfStale(peer.assignedKey);
    const std::string worker = peer.workerName;
    dropPeer(peer_id);
    applyEffects(scheduler.onWorkerGone(worker, nowMs()));
}

void
Daemon::reapChildren()
{
    while (true) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            break;
        children.erase(
            std::remove_if(children.begin(), children.end(),
                           [pid](const SpawnedWorker &c) {
                               return c.pid == long(pid);
                           }),
            children.end());
        // If the worker's connection is still open we will also see
        // EOF, but reap first so a SIGKILL'd worker's cells re-queue
        // without waiting for the socket to drain.
        int gone = -1;
        for (const auto &[id, peer] : peers)
            if (peer.kind == Peer::Kind::Worker && peer.pid == long(pid))
                gone = id;
        if (gone >= 0)
            declareWorkerGone(gone, "process exited");
    }

    // Respawn up to the target fleet size, within the crash-loop
    // budget.  Initial spawns in run() are free; only replacements
    // consume the budget.
    while (children.size() < opts.workers && !draining) {
        if (respawnsLeft == 0) {
            static bool warned = false;
            if (!warned) {
                warned = true;
                warn("served: respawn budget exhausted; fleet stays "
                     "at ", children.size(), " worker(s)");
            }
            break;
        }
        --respawnsLeft;
        if (!spawnWorker())
            break;
        ++workersRespawned;
    }
}

void
Daemon::checkDeadlines(std::uint64_t now_ms)
{
    std::vector<std::pair<int, const char *>> victims;
    for (const auto &[id, peer] : peers) {
        if (peer.kind == Peer::Kind::Worker) {
            if (now_ms - peer.lastHeartbeatMs > opts.heartbeatTimeoutMs)
                victims.push_back({id, "heartbeat lost"});
            else if (peer.busy && now_ms > peer.assignmentDeadlineMs)
                victims.push_back({id, "cell deadline overrun"});
        } else if (peer.kind == Peer::Kind::Unknown) {
            // A connection that never says anything is not a worker
            // joining; just shed it.
            if (now_ms - peer.lastHeartbeatMs > opts.heartbeatTimeoutMs)
                victims.push_back({id, "never identified"});
        }
    }
    for (const auto &[id, why] : victims) {
        const auto it = peers.find(id);
        if (it == peers.end())
            continue;
        if (it->second.kind == Peer::Kind::Worker) {
            // Wedged (SIGSTOP'd, D-state, runaway): make the death
            // real before re-queueing its cell.
            ::kill(pid_t(it->second.pid), SIGKILL);
            declareWorkerGone(id, why);
        } else {
            dropPeer(id);
        }
    }
}

void
Daemon::dispatch(std::uint64_t now_ms)
{
    std::vector<int> idle;
    for (const auto &[id, peer] : peers)
        if (peer.kind == Peer::Kind::Worker && !peer.busy)
            idle.push_back(id);

    for (const int id : idle) {
        const auto it = peers.find(id);
        if (it == peers.end())
            continue;
        Peer &peer = it->second;
        const auto assignment =
            scheduler.assignNext(peer.workerName, now_ms);
        if (!assignment.has_value())
            break; // nothing ready (empty queue or all backing off)
        Json frame = Json::object();
        frame.set("type", "assign");
        frame.set("key", assignment->key);
        frame.set("experiment", assignment->experiment);
        frame.set("cell", assignment->cell);
        frame.set("sample", assignment->samplePlan);
        frame.set("attempt", std::int64_t(assignment->attempt));
        ++framesOut;
        if (!peer.conn.sendJson(frame)) {
            declareWorkerGone(id, "send failed");
            continue;
        }
        peer.busy = true;
        peer.assignedKey = assignment->key;
        peer.assignmentDeadlineMs = now_ms + opts.cellTimeoutMs;
    }
}

void
Daemon::applyEffects(const SchedulerEffects &effects)
{
    std::vector<int> dead;
    const auto sendTo = [this, &dead](std::uint64_t job,
                                      const Json &frame) {
        const auto jc = jobClients.find(job);
        if (jc == jobClients.end())
            return; // client disconnected mid-stream: job ran anyway
        const auto it = peers.find(jc->second);
        if (it == peers.end())
            return;
        ++framesOut;
        if (!it->second.conn.sendJson(frame))
            dead.push_back(jc->second);
    };

    for (const Emission &emission : effects.emissions) {
        Json frame = Json::object();
        if (emission.failed) {
            frame.set("type", "cell-error");
            frame.set("job", std::int64_t(emission.job));
            frame.set("experiment", emission.experiment);
            frame.set("cell", emission.cell);
            frame.set("error", emission.error);
        } else {
            // Compose the full canonical row: this subscriber's
            // identity prefix + the shared outcome fragment.  This
            // is how one simulated cell serves every sharedKey alias
            // with per-alias identity intact.
            const auto ref =
                findCell(emission.experiment, emission.cell);
            std::string row;
            if (ref.has_value())
                row = identityJsonFor(*ref) + emission.fragment;
            frame.set("type", "cell");
            frame.set("job", std::int64_t(emission.job));
            frame.set("experiment", emission.experiment);
            frame.set("cell", emission.cell);
            frame.set("row", row);
            frame.set("cached", emission.cached);
            frame.set("shared", emission.shared);
            if (emission.shared)
                ++cellsShared;
        }
        sendTo(emission.job, frame);
    }

    for (const JobSummary &summary : effects.completedJobs) {
        Json frame = Json::object();
        frame.set("type", "done");
        frame.set("job", std::int64_t(summary.job));
        frame.set("cells", std::int64_t(summary.cells));
        frame.set("failed", std::int64_t(summary.failed));
        sendTo(summary.job, frame);
        jobClients.erase(summary.job);
        ++jobsCompleted;
    }

    // A quarantined key's claim may be an orphan of the crash that
    // quarantined it; clean up so an eventual manual re-run works.
    for (const std::string &key : effects.quarantined)
        claims.breakIfStale(key);

    for (const int id : dead)
        dropPeer(id);
    maybeFinishDrain();
}

void
Daemon::handleHello(int peer_id, const Json &message)
{
    const auto it = peers.find(peer_id);
    if (it == peers.end())
        return;
    Peer &peer = it->second;
    if (message.get("token").asString() != spawnToken) {
        sendError(peer_id, "bad worker token");
        dropPeer(peer_id);
        return;
    }
    peer.kind = Peer::Kind::Worker;
    peer.workerName = message.get("name").asString();
    peer.pid = long(message.get("pid").asInt());
    peer.lastHeartbeatMs = nowMs();
    if (!opts.quiet)
        std::fprintf(stderr, "served: %s connected\n",
                     peer.workerName.c_str());
    dispatch(nowMs());
}

void
Daemon::handleSubmit(int peer_id, const Json &message)
{
    if (draining) {
        sendRetryAfter(peer_id, "draining");
        return;
    }

    const std::string plan_text = message.get("sample").asString();
    if (!plan_text.empty()) {
        std::string plan_error;
        if (!sample::SamplingPlan::tryParse(plan_text, &plan_error)
                 .has_value()) {
            sendError(peer_id, "bad sampling plan: " + plan_error);
            return;
        }
    }
    const bool smoke = message.get("smoke").asBool();

    // Expand the request into concrete registry cells.
    std::vector<CellRef> refs;
    const Json &exp_names = message.get("experiments");
    if (exp_names.isArray()) {
        std::vector<std::string> names;
        for (std::size_t i = 0; i < exp_names.size(); ++i)
            names.push_back(exp_names.at(i).asString());
        std::string resolve_error;
        const auto experiments =
            tryResolveExperiments(names, resolve_error);
        if (!resolve_error.empty()) {
            sendError(peer_id, resolve_error);
            return;
        }
        for (const Experiment *experiment : experiments) {
            for (const CellSpec &spec : experiment->cells) {
                if (smoke && spec.id != experiment->smokeCell)
                    continue;
                refs.push_back(CellRef{experiment, &spec});
            }
        }
    }
    const Json &cell_list = message.get("cells");
    if (cell_list.isArray()) {
        for (std::size_t i = 0; i < cell_list.size(); ++i) {
            const Json &entry = cell_list.at(i);
            const std::string experiment =
                entry.get("experiment").asString();
            const std::string cell = entry.get("cell").asString();
            const auto ref = findCell(experiment, cell);
            if (!ref.has_value()) {
                sendError(peer_id, "unknown cell " + experiment + ":" +
                                       cell);
                return;
            }
            refs.push_back(*ref);
        }
    }
    if (refs.empty()) {
        sendError(peer_id, "no cells requested");
        return;
    }

    std::vector<CellRequest> cells;
    cells.reserve(refs.size());
    for (const CellRef &ref : refs) {
        CellRequest request;
        request.key = workKeyFor(ref, plan_text);
        request.experiment = ref.experiment->name;
        request.cell = ref.spec->id;
        request.samplePlan = plan_text;
        cells.push_back(std::move(request));
    }

    const std::uint64_t job = nextJobId++;
    SchedulerEffects effects;
    if (!scheduler.submit(job, cells, effects)) {
        ++backpressureRejects;
        sendRetryAfter(peer_id, "cell queue full");
        return;
    }
    ++jobsSubmitted;
    jobClients[job] = peer_id;

    Json accepted = Json::object();
    accepted.set("type", "accepted");
    accepted.set("job", std::int64_t(job));
    accepted.set("cells", std::int64_t(cells.size()));
    ++framesOut;
    const auto it = peers.find(peer_id);
    if (it != peers.end() && !it->second.conn.sendJson(accepted)) {
        dropPeer(peer_id);
        // The job still runs: its results warm the shared store.
    }
    applyEffects(effects); // may already carry cached/shared rows
    dispatch(nowMs());
}

void
Daemon::handleStatus(int peer_id)
{
    const auto it = peers.find(peer_id);
    if (it == peers.end())
        return;
    ++framesOut;
    if (!it->second.conn.sendJson(statusJson(nowMs())))
        dropPeer(peer_id);
}

void
Daemon::handleDrain(int peer_id)
{
    if (!draining && !opts.quiet)
        std::fprintf(stderr, "served: drain requested\n");
    draining = true;
    drainWaiters.push_back(peer_id);
    maybeFinishDrain();
}

void
Daemon::handleFrame(int peer_id, const Json &message)
{
    ++framesIn;
    const auto it = peers.find(peer_id);
    if (it == peers.end())
        return;
    Peer &peer = it->second;
    const std::string &type = message.get("type").asString();

    if (peer.kind == Peer::Kind::Unknown) {
        if (type == "hello" &&
            message.get("role").asString() == "worker") {
            handleHello(peer_id, message);
            return;
        }
        peer.kind = Peer::Kind::Client; // first frame classifies
    }

    if (peer.kind == Peer::Kind::Worker) {
        const std::uint64_t now = nowMs();
        peer.lastHeartbeatMs = now;
        if (type == "heartbeat")
            return;
        if (type == "result") {
            const std::string key = message.get("key").asString();
            const bool ok = message.get("ok").asBool();
            const bool cached = message.get("cached").asBool();
            peer.busy = false;
            peer.assignedKey.clear();
            if (ok) {
                ++peer.cellsDone;
                if (cached)
                    ++cellsFromCache;
                else
                    ++cellsSimulated;
            } else {
                ++peer.cellsFailed;
                ++cellsFailed;
            }
            applyEffects(scheduler.onResult(
                peer.workerName, key, ok,
                message.get("row").asString(), cached,
                message.get("error").asString(), now));
            dispatch(now);
            return;
        }
        return; // unknown worker frame: ignore
    }

    // Client frames.
    if (type == "submit")
        handleSubmit(peer_id, message);
    else if (type == "status")
        handleStatus(peer_id);
    else if (type == "drain")
        handleDrain(peer_id);
    else if (type == "ping") {
        Json pong = Json::object();
        pong.set("type", "pong");
        ++framesOut;
        if (!peer.conn.sendJson(pong))
            dropPeer(peer_id);
    } else {
        sendError(peer_id, "unknown request type '" + type + "'");
    }
}

void
Daemon::sendError(int peer_id, const std::string &message)
{
    const auto it = peers.find(peer_id);
    if (it == peers.end())
        return;
    Json frame = Json::object();
    frame.set("type", "error");
    frame.set("error", message);
    ++framesOut;
    if (!it->second.conn.sendJson(frame))
        dropPeer(peer_id);
}

void
Daemon::sendRetryAfter(int peer_id, const std::string &reason)
{
    const auto it = peers.find(peer_id);
    if (it == peers.end())
        return;
    Json frame = Json::object();
    frame.set("type", "retry-after");
    frame.set("seconds", std::int64_t(opts.retryAfterSeconds));
    frame.set("reason", reason);
    ++framesOut;
    if (!it->second.conn.sendJson(frame))
        dropPeer(peer_id);
}

void
Daemon::dropPeer(int peer_id)
{
    // Jobs whose client vanished keep running (their results warm
    // the shared store); they just lose their subscriber.
    for (auto it = jobClients.begin(); it != jobClients.end();)
        it = it->second == peer_id ? jobClients.erase(it)
                                   : std::next(it);
    drainWaiters.erase(
        std::remove(drainWaiters.begin(), drainWaiters.end(), peer_id),
        drainWaiters.end());
    peers.erase(peer_id);
}

void
Daemon::maybeFinishDrain()
{
    if (!draining || scheduler.activeJobs() != 0 ||
        scheduler.runningCount() != 0 || scheduler.queueDepth() != 0)
        return;

    Json shutdown = Json::object();
    shutdown.set("type", "shutdown");
    Json drained = Json::object();
    drained.set("type", "drained");

    std::vector<int> worker_ids;
    for (const auto &[id, peer] : peers)
        if (peer.kind == Peer::Kind::Worker)
            worker_ids.push_back(id);
    for (const int id : worker_ids) {
        const auto it = peers.find(id);
        if (it != peers.end()) {
            ++framesOut;
            it->second.conn.sendJson(shutdown);
        }
    }
    const std::vector<int> waiters = drainWaiters;
    drainWaiters.clear();
    for (const int id : waiters) {
        const auto it = peers.find(id);
        if (it != peers.end()) {
            ++framesOut;
            it->second.conn.sendJson(drained);
        }
    }
    g_finished = true;
}

Json
Daemon::statusJson(std::uint64_t now_ms) const
{
    Json reply = Json::object();
    reply.set("type", "status-reply");
    const std::uint64_t uptime = now_ms - startedMs;
    reply.set("uptime_ms", std::int64_t(uptime));
    reply.set("draining", draining);
    reply.set("queue_depth", std::int64_t(scheduler.queueDepth()));
    reply.set("running", std::int64_t(scheduler.runningCount()));
    reply.set("active_jobs", std::int64_t(scheduler.activeJobs()));
    reply.set("retries", std::int64_t(scheduler.totalRetries()));
    reply.set("quarantined",
              std::int64_t(scheduler.totalQuarantined()));
    reply.set("shared_hits", std::int64_t(scheduler.totalSharedHits()));

    Json workers = Json::array();
    std::uint64_t done_total = 0;
    for (const auto &[id, peer] : peers) {
        if (peer.kind != Peer::Kind::Worker)
            continue;
        Json w = Json::object();
        w.set("name", peer.workerName);
        w.set("pid", std::int64_t(peer.pid));
        w.set("busy", peer.busy);
        if (peer.busy)
            w.set("assigned", peer.assignedKey);
        w.set("cells_done", std::int64_t(peer.cellsDone));
        w.set("cells_failed", std::int64_t(peer.cellsFailed));
        w.set("heartbeat_age_ms",
              std::int64_t(now_ms - peer.lastHeartbeatMs));
        workers.push(std::move(w));
        done_total += peer.cellsDone;
    }
    reply.set("workers", std::move(workers));

    Json claim_stats = Json::object();
    claim_stats.set("claimed", std::int64_t(claims.claims()));
    claim_stats.set("conflicts", std::int64_t(claims.conflicts()));
    claim_stats.set("broken", std::int64_t(claims.broken()));
    reply.set("claims", std::move(claim_stats));

    // In name order, as the status reply has always listed them.
    const std::pair<const char *, std::uint64_t> fleet_counters[] = {
        {"serve.backpressure.rejects", backpressureRejects},
        {"serve.cells.failed", cellsFailed},
        {"serve.cells.from_cache", cellsFromCache},
        {"serve.cells.shared", cellsShared},
        {"serve.cells.simulated", cellsSimulated},
        {"serve.frames.in", framesIn},
        {"serve.frames.malformed", malformedFrames},
        {"serve.frames.out", framesOut},
        {"serve.jobs.completed", jobsCompleted},
        {"serve.jobs.submitted", jobsSubmitted},
        {"serve.workers.respawned", workersRespawned},
    };
    Json counters = Json::object();
    for (const auto &[name, value] : fleet_counters)
        counters.set(name, std::int64_t(value));
    reply.set("counters", std::move(counters));

    reply.set("cells_per_sec",
              uptime == 0 ? 0.0
                          : double(done_total) * 1000.0 /
                                double(uptime));
    return reply;
}

int
Daemon::run()
{
    ::signal(SIGPIPE, SIG_IGN);
    struct sigaction action = {};
    action.sa_handler = onStopSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    g_stop = 0;
    g_finished = false;
    startedMs = nowMs();

    std::string listen_error;
    if (!listener.open(opts.socketPath,
                       int(opts.maxClients + opts.workers + 8),
                       &listen_error)) {
        warn("served: cannot listen on '", opts.socketPath,
             "': ", listen_error);
        return 1;
    }
    if (!opts.quiet)
        std::fprintf(stderr, "served: listening on %s\n",
                     opts.socketPath.c_str());

    for (unsigned i = 0; i < opts.workers; ++i)
        spawnWorker();

    while (!g_finished) {
        if (g_stop && !draining) {
            // SIGTERM/SIGINT is a graceful drain: finish in-flight
            // jobs, shut workers down, then exit.
            if (!opts.quiet)
                std::fprintf(stderr, "served: draining on signal\n");
            draining = true;
            maybeFinishDrain();
            if (g_finished)
                break;
        }

        const std::uint64_t now = nowMs();
        int timeout = 100;
        if (const auto wake = scheduler.nextWakeMs();
            wake.has_value() && *wake > now)
            timeout = int(std::min<std::uint64_t>(*wake - now, 100));

        std::vector<pollfd> fds;
        std::vector<int> ids; // fds[i + 1] belongs to peer ids[i]
        fds.push_back(pollfd{listener.fd(), POLLIN, 0});
        for (const auto &[id, peer] : peers) {
            fds.push_back(pollfd{peer.conn.fd(), POLLIN, 0});
            ids.push_back(id);
        }
        const int ready = ::poll(fds.data(), nfds_t(fds.size()),
                                 timeout);
        if (ready < 0 && errno != EINTR) {
            warn("served: poll: ", std::strerror(errno));
            return 1;
        }

        if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
            Conn conn = listener.accept();
            if (conn.valid()) {
                if (peers.size() >=
                    opts.maxClients + opts.workers + 4) {
                    // Connection-level backpressure: the queue cap
                    // protects cells; this protects file descriptors.
                    Json frame = Json::object();
                    frame.set("type", "retry-after");
                    frame.set("seconds",
                              std::int64_t(opts.retryAfterSeconds));
                    frame.set("reason", "too many connections");
                    conn.sendJson(frame);
                } else {
                    Peer peer;
                    peer.conn = std::move(conn);
                    peer.lastHeartbeatMs = now;
                    peers.emplace(nextPeerId++, std::move(peer));
                }
            }
        }

        for (std::size_t i = 0; i < ids.size(); ++i) {
            if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) ==
                0)
                continue;
            const int id = ids[i];
            const auto it = peers.find(id);
            if (it == peers.end())
                continue; // dropped by an earlier frame this tick
            Json message;
            bool parse_ok = false;
            std::string parse_error;
            const FrameResult r = it->second.conn.recvJson(
                message, parse_ok, &parse_error, 2000);
            switch (r) {
              case FrameResult::Ok:
                if (parse_ok) {
                    handleFrame(id, message);
                } else {
                    // Well-framed, bad payload: answer, keep the
                    // connection.
                    ++malformedFrames;
                    sendError(id, "invalid JSON: " + parse_error);
                }
                break;
              case FrameResult::Oversized:
                ++malformedFrames;
                sendError(id, "frame exceeds limit");
                dropPeer(id);
                break;
              case FrameResult::Closed:
              case FrameResult::Truncated:
              case FrameResult::Timeout:
              case FrameResult::Error:
                if (peers.count(id) != 0 &&
                    peers.at(id).kind == Peer::Kind::Worker)
                    declareWorkerGone(id, toString(r));
                else
                    dropPeer(id);
                break;
            }
        }

        reapChildren();
        checkDeadlines(nowMs());
        dispatch(nowMs());
        maybeFinishDrain();
    }

    if (!opts.quiet)
        std::fprintf(stderr, "served: drained, exiting\n");
    // Workers got shutdown frames; give them a moment, then sweep.
    for (int i = 0; i < 20 && !children.empty(); ++i) {
        reapChildren();
        if (children.empty())
            break;
        ::usleep(50 * 1000);
    }
    listener.close();
    return 0;
}

} // namespace oscache::serve
