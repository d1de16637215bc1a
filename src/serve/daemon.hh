/**
 * @file
 * The `oscache-served` daemon: an always-on results service fronting
 * a fleet of worker processes.
 *
 * One poll()-driven event loop owns every socket: the Unix listener,
 * N worker connections, and any number of client connections.  All
 * simulation happens in the workers, so the loop only ever shuffles
 * frames and bookkeeping — it stays responsive while cells run.
 *
 * Division of labour:
 *  - ShardScheduler (scheduler.hh) decides which cell runs where and
 *    owns the retry/backoff/quarantine policy;
 *  - claim files + the result cache (claims.hh) make cells
 *    exactly-once across processes and daemon restarts;
 *  - this class does processes (fork/exec, reap, respawn, SIGKILL on
 *    wedge), sockets (accept, frame, fan-out), backpressure (queue
 *    cap -> retry-after), and the drain protocol.
 *
 * Failure model: a worker that closes its socket, misses heartbeats,
 * or overruns a cell deadline is declared gone; its claims are
 * broken, its cells re-queued with bounded backoff, and a
 * replacement is spawned (bounded respawn budget).  Cells that fail
 * maxAttempts times are quarantined and reported to subscribers as
 * errors — a poisoned cell cannot wedge the fleet.
 */

#ifndef OSCACHE_SERVE_DAEMON_HH
#define OSCACHE_SERVE_DAEMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ipc.hh"
#include "serve/claims.hh"
#include "serve/scheduler.hh"

namespace oscache::serve
{

struct DaemonOptions
{
    std::string socketPath;
    /** Shared store root (traces, claims/, results/). */
    std::string storeDir = ".oscache-artifacts";
    /** Worker processes to keep alive. */
    unsigned workers = 2;
    /** Workers stream records through cursors. */
    bool stream = false;
    /** Path of the worker executable (default: this binary). */
    std::string workerExec;
    /** Queued-cell cap; submits beyond it get retry-after. */
    std::size_t maxQueuedCells = 4096;
    /** Concurrent client connections; beyond it, retry-after. */
    std::size_t maxClients = 64;
    /** Simulation attempts before quarantine. */
    unsigned maxAttempts = 3;
    /** Base/backoff cap for re-queued cells (ms). */
    std::uint64_t backoffMs = 250;
    std::uint64_t backoffCapMs = 5000;
    /** Declare a worker wedged after this heartbeat silence (ms). */
    std::uint64_t heartbeatTimeoutMs = 10000;
    /** Per-assignment deadline (ms); overrun -> SIGKILL + retry. */
    std::uint64_t cellTimeoutMs = 600000;
    /** Total extra worker spawns allowed (crash-loop brake). */
    unsigned respawnBudget = 16;
    /** Seconds suggested in retry-after replies. */
    unsigned retryAfterSeconds = 2;
    bool quiet = false;
};

class Daemon
{
  public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind, spawn the fleet, and serve until drained (SIGTERM /
     * drain request) or a fatal setup error.  Returns the exit code.
     */
    int run();

    /** Async-signal-safe stop request (installed on SIGTERM/SIGINT). */
    static void requestStop();

  private:
    struct Peer
    {
        Conn conn;
        enum class Kind
        {
            Unknown, ///< connected, no frame yet
            Client,
            Worker,
        } kind = Kind::Unknown;
        /** Worker fields. */
        std::string workerName;
        long pid = 0;
        std::uint64_t lastHeartbeatMs = 0;
        bool busy = false;
        std::string assignedKey;
        std::uint64_t assignmentDeadlineMs = 0;
        std::uint64_t cellsDone = 0;
        std::uint64_t cellsFailed = 0;
    };

    struct SpawnedWorker
    {
        long pid = 0;
        std::string name;
    };

    bool spawnWorker();
    void declareWorkerGone(int peer_id, const char *why);
    void reapChildren();
    void checkDeadlines(std::uint64_t now_ms);
    void dispatch(std::uint64_t now_ms);
    void applyEffects(const SchedulerEffects &effects);
    void handleFrame(int peer_id, const Json &message);
    void handleHello(int peer_id, const Json &message);
    void handleSubmit(int peer_id, const Json &message);
    void handleStatus(int peer_id);
    void handleDrain(int peer_id);
    void sendError(int peer_id, const std::string &message);
    void sendRetryAfter(int peer_id, const std::string &reason);
    void dropPeer(int peer_id);
    void maybeFinishDrain();
    Json statusJson(std::uint64_t now_ms) const;

    DaemonOptions opts;
    Listener listener;
    std::string spawnToken;
    std::map<int, Peer> peers;
    int nextPeerId = 1;
    std::map<std::uint64_t, int> jobClients; ///< job -> peer id
    ShardScheduler scheduler;
    ClaimStore claims;
    std::vector<SpawnedWorker> children;
    unsigned respawnsLeft = 0;
    bool draining = false;
    std::vector<int> drainWaiters; ///< peers owed a "drained" reply
    std::uint64_t nextJobId = 1;
    std::uint64_t startedMs = 0;

    /**
     * Fleet counters, exported in the status reply.  Only the poll()
     * loop writes them.
     */
    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsFromCache = 0;
    std::uint64_t cellsShared = 0;
    std::uint64_t cellsFailed = 0;
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t backpressureRejects = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t framesOut = 0;
    std::uint64_t workersRespawned = 0;
    std::uint64_t malformedFrames = 0;
};

} // namespace oscache::serve

#endif // OSCACHE_SERVE_DAEMON_HH
