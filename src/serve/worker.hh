/**
 * @file
 * Worker-process entry point for the sharded experiment fleet.
 *
 * A worker is one process: it connects back to the daemon's socket,
 * identifies itself with the spawn token, then loops — receive an
 * assignment, execute it under the cross-process claim discipline,
 * send the result.  A background thread heartbeats so the
 * coordinator can tell a wedged (SIGSTOP'd, D-state) worker from a
 * busy one; a SIGKILL'd worker is detected faster still, by EOF.
 *
 * Claim discipline per assignment:
 *  1. result cache hit -> answer without simulating (this is how a
 *     double-submitted cell, or a re-run over a warm store, costs
 *     nothing);
 *  2. claim won -> simulate, store the result, release, answer;
 *  3. claim lost -> someone else (possibly in another daemon) is
 *     computing the same cell: poll for their result, breaking the
 *     claim if its owner turns out to be dead.
 */

#ifndef OSCACHE_SERVE_WORKER_HH
#define OSCACHE_SERVE_WORKER_HH

#include <cstdint>
#include <string>

namespace oscache::serve
{

struct WorkerOptions
{
    std::string socketPath;
    std::string token;
    /** Shared store root (traces at top, claims/ and results/ under). */
    std::string storeDir;
    /** Stream records through cursors (bounded memory). */
    bool stream = false;
    /** Heartbeat period. */
    std::uint64_t heartbeatMs = 500;
    /** Cap on waiting for a foreign claim's result. */
    std::uint64_t claimWaitMs = 600000;
    /** Identity used in claim records and logs, e.g. "worker-3". */
    std::string name = "worker";
};

/** Run the worker loop; returns the process exit code. */
int runWorker(const WorkerOptions &options);

} // namespace oscache::serve

#endif // OSCACHE_SERVE_WORKER_HH
