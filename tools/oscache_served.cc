/**
 * @file
 * oscache-served: the sharded experiment daemon.
 *
 * Runs the coordinator by default; re-executed with `--worker` (by
 * the coordinator itself) it becomes one worker process.  Both roles
 * live in one binary so the fleet is always version-matched — the
 * daemon spawns workers from its own executable.
 *
 *   oscache-served --socket /tmp/oscache.sock --workers 4 \
 *       --store .oscache-artifacts
 *   oscache-servectl --socket /tmp/oscache.sock submit --smoke all
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/flags.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "serve/daemon.hh"
#include "serve/worker.hh"

using namespace oscache;
using namespace oscache::serve;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-served [options]\n"
        "\n"
        "Long-running experiment service: accepts JSON job requests\n"
        "over a Unix socket, shards their cells across a fleet of\n"
        "worker processes, and streams canonical result rows back to\n"
        "each client as cells complete.\n"
        "\n"
        "options:\n"
        "  --socket PATH   Unix socket to listen on\n"
        "                  (default ./oscache-served.sock)\n"
        "  --workers N     worker processes (default 2)\n"
        "  --store D       shared store directory: traces at the top,\n"
        "                  claims/ and results/ underneath\n"
        "                  (default .oscache-artifacts)\n"
        "  --stream        workers pull records through streaming\n"
        "                  cursors (bounded memory)\n"
        "  --max-queue N   queued-cell cap before submits get\n"
        "                  retry-after (default 4096)\n"
        "  --max-attempts N  attempts before a cell is quarantined\n"
        "                  (default 3)\n"
        "  --heartbeat-timeout-ms N  declare a silent worker wedged\n"
        "                  (default 10000)\n"
        "  --cell-timeout-ms N  per-assignment deadline (default\n"
        "                  600000)\n"
        "  --respawn-budget N  replacement workers allowed before the\n"
        "                  fleet stops regrowing (default 16)\n"
        "  --quiet         no lifecycle chatter on stderr\n"
        "  --version       print build identification and exit\n"
        "\n"
        "SIGTERM/SIGINT drain gracefully: in-flight jobs finish,\n"
        "workers shut down, then the daemon exits.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool worker_mode = false;
    WorkerOptions worker;
    DaemonOptions daemon;
    daemon.socketPath = "./oscache-served.sock";

    FlagReader flags(argc, argv);
    while (flags.next()) {
        const std::string &arg = flags.flag();
        if (arg == "--worker") {
            worker_mode = true;
        } else if (arg == "--socket") {
            daemon.socketPath = worker.socketPath = flags.value();
        } else if (arg == "--token") {
            worker.token = flags.value();
        } else if (arg == "--store") {
            daemon.storeDir = worker.storeDir = flags.value();
        } else if (arg == "--name") {
            worker.name = flags.value();
        } else if (arg == "--workers") {
            daemon.workers = flags.number<unsigned>(1);
        } else if (arg == "--stream") {
            daemon.stream = worker.stream = true;
        } else if (arg == "--max-queue") {
            daemon.maxQueuedCells = flags.number<std::size_t>();
        } else if (arg == "--max-attempts") {
            daemon.maxAttempts = flags.number<unsigned>(1);
        } else if (arg == "--heartbeat-timeout-ms") {
            daemon.heartbeatTimeoutMs = flags.number<std::uint64_t>();
        } else if (arg == "--cell-timeout-ms") {
            daemon.cellTimeoutMs = flags.number<std::uint64_t>();
            worker.claimWaitMs = daemon.cellTimeoutMs;
        } else if (arg == "--respawn-budget") {
            daemon.respawnBudget = flags.number<unsigned>();
        } else if (arg == "--quiet") {
            daemon.quiet = true;
        } else if (arg == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option ", arg);
        }
    }

    if (worker_mode) {
        if (worker.socketPath.empty() || worker.storeDir.empty())
            fatal("--worker needs --socket and --store");
        return runWorker(worker);
    }

    // workerExec stays empty: the daemon spawns workers from
    // /proc/self/exe, so the fleet is always this very binary.
    Daemon d(daemon);
    return d.run();
}
