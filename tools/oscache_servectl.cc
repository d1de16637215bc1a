/**
 * @file
 * oscache-servectl: client for a running oscache-served daemon.
 *
 *   oscache-servectl --socket S submit --smoke all
 *   oscache-servectl --socket S submit figure3 table2 --out rows.jsonl
 *   oscache-servectl --socket S submit --cell figure3:base/trfd4
 *   oscache-servectl --socket S status
 *   oscache-servectl --socket S drain
 *
 * submit streams canonical JSONL rows to --out (default stdout) as
 * cells complete; backpressure (retry-after) is honoured with a
 * bounded sleep-and-retry loop so overlapping sweeps from many
 * clients eventually all land.
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "serve/client.hh"

using namespace oscache;
using namespace oscache::serve;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-servectl [options] <command> [args]\n"
        "\n"
        "commands:\n"
        "  submit [names...]  run experiments/groups; streams JSONL\n"
        "                     rows as cells complete\n"
        "  status             print the daemon's status JSON\n"
        "  ping               check liveness (exit 0/1)\n"
        "  drain              finish in-flight jobs, stop the daemon\n"
        "\n"
        "options:\n"
        "  --socket PATH   daemon socket\n"
        "                  (default ./oscache-served.sock)\n"
        "  --out FILE      write result rows to FILE (default stdout)\n"
        "  --cell E:C      submit one explicit cell (repeatable;\n"
        "                  combines with experiment names)\n"
        "  --smoke         only each experiment's smoke cell\n"
        "  --sample PLAN   sampling plan forwarded to the workers\n"
        "  --retries N     attempts when the daemon answers\n"
        "                  retry-after (default 30)\n"
        "  --quiet         suppress progress on stderr\n"
        "  --version       print build identification and exit\n");
}

int
runSubmit(const std::string &socket_path, const SubmitRequest &request,
          const std::string &out_file, unsigned retries, bool quiet)
{
    std::ofstream file;
    std::ostream *out = &std::cout;
    if (!out_file.empty()) {
        file.open(out_file, std::ios::trunc);
        if (!file)
            fatal("cannot open '", out_file, "' for writing");
        out = &file;
    }

    for (unsigned attempt = 0;; ++attempt) {
        ServeClient client;
        std::string error;
        if (!client.connect(socket_path, &error))
            fatal("cannot connect to '", socket_path, "': ", error);

        unsigned streamed = 0;
        const SubmitOutcome outcome = client.submit(
            request, [&](const Json &event) {
                if (event.get("type").asString() == "cell") {
                    *out << event.get("row").asString() << "\n";
                    out->flush();
                    ++streamed;
                    if (!quiet)
                        std::fprintf(stderr, "  [%u] %s:%s%s\n",
                                     streamed,
                                     event.get("experiment")
                                         .asString()
                                         .c_str(),
                                     event.get("cell").asString()
                                         .c_str(),
                                     event.get("cached").asBool()
                                         ? " (cached)"
                                         : event.get("shared").asBool()
                                               ? " (shared)"
                                               : "");
                } else if (!quiet) {
                    std::fprintf(stderr, "  FAIL %s:%s: %s\n",
                                 event.get("experiment").asString()
                                     .c_str(),
                                 event.get("cell").asString().c_str(),
                                 event.get("error").asString().c_str());
                }
            });

        if (outcome.retryAfterSeconds > 0) {
            if (attempt >= retries)
                fatal("daemon still busy after ", retries, " retries");
            if (!quiet)
                std::fprintf(stderr,
                             "servectl: retry-after %us (attempt "
                             "%u/%u)\n",
                             outcome.retryAfterSeconds, attempt + 1,
                             retries);
            ::sleep(outcome.retryAfterSeconds);
            continue;
        }
        if (!outcome.error.empty())
            fatal(outcome.error);
        if (!outcome.completed)
            fatal("connection lost before job completion");
        if (!quiet)
            std::fprintf(stderr,
                         "servectl: job %llu done: %zu rows, %u "
                         "failed\n",
                         (unsigned long long)outcome.job,
                         outcome.rows.size(), outcome.cellsFailed);
        return outcome.cellsFailed == 0 ? 0 : 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "./oscache-served.sock";
    std::string out_file;
    std::string command;
    unsigned retries = 30;
    SubmitRequest request;
    bool quiet = false;

    FlagReader flags(argc, argv);
    while (flags.next()) {
        const std::string &arg = flags.flag();
        if (arg == "--socket") {
            socket_path = flags.value();
        } else if (arg == "--out") {
            out_file = flags.value();
        } else if (arg == "--cell") {
            const std::string spec = flags.value();
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos)
                fatal("--cell wants experiment:cell, got '", spec, "'");
            request.cells.emplace_back(spec.substr(0, colon),
                                       spec.substr(colon + 1));
        } else if (arg == "--smoke") {
            request.smoke = true;
        } else if (arg == "--sample") {
            request.samplePlan = flags.value();
        } else if (arg == "--retries") {
            retries = flags.number<unsigned>();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            fatal("unknown option ", arg);
        } else if (command.empty()) {
            command = arg;
        } else {
            request.experiments.push_back(arg);
        }
    }

    if (command.empty()) {
        usage();
        return 1;
    }

    if (command == "submit") {
        if (request.experiments.empty() && request.cells.empty())
            fatal("submit needs experiment names or --cell specs");
        return runSubmit(socket_path, request, out_file, retries,
                         quiet);
    }

    ServeClient client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        if (command == "ping")
            return 1;
        fatal("cannot connect to '", socket_path, "': ", error);
    }

    if (command == "ping") {
        const bool ok = client.ping();
        if (!quiet)
            std::printf("%s\n", ok ? "pong" : "no reply");
        return ok ? 0 : 1;
    }
    if (command == "status") {
        const Json reply = client.status();
        if (reply.isNull())
            fatal("no status reply");
        std::printf("%s\n", reply.dump().c_str());
        return 0;
    }
    if (command == "drain") {
        if (!client.drain())
            fatal("drain failed");
        if (!quiet)
            std::printf("drained\n");
        return 0;
    }

    usage();
    fatal("unknown command '", command, "'");
}
