/**
 * @file
 * oscache-verify: protocol model checker and conformance driver.
 *
 * Three subcommands:
 *
 *   oscache-verify explore [--scheme S|all] [--cpus N] [--addrs N]
 *                          [--sets N] [--wb N] [--counterexample F]
 *       Exhaustively enumerate every global state the declarative
 *       protocol tables can reach in a small configuration and check
 *       the safety invariants (SWMR, data value, write-buffer
 *       consistency, no stuck states) at each one.  On a violation
 *       the initiating-event path is printed and, with
 *       --counterexample, lowered to a replayable v3 trace.
 *
 *   oscache-verify conform [--scheme S|all] [--quanta N]
 *                          [--min-coverage PCT]
 *       Replay the paper's four workloads with the implementation in
 *       src/mem, extract every observed secondary-cache transition,
 *       and diff it against the declarative tables: forbidden
 *       transitions fail the run, unexercised spec edges are reported
 *       as coverage.
 *
 *   oscache-verify dot [--scheme S]
 *       Print the scheme's state machine in Graphviz DOT form.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "trace/io.hh"
#include "verif/conform.hh"
#include "verif/explore.hh"
#include "verif/spec.hh"

using namespace oscache;
using namespace oscache::verif;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-verify explore [options]\n"
        "       oscache-verify conform [options]\n"
        "       oscache-verify dot --scheme S\n"
        "\n"
        "common options:\n"
        "  --scheme S     mesi | msi | mesi-update | mesi-bypass |\n"
        "                 mesi-dma | all (default all)\n"
        "  --sockets N    two-level interconnect sockets (must divide\n"
        "                 the processor count, default 1 = flat bus);\n"
        "                 applies to explore and conform\n"
        "\n"
        "explore options:\n"
        "  --cpus N           processors (2..4, default 2)\n"
        "  --addrs N          addresses (1..2, default 2)\n"
        "  --sets N           cache sets (1..2, default 1)\n"
        "  --wb N             bypass write-buffer depth (0..2,\n"
        "                     default 2)\n"
        "  --counterexample F write a violation's replayable v3 trace\n"
        "                     to F\n"
        "\n"
        "conform options:\n"
        "  --quanta N         workload length override (default full)\n"
        "  --min-coverage P   fail below P%% spec-edge coverage\n"
        "                     (default 90)\n");
}

std::vector<ProtoScheme>
schemesFor(const std::string &name)
{
    if (name == "all") {
        std::vector<ProtoScheme> all;
        for (std::size_t i = 0; i < numSchemes; ++i)
            all.push_back(static_cast<ProtoScheme>(i));
        return all;
    }
    ProtoScheme scheme;
    if (!parseScheme(name, scheme))
        fatal("unknown scheme '", name,
              "' (mesi, msi, mesi-update, mesi-bypass, mesi-dma, all)");
    return {scheme};
}

int
runExplore(const std::vector<ProtoScheme> &schemes,
           const ExploreConfig &cfg, const std::string &cex_path)
{
    int rc = 0;
    for (ProtoScheme scheme : schemes) {
        const SchemeSpec &spec = schemeSpec(scheme);
        const std::string err = validateSpec(spec);
        if (!err.empty()) {
            std::printf("explore %-12s FAIL (table: %s)\n",
                        std::string(toString(scheme)).c_str(),
                        err.c_str());
            rc = 1;
            continue;
        }
        const ExploreResult result = explore(spec, cfg);
        if (result.ok()) {
            std::printf("explore %-12s ok: %llu states, %llu "
                        "transitions, 0 violations\n",
                        std::string(toString(scheme)).c_str(),
                        (unsigned long long)result.states,
                        (unsigned long long)result.transitions);
            continue;
        }
        rc = 1;
        std::printf("explore %-12s FAIL after %llu states:\n",
                    std::string(toString(scheme)).c_str(),
                    (unsigned long long)result.states);
        for (const CheckFinding &f : result.findings)
            std::printf("  %s\n", format(f).c_str());
        std::printf("  path (%zu steps):\n", result.path.size());
        for (const ExploreStep &step : result.path)
            std::printf("    %s\n", formatStep(step).c_str());
        if (!cex_path.empty()) {
            const Counterexample ce =
                realizeCounterexample(spec, cfg, result.path);
            writeTraceFile(cex_path, ce.trace, TraceFormat::Chunked);
            std::printf("  counterexample trace: %s (%u cpus, "
                        "direct-mapped %u-byte caches, %u-byte "
                        "lines)\n",
                        cex_path.c_str(), ce.machine.numCpus,
                        ce.machine.l2Size, ce.machine.l2LineSize);
        }
    }
    return rc;
}

int
runConform(const std::vector<ProtoScheme> &schemes, unsigned quanta,
           double min_coverage, unsigned sockets)
{
    int rc = 0;
    for (ProtoScheme scheme : schemes) {
        const ConformReport rep = runConformance(scheme, quanta, sockets);
        const double pct = rep.coverage() * 100.0;
        const bool ok = rep.forbidden == 0 && pct >= min_coverage;
        std::printf("conform %-12s %s: %llu transitions observed, "
                    "%llu forbidden, coverage %zu/%zu (%.1f%%)\n",
                    std::string(toString(scheme)).c_str(),
                    ok ? "ok" : "FAIL",
                    (unsigned long long)rep.observed,
                    (unsigned long long)rep.forbidden, rep.specCovered,
                    rep.specTotal, pct);
        for (const CheckFinding &f : rep.findings)
            std::printf("  %s\n", format(f).c_str());
        if (!ok || !rep.uncovered.empty())
            for (const std::string &edge : rep.uncovered)
                std::printf("  unexercised: %s\n", edge.c_str());
        if (!ok)
            rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    if (command == "--version") {
        std::printf("%s\n", versionString().c_str());
        return 0;
    }

    std::string scheme = "all";
    ExploreConfig cfg;
    std::string cex_path;
    unsigned quanta = 0;
    double min_coverage = 90.0;

    FlagReader flags(argc, argv, 2);
    while (flags.next()) {
        const std::string &arg = flags.flag();
        if (arg == "--scheme") {
            scheme = flags.value();
        } else if (arg == "--cpus") {
            cfg.cpus = flags.number<unsigned>();
        } else if (arg == "--addrs") {
            cfg.addrs = flags.number<unsigned>();
        } else if (arg == "--sets") {
            cfg.sets = flags.number<unsigned>();
        } else if (arg == "--wb") {
            cfg.wbDepth = flags.number<unsigned>();
        } else if (arg == "--sockets") {
            cfg.sockets = flags.number<unsigned>();
        } else if (arg == "--counterexample") {
            cex_path = flags.value();
        } else if (arg == "--quanta") {
            quanta = flags.number<unsigned>();
        } else if (arg == "--min-coverage") {
            min_coverage = flags.number<double>();
        } else {
            usage();
            fatal("unknown option ", arg);
        }
    }

    if (command == "explore")
        return runExplore(schemesFor(scheme), cfg, cex_path);
    if (command == "conform")
        return runConform(schemesFor(scheme), quanta, min_coverage,
                          cfg.sockets);
    if (command == "dot") {
        for (ProtoScheme s : schemesFor(scheme))
            std::printf("%s", specDot(schemeSpec(s)).c_str());
        return 0;
    }
    usage();
    fatal("unknown command ", command);
}
