/**
 * @file
 * oscache-lint — static checker for traces and the simulator's
 * coherence machinery.
 *
 * Two passes:
 *  - the trace linter: structural well-formedness of record streams,
 *    and the lockset discipline on shared kernel data (unlocked
 *    multi-writer writes);
 *  - optionally a full simulation with the coherence invariant
 *    checker attached (--simulate).
 *
 * A chunked trace file is linted and replayed through file cursors,
 * so its length does not bound what can be checked; a text file is
 * read once.
 *
 * Examples:
 *   oscache-lint trace --trace shell.trace
 *   oscache-lint workload --workload trfd4 --quanta 4 --simulate
 *   oscache-lint selftest
 *
 * Exit status is 0 when no Errors were found (Warnings are reported
 * but do not fail the run), 1 otherwise.  `selftest` seeds one defect
 * of each class and exits 0 only if every one is caught.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "common/flags.hh"
#include "common/version.hh"
#include "check/tracelint.hh"
#include "core/runner.hh"
#include "mem/memsys.hh"
#include "synth/generator.hh"
#include "trace/source.hh"

using namespace oscache;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-lint <command> [options]\n"
        "\n"
        "commands:\n"
        "  trace     lint a saved trace file\n"
        "  workload  synthesize a workload and lint the trace\n"
        "  selftest  seed one defect of every class; verify each is "
        "caught\n"
        "\n"
        "options:\n"
        "  --trace <file>       trace file (trace)\n"
        "  --workload <name>    trfd4 | trfd+make | arc2d+fsck | shell |\n"
        "                       a server mix such as syscallstorm\n"
        "  --quanta <n>         scheduling quanta to synthesize\n"
        "  --seed <n>           workload random seed\n"
        "  --simulate           also run the simulator with the\n"
        "                       coherence invariant checker attached\n");
}

struct Args
{
    std::string command;
    std::string traceFile;
    std::optional<WorkloadKind> workload;
    std::optional<unsigned> quanta;
    std::optional<std::uint64_t> seed;
    bool simulate = false;
};

Args
parse(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        fatal("missing command; try 'oscache-lint --help'");
    args.command = argv[1];
    if (args.command == "--help" || args.command == "-h") {
        usage();
        std::exit(0);
    }
    if (args.command == "--version") {
        std::printf("%s\n", versionString().c_str());
        std::exit(0);
    }
    FlagReader flags(argc, argv, 2);
    while (flags.next()) {
        const std::string &flag = flags.flag();
        if (flag == "--trace") {
            args.traceFile = flags.value();
        } else if (flag == "--workload") {
            const std::string name = flags.value();
            const auto kind = parseWorkloadKind(name);
            if (!kind)
                fatal("unknown workload '", name, "'");
            args.workload = *kind;
        } else if (flag == "--quanta") {
            args.quanta = flags.number<unsigned>();
        } else if (flag == "--seed") {
            args.seed = flags.number<std::uint64_t>();
        } else if (flag == "--simulate") {
            args.simulate = true;
        } else if (flag == "--help" || flag == "-h") {
            usage();
            std::exit(0);
        } else {
            fatal("unknown flag '", flag, "'");
        }
    }
    return args;
}

/**
 * Lint the trace @p open serves, print the findings, and with
 * --simulate replay it on Base under @p options; 1 on any Error.
 */
int
lintAndReport(const TraceSourceFactory &open, const SimOptions &options,
              const Args &args, const char *label)
{
    const std::unique_ptr<TraceSource> source = open();
    const std::vector<CheckFinding> findings = lintSource(*source);
    for (const auto &f : findings)
        std::printf("%s: %s\n", label, format(f).c_str());
    const std::size_t errors = countErrors(findings);
    std::size_t records = 0;
    for (CpuId c = 0; c < source->numCpus(); ++c)
        records += source->knownRecords(c).value_or(0);
    std::printf("%s: %zu records, %zu findings (%zu errors)\n", label,
                records, findings.size(), errors);

    if (args.simulate) {
        // The replay attaches the invariant checker
        // (SimOptions::checkCoherence) and panics on a violation.
        MachineConfig machine = MachineConfig::base();
        machine.numCpus = source->numCpus();
        runOnSource(open, machine, options,
                    SystemSetup::forKind(SystemKind::Base));
        std::printf("%s: coherence invariants clean end-to-end\n", label);
    }
    return errors ? 1 : 0;
}

int
cmdTrace(const Args &args)
{
    if (args.traceFile.empty())
        fatal("trace needs --trace <file>");
    // No profile: replay under the defaults, as `oscache replay` does.
    return lintAndReport(openTraceFile(args.traceFile), SimOptions{}, args,
                         args.traceFile.c_str());
}

int
cmdWorkload(const Args &args)
{
    if (!args.workload)
        fatal("workload needs --workload <name>");
    WorkloadProfile p = WorkloadProfile::forKind(*args.workload);
    if (args.quanta)
        p.quanta = *args.quanta;
    if (args.seed)
        p.seed = *args.seed;
    const SystemSetup setup = SystemSetup::forKind(SystemKind::Base);
    const Trace trace = generateTrace(p, setup.coherence);
    return lintAndReport(
        [&trace] { return std::make_unique<MaterializedTraceSource>(trace); },
        p.simOptions(), args, p.name);
}

/** @name Selftest: seed one defect per class, expect it caught. @{ */

bool
hasCode(const std::vector<CheckFinding> &findings, CheckCode code)
{
    for (const auto &f : findings)
        if (f.code == code)
            return true;
    return false;
}

TraceRecord
lockRecord(RecordType type, Addr addr)
{
    TraceRecord r;
    r.type = type;
    r.addr = addr;
    r.category = DataCategory::Lock;
    return r;
}

TraceRecord
barrierRecord(Addr addr, std::uint32_t parties)
{
    TraceRecord r;
    r.type = RecordType::BarrierArrive;
    r.addr = addr;
    r.aux = parties;
    r.category = DataCategory::Barrier;
    return r;
}

TraceRecord
blockOpRecord(RecordType type, BlockOpId id)
{
    TraceRecord r;
    r.type = type;
    r.aux = id;
    return r;
}

/** Fault-inject the memory system; return the checker's findings. */
template <typename Fault>
std::vector<CheckFinding>
seedCoherenceDefect(Fault &&fault)
{
    const MachineConfig machine = MachineConfig::base();
    MemorySystem mem(machine);
    CoherenceChecker checker(machine);
    mem.setObserver(&checker);
    fault(mem);
    checker.auditFull(mem);
    return checker.findings();
}

int
cmdSelftest()
{
    const Addr addr = kernelSpaceBase;
    AccessContext os;
    os.os = true;
    os.category = DataCategory::KernelOther;

    struct Case
    {
        const char *name;
        CheckCode expect;
        std::vector<CheckFinding> findings;
    };
    std::vector<Case> cases;

    cases.push_back({"swmr-violation", CheckCode::SwmrViolation,
                     seedCoherenceDefect([&](MemorySystem &mem) {
                         mem.read(0, addr, 0, os);
                         mem.read(1, addr, 100, os);
                         mem.debugSetL2State(0, addr, LineState::Modified);
                         mem.debugSetL2State(1, addr, LineState::Modified);
                     })});

    cases.push_back({"inclusion-violation", CheckCode::InclusionViolation,
                     seedCoherenceDefect([&](MemorySystem &mem) {
                         mem.read(0, addr, 0, os);
                         mem.debugSetL2State(0, addr, LineState::Invalid);
                     })});

    cases.push_back({"illegal-transition", CheckCode::IllegalTransition,
                     seedCoherenceDefect([&](MemorySystem &mem) {
                         mem.read(0, addr, 0, os);
                         mem.read(1, addr, 100, os);
                         // Both copies are Shared; exclusivity cannot
                         // be gained without a bus transaction.
                         mem.debugSetL2State(0, addr,
                                             LineState::Exclusive);
                     })});

    {
        Trace t(1);
        BlockOp op;
        op.dst = addr;
        op.size = 4096;
        op.kind = BlockOpKind::Zero;
        const BlockOpId id = t.blockOps().add(op);
        t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
        cases.push_back({"unbalanced-block-op", CheckCode::UnbalancedBlockOp,
                         lintTrace(t)});
    }

    {
        Trace t(1);
        t.stream(0).push_back(
            lockRecord(RecordType::LockRelease, addr + 64));
        cases.push_back({"unpaired-lock-release",
                         CheckCode::UnpairedLockRelease, lintTrace(t)});
    }

    {
        Trace t(2);
        // Both processors should arrive at a 2-party barrier; one
        // never does.
        t.stream(0).push_back(barrierRecord(addr + 128, 2));
        cases.push_back({"barrier-count-mismatch",
                         CheckCode::BarrierCountMismatch, lintTrace(t)});
    }

    {
        Trace t(1);
        t.stream(0).push_back(TraceRecord::write(
            0x1000, DataCategory::OtherShared, 0, true));
        cases.push_back({"category-region-mismatch",
                         CheckCode::CategoryRegionMismatch, lintTrace(t)});
    }

    {
        Trace t(2);
        for (CpuId c = 0; c < 2; ++c)
            t.stream(c).push_back(TraceRecord::write(
                addr + 256, DataCategory::OtherShared, 0, true));
        cases.push_back({"unlocked-shared-write",
                         CheckCode::UnlockedSharedWrite, lintTrace(t)});
    }

    int failures = 0;
    for (const auto &c : cases) {
        const bool caught = hasCode(c.findings, c.expect);
        std::printf("%-28s %s\n", c.name, caught ? "PASS" : "FAIL");
        if (!caught)
            ++failures;
    }
    std::printf("selftest: %zu/%zu defect classes caught\n",
                cases.size() - failures, cases.size());
    return failures ? 1 : 0;
}

/** @} */

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.command == "trace")
        return cmdTrace(args);
    if (args.command == "workload")
        return cmdWorkload(args);
    if (args.command == "selftest")
        return cmdSelftest();
    usage();
    fatal("unknown command '", args.command, "'");
}
