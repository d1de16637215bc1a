/**
 * @file
 * Implementation-conformance extraction.
 *
 * The conformance pass answers "does the engine in src/mem implement
 * the declarative tables in src/verif/spec.hh?" by tapping the
 * MemEventObserver hooks during a real replay, classifying every
 * observed secondary-cache transition into a protocol event, and
 * diffing the observed (state, event) -> state edge against the
 * scheme's table:
 *
 *  - an observed edge the table forbids (unknown event, illegal cell,
 *    or a different next state) becomes a ForbiddenTransition finding
 *    in the src/check Finding format;
 *  - a legal state-changing spec edge never observed is reported as
 *    unexercised coverage.
 *
 * Classification context comes from the operation-begin taps: the
 * initiating processor, the operation kind, the target line, and the
 * initiator's pre-operation state (which disambiguates a remote
 * invalidation caused by an upgrade from one caused by a write miss).
 * DMA transitions are classified by the in-flight descriptor's source
 * and destination ranges.  The engine elides same-state notifications,
 * so the coverage denominator is the spec's *state-changing* legal
 * edges (observableTransitions()).
 */

#ifndef OSCACHE_VERIF_CONFORM_HH
#define OSCACHE_VERIF_CONFORM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/finding.hh"
#include "core/blockop/schemes.hh"
#include "mem/config.hh"
#include "mem/observer.hh"
#include "trace/trace.hh"
#include "verif/spec.hh"

namespace oscache
{
namespace verif
{

/** Outcome of a conformance extraction. */
struct ConformReport
{
    /** Classified state-changing transitions observed. */
    std::uint64_t observed = 0;
    /** Observed transitions the spec forbids (total). */
    std::uint64_t forbidden = 0;
    /** Detailed findings for the first forbidden transitions. */
    std::vector<CheckFinding> findings;
    /** Legal state-changing spec edges (coverage denominator). */
    std::size_t specTotal = 0;
    /** Spec edges exercised by the observed transitions. */
    std::size_t specCovered = 0;
    /** Human-readable names of the unexercised spec edges. */
    std::vector<std::string> uncovered;

    double
    coverage() const
    {
        return specTotal == 0
                   ? 1.0
                   : double(specCovered) / double(specTotal);
    }
};

/**
 * Observer that extracts (state, event) -> state transitions from a
 * running MemorySystem and diffs them against a SchemeSpec.  Attach
 * with setObserver(); reusable across several replays (coverage and
 * findings accumulate) via attach()/report().
 */
class ConformanceExtractor : public MemEventObserver
{
  public:
    explicit ConformanceExtractor(const SchemeSpec &spec);

    /** Point the extractor at the replay's memory system. */
    void attach(const MemorySystem &mem) { memsys = &mem; }

    bool wantsOperationBegin() const override { return true; }
    void onOperationBegin(const MemorySystem &mem, MemOpKind op,
                          CpuId cpu, Addr addr) override;
    void onDmaBegin(CpuId cpu, const BlockOp &op) override;
    void onOperationEnd(const MemorySystem &mem, MemOpKind op,
                        CpuId cpu, Addr addr) override;
    void onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                        LineState to) override;

    /** Accumulated verdict (callable at any point). */
    ConformReport report() const;

  private:
    void classify(CpuId cpu, Addr line, LineState from, LineState to);
    void record(CpuId cpu, Addr line, LineState from, ProtoEvent event,
                LineState to);
    bool otherSharerExists(CpuId cpu, Addr line) const;

    const SchemeSpec &spec;
    const MemorySystem *memsys = nullptr;

    /** The in-flight processor-side operation. */
    struct OpContext
    {
        MemOpKind kind = MemOpKind::Read;
        CpuId cpu = 0;
        Addr line = invalidAddr;
        /** Initiator's pre-operation state was Shared (upgrade). */
        bool hadShared = false;
        bool active = false;
    } op;

    /** The in-flight DMA descriptor's line ranges. */
    struct DmaContext
    {
        Addr srcBegin = 0, srcEnd = 0;
        Addr dstBegin = 0, dstEnd = 0;
        bool active = false;
    } dma;

    bool covered[numLineStates][numEvents] = {};
    std::uint64_t observed = 0;
    std::uint64_t forbidden = 0;
    std::vector<CheckFinding> findings;
    static constexpr std::size_t maxFindings = 32;
};

/**
 * Replay @p trace on a machine built from @p machine with block scheme
 * @p blockScheme, extracting conformance against @p spec.
 */
ConformReport conformTrace(const SchemeSpec &spec, const Trace &trace,
                           const MachineConfig &machine,
                           BlockScheme blockScheme);

/** Machine configuration a scheme's conformance replay uses. */
MachineConfig conformMachine(ProtoScheme scheme);

/** Block-operation scheme a protocol scheme's replay uses. */
BlockScheme conformBlockScheme(ProtoScheme scheme);

/**
 * Run the full conformance suite for @p scheme: the four paper
 * workloads, each replayed on the default machine and on a small-cache
 * variant (which exercises the replacement edges), accumulating one
 * report.  @p quanta overrides the workload length when nonzero
 * (smaller is faster; 0 uses each profile's default).  @p sockets > 1
 * replays on the two-level interconnect instead (must divide the
 * conformance machine's processor count); the home-node filter is
 * precise, so the same tables must hold edge for edge.
 */
ConformReport runConformance(ProtoScheme scheme, unsigned quanta = 0,
                             unsigned sockets = 1);

} // namespace verif
} // namespace oscache

#endif // OSCACHE_VERIF_CONFORM_HH
