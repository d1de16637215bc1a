/**
 * @file
 * Access-by-access differ between the production MemorySystem and the
 * dft reference model.
 *
 * OracleDiffer attaches to a MemorySystem as its event observer and
 * replays every reported operation through a ReferenceMachine.  For
 * each data read and software prefetch it compares the engine's
 * hit/miss verdict, miss-cause classification, and service level with
 * the reference prediction; after every operation it cross-checks the
 * secondary-line states and primary residency of the touched line on
 * all processors directly against the engine's tag arrays, and
 * finish() audits every line either model ever touched.  The first
 * divergence is captured with the full event context (a dump of the
 * record, both models' line states, and the event index) and all
 * further checking stops.
 *
 * Timing-only outcomes are handled with accept-either rules rather
 * than guesses: an in-flight merge must match the cause recorded when
 * the prefetch issued; a Blk_ByPref buffer read may report buffer-hit
 * or partial-hiding depending on readiness, both accepted when the
 * line is in the reference buffer; a dropped prefetch (busy MSHRs) is
 * accepted verbatim since neither machine changes state.
 *
 * runDiff() attaches the differ to a run assembly (core/runner) for a
 * given trace source.
 * Restrictions: direct-mapped caches (l1Ways == l2Ways == 1) and the
 * statistical instruction-miss model (modelICache == false); both are
 * enforced fatally, since the reference model supports nothing else.
 */

#ifndef OSCACHE_DFT_DIFFER_HH
#define OSCACHE_DFT_DIFFER_HH

#include <cstdint>
#include <string>

#include "core/blockop/schemes.hh"
#include "dft/oracle.hh"
#include "mem/memsys.hh"
#include "mem/observer.hh"
#include "sim/options.hh"
#include "sim/sampling.hh"
#include "sim/stats.hh"
#include "trace/source.hh"

namespace oscache
{
namespace dft
{

/**
 * The observer half of the differ.  Attach with mem.setObserver()
 * (or as one tap of mem.setObservers()) before the run, drive the
 * run, then call finish() for the end-of-run audit.
 */
class OracleDiffer : public MemEventObserver
{
  public:
    /**
     * @param mem          The engine under test (borrowed; used for
     *                     direct tag cross-checks).
     * @param update_pages Firefly update pages, matching what the
     *                     engine was given via setUpdatePages().
     */
    OracleDiffer(const MemorySystem &mem,
                 const std::unordered_set<Addr> *update_pages);

    bool wantsAccessEvents() const override { return true; }

    void onAccess(const MemAccessEvent &event) override;
    void onCodeFill(CpuId cpu, Addr addr, std::uint32_t bytes) override;
    void onDma(CpuId cpu, const BlockOp &op) override;
    void onBufferPrefetchFill(CpuId cpu, Addr addr) override;

    /** End-of-run audit of every line either model touched. */
    void finish();

    bool diverged() const { return divergedFlag; }
    /** Human-readable dump of the first divergence (empty if none). */
    const std::string &report() const { return firstReport; }
    /** Events compared before stopping (or in total). */
    std::uint64_t eventsChecked() const { return eventIndex; }

    const ReferenceMachine &oracle() const { return ref; }

  private:
    void flag(const MemAccessEvent *event, std::string what);
    /** Compare both models on @p l2_line across all processors. */
    void checkL2Line(Addr l2_line, const MemAccessEvent *event);

    void applyRead(const MemAccessEvent &event);
    void applyPrefetch(const MemAccessEvent &event);

    const MemorySystem *engine;
    ReferenceMachine ref;
    bool divergedFlag = false;
    std::string firstReport;
    std::uint64_t eventIndex = 0;
};

/** Outcome of a full engine-vs-oracle differential run. */
struct DiffResult
{
    bool diverged = false;
    /** First divergence with full context (empty when clean). */
    std::string report;
    /** Access events compared. */
    std::uint64_t eventsChecked = 0;
    /** Engine statistics of the run (for callers that want them). */
    SimStats stats;
};

/**
 * Run @p source through a run assembly for @p scheme with an
 * OracleDiffer attached (and the coherence checker off), and report
 * the first divergence if any.  Fatal on
 * configurations the reference model cannot mirror (associativity
 * above 1, detailed instruction-cache model).
 *
 * @p sampler, when non-null, is installed on the engine so a sampled
 * source (sample::SampledTraceSource) replays without deadlocking on
 * skipped lock releases; the oracle then validates every replayed
 * (warm and measured) access, since skipped records touch neither
 * model.  result.stats holds the measured windows only in that case.
 */
DiffResult runDiff(TraceSource &source, const MachineConfig &machine,
                   const SimOptions &options, BlockScheme scheme,
                   SampleController *sampler = nullptr);

} // namespace dft
} // namespace oscache

#endif // OSCACHE_DFT_DIFFER_HH
