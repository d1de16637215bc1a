/**
 * @file
 * The replay engine's side of statistical sampling (SMARTS-style).
 *
 * The engine itself stays policy-free: a SampleController, installed
 * with System::setSampling(), tells it per processor whether the
 * record about to replay falls in a measured window (stats recorded
 * into the primary sink) or a functional-warming window (caches,
 * bus, and write buffers updated as usual, but stats diverted to a
 * scratch sink).  The policy — window geometry, skipping, confidence
 * intervals, checkpointing — lives in src/sample.
 *
 * The batched loop (System::run()) asks once per cursor span, so a
 * sampled cursor must end its spans at phase boundaries
 * (sample::SamplingCursor does); tick() asks once per step.  Either
 * way phaseFor() is called before the records it classifies are
 * replayed, and asking again while a processor's cursor is parked
 * on a synchronization record (spinning) must have no side effect.
 *
 * Sampling also relaxes the engine's synchronization retiming.  A
 * sampled replay enters the stream mid-way and leaps over unmeasured
 * stretches, so lock/barrier pairings that a full replay could rely
 * on (every release preceded by its acquire, every barrier arrival
 * eventually matched) no longer hold.  Under a controller the engine
 * therefore repairs instead of panics: an unmatched release frees
 * the lock, a re-acquire is treated as re-entry, and a spin that
 * outlives spinBreakCycles() is force-broken.  Each repair is
 * counted (System::syncBreaks()) so the statistics layer can report
 * how much retiming fidelity a given plan gave up.  When every live
 * processor is such a stranded spinner, run() advances them all to
 * the earliest forced break in one step instead of quantum by
 * quantum, with identical results.
 */

#ifndef OSCACHE_SIM_SAMPLING_HH
#define OSCACHE_SIM_SAMPLING_HH

#include "common/types.hh"

namespace oscache
{

/** What the replay engine should do with the current record. */
enum class SamplePhase : std::uint8_t
{
    Skip,    ///< Not replayed at all (cursor fast-forwarded).
    Warm,    ///< Replayed for state, stats diverted to the warm sink.
    Measure, ///< Replayed and measured.
};

/** Per-processor phase oracle installed into System::setSampling(). */
class SampleController
{
  public:
    virtual ~SampleController() = default;

    /** Phase of the record @p cpu is about to replay. */
    virtual SamplePhase phaseFor(CpuId cpu) = 0;

    /**
     * Simulated cycles a processor may spin on one lock or barrier
     * before the engine force-breaks the wait (sampling can skip the
     * record that would have released it).
     */
    virtual Cycles spinBreakCycles() const { return 1'000'000; }
};

} // namespace oscache

#endif // OSCACHE_SIM_SAMPLING_HH
