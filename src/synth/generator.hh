/**
 * @file
 * The synthetic multiprocessor trace generator.
 *
 * Generation proceeds in scheduling quanta.  Each quantum plans,
 * from one master random stream, the machine-wide events (gang-
 * scheduling barrier episodes, cross-processor interrupt pairs,
 * pager invocations) and per-processor task lists (user compute
 * slices interleaved with sampled OS activities), then emits the
 * resulting reference sequences into the per-processor streams.
 *
 * Determinism: for a given profile the random draws are independent
 * of the CoherenceOptions, so the Base and optimized layouts replay
 * the *same* logical activity sequence with different addresses —
 * exactly how the paper's authors rebuilt the kernel and re-ran the
 * same traces.
 *
 * Two front ends share one engine:
 *
 *  - generateTrace() runs every quantum into a materialized Trace
 *    (the historical API, unchanged output byte for byte), and
 *    generatePacked() into a PackedTrace;
 *  - TraceGenerator exposes the quantum loop incrementally, so
 *    callers — SynthTraceSource, the artifact cache's stream-to-disk
 *    writer — can consume each quantum's records and discard them
 *    before the next is produced.  The per-processor streams within
 *    one quantum come from interdependent draws of the single master
 *    RNG, so a quantum is the unit of incremental generation: all
 *    processors advance together.
 */

#ifndef OSCACHE_SYNTH_GENERATOR_HH
#define OSCACHE_SYNTH_GENERATOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/cohopt.hh"
#include "synth/profile.hh"
#include "trace/packed.hh"
#include "trace/trace.hh"

namespace oscache
{

/**
 * Resumable quantum-at-a-time generator.  Identical record sequence
 * to generateTrace() for the same inputs — the tests pin this.
 */
class TraceGenerator
{
  public:
    TraceGenerator(const WorkloadProfile &profile,
                   const CoherenceOptions &options, unsigned num_cpus = 4);
    ~TraceGenerator();

    TraceGenerator(const TraceGenerator &) = delete;
    TraceGenerator &operator=(const TraceGenerator &) = delete;

    unsigned numCpus() const;

    /** Pages under the selective-update protocol (stable). */
    const std::unordered_set<Addr> &updatePages() const;

    /** Block-op table accumulated so far; grows as quanta emit. */
    const BlockOpTable &blockOps() const;
    BlockOpTable &blockOps();

    /** True once all profile.quanta quanta have been emitted. */
    bool done() const;

    /**
     * Plan and emit the next quantum, appending each processor's
     * records to *sinks[cpu] (the sinks are not cleared first).
     * Processors emit one after another, and @p emitted, when set,
     * is called with each cpu once all its records are in its sink,
     * before the next cpu emits: every cpu may then share one sink
     * that the callback empties.  Must not be called once done().
     */
    void nextQuantum(const std::vector<RecordStream *> &sinks,
                     const std::function<void(CpuId)> &emitted = {});

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** Generate the trace of @p profile under @p options. */
Trace generateTrace(const WorkloadProfile &profile,
                    const CoherenceOptions &options,
                    unsigned num_cpus = 4);

/** Convenience overload using the calibrated profile for @p kind. */
Trace generateTrace(WorkloadKind kind, const CoherenceOptions &options,
                    unsigned num_cpus = 4);

/**
 * generateTrace()'s trace, packed as it is generated: each quantum's
 * records are packed and dropped before the next quantum, so no whole
 * 24-byte trace is ever built.
 */
PackedTrace generatePacked(const WorkloadProfile &profile,
                           const CoherenceOptions &options,
                           unsigned num_cpus = 4);

} // namespace oscache

#endif // OSCACHE_SYNTH_GENERATOR_HH
