/**
 * @file
 * The whole-machine trace-driven simulation engine.
 *
 * System replays a multiprocessor trace against a MemorySystem,
 * advancing the processor with the smallest local time one record at
 * a time (min-time scheduling).  Synchronization records are retimed
 * rather than replayed verbatim: a LockAcquire spins until the holder
 * (in simulated time) releases, and a BarrierArrive blocks until all
 * participants have arrived — so the mutual-exclusion functionality
 * of the original trace is maintained under the new memory-system
 * timings, as required by Section 2.2 of the paper.
 *
 * The engine pulls records through TraceSource cursors, so it runs
 * identically from a materialized Trace, an on-disk file read
 * incrementally, or a generator producing records on demand.  A
 * side effect of min-time scheduling is that the consumers stay
 * within about one synchronization interval of each other, which is
 * what keeps streamed sources' buffering bounded in a full replay.
 * A sampled replay leaps single processors over skipped stretches;
 * there the skip promise (RecordCursor::promiseSkips) keeps it
 * bounded.
 */

#ifndef OSCACHE_SIM_SYSTEM_HH
#define OSCACHE_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binio.hh"
#include "common/types.hh"
#include "mem/memsys.hh"
#include "sim/blockop_executor.hh"
#include "sim/options.hh"
#include "sim/sampling.hh"
#include "sim/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace oscache
{

/**
 * Replays a trace on a memory system and collects statistics.
 */
class System
{
  public:
    /**
     * @param source   The trace source to replay (must outlive the
     *                 System; one cursor per cpu is opened here).
     * @param mem      The memory system (update pages are taken from
     *                 the source automatically).
     * @param executor Scheme-specific block-operation executor; it
     *                 must record into the same @p stats object.
     * @param options  Processor-model knobs.
     * @param stats    Statistics sink shared with the executor.
     */
    System(TraceSource &source, MemorySystem &mem,
           BlockOpExecutor &executor, const SimOptions &options,
           SimStats &stats);

    /**
     * Run the trace to completion: the batched loop, for full and
     * sampled replay alike.  It pulls whole cursor spans and keeps
     * the scheduled processor consuming records until another
     * processor's local time takes over.  Under a sampler it asks for
     * the phase once per span (sampled spans end at phase
     * boundaries), and when every live processor spins on a lock or
     * barrier nothing can release, it advances them all to the next
     * forced spin break in one step.  Statistics, windows and final
     * state are byte-identical to calling tick() until it returns
     * false.
     */
    void run();

    /**
     * Replay one scheduling step (one record or spin quantum on the
     * processor with the smallest local time); false once every
     * processor is done.  Sampled replay ticks while a mid-run live
     * point is pending, so it can checkpoint between steps, then
     * calls run(); tick() is also the reference run() is tested
     * against.
     */
    bool tick();

    /**
     * Install a sampling controller: before each record the engine
     * asks it for the processor's phase and routes statistics to
     * @p warm_sink unless the phase is Measure.  Both must outlive
     * the System; pass nullptr to return to full measurement.
     */
    void setSampling(SampleController *controller, SimStats *warm_sink);

    /** Sync repairs performed under sampling (see sim/sampling.hh). */
    std::uint64_t syncBreaks() const { return syncBreakCount; }

    /**
     * Serialize the replay state that is not cursor position: per-cpu
     * times and run states, lock/barrier tables, and the sync-repair
     * counter.  Statistics sinks and cursors are the caller's to
     * save; pair with loadState() on an identically shaped System.
     */
    void saveState(binio::BinaryWriter &w) const;

    /** Inverse of saveState(); false with @p error on malformed input. */
    bool loadState(binio::BinaryReader &r, std::string *error);

    /** Statistics collected so far (valid after run()). */
    const SimStats &stats() const { return simStats; }

  private:
    enum class CpuRunState : std::uint8_t
    {
        Running,
        SpinLock,
        SpinBarrier,
        Done,
    };

    struct CpuState
    {
        Cycles time = 0;
        CpuRunState state = CpuRunState::Running;
        /** Lock or barrier address being waited on. */
        Addr waitAddr = invalidAddr;
        /** Barrier episode this processor is waiting to complete. */
        std::uint64_t waitEpisode = 0;
        /** Fractional I-miss cycle accumulator. */
        double imissCarry = 0.0;
        /** Local time when the current spin began (spin-break clock). */
        Cycles spinStart = 0;
    };

    struct LockState
    {
        bool held = false;
        CpuId holder = 0;
    };

    struct BarrierState
    {
        std::uint32_t arrived = 0;
        std::uint64_t episode = 0;
        Cycles releaseAt = 0;
    };

    void attach();

    /** Process one record (or one spin quantum) on @p cpu. */
    void step(CpuId cpu);

    /**
     * The batched replay loop behind run(): pulls whole cursor spans
     * via peekRun() and keeps the scheduled processor consuming
     * simple records until another processor's local time takes
     * over, with the I-cache model branch hoisted out of the inner
     * loop as a template parameter.  Produces byte-identical results
     * to tick() in a loop.
     */
    template <bool ModelICache> void runBatched();

    /**
     * Spin breaks in closed form (sampled replay only).  When every
     * live processor is a spinner that cannot progress, advance each
     * by the spin quanta it would run before the earliest forced
     * break — time, osSpin in its phase's sink and the deadlock
     * counter — then step the breaking processor.  False, with
     * nothing changed, when some processor could move or the quanta
     * would reach the deadlock panic (the stepped path then panics
     * exactly as before).
     */
    bool spinToNextBreak();

    /**
     * @name Non-consuming record appliers
     * The handle* wrappers below pair these with a cursor advance;
     * the batched loop applies them straight off a peeked span and
     * consumes the span in one advanceRun() call.
     * @{
     */
    template <bool ModelICache>
    void applyExec(CpuId cpu, const TraceRecord &rec);
    void applyRead(CpuId cpu, const TraceRecord &rec);
    void applyWrite(CpuId cpu, const TraceRecord &rec);
    void applyPrefetch(CpuId cpu, const TraceRecord &rec);
    /** @} */

    void handleExec(CpuId cpu, const TraceRecord &rec);
    void handleData(CpuId cpu, const TraceRecord &rec);
    void handleBlockOp(CpuId cpu, const TraceRecord &rec);
    void handleLockAcquire(CpuId cpu, const TraceRecord &rec);
    void handleLockRelease(CpuId cpu, const TraceRecord &rec);
    void handleBarrier(CpuId cpu, const TraceRecord &rec);

    /** Charge I-miss stall for @p instrs instructions on @p cpu. */
    Cycles imissCycles(CpuId cpu, std::uint64_t instrs, bool os);

    /** Perform the read-modify-write of a synchronization variable. */
    void syncRmw(CpuId cpu, Addr addr, DataCategory cat, bool os);

    /** Break a sampled spin that outlived the controller's budget. */
    bool maybeBreakSpin(CpuId cpu);

    TraceSource &source;
    MemorySystem &mem;
    BlockOpExecutor &executor;
    SimOptions opts;
    SimStats &simStats;

    /**
     * Active statistics sink: &simStats normally; retargeted per
     * record between &simStats and the warm sink under sampling.
     */
    SimStats *cur;
    SampleController *sampler = nullptr;
    SimStats *warmSink = nullptr;
    std::uint64_t syncBreakCount = 0;

    std::vector<std::unique_ptr<RecordCursor>> cursors;
    std::vector<CpuState> cpus;
    std::unordered_map<Addr, LockState> locks;
    std::unordered_map<Addr, BarrierState> barriers;

    /** Safety valve against malformed (deadlocking) traces. */
    std::uint64_t consecutiveSpins = 0;
    static constexpr std::uint64_t spinLimit = 200'000'000;
};

} // namespace oscache

#endif // OSCACHE_SIM_SYSTEM_HH
