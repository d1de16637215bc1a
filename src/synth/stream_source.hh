/**
 * @file
 * On-demand (streaming) synthetic trace source.
 *
 * Wraps TraceGenerator as a TraceSource: records are produced
 * quantum by quantum as the replay engine pulls them, so the
 * complete trace never exists in memory.
 *
 * Because all processors of one quantum are planned from shared
 * draws of the master RNG, the generator always advances every
 * processor together; records a consumer has not reached yet are
 * buffered per processor, in a lane of fixed-size blocks.  Taking a
 * quantum never moves a buffered record, so a peek() pointer or
 * peekRun() span stays valid while other processors' lanes refill.
 *
 * The buffer holds O(cpus × quantum) records regardless of trace
 * length.  In a full replay that holds because the min-time
 * scheduler keeps the consumers within about one quantum of each
 * other.  A sampled replay leaps one processor over a whole skipped
 * stretch while the others wait, so there it holds through the skip
 * promise (RecordCursor::promiseSkips): a lane whose cursor got the
 * promise before the first read keeps only the positions its cursor
 * may read, and skip() is position arithmetic — records in a skipped
 * stretch are generated (the RNG cannot leap) but never buffered.
 *
 * Who generates.  When every processor's cursor holds a skip promise
 * at the source's first read (a sampled replay: SamplingCursor makes
 * the promise when the engine opens its cursors), the source starts
 * one producer thread that generates and filters quanta ahead of the
 * reader, so generation overlaps replay.  Only kept records cross to
 * the reader, at most runAheadRecords of them in flight, handed over
 * a quantum at a time in the same blocks the lanes hold.  Any other
 * stream (a full replay, a drain) generates inline on the reading
 * thread through the same generate-and-filter step: there nearly
 * every record would cross, and the hand-off costs more than
 * generation saves.  Either way the records, block-op ids and block
 * ops are generateTrace()'s, whatever the timing, and blockOps()
 * grows only on the reading thread.  The destructor stops and joins
 * the producer; an exception it throws is rethrown to the reader.
 *
 * peakBufferedRecords() reports the high-water mark of buffered and
 * in-flight records so tests can pin the bound.
 */

#ifndef OSCACHE_SYNTH_STREAM_SOURCE_HH
#define OSCACHE_SYNTH_STREAM_SOURCE_HH

#include <atomic>
#include <deque>

#include "synth/generator.hh"
#include "trace/source.hh"

namespace oscache
{

class SynthTraceSource final : public TraceSource
{
  public:
    SynthTraceSource(const WorkloadProfile &profile,
                     const CoherenceOptions &options,
                     unsigned num_cpus = 4);
    SynthTraceSource(WorkloadKind kind, const CoherenceOptions &options,
                     unsigned num_cpus = 4);
    ~SynthTraceSource() override;

    SynthTraceSource(const SynthTraceSource &) = delete;
    SynthTraceSource &operator=(const SynthTraceSource &) = delete;

    unsigned numCpus() const override { return unsigned(lanes.size()); }

    /** Grows as quanta are taken, on the reading thread. */
    const BlockOpTable &blockOps() const override { return ops; }

    const std::unordered_set<Addr> &updatePages() const override
    {
        return gen.updatePages();
    }

    /** One cursor per cpu; opening a cpu's cursor twice is an error. */
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override;

    const char *mode() const override { return "synth"; }

    /**
     * Most records held at once so far, in lanes or in flight from
     * the producer — the streaming path's actual memory footprint.
     */
    std::size_t peakBufferedRecords() const;

    /**
     * Run-ahead budget: kept records the producer may have queued
     * for the reader before it waits.  It checks before each
     * quantum, so one quantum can overshoot.  The reader only waits
     * when nothing is queued, so the two never deadlock.
     */
    static constexpr std::size_t runAheadRecords = 24 * 1024;

  private:
    class Cursor;
    struct Pipeline;

    /**
     * Records per block (6 KB).  Emptied blocks go back to the
     * allocator, so small blocks keep a full replay's footprint at
     * what its buffered records need.
     */
    static constexpr std::size_t blockRecords = 256;

    /** Records filled from the front; `used` of them are valid. */
    struct Block
    {
        std::size_t used = 0;
        TraceRecord records[blockRecords];
    };

    /** Stream positions [first, first + count) held back to back. */
    struct Run
    {
        std::uint64_t first = 0;
        std::uint64_t count = 0;
    };

    /** One processor's kept records of one quantum. */
    struct Kept
    {
        std::vector<std::unique_ptr<Block>> blocks;
        std::vector<Run> runs;
    };

    /** What one quantum hands the reader. */
    struct Quantum
    {
        /** Per cpu: its kept records, and its count generated so far. */
        std::vector<Kept> kept;
        std::vector<std::uint64_t> produced;
        /** The block ops the quantum added, in id order. */
        std::vector<BlockOp> ops;
        /** Records in kept. */
        std::size_t records = 0;
    };

    /** One processor's buffered records and stream position. */
    struct Lane
    {
        /** Storage: reading starts at head of the front block. */
        std::deque<std::unique_ptr<Block>> blocks;
        std::size_t head = 0;
        /** Positions of the buffered records, oldest first. */
        std::deque<Run> runs;
        /** Records generated for this processor, as of the last take. */
        std::uint64_t produced = 0;
        /** The cursor's position; nothing before it is buffered. */
        std::uint64_t pos = 0;
    };

    /** One processor's filter, owned by the generating thread. */
    struct Feed
    {
        /** Skip promise: keep only p % period < keep (0 = all). */
        std::uint64_t period = 0;
        std::uint64_t keep = 0;
        /** Records generated for this processor so far. */
        std::uint64_t produced = 0;
    };

    /**
     * Take the next quantum into the lanes, starting the producer at
     * the first call if every lane is promised; false once the
     * stream has ended.
     */
    bool takeQuantum();

    /** Start the producer, or settle on inline generation. */
    void start();

    /** The producer thread's loop. */
    void produce(Pipeline &p);

    /**
     * Generate the next quantum into @p out, keeping the records
     * each processor's promise lets its cursor read.  On the reading
     * thread (@p at_reader) records before a lane's position are not
     * kept either.
     */
    void generateQuantum(Quantum &out, bool at_reader);

    /**
     * Move @p q's records and block ops into the lanes and table;
     * the caller has counted its records as buffered.
     */
    void splice(Quantum &q);

    /**
     * Drop the @p n oldest records of @p lane; they are the head of
     * its front run.
     */
    void popFront(Lane &lane, std::size_t n);

    /** Drop every buffered record of @p lane before position @p at. */
    void dropBefore(Lane &lane, std::uint64_t at);

    TraceGenerator gen;
    std::vector<Feed> feeds;
    /** One cpu's records of the quantum being generated. */
    RecordStream scratch;
    std::vector<RecordStream *> scratchSinks;
    /** Block ops of the generator already put in a quantum. */
    std::size_t opsSent = 0;

    std::vector<Lane> lanes;
    BlockOpTable ops;
    /** The quantum inline generation reuses. */
    Quantum staged;
    std::vector<bool> cursorOpen;
    bool started = false;
    /** Records in the lanes; only the reader writes it. */
    std::atomic<std::size_t> buffered{0};
    /** Guarded by the pipeline's mutex while a producer runs. */
    std::size_t peakBuffered = 0;
    std::unique_ptr<Pipeline> pipe;
};

} // namespace oscache

#endif // OSCACHE_SYNTH_STREAM_SOURCE_HH
