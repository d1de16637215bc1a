/**
 * @file
 * On-demand (streaming) synthetic trace source.
 *
 * Wraps TraceGenerator as a TraceSource: records are produced
 * quantum by quantum as the replay engine pulls them, so generation
 * overlaps simulation and the complete trace never exists in memory.
 *
 * Because all processors of one quantum are planned from shared
 * draws of the master RNG, the generator always advances every
 * processor together; records a consumer has not reached yet are
 * buffered per processor, in a lane of fixed-size blocks.  Appending
 * never moves a buffered record, so a peek() pointer or peekRun()
 * span stays valid while other processors' lanes refill.
 *
 * The buffer holds O(cpus × quantum) records regardless of trace
 * length.  In a full replay that holds because the min-time
 * scheduler keeps the consumers within about one quantum of each
 * other.  A sampled replay leaps one processor over a whole skipped
 * stretch while the others wait, so there it holds through the skip
 * promise (RecordCursor::promiseSkips): a lane that got the promise
 * before producing anything appends only the positions its cursor
 * may read, and skip() is position arithmetic — records in a skipped
 * stretch are generated (the RNG cannot leap) but never buffered.
 * peakBufferedRecords() reports the observed high-water mark so
 * tests can pin the bound.
 */

#ifndef OSCACHE_SYNTH_STREAM_SOURCE_HH
#define OSCACHE_SYNTH_STREAM_SOURCE_HH

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

    unsigned numCpus() const override { return gen.numCpus(); }

    /** Grows as quanta are generated; take entries by value. */
    const BlockOpTable &blockOps() const override
    {
        return gen.blockOps();
    }

    const std::unordered_set<Addr> &updatePages() const override
    {
        return gen.updatePages();
    }

    /** One cursor per cpu; opening a cpu's cursor twice is an error. */
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override;

    const char *mode() const override { return "synth"; }

    /**
     * Most records buffered across all processors at any point so
     * far — the streaming path's actual memory footprint.
     */
    std::size_t peakBufferedRecords() const { return peakBuffered; }

  private:
    class Cursor;

    /**
     * Records per lane block (6 KB).  A lane holds up to two partly
     * filled blocks, and emptied blocks go back to the allocator, so
     * small blocks keep a full replay's footprint at what its
     * buffered records need.
     */
    static constexpr std::size_t blockRecords = 256;

    struct Block
    {
        TraceRecord records[blockRecords];
    };

    /** Stream positions [first, first + count) buffered back to back. */
    struct Run
    {
        std::uint64_t first = 0;
        std::uint64_t count = 0;
    };

    /** One processor's buffered records and stream positions. */
    struct Lane
    {
        /** Storage: reading starts at head of the front block. */
        std::deque<std::unique_ptr<Block>> blocks;
        std::size_t head = 0;
        /** Records written into the back block. */
        std::size_t tail = 0;
        /** Positions of the buffered records, oldest first. */
        std::deque<Run> runs;
        /** Records generated for this processor so far. */
        std::uint64_t produced = 0;
        /** The cursor's position; nothing before it is buffered. */
        std::uint64_t pos = 0;
        /** Skip promise: buffer only p % period < keep (0 = all). */
        std::uint64_t period = 0;
        std::uint64_t keep = 0;
    };

    /** Generate one quantum into every lane. */
    void generateQuantum();

    /** Buffer the part of @p records (this lane's next) it may read. */
    void append(Lane &lane, const RecordStream &records);

    /** Copy @p n records to the back of @p lane's storage. */
    void pushBack(Lane &lane, const TraceRecord *records, std::size_t n);

    /**
     * Drop the @p n oldest records of @p lane; they are the head of
     * its front run.
     */
    void popFront(Lane &lane, std::size_t n);

    /** Drop every buffered record of @p lane before position @p at. */
    void dropBefore(Lane &lane, std::uint64_t at);

    TraceGenerator gen;
    std::vector<Lane> lanes;
    std::vector<RecordStream> scratch;
    std::vector<RecordStream *> scratchPtrs;
    std::vector<bool> cursorOpen;
    std::size_t buffered = 0;
    std::size_t peakBuffered = 0;
};

} // namespace oscache

#endif // OSCACHE_SYNTH_STREAM_SOURCE_HH
