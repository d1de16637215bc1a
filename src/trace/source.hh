/**
 * @file
 * Pull-based streaming trace abstraction.
 *
 * Every consumer of a multiprocessor trace — the replay engine, the
 * linter, the profiler feed, the format converters — used to take a
 * fully materialized Trace: every record of every processor resident
 * in memory before the first one is consumed, so peak RSS scaled
 * with trace length times the number of concurrent runs.  A
 * TraceSource instead hands each consumer one RecordCursor per
 * processor plus the up-front metadata (update-page set, block-op
 * table), and implementations bound how much of the trace exists at
 * once:
 *
 *  - MaterializedTraceSource wraps an existing Trace (tests, small
 *    runs, trace-rewriting passes);
 *  - FileTraceSource (this header) reads the text and chunked
 *    binary on-disk formats incrementally with a bounded read-ahead
 *    buffer per processor;
 *  - SynthTraceSource (src/synth/stream_source.hh) generates records
 *    on demand, quantum by quantum, so no full trace is ever built;
 *    under a skip promise it never buffers the records a sampled
 *    replay skips, and when every cursor holds one it generates on
 *    a producer thread, overlapping generation with replay.
 *
 * openTraceFile() picks the source for a saved trace from its format:
 * cursors over a chunked file, one in-memory copy of a text file.
 *
 * Contract notes:
 *  - cursor() may be called at most once per cpu on streaming
 *    sources; a materialized source allows repeated passes.
 *  - blockOps() may GROW while cursors advance (streamed synthesis
 *    appends operations as it generates); ids already handed out
 *    stay valid, but references into the table must not be held
 *    across cursor operations.  It grows only inside cursor calls,
 *    on the thread reading the cursors, so reading it needs no lock
 *    even when a source generates on a thread of its own.
 *  - updatePages() is complete before the first cursor is read.
 */

#ifndef OSCACHE_TRACE_SOURCE_HH
#define OSCACHE_TRACE_SOURCE_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace oscache
{

/**
 * Forward-only iterator over one processor's record stream.
 * peek() returns the current record without consuming it (nullptr
 * once the stream is exhausted); advance() consumes it.  The pointer
 * returned by peek() is invalidated by advance().
 */
class RecordCursor
{
  public:
    virtual ~RecordCursor() = default;

    /** Current record, or nullptr at end of stream. */
    virtual const TraceRecord *peek() = 0;

    /** Consume the current record.  Undefined after end of stream. */
    virtual void advance() = 0;

    /**
     * Fast-forward past up to @p n records without observing them;
     * returns how many were actually skipped (fewer only at end of
     * stream).  The base implementation consumes record-at-a-time;
     * implementations override with seek arithmetic (chunked files)
     * or bulk discard (in-memory streams) so sampling can leap over
     * unmeasured stretches at far better than replay speed.
     */
    virtual std::size_t
    skip(std::size_t n)
    {
        std::size_t done = 0;
        while (done < n && peek() != nullptr) {
            advance();
            ++done;
        }
        return done;
    }

    /**
     * Batched peek: expose the longest contiguous span of records
     * starting at the cursor without consuming any of them.  @p first
     * points at the span's first record; the return value is the span
     * length (0 at end of stream, with @p first null).  The span is
     * invalidated by advance()/advanceRun()/skip(), exactly like a
     * peek() pointer.  Reading another processor's cursor of the
     * same source does not invalidate it: streamed sources append to
     * every processor's buffer as they refill one, but never move a
     * buffered record.  The base implementation degrades to a span of
     * one record; buffered implementations override to hand out their
     * whole read-ahead window so the replay engine can consume
     * record-batch-at-a-time with two virtual calls per batch instead
     * of two per record.
     */
    virtual std::size_t
    peekRun(const TraceRecord *&first)
    {
        first = peek();
        return first != nullptr ? 1 : 0;
    }

    /**
     * Consume the first @p n records of the span last returned by
     * peekRun().  @p n must not exceed that span's length.
     */
    virtual void
    advanceRun(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            advance();
    }

    /**
     * Skip promise: the caller will never read a record at a stream
     * position p (counted from the stream's first record) with
     * p % @p period >= @p keep; it only skips over those.  A cursor
     * may then avoid buffering them.  Sampled replay makes this
     * promise for the stretches its plan skips, before the first
     * read.  The default ignores it, which is always correct, and so
     * may a cursor whose source has been read when the promise
     * arrives.  A synthesized source whose every cursor holds the
     * promise at its first read generates on a producer thread.
     */
    virtual void
    promiseSkips(std::uint64_t period, std::uint64_t keep)
    {
        (void)period;
        (void)keep;
    }
};

/**
 * A multiprocessor trace served incrementally: up-front metadata
 * plus one record cursor per processor.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    virtual unsigned numCpus() const = 0;

    /**
     * The shared block-operation table.  May grow while cursors
     * advance (streamed synthesis), on the reading thread; take
     * entries by value.
     */
    virtual const BlockOpTable &blockOps() const = 0;

    /**
     * Pages under the selective-update protocol; complete and stable
     * for the lifetime of the source (MemorySystem keeps a pointer).
     */
    virtual const std::unordered_set<Addr> &updatePages() const = 0;

    /** Open the cursor for @p cpu (once per cpu on streamed sources). */
    virtual std::unique_ptr<RecordCursor> cursor(CpuId cpu) = 0;

    /**
     * Record count of @p cpu's stream when known without consuming
     * it (materialized and file sources); nullopt when only reading
     * to the end can tell (streamed synthesis).
     */
    virtual std::optional<std::size_t> knownRecords(CpuId cpu) const
    {
        (void)cpu;
        return std::nullopt;
    }

    /** Short mode tag for diagnostics ("materialized", "file", ...). */
    virtual const char *mode() const = 0;
};

/** Opens a fresh TraceSource over the same underlying trace. */
using TraceSourceFactory =
    std::function<std::unique_ptr<TraceSource>()>;

/** Cursor over an in-memory RecordStream (shared by adapters). */
class VectorRecordCursor final : public RecordCursor
{
  public:
    explicit VectorRecordCursor(const RecordStream &records)
        : stream(&records)
    {}

    const TraceRecord *
    peek() override
    {
        return pos < stream->size() ? &(*stream)[pos] : nullptr;
    }

    void advance() override { ++pos; }

    std::size_t
    skip(std::size_t n) override
    {
        const std::size_t left = stream->size() - pos;
        const std::size_t done = std::min(n, left);
        pos += done;
        return done;
    }

    /** The whole remaining stream is one contiguous span. */
    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        if (pos >= stream->size()) {
            first = nullptr;
            return 0;
        }
        first = &(*stream)[pos];
        return stream->size() - pos;
    }

    void advanceRun(std::size_t n) override { pos += n; }

  private:
    const RecordStream *stream;
    std::size_t pos = 0;
};

/**
 * TraceSource over an existing in-memory Trace.  The trace must
 * outlive the source; cursors may be opened any number of times.
 */
class MaterializedTraceSource final : public TraceSource
{
  public:
    explicit MaterializedTraceSource(const Trace &trace) : traceRef(trace)
    {}

    /** As above, keeping @p trace alive while the source lives. */
    explicit MaterializedTraceSource(std::shared_ptr<const Trace> trace)
        : owner(std::move(trace)), traceRef(*owner)
    {}

    unsigned numCpus() const override { return traceRef.numCpus(); }
    const BlockOpTable &blockOps() const override
    {
        return traceRef.blockOps();
    }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return traceRef.updatePages();
    }

    std::unique_ptr<RecordCursor>
    cursor(CpuId cpu) override
    {
        return std::make_unique<VectorRecordCursor>(traceRef.stream(cpu));
    }

    std::optional<std::size_t>
    knownRecords(CpuId cpu) const override
    {
        return traceRef.stream(cpu).size();
    }

    const char *mode() const override { return "materialized"; }

    const Trace &trace() const { return traceRef; }

  private:
    std::shared_ptr<const Trace> owner;
    const Trace &traceRef;
};

/**
 * Default per-processor read-ahead of the streaming file reader, in
 * records.  4096 records × 24 bytes ≈ 96 KB per cpu — two orders of
 * magnitude below a full workload stream — while still amortizing
 * the per-refill parse/seek cost.
 */
inline constexpr std::size_t defaultStreamReadAhead = 4096;

/**
 * Streaming reader of on-disk traces in either format (text v1 or
 * chunked binary v3, detected from the leading bytes).
 *
 * Construction performs one O(1)-memory validation pass over the
 * whole file — the format's one walker, the same one readTrace() and
 * readTraceBinary() run, so all of them accept and reject the same
 * files for the same reasons — and indexes where each processor's
 * records live, so a truncated or corrupted file fails up front
 * rather than mid-simulation.  Each cursor then re-reads its
 * processor's byte ranges through its own stream with a bounded
 * read-ahead buffer.  A copy is another source over the same
 * validated file: it shares no state and scans nothing.
 */
class FileTraceSource final : public TraceSource
{
  public:
    /**
     * How much of the file the opening scan validates.
     *
     * Full reads and validates every record byte and verifies the
     * trailing checksum — the right default, and what the artifact
     * cache relies on to discard corrupt artifacts.
     *
     * Index walks the binary format's structure by seek arithmetic:
     * headers, chunk boundaries, the block-op table, and the end
     * sentinel are validated, but record payloads are skipped on
     * disk and the trailing checksum is not recomputed (verifying it
     * would mean reading every byte).  Opening a multi-GB trace
     * drops from a full-file read to a few thousand header seeks,
     * which is what makes sampled replay's leap-over-99%-of-the-file
     * profitable.  Records are validated when a cursor decodes them
     * instead: a bad type or category byte, or a block-op id past
     * the table, is a fatal() naming the file, the cpu and the
     * reason at the first read of that record, not a clean open
     * failure, and a corrupted byte the decoder cannot tell from a
     * valid one goes unnoticed.  Use it only for artifacts validated
     * when written (e.g. just-generated benchmarks).  Text files have
     * no record index, so Index falls back to the full line walk.
     */
    enum class ScanDepth
    {
        Full,
        Index,
    };

    /**
     * Open and validate @p path.  fatal()s on any malformed input;
     * use tryOpen() for the non-fatal variant.
     *
     * @param read_ahead Cursor buffer size in records (clamped to a
     *        minimum of 1).  Every caller outside the tests takes
     *        the default; the parameter is the seam the span-boundary
     *        tests use to put refills at odd offsets (`file/1` and
     *        `file/7` in the prefetch-adapter test, and
     *        StreamFile.TinyReadAheadStillExact).
     */
    explicit FileTraceSource(
        const std::string &path,
        std::size_t read_ahead = defaultStreamReadAhead,
        ScanDepth depth = ScanDepth::Full);

    /**
     * As the constructor, but a malformed file returns nullptr with
     * the reason in @p error (when non-null) instead of exiting —
     * the artifact cache discards and regenerates.
     */
    static std::unique_ptr<FileTraceSource>
    tryOpen(const std::string &path,
            std::size_t read_ahead = defaultStreamReadAhead,
            std::string *error = nullptr,
            ScanDepth depth = ScanDepth::Full);

    unsigned numCpus() const override;
    const BlockOpTable &blockOps() const override { return table; }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return pages;
    }
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override;
    std::optional<std::size_t> knownRecords(CpuId cpu) const override;
    const char *mode() const override { return "file"; }

  private:
    FileTraceSource() = default;

    /** One contiguous byte range of records belonging to a cpu. */
    struct Segment
    {
        std::uint64_t offset = 0; ///< Absolute file offset.
        std::uint64_t records = 0; ///< Record count (binary format).
        std::uint64_t end = 0;     ///< End offset (text format).
    };

    /** Validate + index; returns false with @p error on bad input. */
    bool scan(std::string *error);

    class Indexer;
    class FileCursor;
    class TextCursor;
    class BinaryCursor;

    std::string path;
    std::size_t bufferRecords = defaultStreamReadAhead; ///< Read-ahead.
    ScanDepth depth = ScanDepth::Full;
    bool text = false; ///< Text format (else chunked binary).
    BlockOpTable table;
    std::unordered_set<Addr> pages;
    std::vector<std::vector<Segment>> segments; ///< Per cpu.
    std::vector<std::size_t> recordCounts;      ///< Per cpu.
};

/**
 * The sources of the saved trace at @p path, for as many passes as
 * the caller opens; fatal() on a file that cannot be read or is
 * malformed.  The format decides how records are served.  A chunked
 * file is validated once and each source is a FileTraceSource copy of
 * that index (mode "file"), so memory stays bounded however long the
 * trace.  A text file is read once and each source serves that one
 * Trace (mode "materialized"): a text cursor would re-parse every
 * line on every pass.
 */
TraceSourceFactory openTraceFile(const std::string &path);

} // namespace oscache

#endif // OSCACHE_TRACE_SOURCE_HH
