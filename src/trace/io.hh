/**
 * @file
 * Trace serialization.
 *
 * The paper's performance monitor dumps its trace buffers to disk
 * through a workstation; this module plays the same role for the
 * synthetic traces: a line-oriented text format that round-trips a
 * complete Trace (streams, block-operation table, update pages), so
 * expensive generations can be saved, inspected with ordinary text
 * tools, and replayed later.
 *
 * Format (one directive per line, '#' comments allowed):
 *
 *   oscache-trace 1
 *   cpus <n>
 *   updatepage <hex-addr>
 *   blockop <id> copy|zero <hex-src> <hex-dst> <size> ro|rw
 *   stream <cpu>
 *   x <count> <bb> <os>          # Exec
 *   i <cycles>                   # Idle
 *   r <hex-addr> <cat> <bb> <os> <size>   # Read
 *   w <hex-addr> <cat> <bb> <os> <size>   # Write
 *   p <hex-addr> <cat> <bb> <os>          # Prefetch
 *   B <op-id>                    # BlockOpBegin
 *   E <op-id>                    # BlockOpEnd
 *   L <hex-addr>                 # LockAcquire
 *   U <hex-addr>                 # LockRelease
 *   A <hex-addr> <parties>       # BarrierArrive
 *
 * The one binary encoding, format version 3, is *chunked*, so a
 * trace can be written while it is being generated, without ever
 * materializing it: the magic "OSTR" + a version word, the cpu
 * count, the update pages (sorted, so identical traces serialize to
 * identical bytes), then interleaved record chunks — [u32 cpu]
 * [u32 count][count packed fixed-width records] — terminated by a
 * cpu sentinel of 0xffffffff, and only then the block-op table (it
 * grows during generation, so it must trail the records) and a
 * trailing FNV-1a checksum of everything after the magic.  Because
 * nothing is back-patched, the checksum streams, and a reader can
 * index the chunks in one O(1)-memory pass (FileTraceSource in
 * source.hh does exactly that).  The artifact cache stores it, and
 * readTraceFile() auto-detects text or binary from the leading
 * bytes.  Version 2, an earlier unchunked layout, is rejected as an
 * unsupported version.
 *
 * Each format has one walker that performs every structural check;
 * the whole-trace readers here and FileTraceSource are two sinks of
 * it, so they accept and reject exactly the same files, for the same
 * reasons.
 */

#ifndef OSCACHE_TRACE_IO_HH
#define OSCACHE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hh"

namespace oscache
{

/** On-disk trace encodings. */
enum class TraceFormat
{
    Text,    ///< Line-oriented, greppable (format version 1).
    Chunked, ///< Streamable interleaved chunks (format version 3).
};

/**
 * Version word of the binary format, the only one the readers
 * accept.  Bump whenever the record layout or any serialized
 * structure changes; the artifact cache and the serve work keys mix
 * this in, so stale files are never opened.
 */
inline constexpr std::uint32_t traceFormatVersion = 3;

/**
 * Most processors a trace file may hold, in either format: both
 * writers refuse more and every reader rejects more.
 */
inline constexpr unsigned maxTraceCpus = 64;

/**
 * Serialize @p trace to @p os in the text format above; fatal()
 * unless it has 1 to maxTraceCpus processors.
 */
void writeTrace(std::ostream &os, const Trace &trace);

/**
 * Parse a text-format trace from @p is.
 * Calls fatal() on malformed input (a user error), with the reason
 * FileTraceSource::tryOpen() gives for the same file.
 */
Trace readTrace(std::istream &is);

/**
 * Parse a binary-format (chunked v3) trace from @p is into @p out.
 *
 * Unlike readTrace() this never exits: a truncated, corrupt, or
 * wrong-version stream returns false (with the reason in @p error
 * when non-null), so callers like the artifact cache can discard the
 * file and regenerate.
 */
bool tryReadTraceBinary(std::istream &is, Trace &out,
                        std::string *error = nullptr);

/** As tryReadTraceBinary(), but fatal() on malformed input. */
Trace readTraceBinary(std::istream &is);

/**
 * Incremental writer of the chunked v3 format.  The header is
 * emitted on construction; record chunks stream out as the caller
 * produces them (any cpu order, any chunk sizes, empty chunks
 * skipped); finish() appends the block-op table and checksum.
 * Nothing is buffered beyond the caller's chunks and nothing is
 * back-patched, so memory stays O(chunk) however long the trace is.
 */
class ChunkedTraceWriter
{
  public:
    /**
     * Emit the header; fatal() unless 1 <= @p num_cpus <=
     * maxTraceCpus.  @p update_pages is serialized sorted so
     * identical traces produce identical bytes.
     */
    ChunkedTraceWriter(std::ostream &os, unsigned num_cpus,
                      const std::unordered_set<Addr> &update_pages);
    ~ChunkedTraceWriter();

    ChunkedTraceWriter(const ChunkedTraceWriter &) = delete;
    ChunkedTraceWriter &operator=(const ChunkedTraceWriter &) = delete;

    /** Append one chunk of @p cpu's stream (no-op when count == 0). */
    void writeChunk(CpuId cpu, const TraceRecord *records,
                    std::size_t count);

    /** Convenience overload. */
    void
    writeChunk(CpuId cpu, const RecordStream &records)
    {
        writeChunk(cpu, records.data(), records.size());
    }

    /**
     * Terminate the chunk sequence and append the (now final)
     * block-op table and the trailing checksum.  Must be called
     * exactly once, after the last chunk.
     */
    void finish(const BlockOpTable &block_ops);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Serialize @p trace to @p os in the chunked v3 format, splitting
 * each stream into chunks of @p chunk_records.
 */
void writeTraceChunked(std::ostream &os, const Trace &trace,
                       std::size_t chunk_records = 65536);

/** Convenience: write to / read from a file path. */
void writeTraceFile(const std::string &path, const Trace &trace,
                    TraceFormat format = TraceFormat::Text);
/** Read a trace file in either format (detected from its magic). */
Trace readTraceFile(const std::string &path);

} // namespace oscache

#endif // OSCACHE_TRACE_IO_HH
