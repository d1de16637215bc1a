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
 * The one binary encoding, format version 4, is *chunked*, so a
 * trace can be written while it is being generated, without ever
 * materializing it, and its records are PackedTrace blocks
 * (trace/packed.hh), the encoding the trace cache holds, at two to
 * three bytes a record.  The file is the magic "OSTR" + a version
 * word, the cpu count, the update pages (sorted, so identical traces
 * serialize to identical bytes), then interleaved record chunks —
 * [u32 cpu][u32 records][u32 byte length of each of its blocks][the
 * blocks] — terminated by a cpu sentinel of 0xffffffff, and only then
 * the block-op table (it grows during generation, so it must trail
 * the records) and a trailing FNV-1a checksum of everything after
 * the magic.  A chunk holds a run of one cpu's blocks, every one of
 * PackedTrace::blockRecords records but the stream's last, so a
 * chunk with a partial block is its cpu's last.  Because nothing is
 * back-patched, the checksum streams, and a reader can index every
 * block from the chunk headers alone (FileTraceSource in source.hh
 * does exactly that).  The artifact cache stores it, and
 * readTraceFile() auto-detects text or binary from the leading
 * bytes.  Every other version word (2 was unchunked, 3 had fixed
 * 20-byte records) is rejected as an unsupported version.
 *
 * Each format has one walker that performs every structural check:
 * readTrace() and readTraceFile() read text through the text walker,
 * and FileTraceSource, which readTraceFile() reads a chunked file
 * through, runs the chunked one, so every reader of a file accepts
 * and rejects the same files, for the same reasons.
 */

#ifndef OSCACHE_TRACE_IO_HH
#define OSCACHE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hh"

namespace oscache
{

class PackedTrace;

/** On-disk trace encodings. */
enum class TraceFormat
{
    Text,    ///< Line-oriented, greppable (format version 1).
    Chunked, ///< Streamable interleaved chunks (format version 4).
};

/**
 * Version word of the binary format, the only one the readers
 * accept.  Bump whenever the record layout or any serialized
 * structure changes; the artifact cache keys mix this in, so stale
 * files are never opened.
 */
inline constexpr std::uint32_t traceFormatVersion = 4;

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
 * readTraceFile() gives for the same file.
 */
Trace readTrace(std::istream &is);

/**
 * Incremental writer of the chunked v4 format.  The header is
 * emitted on construction; records arrive in any cpu order and any
 * batch sizes, and each call writes the blocks its records complete
 * as one chunk; finish() writes every stream's partial last block,
 * then the block-op table and checksum.  The blocks are sealed by a
 * PackedTrace::Builder, whose one partial block per cpu is all that
 * is held, and nothing is back-patched, so memory stays O(cpus x
 * block) however long the trace is.
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

    /** Append @p count records to @p cpu's stream. */
    void writeChunk(CpuId cpu, const TraceRecord *records,
                    std::size_t count);

    /** Convenience overload. */
    void
    writeChunk(CpuId cpu, const RecordStream &records)
    {
        writeChunk(cpu, records.data(), records.size());
    }

    /**
     * Write the partial last blocks, terminate the chunk sequence and
     * append the (now final) block-op table and the trailing
     * checksum.  Must be called exactly once, after the last chunk.
     */
    void finish(const BlockOpTable &block_ops);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** Serialize @p trace to @p os in the chunked v4 format. */
void writeTraceChunked(std::ostream &os, const Trace &trace);

/**
 * Serialize @p trace to @p os in the chunked v4 format, writing its
 * blocks as they are.
 */
void writeTraceChunked(std::ostream &os, const PackedTrace &trace);

/** Convenience: write to / read from a file path. */
void writeTraceFile(const std::string &path, const Trace &trace,
                    TraceFormat format = TraceFormat::Text);
/**
 * Read a trace file in either format (detected from its magic);
 * fatal() on a file that cannot be read or is malformed, with the
 * reason FileTraceSource::tryOpen() gives for a chunked file.
 */
Trace readTraceFile(const std::string &path);

} // namespace oscache

#endif // OSCACHE_TRACE_IO_HH
