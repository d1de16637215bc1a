/**
 * @file
 * Internal building blocks shared by the trace serializers (io.cc)
 * and the streaming file reader (source.cc): the binary magic and
 * per-record wire layout, the one validating wire-record decoder,
 * the text-format record parser, and the one walker per on-disk
 * format together with the sink interface its readers implement.
 *
 * This header is private to src/trace; nothing outside the library
 * should include it.  The public contract is io.hh and source.hh.
 */

#ifndef OSCACHE_TRACE_IO_DETAIL_HH
#define OSCACHE_TRACE_IO_DETAIL_HH

#include <cstdint>
#include <cstring>
#include <istream>
#include <string>
#include <unordered_set>

#include "common/binio.hh"
#include "trace/trace.hh"

namespace oscache
{
namespace iodetail
{

/** Leading bytes of a binary trace file. */
inline constexpr char binaryMagic[4] = {'O', 'S', 'T', 'R'};

/** Bytes of one packed TraceRecord on the wire. */
inline constexpr std::size_t recordWireBytes = 8 + 4 + 4 + 1 + 1 + 1 + 1;

/** Chunk header sentinel terminating the chunk sequence. */
inline constexpr std::uint32_t chunkEndMarker = 0xffffffffu;

// The checksummed stream primitives grew a second client (the
// live-points checkpoint store) and moved to common/binio.hh; these
// aliases keep the trace serializers' spelling unchanged.
using binio::BinaryReader;
using binio::BinaryWriter;

/** Write one record in the packed wire layout. */
inline void
putRecord(BinaryWriter &w, const TraceRecord &rec)
{
    w.put(rec.addr);
    w.put(rec.aux);
    w.put(rec.bb);
    w.put(std::uint8_t(rec.type));
    w.put(std::uint8_t(rec.category));
    w.put(rec.size);
    w.put(rec.flags);
}

/**
 * Decode the recordWireBytes packed bytes at @p p into @p rec,
 * validating the type and category bytes.  On failure returns false
 * with the reason in @p why.  Block-op ids are the caller's to bound:
 * in the chunked format the table arrives after the records.
 */
inline bool
decodeWireRecord(const char *p, TraceRecord &rec, const char **why)
{
    const auto type = std::uint8_t(p[16]);
    const auto category = std::uint8_t(p[17]);
    if (type > std::uint8_t(RecordType::BarrierArrive)) {
        *why = "bad record type";
        return false;
    }
    if (category >= unsigned(DataCategory::NumCategories)) {
        *why = "bad data category";
        return false;
    }
    std::memcpy(&rec.addr, p, sizeof(rec.addr));
    std::memcpy(&rec.aux, p + 8, sizeof(rec.aux));
    std::memcpy(&rec.bb, p + 12, sizeof(rec.bb));
    rec.type = RecordType(type);
    rec.category = DataCategory(category);
    rec.size = std::uint8_t(p[18]);
    rec.flags = std::uint8_t(p[19]);
    return true;
}

/** True iff @p rec names a block operation (its aux is the op id). */
inline bool
namesBlockOp(const TraceRecord &rec)
{
    return rec.type == RecordType::BlockOpBegin ||
           rec.type == RecordType::BlockOpEnd;
}

/**
 * Parse one text-format record line ('x', 'i', 'r', 'w', 'p', 'B',
 * 'E', 'L', 'U', 'A') into @p rec.  On failure returns false with
 * the reason in @p why.
 */
bool tryParseRecordLine(const std::string &line, TraceRecord &rec,
                        const char **why);

/**
 * Where a format walker puts what it finds, in file order.  The
 * whole-trace readers append every record to a Trace; FileTraceSource
 * only indexes where each cpu's records lie.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** The header's cpu count and format, before anything else. */
    virtual void begin(unsigned cpus, bool text) = 0;

    /** Update pages go here. */
    virtual std::unordered_set<Addr> &updatePages() = 0;

    /** The block-op table is built here. */
    virtual BlockOpTable &blockOps() = 0;

    /** Where @p cpu's decoded records go; null to only check them. */
    virtual RecordStream *records(CpuId cpu) = 0;

    /**
     * @p count records of @p cpu lie at bytes [@p offset, @p end) of
     * the file: one chunk's payload, or one run of text record lines
     * (and the comments among them) between two directives.
     */
    virtual void segment(CpuId cpu, std::uint64_t offset, std::uint64_t end,
                         std::uint64_t count) = 0;
};

/**
 * The one walker of the text format: the header, the `cpus` line,
 * the `updatepage`, `blockop` and `stream` directives, every record
 * line, and block-op references against the table.  False with the
 * reason in @p error on malformed input.
 */
bool walkText(std::istream &is, TraceSink &sink, std::string *error);

/**
 * The one walker of the chunked v3 format: the magic, the header,
 * the chunk sequence up to chunkEndMarker, every record through
 * decodeWireRecord(), the block-op table, block-op references
 * against it, the checksum, and trailing bytes.  With @p payloads false it
 * seeks over the record payloads instead, so the references and the
 * checksum go unchecked (the file's cursors decode and bound every
 * record later).  False with the reason in @p error on malformed
 * input.
 */
bool walkBinary(std::istream &is, TraceSink &sink, bool payloads,
                std::string *error);

/**
 * True when @p is starts with binaryMagic; rewinds @p is to its
 * first byte either way.
 */
bool startsBinary(std::istream &is);

/** walkBinary() or walkText(), as startsBinary() says. */
bool walkTrace(std::istream &is, TraceSink &sink, bool payloads,
               std::string *error);

} // namespace iodetail
} // namespace oscache

#endif // OSCACHE_TRACE_IO_DETAIL_HH
