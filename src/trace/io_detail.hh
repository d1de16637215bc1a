/**
 * @file
 * Internal building blocks shared by the trace serializers (io.cc)
 * and the streaming file reader (source.cc): the binary magic and
 * per-record wire layout, the streaming FNV-1a checksum, small
 * put/get wrappers over iostreams, and the text-format record parser.
 *
 * This header is private to src/trace; nothing outside the library
 * should include it.  The public contract is io.hh and source.hh.
 */

#ifndef OSCACHE_TRACE_IO_DETAIL_HH
#define OSCACHE_TRACE_IO_DETAIL_HH

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "common/binio.hh"
#include "trace/blockop.hh"
#include "trace/record.hh"

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
using binio::ChecksumStream;

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
 * Read one record in the packed wire layout, validating the type and
 * category bytes.  On failure returns false with the reason in
 * @p why (block-op id bounds are the caller's job: in the chunked
 * format the table arrives after the records).
 */
inline bool
getRecord(BinaryReader &r, TraceRecord &rec, const char **why)
{
    std::uint8_t type = 0;
    std::uint8_t category = 0;
    if (!r.get(rec.addr) || !r.get(rec.aux) || !r.get(rec.bb) ||
        !r.get(type) || !r.get(category) || !r.get(rec.size) ||
        !r.get(rec.flags)) {
        *why = "truncated record stream";
        return false;
    }
    if (type > std::uint8_t(RecordType::BarrierArrive)) {
        *why = "bad record type";
        return false;
    }
    if (category >= static_cast<unsigned>(DataCategory::NumCategories)) {
        *why = "bad data category";
        return false;
    }
    rec.type = RecordType(type);
    rec.category = DataCategory(category);
    return true;
}

/** Text-format category code ("user", "kpriv", ...). */
const char *categoryCode(DataCategory cat);

/** Inverse of categoryCode(); false on an unknown code. */
bool tryParseCategory(const std::string &code, DataCategory &out);

/** As tryParseCategory(), but fatal() on an unknown code. */
DataCategory parseCategory(const std::string &code);

/** Append @p rec to @p os as one text-format record line. */
void putRecordText(std::ostream &os, const TraceRecord &rec);

/**
 * Parse one text-format record line ('x', 'i', 'r', 'w', 'p', 'B',
 * 'E', 'L', 'U', 'A') into @p rec.  On failure returns false with
 * the reason in @p why — the streaming validator turns that into a
 * clean tryOpen() error rather than an exit.
 */
bool tryParseRecordLine(const std::string &line, TraceRecord &rec,
                        const char **why);

/** As tryParseRecordLine(), but fatal() naming the offending line. */
TraceRecord parseRecordLine(const std::string &line);

/**
 * Parse the serialized block-op table.  False with the reason in
 * @p why on malformed input.
 */
bool getBlockOps(BinaryReader &r, BlockOpTable &ops, const char **why);

/**
 * Parse a binary trace's header after the magic: the version word
 * (only traceFormatVersion is accepted; anything else is an
 * "unsupported version"), the cpu count and the update pages.  False
 * with the reason in @p why on malformed input.
 */
bool getHeader(BinaryReader &r, std::uint32_t &cpus,
               std::unordered_set<Addr> &pages, const char **why);

} // namespace iodetail
} // namespace oscache

#endif // OSCACHE_TRACE_IO_DETAIL_HH
