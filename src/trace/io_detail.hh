/**
 * @file
 * Internal building blocks shared by the trace serializers (io.cc)
 * and the streaming file reader (source.cc): the binary magic, the
 * index of a chunked file, and the one walker of the chunked format.
 *
 * This header is private to src/trace; nothing outside the library
 * should include it.  The public contract is io.hh and source.hh.
 */

#ifndef OSCACHE_TRACE_IO_DETAIL_HH
#define OSCACHE_TRACE_IO_DETAIL_HH

#include <cstdint>
#include <istream>
#include <string>
#include <unordered_set>
#include <vector>

#include "trace/trace.hh"

namespace oscache
{
namespace iodetail
{

/** Leading bytes of a binary trace file. */
inline constexpr char binaryMagic[4] = {'O', 'S', 'T', 'R'};

/** Chunk header sentinel terminating the chunk sequence. */
inline constexpr std::uint32_t chunkEndMarker = 0xffffffffu;

/** What a chunked file holds besides its blocks, and where they lie. */
struct ChunkIndex
{
    /** One block of records: its file offset and byte length. */
    struct Block
    {
        std::uint64_t offset = 0;
        std::uint32_t bytes = 0;
    };

    std::unordered_set<Addr> pages;
    BlockOpTable ops;
    /** Per cpu, its blocks in stream order. */
    std::vector<std::vector<Block>> blocks;
    /** Per cpu, its record count. */
    std::vector<std::size_t> records;
};

/**
 * The one walker of the chunked v4 format: the magic, the header, the
 * chunk sequence up to chunkEndMarker with every chunk header and
 * block length, the block-op table, the checksum, and trailing bytes.
 * With @p payloads it also reads every block, decodes it through
 * PackedTrace::decode(), checks its records with checkRecords() and
 * verifies the checksum; without, it seeks over the blocks, so their
 * records and the checksum go unchecked (the file's cursors decode
 * and check every block later).  Fills @p index; false with the
 * reason in @p error on malformed input.
 */
bool walkChunked(std::istream &is, ChunkIndex &index, bool payloads,
                 std::string *error);

/**
 * True when @p is starts with binaryMagic; rewinds @p is to its
 * first byte either way.
 */
bool startsBinary(std::istream &is);

} // namespace iodetail
} // namespace oscache

#endif // OSCACHE_TRACE_IO_DETAIL_HH
