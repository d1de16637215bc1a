/**
 * @file
 * PackedTrace: an immutable multiprocessor trace held at a few bytes
 * a record, and the TraceSource that replays it.
 *
 * A sweep replays one trace against many memory systems, so the
 * trace cache keeps each trace resident for the whole sweep, and at
 * 24 bytes a TraceRecord the resident traces dominate its memory.
 * The records are highly redundant: data addresses move in small
 * steps, the basic block rarely changes from one record to the next,
 * and each record type leaves most fields at fixed values.
 *
 * PackedTrace keeps each processor's records in self-contained blocks
 * of blockRecords, laid out as one header byte per record followed by
 * the records' payload bytes.  A header byte names the record's form:
 * its type and flags, and the byte width of each field the payload
 * carries.  The address is a signed delta from the block's previous
 * address.  The basic block is a delta from the previous one, and
 * width 0 repeats it.  A data record's category is a byte, or the
 * previous data record's.  Every field a form does not carry takes
 * its type's fixed value.  A record no form fits (an address on an
 * Exec, an aux on a Read, an undefined flag bit, a size other than 4)
 * takes the escape form, which carries all its field bytes, so
 * packing never changes a replay.
 *
 * Most records repeat the previous basic block and category and carry
 * one field, the address delta or the aux value; the decoder reads
 * those with one table lookup and one masked load, without a branch,
 * and reads the rest field by field.  The headers sit apart from the
 * payload, so finding the next record waits on no load.  A per-stream
 * block index lets a cursor decode one block at a time and skip by
 * arithmetic.
 */

#ifndef OSCACHE_TRACE_PACKED_HH
#define OSCACHE_TRACE_PACKED_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "trace/source.hh"
#include "trace/trace.hh"

namespace oscache
{

class PackedTrace
{
  public:
    /** Records per block; every block but a stream's last is full. */
    static constexpr std::size_t blockRecords = 256;

    class Builder;

    /**
     * Pack @p source, reading each processor's cursor to its end in
     * turn, then taking the block-op table (it may grow while the
     * cursors are read).  Only for sources whose cursors buffer
     * nothing for the processors not being read (files, in-memory
     * traces); synthesis buffers them, so generatePacked() drives the
     * generator one quantum at a time instead.
     */
    static PackedTrace pack(TraceSource &source);

    unsigned numCpus() const { return unsigned(streams.size()); }

    /** Records of @p cpu's stream. */
    std::size_t records(CpuId cpu) const { return stream(cpu).records; }

    /** Records across all streams. */
    std::size_t totalRecords() const;

    const BlockOpTable &blockOps() const { return ops; }
    const std::unordered_set<Addr> &updatePages() const { return pages; }

    /**
     * Decode block @p block of @p cpu's stream into @p out, which
     * holds blockRecords; returns the block's record count.  Panics
     * unless the block decodes to exactly its byte range.
     */
    std::size_t decodeBlock(CpuId cpu, std::size_t block,
                            TraceRecord *out) const;

    /**
     * Heap bytes held: the capacity of every buffer, and the
     * block-op table and update pages at their element sizes.
     */
    std::size_t bytes() const;

    /** The whole trace, decoded. */
    Trace unpack() const;

  private:
    /** One processor's blocks. */
    struct Stream
    {
        /** The blocks back to back, then loadPadding zero bytes. */
        std::vector<std::uint8_t> bytes;
        /** Where each block starts, and where the last one ends. */
        std::vector<std::uint64_t> starts;
        std::size_t records = 0;
    };

    /**
     * Zero bytes after a stream's last block, so the decoder's 8-byte
     * loads at a field near the end stay inside the buffer.
     */
    static constexpr std::size_t loadPadding = 8;

    const Stream &
    stream(CpuId cpu) const
    {
        if (cpu >= streams.size())
            panic("PackedTrace: bad cpu ", int(cpu));
        return streams[cpu];
    }

    std::vector<Stream> streams;
    BlockOpTable ops;
    std::unordered_set<Addr> pages;
};

/**
 * Packs records as they arrive, per processor and in any interleaving
 * of processors: each full block is encoded at once, so only a
 * partial block per processor stays unpacked.
 */
class PackedTrace::Builder
{
  public:
    explicit Builder(unsigned num_cpus);

    /** Append @p count records to @p cpu's stream. */
    void append(CpuId cpu, const TraceRecord *records, std::size_t count);

    /**
     * Encode the partial blocks and hand over the trace, with the
     * final block-op table and update pages.
     */
    PackedTrace finish(const BlockOpTable &block_ops,
                       const std::unordered_set<Addr> &update_pages) &&;

  private:
    struct Lane
    {
        Stream stream;
        /** The records of the block being filled. */
        std::vector<TraceRecord> pending;
    };

    /** Encode @p count records as @p stream's next block. */
    static void seal(Stream &stream, const TraceRecord *records,
                     std::size_t count);

    std::vector<Lane> lanes;
};

/**
 * TraceSource over a shared PackedTrace.  Cursors may be opened any
 * number of times; each decodes one block at a time into a buffer it
 * owns and hands the block's unread records out as one peekRun()
 * span.  Its mode() is "materialized", like the in-memory trace it
 * replaces, so result rows do not depend on how the cache holds a
 * trace.
 */
class PackedTraceSource final : public TraceSource
{
  public:
    explicit PackedTraceSource(std::shared_ptr<const PackedTrace> trace)
        : packed(std::move(trace))
    {}

    unsigned numCpus() const override { return packed->numCpus(); }
    const BlockOpTable &blockOps() const override
    {
        return packed->blockOps();
    }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return packed->updatePages();
    }
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override;
    std::optional<std::size_t>
    knownRecords(CpuId cpu) const override
    {
        return packed->records(cpu);
    }
    const char *mode() const override { return "materialized"; }

  private:
    class Cursor;

    std::shared_ptr<const PackedTrace> packed;
};

} // namespace oscache

#endif // OSCACHE_TRACE_PACKED_HH
