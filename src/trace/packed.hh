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
 *
 * The blocks are also what a chunked trace file holds (trace/io.hh,
 * format v4): the file stores a cached trace's blocks unchanged, its
 * writer seals blocks with the Builder below, and its cursor is the
 * same PackedBlockCursor, reading a block's bytes from the file
 * instead of memory.  decode() is the one decoder of binary records,
 * and since a file's bytes come from outside, it rejects any block
 * whose headers name no form or disagree with its length.
 */

#ifndef OSCACHE_TRACE_PACKED_HH
#define OSCACHE_TRACE_PACKED_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
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

    /**
     * Most bytes one record takes: its header and the escape form's
     * payload.  A block of n records takes n to n * maxRecordBytes.
     */
    static constexpr std::size_t maxRecordBytes = 1 + 20;

    /**
     * Bytes decode() may read past a well-formed block, so a buffer
     * holding one ends with this many readable bytes.
     */
    static constexpr std::size_t loadPadding = 8;

    /** A run of one stream's blocks, back to back. */
    struct Blocks
    {
        const std::uint8_t *bytes = nullptr;
        /** Where each block starts, then where the last one ends. */
        std::span<const std::uint64_t> starts;
        /** Records in the run; all its blocks but the last are full. */
        std::size_t records = 0;

        std::size_t count() const { return starts.size() - 1; }
    };

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

    /**
     * The one decoder of a block: the @p size bytes at @p block hold
     * @p records records (1 to blockRecords), which it writes to
     * @p out.  Returns null, or why the bytes are not such a block: a
     * header byte that names no form, or headers whose payloads do not
     * add up to @p size.  It reads only the bytes before
     * block + max(size + loadPadding, records * maxRecordBytes),
     * whatever they hold.  Fields are decoded as stored: an escaped
     * type byte or any category byte may lie outside its enum, so a
     * reader of outside bytes checks the records too.
     */
    static const char *decode(const std::uint8_t *block, std::size_t size,
                              std::size_t records, TraceRecord *out);

    unsigned numCpus() const { return unsigned(streams.size()); }

    /** Records of @p cpu's stream. */
    std::size_t records(CpuId cpu) const { return stream(cpu).records; }

    /** Records across all streams. */
    std::size_t totalRecords() const;

    /** Every block of @p cpu's stream. */
    Blocks blocks(CpuId cpu) const { return stream(cpu).view(); }

    const BlockOpTable &blockOps() const { return ops; }
    const std::unordered_set<Addr> &updatePages() const { return pages; }

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
        /**
         * The blocks back to back; in a finished trace, then
         * loadPadding zero bytes.
         */
        std::vector<std::uint8_t> bytes;
        /** Where each block starts, then where the last one ends. */
        std::vector<std::uint64_t> starts{0};
        std::size_t records = 0;

        Blocks
        view() const
        {
            return {bytes.data(), starts, records};
        }
    };

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
     * Hand @p cpu's blocks sealed since the last take() to @p write
     * (unless there are none), then drop them, so a writer streaming
     * the blocks out holds only the block being filled.
     */
    void take(CpuId cpu, const std::function<void(const Blocks &)> &write);

    /**
     * Encode the partial blocks and hand over the trace, with the
     * final block-op table and update pages: every block not taken.
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
 * Reads one processor's stream of packed blocks: decodes one block at
 * a time into a buffer it owns and hands the block's unread records
 * out as one peekRun() span.  skip() is position arithmetic; the next
 * read decodes the block it lands in.  Both packed sources read
 * through it and differ only in where a block's bytes come from: a
 * PackedTraceSource's are in memory, a FileTraceSource's are read
 * from the file.
 */
class PackedBlockCursor : public RecordCursor
{
  public:
    const TraceRecord *
    peek() final
    {
        return buffered() ? &buf[next - base] : nullptr;
    }

    void advance() final { ++next; }

    std::size_t
    skip(std::size_t n) final
    {
        const std::size_t done = std::min(n, total - next);
        next += done;
        return done;
    }

    std::size_t
    peekRun(const TraceRecord *&first) final
    {
        if (!buffered()) {
            first = nullptr;
            return 0;
        }
        first = &buf[next - base];
        return filled - (next - base);
    }

    void advanceRun(std::size_t n) final { next += n; }

  protected:
    /**
     * A cursor over a stream of @p records records.  With @p ops, the
     * blocks are outside bytes: every decoded record is checked by
     * checkRecords(), and the block-op ids it names against @p ops
     * (which must outlive the cursor).
     */
    PackedBlockCursor(std::size_t records, const BlockOpTable *ops)
        : total(records), checked(ops)
    {}

    /**
     * Block @p block's bytes, with their count in @p size, readable
     * as far as PackedTrace::decode() may read.
     */
    virtual const std::uint8_t *blockBytes(std::size_t block,
                                           std::size_t &size) = 0;

    /** Report a block that does not decode, for @p why; never returns. */
    [[noreturn]] virtual void reject(const char *why) = 0;

  private:
    /** True once the record at next is in buf; false at the end. */
    bool
    buffered()
    {
        if (next - base < filled)
            return true;
        if (next >= total)
            return false;
        load(next / PackedTrace::blockRecords);
        return true;
    }

    /** Decode block @p block into buf. */
    void load(std::size_t block);

    std::size_t total;
    const BlockOpTable *checked;
    /** One past the largest block-op id read, when checked. */
    std::uint64_t opBound = 0;
    /** The cursor's position; records [base, base + filled) are in buf. */
    std::size_t next = 0;
    std::size_t base = 0;
    std::size_t filled = 0;
    std::array<TraceRecord, PackedTrace::blockRecords> buf;
};

/**
 * Why @p count decoded records read from outside bytes are not a
 * trace's records: a type or category byte outside its enum; null
 * when they are.  Raises @p op_bound to one past the largest
 * block-op id they name, for the caller to bound by its table.
 */
const char *checkRecords(const TraceRecord *records, std::size_t count,
                         std::uint64_t &op_bound);

/**
 * TraceSource over a shared PackedTrace.  Cursors may be opened any
 * number of times.  Its mode() is "materialized", like the in-memory
 * trace it replaces, so result rows do not depend on how the cache
 * holds a trace.
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
