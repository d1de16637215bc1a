/**
 * @file
 * Record emission helper used by the activity generators.
 *
 * An Emitter wraps one processor's record stream plus the shared
 * block-operation table, providing terse, correctly-annotated
 * append operations.
 *
 * Staging.  Each append builds its record once, in place, in a small
 * per-emitter staging array; a full array moves to the stream with
 * one bulk insert.  retarget() and flush() publish whatever is
 * staged, so a stream is complete only after one of them: a reader
 * that looks at the stream while the emitter is live calls flush()
 * first.  Records still staged when an emitter is destroyed are
 * dropped.  The generator retargets every emitter at the end of each
 * processor's quantum, so its callers see whole quanta.
 *
 * Why.  Generation is the largest cost of a sampled replay, and
 * storing the records used to cost more than deciding them: an
 * out-of-line vector append per record, copying a stack temporary.
 * A staged record is a few inline stores into memory the emitter
 * owns, and a batch costs one bulk copy.
 */

#ifndef OSCACHE_SYNTH_EMITTER_HH
#define OSCACHE_SYNTH_EMITTER_HH

#include <array>

#include "trace/trace.hh"

namespace oscache
{

/**
 * Appends annotated records to one processor's stream.
 */
class Emitter
{
  public:
    /** Records staged before a bulk insert (the lane block size). */
    static constexpr std::size_t stagingRecords = 256;

    /**
     * @param os_exec_scale Multiplier applied to OS instruction
     *        counts: the activity bodies state their data footprint
     *        precisely but only sketch their instruction counts, and
     *        real kernel paths run long (the paper's OS time is
     *        dominated by instruction execution).
     */
    Emitter(RecordStream &out, BlockOpTable &block_ops,
            double os_exec_scale = 1.0)
        : stream(&out), blockOps(block_ops), execScale(os_exec_scale)
    {}

    /**
     * Publish the staged records, then redirect emission to
     * @p new_stream.  The streaming generator points each emitter at
     * a fresh per-quantum chunk while the cumulative
     * instruction/reference state (which sizes the idle tails)
     * carries across quanta untouched.
     */
    void
    retarget(RecordStream &new_stream)
    {
        flush();
        stream = &new_stream;
    }

    /** Append the staged records to the stream. */
    void
    flush()
    {
        stream->insert(stream->end(), staged.begin(),
                       staged.begin() + fill);
        fill = 0;
    }

    /** Execute @p count (scaled) OS instructions in block @p bb. */
    void
    exec(std::uint32_t count, BasicBlockId bb)
    {
        const auto scaled =
            std::uint32_t(double(count) * execScale + 0.5);
        instrCount += scaled;
        put(TraceRecord::exec(scaled, bb, true));
    }

    /** Execute @p count user instructions in basic block @p bb. */
    void
    userExec(std::uint32_t count, BasicBlockId bb)
    {
        instrCount += count;
        put(TraceRecord::exec(count, bb, false));
    }

    /** Sit idle for @p cycles cycles. */
    void idle(std::uint32_t cycles)
    {
        put(TraceRecord::idle(cycles));
    }

    /** OS data read. */
    void
    read(Addr addr, DataCategory cat, BasicBlockId bb)
    {
        refCount += 1;
        put(TraceRecord::read(addr, cat, bb, true));
    }

    /** OS data write. */
    void
    write(Addr addr, DataCategory cat, BasicBlockId bb)
    {
        refCount += 1;
        put(TraceRecord::write(addr, cat, bb, true));
    }

    /** User data read. */
    void
    userRead(Addr addr, BasicBlockId bb)
    {
        refCount += 1;
        put(TraceRecord::read(addr, DataCategory::User, bb, false));
    }

    /** User data write. */
    void
    userWrite(Addr addr, BasicBlockId bb)
    {
        refCount += 1;
        put(TraceRecord::write(addr, DataCategory::User, bb, false));
    }

    /**
     * Emit a block operation bracket; the simulator's scheme-specific
     * executor expands the body.  @return the operation's id so the
     * caller can back-patch readOnlyAfter.
     */
    BlockOpId
    blockOp(Addr src, Addr dst, std::uint32_t size, BlockOpKind kind)
    {
        BlockOp op;
        op.src = src;
        op.dst = dst;
        op.size = size;
        op.kind = kind;
        const BlockOpId id = blockOps.add(op);
        blockWords += size / 4;

        TraceRecord begin;
        begin.type = RecordType::BlockOpBegin;
        begin.aux = id;
        begin.flags = flagOs;
        put(begin);

        TraceRecord end;
        end.type = RecordType::BlockOpEnd;
        end.aux = id;
        end.flags = flagOs;
        put(end);
        return id;
    }

    /** Acquire a kernel lock. */
    void
    lockAcquire(Addr addr)
    {
        TraceRecord r;
        r.type = RecordType::LockAcquire;
        r.addr = addr;
        r.category = DataCategory::Lock;
        r.flags = flagOs;
        put(r);
    }

    /** Release a kernel lock. */
    void
    lockRelease(Addr addr)
    {
        TraceRecord r;
        r.type = RecordType::LockRelease;
        r.addr = addr;
        r.category = DataCategory::Lock;
        r.flags = flagOs;
        put(r);
    }

    /** Arrive at a gang-scheduling barrier of @p parties processors. */
    void
    barrierArrive(Addr addr, std::uint32_t parties)
    {
        TraceRecord r;
        r.type = RecordType::BarrierArrive;
        r.addr = addr;
        r.aux = parties;
        r.category = DataCategory::Barrier;
        r.flags = flagOs;
        put(r);
    }

    BlockOpTable &blockOpTable() { return blockOps; }

    /**
     * Rough cycle estimate of everything emitted so far, used by the
     * generator to size idle periods: instructions at ~1.4 CPI
     * (including I-side stall), one cycle per buffered data
     * reference, and ~5 cycles per block-operation word.
     */
    std::uint64_t
    cycleEstimate() const
    {
        return instrCount * 14 / 10 + refCount + blockWords * 5;
    }

  private:
    /**
     * The one append path: store @p r in the next staging slot (the
     * calls above are inline, so the record is built there, not
     * copied from a temporary) and publish the batch once it is full.
     */
    void
    put(const TraceRecord &r)
    {
        staged[fill] = r;
        if (++fill == stagingRecords) [[unlikely]]
            flush();
    }

    RecordStream *stream;
    BlockOpTable &blockOps;
    double execScale = 1.0;
    std::uint64_t instrCount = 0;
    std::uint64_t refCount = 0;
    std::uint64_t blockWords = 0;
    std::size_t fill = 0;
    std::array<TraceRecord, stagingRecords> staged;
};

} // namespace oscache

#endif // OSCACHE_SYNTH_EMITTER_HH
