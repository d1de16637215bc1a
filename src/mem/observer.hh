/**
 * @file
 * Coherence-event observation interface.
 *
 * MemorySystem can be fitted with a MemEventObserver that is notified
 * of every secondary-cache state transition, every primary-cache fill
 * and invalidation, and the completion of every processor-side
 * operation.  The production observer is the coherence invariant
 * checker in src/check, which shadows the protocol state and asserts
 * SWMR, inclusion, and edge legality; keeping the interface abstract
 * here avoids a dependency cycle (mem must not link against check).
 *
 * All hooks default to no-ops so the observer costs a null-pointer
 * test per event when disabled.
 */

#ifndef OSCACHE_MEM_OBSERVER_HH
#define OSCACHE_MEM_OBSERVER_HH

#include "common/log.hh"
#include "common/types.hh"
#include "mem/access.hh"
#include "mem/cache.hh"

namespace oscache
{

class MemorySystem;
struct BlockOp;

/** Processor-side operation classes reported to the observer. */
enum class MemOpKind : std::uint8_t
{
    Read,
    Write,
    Prefetch,
    BypassWrite,
    CodeFill,
    InstructionFetch,
    Dma,
};

/**
 * Everything known about one completed processor-side data operation,
 * reported through MemEventObserver::onAccess.  Unlike the coherence
 * hooks below, access events fire on *every* completion — hits, merged
 * in-flight fills, and dropped prefetches included — so a profiler can
 * attribute misses and latency per issuing site.
 */
struct MemAccessEvent
{
    MemOpKind kind = MemOpKind::Read;
    CpuId cpu = 0;
    Addr addr = invalidAddr;
    /** Cycle the operation was issued (before any stalls). */
    Cycles issued = 0;
    /** The issuing context (os/blockOpBody/category/basic block). */
    AccessContext ctx;
    /** The operation's result (defaulted for void operations). */
    AccessResult result;
    /** True when a prefetch was dropped (MSHRs or buffer busy). */
    bool dropped = false;
    /**
     * BypassWrite granularity: true for a full secondary-line bypass
     * (writeBypassLine), false for a single bypassed word.
     */
    bool wholeLine = false;
    /** BypassWrite only: the write snoop-invalidated other copies. */
    bool invalidated = false;
    /**
     * Read only: serviced by readViaPrefetchBuffer's own-cache or
     * buffer paths (which, unlike read(), leave the in-flight fill
     * registers untouched).  A buffer read that falls through to the
     * bus reports as an ordinary read.
     */
    bool viaBuffer = false;
};

/**
 * Passive observer of memory-system coherence events.
 */
struct MemEventObserver
{
    virtual ~MemEventObserver() = default;

    /**
     * Per-access reporting is gated: the memory system queries this
     * once at setObserver() time and builds MemAccessEvent records
     * only when the observer wants them, so the default (coherence
     * checking only) costs one flag test per access.
     */
    virtual bool wantsAccessEvents() const { return false; }

    /**
     * onOperationBegin is gated the same way: it fires before every
     * processor-side operation, hits included, so observers that do
     * not classify transitions by initiator are spared the call.
     */
    virtual bool wantsOperationBegin() const { return false; }

    /** A processor-side data operation completed (all outcomes). */
    virtual void
    onAccess(const MemAccessEvent &event)
    {
        (void)event;
    }

    /**
     * A whole block operation (copy/zero) executed on @p cpu from
     * @p start to @p end simulated cycles.  Reported by the simulation
     * engine around the scheme executor, so it brackets every per-word
     * access and bus transaction the operation caused.
     */
    virtual void
    onBlockOp(CpuId cpu, const BlockOp &op, Cycles start, Cycles end)
    {
        (void)cpu;
        (void)op;
        (void)start;
        (void)end;
    }

    /**
     * A secondary-cache line of @p cpu moved from @p from to @p to.
     * Fired for fills (from Invalid), state changes, invalidations
     * (to Invalid), and replacements (the victim's to-Invalid edge).
     */
    virtual void
    onL2Transition(CpuId cpu, Addr l2_line, LineState from, LineState to)
    {
        (void)cpu;
        (void)l2_line;
        (void)from;
        (void)to;
    }

    /** A primary data-cache line of @p cpu was installed. */
    virtual void
    onL1Fill(CpuId cpu, Addr l1_line)
    {
        (void)cpu;
        (void)l1_line;
    }

    /** A primary data-cache line of @p cpu was dropped. */
    virtual void
    onL1Drop(CpuId cpu, Addr l1_line)
    {
        (void)cpu;
        (void)l1_line;
    }

    /**
     * A processor-side operation is about to execute (gated on
     * wantsOperationBegin()).  Fired before
     * the operation touches any cache state, so an observer that
     * classifies the L2 transitions between begin and end (the
     * conformance extractor in src/verif) knows which processor
     * initiated them, what kind of operation is in flight, and what
     * the initiator's pre-operation line state was.
     */
    virtual void
    onOperationBegin(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                     Addr addr)
    {
        (void)mem;
        (void)op;
        (void)cpu;
        (void)addr;
    }

    /**
     * A DMA block operation (Blk_Dma) is about to execute on @p cpu.
     * Unlike onOperationBegin this carries the whole descriptor, so a
     * transition classifier can tell source-range snoops from
     * destination-range in-place updates.
     */
    virtual void
    onDmaBegin(CpuId cpu, const BlockOp &op)
    {
        (void)cpu;
        (void)op;
    }

    /**
     * A processor-side operation finished.  Deferred whole-system
     * invariants (SWMR, inclusion) are checked here rather than per
     * transition: mid-operation the protocol legitimately passes
     * through states where an L1 line's covering L2 line is already
     * gone (snoop invalidation runs L2-first).
     */
    virtual void
    onOperationEnd(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                   Addr addr)
    {
        (void)mem;
        (void)op;
        (void)cpu;
        (void)addr;
    }

    /**
     * @name Operation-input taps (gated on wantsAccessEvents())
     *
     * These report the *inputs* of operations that mutate cache state
     * without producing a per-access result: instruction-footprint
     * fills, DMA block operations, and Blk_ByPref buffer fills.  A
     * differential oracle needs them to keep an independent model in
     * step; they deliberately carry no engine outcome, so the
     * receiving model must derive the consequences itself.
     * @{
     */

    /** @p cpu installed the code lines of [@p addr, @p addr+bytes). */
    virtual void
    onCodeFill(CpuId cpu, Addr addr, std::uint32_t bytes)
    {
        (void)cpu;
        (void)addr;
        (void)bytes;
    }

    /** @p cpu executed @p op on the DMA-like engine (Blk_Dma). */
    virtual void
    onDma(CpuId cpu, const BlockOp &op)
    {
        (void)cpu;
        (void)op;
    }

    /**
     * @p cpu appended the primary line of @p addr to its Blk_ByPref
     * source prefetch buffer (fired only when an entry was actually
     * added — deduplicated and dropped prefetches are silent).
     */
    virtual void
    onBufferPrefetchFill(CpuId cpu, Addr addr)
    {
        (void)cpu;
        (void)addr;
    }

    /** @} */
};

/**
 * Flat, devirtualized observer fan-out: a fixed array of taps the
 * memory system iterates inline.  The forwarders are non-virtual and
 * inlined into the notify helpers, so an event costs exactly one
 * `active()` branch when nothing is attached and one virtual call per
 * tap otherwise.  Per-access events (and the operation-input taps
 * gated with them) reach only the taps whose wantsAccessEvents() is
 * true, and onOperationBegin only those whose wantsOperationBegin()
 * is; both answers are cached at attach time, so the per-access gate
 * is a single flag test.
 */
class ObserverFanout
{
  public:
    /** Check / obs / dft taps, plus one spare. */
    static constexpr unsigned maxTaps = 4;

    void
    clear()
    {
        count = 0;
        accessCount = 0;
        beginCount = 0;
    }

    /** Attach @p observer (ignored when null). */
    void
    add(MemEventObserver *observer)
    {
        if (observer == nullptr)
            return;
        if (count >= maxTaps)
            panic("ObserverFanout: more than ", maxTaps, " taps");
        taps[count++] = observer;
        if (observer->wantsAccessEvents())
            accessTaps[accessCount++] = observer;
        if (observer->wantsOperationBegin())
            beginTaps[beginCount++] = observer;
    }

    bool active() const { return count != 0; }
    bool empty() const { return count == 0; }
    unsigned size() const { return count; }

    /** Cached any-tap wantsAccessEvents() (hot-path gate). */
    bool wantsAccessEvents() const { return accessCount != 0; }

    void
    onAccess(const MemAccessEvent &event) const
    {
        for (unsigned i = 0; i < accessCount; ++i)
            accessTaps[i]->onAccess(event);
    }

    void
    onBlockOp(CpuId cpu, const BlockOp &op, Cycles start, Cycles end) const
    {
        for (unsigned i = 0; i < count; ++i)
            taps[i]->onBlockOp(cpu, op, start, end);
    }

    void
    onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                   LineState to) const
    {
        for (unsigned i = 0; i < count; ++i)
            taps[i]->onL2Transition(cpu, l2_line, from, to);
    }

    void
    onL1Fill(CpuId cpu, Addr l1_line) const
    {
        for (unsigned i = 0; i < count; ++i)
            taps[i]->onL1Fill(cpu, l1_line);
    }

    void
    onL1Drop(CpuId cpu, Addr l1_line) const
    {
        for (unsigned i = 0; i < count; ++i)
            taps[i]->onL1Drop(cpu, l1_line);
    }

    void
    onOperationBegin(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                     Addr addr) const
    {
        for (unsigned i = 0; i < beginCount; ++i)
            beginTaps[i]->onOperationBegin(mem, op, cpu, addr);
    }

    void
    onDmaBegin(CpuId cpu, const BlockOp &op) const
    {
        for (unsigned i = 0; i < count; ++i)
            taps[i]->onDmaBegin(cpu, op);
    }

    void
    onOperationEnd(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                   Addr addr) const
    {
        for (unsigned i = 0; i < count; ++i)
            taps[i]->onOperationEnd(mem, op, cpu, addr);
    }

    void
    onCodeFill(CpuId cpu, Addr addr, std::uint32_t bytes) const
    {
        for (unsigned i = 0; i < accessCount; ++i)
            accessTaps[i]->onCodeFill(cpu, addr, bytes);
    }

    void
    onDma(CpuId cpu, const BlockOp &op) const
    {
        for (unsigned i = 0; i < accessCount; ++i)
            accessTaps[i]->onDma(cpu, op);
    }

    void
    onBufferPrefetchFill(CpuId cpu, Addr addr) const
    {
        for (unsigned i = 0; i < accessCount; ++i)
            accessTaps[i]->onBufferPrefetchFill(cpu, addr);
    }

  private:
    MemEventObserver *taps[maxTaps] = {};
    unsigned count = 0;
    /** The taps that asked for per-access events. */
    MemEventObserver *accessTaps[maxTaps] = {};
    unsigned accessCount = 0;
    /** The taps that asked for onOperationBegin. */
    MemEventObserver *beginTaps[maxTaps] = {};
    unsigned beginCount = 0;
};

} // namespace oscache

#endif // OSCACHE_MEM_OBSERVER_HH
