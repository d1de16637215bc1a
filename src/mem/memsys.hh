/**
 * @file
 * The multiprocessor memory system.
 *
 * MemorySystem owns, per processor, the primary and secondary caches,
 * both write buffers, the in-flight (lockup-free) fill registers, and
 * the Blk_ByPref source prefetch buffer; and, shared, the
 * split-transaction bus and the Illinois/Firefly coherence state.
 * Coherence is snooping: every bus transaction probes the other
 * processors' secondary caches directly (there are only three).
 *
 * The class also carries the bookkeeping needed to reproduce the
 * paper's miss taxonomy, held in flat MarkTable instances (one probe
 * per classification, see mem/marks.hh):
 *
 *  - per-processor marks on lines invalidated by coherence (a
 *    subsequent primary-cache miss on such a line is a coherence
 *    miss),
 *  - per-processor marks on lines whose last eviction was caused by a
 *    block-operation fill (a subsequent miss is a block *displacement*
 *    miss, Section 4.1.3),
 *  - global marks on lines last touched by a cache-bypassing block
 *    operation (a subsequent miss is a *reuse* miss, Section 4.1.3).
 *
 * Writes to lines in pages registered with setUpdatePages() use the
 * Firefly update protocol instead of Illinois invalidations
 * (Section 5.2's selective update).
 */

#ifndef OSCACHE_MEM_MEMSYS_HH
#define OSCACHE_MEM_MEMSYS_HH

#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/binio.hh"
#include "common/types.hh"
#include "mem/access.hh"
#include "mem/arena.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/config.hh"
#include "mem/marks.hh"
#include "mem/observer.hh"
#include "mem/write_buffer.hh"
#include "trace/blockop.hh"

namespace oscache
{

/**
 * The complete bus-based multiprocessor memory system.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &config);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** @name Processor-side operations @{ */

    /**
     * Blocking data read.  With ctx.allocate false the caches are
     * probed but a missing line is fetched without being installed
     * (the Blk_Bypass source path).
     */
    AccessResult read(CpuId cpu, Addr addr, Cycles now,
                      const AccessContext &ctx);

    /**
     * Buffered data write (write-through L1, write-allocate; release
     * consistency).  The processor stalls only on write-buffer
     * overflow.
     */
    AccessResult write(CpuId cpu, Addr addr, Cycles now,
                       const AccessContext &ctx);

    /**
     * Non-binding software prefetch of the line containing @p addr
     * into both cache levels.  Dropped when all outstanding-miss
     * registers are busy.
     */
    void prefetch(CpuId cpu, Addr addr, Cycles now,
                  const AccessContext &ctx);

    /**
     * Full secondary-line bypass write (Blk_Bypass destination path):
     * the line goes from the bypass register through the L2-to-bus
     * write buffer to memory without entering this processor's
     * caches; stale copies elsewhere are invalidated.
     */
    AccessResult writeBypassLine(CpuId cpu, Addr addr, Cycles now,
                                 const AccessContext &ctx);

    /**
     * Single bypassed word write (Blk_Bypass deposits its destination
     * words into the L2-to-bus write buffer one by one — the effect
     * the paper blames for the scheme's write-buffer overflow).
     * @param invalidate Snoop-invalidate the line (first word only).
     */
    AccessResult writeBypassWord(CpuId cpu, Addr addr, Cycles now,
                                 const AccessContext &ctx,
                                 bool invalidate);

    /**
     * Prefetch a primary-cache-sized line into the Blk_ByPref source
     * prefetch buffer (FIFO of blockPrefetchBufferLines entries).
     */
    void prefetchIntoBuffer(CpuId cpu, Addr addr, Cycles now);

    /**
     * Read through the Blk_ByPref prefetch buffer: own caches are
     * probed first (without allocation on miss), then the buffer,
     * then the bus.
     */
    AccessResult readViaPrefetchBuffer(CpuId cpu, Addr addr, Cycles now,
                                       const AccessContext &ctx);

    /**
     * Instruction-fetch pressure on the unified secondary cache:
     * install the code lines of a basic block, evicting data
     * victims.  Timing is handled by the statistical I-miss model.
     */
    void codeFill(CpuId cpu, Addr code_addr, std::uint32_t bytes);

    /**
     * Detailed instruction-fetch model: probe the 16-KB primary
     * instruction cache for every code line of the block, filling
     * misses from the unified L2 (or, beyond it, the bus) and
     * charging their latency.  Subsumes codeFill's capacity effect.
     *
     * @return The instruction-miss stall in cycles.
     */
    Cycles instructionFetch(CpuId cpu, Addr code_addr, std::uint32_t bytes,
                            Cycles now);

    /**
     * Release-consistency fence: returns the cycle by which both of
     * this processor's write buffers have drained.
     */
    Cycles fence(CpuId cpu, Cycles now);

    /**
     * Execute a whole block operation with the DMA-like engine
     * (Blk_Dma): the bus is held for the duration, caches are
     * bypassed but kept coherent by snooping (resident destination
     * lines are updated in place, dirty source lines are supplied by
     * their owners).
     *
     * @return The cycle at which the operation (and the stalled
     *         originating processor) completes.
     */
    Cycles dmaBlockOp(CpuId cpu, const BlockOp &op, Cycles now);

    /** @} */

    /** @name Configuration and inspection @{ */

    /** Register the set of page-aligned update-protocol pages. */
    void
    setUpdatePages(const std::unordered_set<Addr> *pages)
    {
        updatePages = pages;
    }

    const MachineConfig &config() const { return cfg; }
    Bus &bus() { return theBus; }
    const Bus &bus() const { return theBus; }

    /** @name Two-level interconnect inspection @{ */

    /** True iff the machine runs the two-level NUMA interconnect. */
    bool numaActive() const { return numa != nullptr; }

    /** Per-socket snooping bus @p s (NUMA mode only). */
    Bus &socketBus(unsigned s) { return numa->socketBus[s]; }
    const Bus &socketBus(unsigned s) const { return numa->socketBus[s]; }

    /** The inter-socket link (NUMA mode only). */
    Bus &linkBus() { return numa->link; }
    const Bus &linkBus() const { return numa->link; }

    /** Aggregate directory-filter and home-locality counters. */
    struct NumaCounters
    {
        /** Snoop broadcasts the home directory kept socket-local. */
        std::uint64_t snoopsFiltered = 0;
        /** Snoop broadcasts forwarded across the link. */
        std::uint64_t snoopsForwarded = 0;
        /** Line reads whose home memory was the local socket. */
        std::uint64_t localHomeReads = 0;
        /** Line reads that paid the remote-home penalty. */
        std::uint64_t remoteHomeReads = 0;
    };

    /** Current counter values (all zero on a flat machine). */
    NumaCounters
    numaCounters() const
    {
        return numa != nullptr ? numa->counters : NumaCounters{};
    }

    /** @} */

    /** True iff @p cpu's primary cache holds the line of @p addr. */
    bool l1Contains(CpuId cpu, Addr addr) const;
    /** State of @p addr's line in @p cpu's secondary cache. */
    LineState l2State(CpuId cpu, Addr addr) const;

    /** True iff @p addr lies in a registered update-protocol page. */
    bool isUpdateAddr(Addr addr) const;

    /** @} */

    /** @name Verification hooks @{ */

    /** Attach (or, with nullptr, detach) a single event observer. */
    void
    setObserver(MemEventObserver *obs)
    {
        fan.clear();
        fan.add(obs);
    }

    /**
     * Attach several observers at once (nulls are skipped) through
     * the flat fan-out — check / obs / dft taps, one virtual call per
     * interested tap and event.
     */
    void
    setObservers(std::initializer_list<MemEventObserver *> taps)
    {
        fan.clear();
        for (MemEventObserver *tap : taps)
            fan.add(tap);
    }

    /**
     * The fan-out of attached observers (engine-level events such as
     * onBlockOp are reported through it by the simulation engine).
     */
    const ObserverFanout &observers() const { return fan; }

    /** Read-only views for invariant audits. */
    const L1Cache &l1Cache(CpuId cpu) const { return cpus[cpu].l1; }
    const L2Cache &l2Cache(CpuId cpu) const { return cpus[cpu].l2; }
    const WriteBuffer &l1WriteBuffer(CpuId cpu) const
    {
        return cpus[cpu].l1Wb;
    }
    const WriteBuffer &l2WriteBuffer(CpuId cpu) const
    {
        return cpus[cpu].l2Wb;
    }

    /**
     * Test-only fault injection: force the state of @p addr's
     * secondary line on @p cpu, installing or evicting it as needed
     * and notifying the observer of the transition.  This lets the
     * checker tests seed SWMR, inclusion, and illegal-edge defects
     * the production protocol can never produce.
     */
    void debugSetL2State(CpuId cpu, Addr addr, LineState state);

    /** @} */

    /** @name Live-points checkpointing @{ */

    /**
     * Serialize the complete warm state — every cache tag array,
     * both write buffers, the in-flight fills, the miss-taxonomy
     * sets, the prefetch buffer, and the bus — deterministically
     * (unordered containers are written sorted, so identical states
     * produce identical bytes).  The observer and the update-page
     * registration are wiring, not state, and are not saved.
     */
    void saveState(binio::BinaryWriter &w) const;

    /**
     * Inverse of saveState().  Must be called on a MemorySystem
     * built from the same MachineConfig; false with @p error set on
     * truncated input or a geometry mismatch.
     */
    bool loadState(binio::BinaryReader &r, std::string *error);

    /** @} */

  private:
    /** In-flight fill of a primary-cache line (lockup-free L2). */
    struct InFlightFill
    {
        Cycles readyAt = 0;
        MissCause cause = MissCause::Plain;
        bool byPrefetch = false;
    };

    /** One entry of the Blk_ByPref source prefetch buffer. */
    struct BufferLine
    {
        Addr lineAddr = invalidAddr;
        Cycles readyAt = 0;
    };

    /** All per-processor state. */
    struct CpuMem
    {
        /**
         * The hot banks — all three tag arrays, the L2 state bank,
         * and both write-buffer rings — are carved from the per-run
         * arena, so every processor's per-access state is contiguous.
         */
        CpuMem(const MachineConfig &c, SimArena &arena)
            : l1(c.l1Size, c.l1LineSize, c.l1Ways, arena),
              icache(c.iCacheSize, c.iCacheLineSize, 1, arena),
              l2(c.l2Size, c.l2LineSize, c.l2Ways, arena),
              l1Wb(c.l1WriteBufferDepth, arena),
              l2Wb(c.l2WriteBufferDepth, arena)
        {}

        /** Arena bytes one processor's banks consume. */
        static std::size_t
        arenaBytes(const MachineConfig &c)
        {
            return L1Cache::arenaBytes(c.l1Size, c.l1LineSize) +
                   L1Cache::arenaBytes(c.iCacheSize, c.iCacheLineSize) +
                   L2Cache::arenaBytes(c.l2Size, c.l2LineSize) +
                   WriteBuffer::arenaBytes(c.l1WriteBufferDepth) +
                   WriteBuffer::arenaBytes(c.l2WriteBufferDepth);
        }

        L1Cache l1;
        /** Primary instruction cache (valid/invalid lines). */
        L1Cache icache;
        L2Cache l2;
        WriteBuffer l1Wb;
        WriteBuffer l2Wb;
        /** Keyed by primary-line address. */
        std::unordered_map<Addr, InFlightFill> inFlight;
        /**
         * Miss-classification marks on primary lines: coherence
         * (invalidated by another processor) and blockEvict (last
         * evicted by a block-operation fill) flags.
         */
        MarkTable marks;
        /** Blk_ByPref source prefetch buffer (FIFO). */
        std::deque<BufferLine> prefetchBuffer;
    };

    /**
     * Two-level interconnect state, allocated only when
     * numSockets > 1 so the flat single-bus machine pays one null
     * test per bus transaction and stays bit-for-bit identical.
     */
    struct NumaState
    {
        explicit NumaState(const MachineConfig &c)
            : socketBus(c.numSockets)
        {}

        /** One snooping bus per socket. */
        std::vector<Bus> socketBus;
        /** The inter-socket link, serially reusable like a bus. */
        Bus link;
        NumaCounters counters;
    };

    /** @name Internal helpers @{ */

    Addr l1Line(Addr addr) const { return alignDown(addr, cfg.l1LineSize); }
    Addr l2Line(Addr addr) const { return alignDown(addr, cfg.l2LineSize); }

    /** Classify the cause of a primary-cache read miss. */
    MissCause classifyMiss(CpuMem &mem, Addr line);

    /** @name Observer notification helpers @{ */

    /** Report a secondary-line transition (self-loops elided). */
    void
    notifyL2(CpuId cpu, Addr l2_line, LineState from, LineState to)
    {
        if (fan.active() && from != to)
            fan.onL2Transition(cpu, l2Line(l2_line), from, to);
    }

    /** Report the start of a processor-side operation. */
    void
    opBegin(MemOpKind op, CpuId cpu, Addr addr)
    {
        if (fan.active())
            fan.onOperationBegin(*this, op, cpu, addr);
    }

    /** Report the completion of a processor-side operation. */
    void
    opEnd(MemOpKind op, CpuId cpu, Addr addr)
    {
        if (fan.active())
            fan.onOperationEnd(*this, op, cpu, addr);
    }

    /**
     * Report a completed data access to an observer that asked for
     * per-access events.  Unlike opEnd (miss paths only, feeding the
     * invariant checker), this fires for every outcome — the event
     * record is built only behind the wantsAccess gate, so the
     * default configuration pays a single flag test.
     */
    void
    notifyAccess(MemOpKind op, CpuId cpu, Addr addr, Cycles issued,
                 const AccessContext &ctx, const AccessResult &res,
                 bool dropped = false, bool whole_line = false,
                 bool invalidated = false, bool via_buffer = false)
    {
        if (!fan.wantsAccessEvents())
            return;
        MemAccessEvent event;
        event.kind = op;
        event.cpu = cpu;
        event.addr = addr;
        event.issued = issued;
        event.ctx = ctx;
        event.result = res;
        event.dropped = dropped;
        event.wholeLine = whole_line;
        event.invalidated = invalidated;
        event.viaBuffer = via_buffer;
        fan.onAccess(event);
    }

    /** @} */

    /** @name Instrumented state mutators @{ */

    /** Change the state of @p cpu's resident secondary line. */
    void setL2State(CpuId cpu, Addr addr, LineState state);

    /** Invalidate @p cpu's secondary line if present. */
    void invalidateL2(CpuId cpu, Addr l2_line);

    /** Invalidate @p cpu's primary line if present. */
    void dropL1(CpuId cpu, Addr l1_line);

    /**
     * Tag-array part of a secondary fill: install @p l2_line in
     * @p state, invalidate the victim's covered primary lines, and
     * notify the observer.  Bus costs are the caller's business.
     * @return {victim line address or invalidAddr, victim was dirty}.
     */
    std::pair<Addr, bool> installL2(CpuId cpu, Addr l2_line,
                                    LineState state);

    /** @} */

    /**
     * Install a primary line, recording the eviction cause of the
     * victim and clearing stale classification marks for the line.
     */
    void fillL1(CpuId cpu, Addr addr, bool block_op_fill);

    /**
     * Invalidate the line of @p addr in every processor except
     * @p requester, marking coherence-invalidated primary lines.
     */
    void snoopInvalidate(CpuId requester, Addr l2_line);

    /**
     * Firefly update: sharers keep their (now updated) copies.
     * @return true iff any other processor held the line.
     */
    bool snoopUpdate(CpuId requester, Addr l2_line);

    /** True iff any processor other than @p requester holds the line. */
    bool sharedElsewhere(CpuId requester, Addr l2_line) const;

    /** Fill state a read miss installs (protocol dependent). */
    LineState readFillState(CpuId requester, Addr l2_line) const;

    /**
     * Perform the bus read for a missing secondary line, including
     * snooping (Illinois: a Modified owner supplies the line and
     * both end Shared; with @p exclusive all other copies die).
     *
     * @param when  Cycle the request reaches the bus queue.
     * @return The cycle the data arrives at the requester.
     */
    Cycles busReadLine(CpuId cpu, Addr l2_line, Cycles when, bool exclusive);

    /**
     * Install a secondary line, handling victim writeback and
     * inclusion (covered primary lines of the victim die).
     */
    void fillL2(CpuId cpu, Addr l2_line, LineState state, Cycles when);

    /**
     * Schedule a write that needs the bus through the L2-to-bus write
     * buffer.  @p remote_mask names the sockets (beyond @p cpu's own)
     * that held the line when the snoop was decided — it must be
     * captured *before* the snoop mutates remote state.
     * @return the cycle the entry finishes draining.
     */
    Cycles scheduleL2WbEntry(CpuId cpu, CpuMem &mem, Addr l2_line,
                             Cycles ready, Cycles occupancy, BusTxn kind,
                             std::uint32_t bytes,
                             std::uint32_t remote_mask);

    /** @name Two-level interconnect helpers (numa != nullptr only) @{ */

    /**
     * Bitmask of sockets other than @p requester's that hold a valid
     * copy of @p l2_line — the home directory's presence view, which
     * decides whether a snoop crosses the link.
     */
    std::uint32_t remoteHolderMask(CpuId requester, Addr l2_line) const;

    /**
     * Timing of a line read on the two-level interconnect: local
     * socket bus, then (unless the directory filters it) the link,
     * remote snoops, and the remote-home memory penalty.
     * @return the cycle the data arrives at the requester.
     */
    Cycles numaReadLine(unsigned socket, Addr l2_line, Cycles when,
                        Cycles occupancy, std::uint32_t bytes,
                        std::uint32_t remote_mask);

    /**
     * Cross-socket completion of a write-side transaction granted the
     * local socket bus at @p grant: forwards to the sockets in
     * @p remote_mask plus (for memory-bound kinds) a remote home.
     * @p snoop_broadcast gates the filter counters — writebacks
     * consult no remote cache and are not snoop decisions.
     * @return the cycle the transaction fully completes.
     */
    Cycles numaWriteDone(unsigned socket, Addr l2_line, Cycles grant,
                         Cycles occupancy, BusTxn kind,
                         std::uint32_t bytes, std::uint32_t remote_mask,
                         bool snoop_broadcast);

    /** @} */

    /** @} */

    MachineConfig cfg;
    Bus theBus;
    /** Two-level interconnect; null on the flat single-bus machine. */
    std::unique_ptr<NumaState> numa;
    /**
     * Per-run bump arena holding every processor's hot banks; must
     * precede `cpus`, whose members carve spans from it.
     */
    SimArena arena;
    std::vector<CpuMem> cpus;
    /** Flat fan-out of passive coherence observers (often empty). */
    ObserverFanout fan;
    /** Lines last touched by a bypassing block op and left uncached. */
    MarkTable bypassMarks;
    const std::unordered_set<Addr> *updatePages = nullptr;
};

} // namespace oscache

#endif // OSCACHE_MEM_MEMSYS_HH
