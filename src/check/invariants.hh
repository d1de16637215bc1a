/**
 * @file
 * The coherence invariant checker.
 *
 * CoherenceChecker implements MemEventObserver: attached to a
 * MemorySystem with setObserver(), it shadows every secondary-cache
 * line state and every primary-cache residency, and machine-checks
 * the protocol invariants the simulator's miss taxonomy depends on.
 * What is checked, and when:
 *
 *  - **per transition** (onL2Transition): the edge must be one the
 *    protocol's verif::SchemeSpec tables can take — no silent gain of
 *    exclusivity (S->E), no clean downgrade of dirty data (M->E), and
 *    no Exclusive state at all under plain MSI — and its from-state
 *    must match the shadow.
 *
 *  - **per operation end** (onOperationEnd), from the shadow alone and
 *    only over the lines this operation's events touched (secondary
 *    transitions, and primary fills without a covering secondary
 *    copy): SWMR (at most one Modified/Exclusive copy machine-wide,
 *    and an owner never coexists with sharers) in O(1) from per-line
 *    owner and sharer counts; inclusion (every primary-resident line
 *    is covered by a valid secondary line on the same processor) from
 *    a per-line count of uncovered primary lines; write ownership (a
 *    completed write leaves the writer's secondary line Modified, or
 *    Shared on a Firefly update page); and, after the operations that
 *    push into them (writes and bypass writes), write-buffer
 *    consistency (both buffers drain in FIFO order and their
 *    completion horizon never moves backwards).
 *
 *  - **only in auditFull()**: the one pass that reads the real tag
 *    arrays.  It compares the shadow against them in both directions
 *    (catching missed or phantom notifications, i.e. proving the
 *    event stream the incremental checks trusted was complete) and
 *    re-checks SWMR and inclusion over every resident line.
 *
 * SWMR and inclusion wait for operation ends because mid-operation
 * the protocol legitimately passes through inconsistent intermediate
 * states (snoop invalidation clears the secondary line before its
 * covered primary lines).
 *
 * All state is flat and sized once from the MachineConfig: per-cpu
 * shadows laid out set × way like the caches they mirror, and one
 * open-addressing line table holding the counts of each line with a
 * copy somewhere.  Once the footprint is warm, checking allocates
 * nothing.
 */

#ifndef OSCACHE_CHECK_INVARIANTS_HH
#define OSCACHE_CHECK_INVARIANTS_HH

#include <vector>

#include "check/finding.hh"
#include "mem/config.hh"
#include "mem/observer.hh"

namespace oscache
{

/**
 * Shadow-state coherence invariant checker.
 */
class CoherenceChecker : public MemEventObserver
{
  public:
    explicit CoherenceChecker(const MachineConfig &config);

    /** @name MemEventObserver interface @{ */
    void onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                        LineState to) override;
    void onL1Fill(CpuId cpu, Addr l1_line) override;
    void onL1Drop(CpuId cpu, Addr l1_line) override;
    void onOperationEnd(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                        Addr addr) override;
    /** @} */

    /**
     * Replace the shadow with @p mem's current cache contents and
     * write-buffer horizons, in one pass over its tag arrays.  For a
     * memory system whose warm state was restored (a resumed live
     * point) rather than built through observed events.
     */
    void seed(const MemorySystem &mem);

    /**
     * Whole-machine audit: shadow-vs-actual cross-check plus global
     * SWMR and inclusion over every resident line.  Run at end of
     * simulation (and after fault injection in tests).
     */
    void auditFull(const MemorySystem &mem);

    const std::vector<CheckFinding> &findings() const { return found; }
    bool clean() const { return found.empty(); }

    /** Findings dropped after the reporting cap was hit. */
    std::uint64_t suppressedFindings() const { return suppressed; }

    /** Transitions observed (sanity signal that the hook is live). */
    std::uint64_t transitions() const { return transitionCount; }

  private:
    /** Coherence summary of one secondary line across all cpus. */
    struct LineInfo
    {
        /** Line address; invalidAddr marks an empty table slot. */
        Addr line = invalidAddr;
        /**
         * (cpu, primary line) pairs resident in a primary shadow
         * while that cpu's secondary shadow lacks the line —
         * inclusion violations when nonzero at an operation end.
         */
        std::uint32_t uncovered = 0;
        /** Modified/Exclusive copies (at most numCpus, a CpuId). */
        std::uint8_t owners = 0;
        /** Shared copies. */
        std::uint8_t sharers = 0;
        /** On the touched list awaiting the next operation end. */
        std::uint8_t queued = 0;

        /** Add @p delta copies in state @p st to the counts. */
        void
        count(LineState st, int delta)
        {
            if (st == LineState::Modified || st == LineState::Exclusive)
                owners = std::uint8_t(owners + delta);
            else if (st == LineState::Shared)
                sharers = std::uint8_t(sharers + delta);
        }

        /** Nothing left worth keeping. */
        bool
        idle() const
        {
            return owners == 0 && sharers == 0 && uncovered == 0;
        }
    };
    static_assert(sizeof(LineInfo) == 16, "four line summaries per cache line");

    /**
     * Open-addressing line -> LineInfo table: linear probing over a
     * power-of-two array, backward-shift deletion, doubling at three-
     * quarter load (the checker's counterpart of mem/marks.hh's
     * MarkTable).
     */
    class LineTable
    {
      public:
        explicit LineTable(std::size_t min_slots);

        LineInfo *find(Addr line);
        LineInfo &findOrInsert(Addr line);
        void erase(Addr line);
        void clear();

      private:
        std::size_t home(Addr line) const;
        void rebuild(std::size_t n);

        std::vector<LineInfo> slots;
        std::size_t mask = 0;
        unsigned shift = 0;
        std::size_t used = 0;
    };

    /** One cache level's shadow tag banks: cpu × set × way. */
    struct ShadowTags
    {
        ShadowTags(unsigned cpus, std::uint32_t size,
                   std::uint32_t line_size, std::uint32_t way_count);

        static constexpr std::size_t none = ~std::size_t{0};

        /** Slot of @p line's set on @p cpu holding @p tag, or none. */
        std::size_t scan(CpuId cpu, Addr line, Addr tag) const;
        /** Slot holding @p line on @p cpu, or none. */
        std::size_t
        find(CpuId cpu, Addr line) const
        {
            return scan(cpu, line, line);
        }
        /** An empty way of @p line's set on @p cpu, or none. */
        std::size_t
        freeWay(CpuId cpu, Addr line) const
        {
            return scan(cpu, line, invalidAddr);
        }
        /** First slot of @p line's set on @p cpu. */
        std::size_t setBase(CpuId cpu, Addr line) const;
        /** First slot of @p cpu's bank. */
        std::size_t cpuBase(CpuId cpu) const { return cpu * perCpu; }
        void clear();

        unsigned lineShift;
        std::size_t setMask;
        std::uint32_t ways;
        std::size_t perCpu;
        std::vector<Addr> tags;
    };

    /** Per-processor state of the operation-end checks. */
    struct CpuChecks
    {
        /** Last seen write-buffer completion horizons. */
        Cycles l1WbHorizon = 0;
        Cycles l2WbHorizon = 0;
        /**
         * A line the shadow held Modified at this cpu's last write
         * end and that has taken no transition since: further writes
         * to it need no shadow probe.
         */
        Addr ownedLine = invalidAddr;
    };

    void report(CheckCode code, CpuId cpu, Addr addr, std::string message);
    /** Put @p info on the touched list unless it already is. */
    void queue(LineInfo &info);
    /** @p cpu's shadow state of @p l2_line. */
    LineState shadowState(CpuId cpu, Addr l2_line) const;
    /** Primary lines of @p l2_line resident in @p cpu's shadow. */
    std::uint32_t residentL1Lines(CpuId cpu, Addr l2_line) const;
    /** Install @p line in @p cpu's shadow secondary set. */
    std::size_t allocL2(CpuId cpu, Addr line);
    /** Remove the shadow secondary line in @p slot of @p cpu. */
    void dropL2(CpuId cpu, std::size_t slot);
    /** SWMR + inclusion for one touched line, from the shadow. */
    void checkLine(const LineInfo &info);
    void checkSwmr(const LineInfo &info);

    MachineConfig cfg;
    /** Legal from -> to edges (bit from * 4 + to), per cfg.protocol. */
    std::uint16_t legalEdges;
    ShadowTags l2;
    /** MESI state per l2 slot (Invalid where the tag is empty). */
    std::vector<LineState> l2States;
    ShadowTags l1;
    LineTable lines;
    /** Lines touched since the last operation end, in first-touch order. */
    std::vector<Addr> touched;
    /** Indexed by cpu. */
    std::vector<CpuChecks> cpuChecks;
    std::vector<CheckFinding> found;
    std::uint64_t transitionCount = 0;
    std::uint64_t suppressed = 0;
    /** Reporting cap: one defect tends to cascade; keep the first. */
    static constexpr std::size_t maxFindings = 64;
};

} // namespace oscache

#endif // OSCACHE_CHECK_INVARIANTS_HH
