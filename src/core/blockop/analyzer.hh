/**
 * @file
 * Block-operation census (Table 3 rows 1-6).
 *
 * AnalyzingExecutor wraps any scheme executor and, immediately before
 * each operation runs, samples the cache state the paper reports:
 * what fraction of the source block's primary lines are already
 * cached by the originator, and what fraction of the destination
 * block's secondary lines are Dirty/Exclusive or Shared in the
 * originator's secondary cache.  It also tallies the operation size
 * distribution.
 */

#ifndef OSCACHE_CORE_BLOCKOP_ANALYZER_HH
#define OSCACHE_CORE_BLOCKOP_ANALYZER_HH

#include <cstdint>
#include <memory>

#include "mem/memsys.hh"
#include "sim/blockop_executor.hh"

namespace oscache
{

/** Aggregated pre-operation state over a run. */
struct BlockOpCensus
{
    /** Copies observed (state rows cover copies). */
    std::uint64_t copies = 0;
    /** Operations observed (size rows cover all operations). */
    std::uint64_t operations = 0;

    /** Sum over copies of the fraction of src L1 lines cached. */
    double srcCachedSum = 0.0;
    /** Sum over ops of the fraction of dst L2 lines Dirty/Excl. */
    double dstDirtyExclSum = 0.0;
    /** Sum over ops of the fraction of dst L2 lines Shared. */
    double dstSharedSum = 0.0;

    std::uint64_t sizeSmall = 0;  ///< < 1 KB
    std::uint64_t sizeMedium = 0; ///< 1 KB .. < 4 KB
    std::uint64_t sizePage = 0;   ///< >= 4 KB

    double
    srcCachedPct() const
    {
        return copies ? 100.0 * srcCachedSum / double(copies) : 0.0;
    }
    double
    dstDirtyExclPct() const
    {
        return operations ? 100.0 * dstDirtyExclSum / double(operations)
                          : 0.0;
    }
    double
    dstSharedPct() const
    {
        return operations ? 100.0 * dstSharedSum / double(operations) : 0.0;
    }
    double
    sizePct(std::uint64_t n) const
    {
        return operations ? 100.0 * double(n) / double(operations) : 0.0;
    }
};

/**
 * Executor decorator that fills a BlockOpCensus.
 */
class AnalyzingExecutor : public BlockOpExecutor
{
  public:
    AnalyzingExecutor(std::unique_ptr<BlockOpExecutor> wrapped,
                      MemorySystem &memory, BlockOpCensus &sink)
        : inner(std::move(wrapped)), mem(memory), census(sink)
    {}

    Cycles
    execute(CpuId cpu, const BlockOp &op, Cycles now, bool os) override
    {
        sample(cpu, op);
        return inner->execute(cpu, op, now, os);
    }

  private:
    void
    sample(CpuId cpu, const BlockOp &op)
    {
        const auto &cfg = mem.config();
        census.operations += 1;
        if (op.size < 1024)
            census.sizeSmall += 1;
        else if (op.size < 4096)
            census.sizeMedium += 1;
        else
            census.sizePage += 1;

        if (op.isCopy()) {
            census.copies += 1;
            std::uint32_t cached = 0;
            std::uint32_t lines = 0;
            for (Addr a = alignDown(op.src, cfg.l1LineSize);
                 a < op.src + op.size; a += cfg.l1LineSize) {
                ++lines;
                if (mem.l1Contains(cpu, a))
                    ++cached;
            }
            if (lines)
                census.srcCachedSum += double(cached) / double(lines);
        }

        std::uint32_t dirty_excl = 0;
        std::uint32_t shared = 0;
        std::uint32_t l2_lines = 0;
        for (Addr a = alignDown(op.dst, cfg.l2LineSize);
             a < op.dst + op.size; a += cfg.l2LineSize) {
            ++l2_lines;
            const LineState st = mem.l2State(cpu, a);
            if (st == LineState::Modified || st == LineState::Exclusive)
                ++dirty_excl;
            else if (st == LineState::Shared)
                ++shared;
        }
        if (l2_lines) {
            census.dstDirtyExclSum += double(dirty_excl) / double(l2_lines);
            census.dstSharedSum += double(shared) / double(l2_lines);
        }
    }

    std::unique_ptr<BlockOpExecutor> inner;
    MemorySystem &mem;
    BlockOpCensus &census;
};

} // namespace oscache

#endif // OSCACHE_CORE_BLOCKOP_ANALYZER_HH
