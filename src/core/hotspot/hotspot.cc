#include "core/hotspot/hotspot.hh"

#include <algorithm>
#include <ostream>
#include <utility>

namespace oscache
{

HotspotPlan
selectHotspotsFromCounts(
    const std::unordered_map<BasicBlockId, std::uint64_t> &counts,
    unsigned count)
{
    std::vector<std::pair<BasicBlockId, std::uint64_t>> ranked(
        counts.begin(), counts.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first; // Deterministic tie-break.
              });
    HotspotPlan plan;
    for (unsigned i = 0; i < count && i < ranked.size(); ++i)
        plan.hotBlocks.insert(ranked[i].first);
    return plan;
}

HotspotPlan
selectHotspots(const SimStats &profile, unsigned count)
{
    return selectHotspotsFromCounts(profile.osOtherMissByBb, count);
}

bool
hotspotCrossCheck(
    const SimStats &stats,
    const std::unordered_map<BasicBlockId, std::uint64_t> &profiled,
    unsigned count, std::ostream *os)
{
    const HotspotPlan fromStats = selectHotspotsFromCounts(
        stats.osOtherMissByBb, count);
    const HotspotPlan fromProfiler =
        selectHotspotsFromCounts(profiled, count);
    const bool agree = fromStats.hotBlocks == fromProfiler.hotBlocks;
    if (os != nullptr) {
        if (agree) {
            *os << "hot-spot cross-check: AGREE (" << count
                << " blocks, engine == profiler)\n";
        } else {
            *os << "hot-spot cross-check: DISAGREE\n";
            for (const BasicBlockId bb : fromStats.hotBlocks)
                if (!fromProfiler.hotBlocks.count(bb))
                    *os << "  engine only: bb " << bb << "\n";
            for (const BasicBlockId bb : fromProfiler.hotBlocks)
                if (!fromStats.hotBlocks.count(bb))
                    *os << "  profiler only: bb " << bb << "\n";
        }
    }
    return agree;
}

double
hotspotCoverage(const SimStats &profile, const HotspotPlan &plan)
{
    std::uint64_t covered = 0;
    std::uint64_t total = 0;
    for (const auto &[bb, misses] : profile.osOtherMissByBb) {
        total += misses;
        if (plan.hotBlocks.count(bb))
            covered += misses;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(total);
}

Trace
insertPrefetches(const Trace &trace, const HotspotPlan &plan)
{
    Trace out(trace.numCpus());
    out.blockOps() = trace.blockOps();
    out.updatePages() = trace.updatePages();

    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
        const RecordStream &in = trace.stream(cpu);

        // Collect (insert-before-position, prefetch) pairs; positions
        // are nondecreasing because reads are scanned in order.
        std::vector<std::pair<std::size_t, TraceRecord>> inserts;
        for (std::size_t i = 0; i < in.size(); ++i) {
            const TraceRecord &rec = in[i];
            if (rec.type != RecordType::Read ||
                !plan.hotBlocks.count(rec.bb))
                continue;
            const std::size_t at =
                i > plan.lookahead ? i - plan.lookahead : 0;
            inserts.emplace_back(
                at, TraceRecord::prefetch(rec.addr, rec.category, rec.bb,
                                          rec.isOs()));
        }

        RecordStream &dst = out.stream(cpu);
        dst.reserve(in.size() + inserts.size());
        std::size_t next = 0;
        for (std::size_t i = 0; i < in.size(); ++i) {
            while (next < inserts.size() && inserts[next].first == i) {
                dst.push_back(inserts[next].second);
                ++next;
            }
            dst.push_back(in[i]);
        }
        while (next < inserts.size()) {
            dst.push_back(inserts[next].second);
            ++next;
        }
    }
    return out;
}

/**
 * Block-wise insertion.  With lookahead L, the prefetch for a hot
 * read at input index i lands before input index max(i - L, 0), so
 * emitting input index j needs only the input through j + L.  Each
 * refill tops a window of unemitted input up to block + L records
 * from the inner cursor's spans and emits the next block of input
 * records, each preceded by the prefetch its lookahead brings to it,
 * into a bounded output block the replay engine reads as one span.
 * The first block leads with the prefetches of every hot read among
 * input indices 0..L, in scan order, as the materialized rewriter
 * does.
 */
class PrefetchStreamSource::Cursor final : public RecordCursor
{
  public:
    Cursor(std::unique_ptr<RecordCursor> input, const HotspotPlan &p,
           std::uint64_t &inserted_count)
        : in(std::move(input)), plan(&p), inserted(&inserted_count)
    {}

    const TraceRecord *
    peek() override
    {
        if (outPos == out.size())
            refill();
        return outPos < out.size() ? &out[outPos] : nullptr;
    }

    void advance() override { ++outPos; }

    /** The unread tail of the output block is one span. */
    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        first = peek();
        return first != nullptr ? out.size() - outPos : 0;
    }

    void advanceRun(std::size_t n) override { outPos += n; }

  private:
    /** Input records emitted per refill. */
    static constexpr std::size_t block = 256;

    void
    emitPrefetchFor(const TraceRecord &r)
    {
        if (r.type != RecordType::Read || !plan->hotBlocks.count(r.bb))
            return;
        out.push_back(
            TraceRecord::prefetch(r.addr, r.category, r.bb, r.isOs()));
        ++*inserted;
    }

    void
    refill()
    {
        out.clear();
        outPos = 0;
        const std::size_t ahead = plan->lookahead;
        while (win.size() < block + ahead) {
            const TraceRecord *first = nullptr;
            const std::size_t n = in->peekRun(first);
            if (n == 0)
                break;
            const std::size_t take = std::min(n, block + ahead - win.size());
            win.insert(win.end(), first, first + take);
            in->advanceRun(take);
        }
        const std::size_t n = std::min(block, win.size());
        for (std::size_t k = 0; k < n; ++k) {
            if (emitted + k == 0) {
                for (std::size_t i = 0; i <= ahead && i < win.size(); ++i)
                    emitPrefetchFor(win[i]);
            } else if (k + ahead < win.size()) {
                emitPrefetchFor(win[k + ahead]);
            }
            out.push_back(win[k]);
        }
        win.erase(win.begin(), win.begin() + std::ptrdiff_t(n));
        emitted += n;
    }

    std::unique_ptr<RecordCursor> in;
    const HotspotPlan *plan;
    std::uint64_t *inserted;
    std::vector<TraceRecord> win; ///< Unemitted input, from emitted on.
    std::uint64_t emitted = 0;    ///< Input records emitted so far.
    std::vector<TraceRecord> out;
    std::size_t outPos = 0;
};

PrefetchStreamSource::PrefetchStreamSource(
    std::unique_ptr<TraceSource> inner_, HotspotPlan plan_)
    : inner(std::move(inner_)), plan(std::move(plan_))
{}

std::unique_ptr<RecordCursor>
PrefetchStreamSource::cursor(CpuId cpu)
{
    return std::make_unique<Cursor>(inner->cursor(cpu), plan, inserted);
}

} // namespace oscache
