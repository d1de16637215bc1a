/**
 * @file
 * SamplingCursor: a RecordCursor that alternates warm, measured, and
 * skipped stretches over any inner cursor according to a
 * SamplingPlan, plus the TraceSource wrapper that hands them out.
 *
 * The cursor tracks its absolute record position; before every
 * peek() it "settles" — while the position falls in a skip stretch,
 * the remainder of the stretch is fast-forwarded with the inner
 * cursor's skip() (seek arithmetic on chunked files and synthesized
 * streams).  The replay engine therefore only ever sees warm and
 * measured records, and phase() tells the controller which of the
 * two the current record is.
 *
 * peekRun() spans never cross a phase boundary, so the engine asks
 * for the phase once per span and still opens and closes windows at
 * the same records as a record-at-a-time replay.  At construction
 * the cursor makes the inner cursor the skip promise for its plan's
 * skip stretches (RecordCursor::promiseSkips), so a synthesized
 * stream never buffers them.
 */

#ifndef OSCACHE_SAMPLE_CURSOR_HH
#define OSCACHE_SAMPLE_CURSOR_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "sample/plan.hh"
#include "trace/source.hh"

namespace oscache
{
namespace sample
{

class SamplingCursor final : public RecordCursor
{
  public:
    SamplingCursor(std::unique_ptr<RecordCursor> wrapped,
                   const SamplingPlan &sampling_plan)
        : inner(std::move(wrapped)), plan(sampling_plan)
    {
        inner->promiseSkips(plan.period, plan.replayedPerWindow());
    }

    const TraceRecord *
    peek() override
    {
        settle();
        const TraceRecord *rec = exhausted ? nullptr : inner->peek();
        exhausted = rec == nullptr;
        return rec;
    }

    void
    advance() override
    {
        if (phaseAt() == SamplePhase::Measure)
            ++measured;
        ++pos;
        inner->advance();
    }

    /**
     * Raw fast-forward of the underlying stream, ignoring the plan —
     * checkpoint resume uses this to reach the saved position
     * without replaying (not counted as plan-skipped records).
     */
    std::size_t
    skip(std::size_t n) override
    {
        const std::size_t done = inner->skip(n);
        pos += done;
        if (done < n)
            exhausted = true;
        return done;
    }

    /** The inner span, clipped to the end of the current phase. */
    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        settle();
        const std::size_t n = exhausted ? 0 : inner->peekRun(first);
        if (n == 0) {
            exhausted = true;
            first = nullptr;
            return 0;
        }
        return std::size_t(std::min<std::uint64_t>(n, phaseEnd - pos));
    }

    void
    advanceRun(std::size_t n) override
    {
        if (phaseAt() == SamplePhase::Measure)
            measured += n;
        pos += n;
        inner->advanceRun(n);
    }

    /** Phase of the record peek() currently exposes. */
    SamplePhase
    phase()
    {
        settle();
        return phaseAt();
    }

    /** Window index of the current position. */
    std::uint64_t window() const { return pos / plan.period; }

    /** Absolute record position in this processor's stream. */
    std::uint64_t position() const { return pos; }

    /** Records fast-forwarded by the plan's skip stretches. */
    std::uint64_t skippedRecords() const { return skipped; }

    /** Measured records consumed so far. */
    std::uint64_t measuredRecords() const { return measured; }

    /** Restore progress counters after a checkpoint resume. */
    void
    restoreProgress(std::uint64_t measured_records,
                    std::uint64_t skipped_records)
    {
        measured = measured_records;
        skipped = skipped_records;
    }

  private:
    /**
     * Phase at the current position.  The phase is constant up to
     * phaseEnd and the position only grows, so the plan is consulted
     * once per phase stretch rather than once per record.
     */
    SamplePhase
    phaseAt()
    {
        if (pos >= phaseEnd) {
            const SamplingPlan::Position at = plan.classify(pos);
            phaseNow = at.phase;
            phaseEnd = pos + at.remaining;
        }
        return phaseNow;
    }

    /** Fast-forward over any skip stretch the position is in. */
    void
    settle()
    {
        while (!exhausted && phaseAt() == SamplePhase::Skip) {
            const std::size_t want = std::size_t(phaseEnd - pos);
            const std::size_t done = inner->skip(want);
            pos += done;
            skipped += done;
            if (done < want)
                exhausted = true;
        }
    }

    std::unique_ptr<RecordCursor> inner;
    SamplingPlan plan;
    std::uint64_t pos = 0;
    std::uint64_t measured = 0;
    std::uint64_t skipped = 0;
    /** Cached phase of [.., phaseEnd); refreshed by phaseAt(). */
    SamplePhase phaseNow = SamplePhase::Warm;
    std::uint64_t phaseEnd = 0;
    bool exhausted = false;
};

/**
 * TraceSource adapter wrapping every cursor in a SamplingCursor.
 * The wrapped source must outlive this one.  Cursors stay owned by
 * the replay engine; cursorFor() exposes them to the controller.
 */
class SampledTraceSource final : public TraceSource
{
  public:
    SampledTraceSource(TraceSource &wrapped,
                       const SamplingPlan &sampling_plan)
        : inner(&wrapped), plan(sampling_plan),
          open(wrapped.numCpus(), nullptr)
    {}

    unsigned numCpus() const override { return inner->numCpus(); }
    const BlockOpTable &blockOps() const override
    {
        return inner->blockOps();
    }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return inner->updatePages();
    }

    std::unique_ptr<RecordCursor>
    cursor(CpuId cpu) override
    {
        auto wrapped =
            std::make_unique<SamplingCursor>(inner->cursor(cpu), plan);
        open[cpu] = wrapped.get();
        return wrapped;
    }

    std::optional<std::size_t>
    knownRecords(CpuId cpu) const override
    {
        return inner->knownRecords(cpu);
    }

    const char *mode() const override { return "sampled"; }

    /** The live cursor of @p cpu (nullptr before cursor(cpu)). */
    SamplingCursor *
    cursorFor(CpuId cpu)
    {
        if (cpu >= open.size() || open[cpu] == nullptr)
            panic("SampledTraceSource: cursor for cpu ", int(cpu),
                  " not open");
        return open[cpu];
    }

  private:
    TraceSource *inner;
    SamplingPlan plan;
    std::vector<SamplingCursor *> open;
};

} // namespace sample
} // namespace oscache

#endif // OSCACHE_SAMPLE_CURSOR_HH
