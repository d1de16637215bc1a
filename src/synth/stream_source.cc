#include "synth/stream_source.hh"

#include <algorithm>

#include "common/log.hh"

namespace oscache
{

/**
 * Reads one processor's lane, asking the source to generate more
 * quanta when the lane runs dry.
 */
class SynthTraceSource::Cursor final : public RecordCursor
{
  public:
    Cursor(SynthTraceSource &source, CpuId cpu)
        : src(&source), lane(&source.lanes[cpu])
    {}

    const TraceRecord *
    peek() override
    {
        Lane &l = *lane;
        while (l.runs.empty() && !src->gen.done())
            src->generateQuantum();
        if (l.runs.empty() && l.pos >= l.produced)
            return nullptr;
        if (l.runs.empty() || l.runs.front().first != l.pos)
            panic("SynthTraceSource: read at position ", l.pos,
                  ", which the skip promise excluded");
        return &l.blocks.front()->records[l.head];
    }

    void
    advance() override
    {
        Lane &l = *lane;
        if (l.runs.empty() || l.runs.front().first != l.pos)
            panic("SynthTraceSource: advance past end of stream");
        src->popFront(l, 1);
        l.pos += 1;
    }

    /**
     * Position arithmetic: buffered records before the target are
     * dropped, and quanta generated to reach it buffer nothing
     * before it.
     */
    std::size_t
    skip(std::size_t n) override
    {
        Lane &l = *lane;
        const std::uint64_t from = l.pos;
        const std::uint64_t to =
            from + std::min<std::uint64_t>(n, ~std::uint64_t{0} - from);
        src->dropBefore(l, to);
        l.pos = to;
        while (l.produced < to && !src->gen.done())
            src->generateQuantum();
        if (l.produced < to)
            l.pos = l.produced;
        return std::size_t(l.pos - from);
    }

    /** The rest of the front run that lies in the front block. */
    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        first = peek();
        if (first == nullptr)
            return 0;
        return std::size_t(std::min<std::uint64_t>(
            lane->runs.front().count, blockRecords - lane->head));
    }

    void
    advanceRun(std::size_t n) override
    {
        src->popFront(*lane, n);
        lane->pos += n;
    }

    void
    promiseSkips(std::uint64_t period, std::uint64_t keep) override
    {
        Lane &l = *lane;
        if (l.produced > 0 || period == 0 || keep >= period)
            return;
        l.period = period;
        l.keep = keep;
    }

  private:
    SynthTraceSource *src;
    Lane *lane;
};

SynthTraceSource::SynthTraceSource(const WorkloadProfile &profile,
                                   const CoherenceOptions &options,
                                   unsigned num_cpus)
    : gen(profile, options, num_cpus), lanes(num_cpus),
      scratch(num_cpus), scratchPtrs(num_cpus),
      cursorOpen(num_cpus, false)
{
    for (CpuId cpu = 0; cpu < num_cpus; ++cpu)
        scratchPtrs[cpu] = &scratch[cpu];
}

SynthTraceSource::SynthTraceSource(WorkloadKind kind,
                                   const CoherenceOptions &options,
                                   unsigned num_cpus)
    : SynthTraceSource(WorkloadProfile::forKind(kind), options, num_cpus)
{}

std::unique_ptr<RecordCursor>
SynthTraceSource::cursor(CpuId cpu)
{
    if (cpu >= numCpus())
        panic("SynthTraceSource::cursor: bad cpu ", int(cpu));
    if (cursorOpen[cpu])
        panic("SynthTraceSource: cursor for cpu ", int(cpu),
              " opened twice (streamed records are consumed once)");
    cursorOpen[cpu] = true;
    return std::make_unique<Cursor>(*this, cpu);
}

void
SynthTraceSource::generateQuantum()
{
    gen.nextQuantum(scratchPtrs);
    for (CpuId c = 0; c < numCpus(); ++c) {
        append(lanes[c], scratch[c]);
        scratch[c].clear();
    }
    peakBuffered = std::max(peakBuffered, buffered);
}

void
SynthTraceSource::append(Lane &lane, const RecordStream &records)
{
    const std::uint64_t begin = lane.produced;
    const std::uint64_t end = begin + records.size();
    lane.produced = end;
    const auto keep = [&](std::uint64_t from, std::uint64_t to) {
        pushBack(lane, records.data() + (from - begin),
                 std::size_t(to - from));
        if (!lane.runs.empty() &&
            lane.runs.back().first + lane.runs.back().count == from)
            lane.runs.back().count += to - from;
        else
            lane.runs.push_back({from, to - from});
    };
    // Nothing before the cursor is ever read again.
    std::uint64_t at = std::max(begin, lane.pos);
    if (at >= end)
        return;
    if (lane.period == 0) {
        keep(at, end);
        return;
    }
    // Walk the windows the new records overlap, keeping the head of
    // each: one division per append, none per record.
    std::uint64_t window = at - at % lane.period;
    while (at < end) {
        const std::uint64_t kept_end = std::min(end, window + lane.keep);
        if (at < kept_end)
            keep(at, kept_end);
        window += lane.period;
        at = window;
    }
}

void
SynthTraceSource::pushBack(Lane &lane, const TraceRecord *records,
                           std::size_t n)
{
    while (n > 0) {
        if (lane.blocks.empty() || lane.tail == blockRecords) {
            lane.blocks.push_back(std::make_unique<Block>());
            lane.tail = 0;
        }
        const std::size_t k = std::min(n, blockRecords - lane.tail);
        std::copy_n(records, k, lane.blocks.back()->records + lane.tail);
        lane.tail += k;
        records += k;
        n -= k;
        buffered += k;
    }
}

void
SynthTraceSource::popFront(Lane &lane, std::size_t n)
{
    if (n == 0)
        return;
    Run &run = lane.runs.front();
    run.first += n;
    run.count -= n;
    if (run.count == 0)
        lane.runs.pop_front();
    buffered -= n;
    if (lane.runs.empty()) {
        lane.blocks.clear();
        lane.head = 0;
        lane.tail = 0;
        return;
    }
    lane.head += n;
    while (lane.head >= blockRecords) {
        lane.blocks.pop_front();
        lane.head -= blockRecords;
    }
}

void
SynthTraceSource::dropBefore(Lane &lane, std::uint64_t at)
{
    while (!lane.runs.empty() && lane.runs.front().first < at) {
        const Run &run = lane.runs.front();
        popFront(lane, std::size_t(std::min(run.count, at - run.first)));
    }
}

} // namespace oscache
