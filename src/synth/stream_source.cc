#include "synth/stream_source.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hh"

namespace oscache
{

/** The producer thread and its bounded hand-off to the reader. */
struct SynthTraceSource::Pipeline
{
    std::mutex mutex;
    /** Signalled when a quantum is queued or the producer ends. */
    std::condition_variable ready;
    /** Signalled when the reader takes a quantum or the source dies. */
    std::condition_variable room;
    std::deque<Quantum> queue;
    /** Kept records in the queue. */
    std::size_t inFlight = 0;
    bool finished = false;
    bool stop = false;
    std::exception_ptr failure;
    /** Declared last, so it is destroyed before what it uses. */
    std::thread thread;
};

/**
 * Reads one processor's lane, asking the source for the next
 * quantum when the lane runs dry.
 */
class SynthTraceSource::Cursor final : public RecordCursor
{
  public:
    Cursor(SynthTraceSource &source, CpuId cpu)
        : src(&source), lane(&source.lanes[cpu]), feed(&source.feeds[cpu])
    {}

    const TraceRecord *
    peek() override
    {
        Lane &l = *lane;
        while (l.runs.empty() && src->takeQuantum()) {}
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
     * dropped, and quanta taken to reach it bring nothing before it.
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
        while (l.produced < to && src->takeQuantum()) {}
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
            lane->runs.front().count, lane->blocks.front()->used - lane->head));
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
        if (src->started || period == 0 || keep >= period)
            return;
        feed->period = period;
        feed->keep = keep;
    }

  private:
    SynthTraceSource *src;
    Lane *lane;
    Feed *feed;
};

SynthTraceSource::SynthTraceSource(const WorkloadProfile &profile,
                                   const CoherenceOptions &options,
                                   unsigned num_cpus)
    : gen(profile, options, num_cpus), feeds(num_cpus),
      scratchSinks(num_cpus, &scratch), lanes(num_cpus),
      cursorOpen(num_cpus, false)
{}

SynthTraceSource::SynthTraceSource(WorkloadKind kind,
                                   const CoherenceOptions &options,
                                   unsigned num_cpus)
    : SynthTraceSource(WorkloadProfile::forKind(kind), options, num_cpus)
{}

SynthTraceSource::~SynthTraceSource()
{
    if (!pipe)
        return;
    {
        std::lock_guard<std::mutex> lock(pipe->mutex);
        pipe->stop = true;
    }
    pipe->room.notify_one();
    pipe->thread.join();
}

std::size_t
SynthTraceSource::peakBufferedRecords() const
{
    if (!pipe)
        return peakBuffered;
    std::lock_guard<std::mutex> lock(pipe->mutex);
    return peakBuffered;
}

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
SynthTraceSource::start()
{
    started = true;
    for (const Feed &feed : feeds)
        if (feed.period == 0)
            return;
    auto pipeline = std::make_unique<Pipeline>();
    Pipeline &p = *pipeline;
    p.thread = std::thread([this, &p] { produce(p); });
    pipe = std::move(pipeline);
}

bool
SynthTraceSource::takeQuantum()
{
    if (!started)
        start();
    if (!pipe) {
        if (gen.done())
            return false;
        generateQuantum(staged, true);
        buffered.store(buffered.load() + staged.records);
        splice(staged);
        peakBuffered = std::max(peakBuffered, buffered.load());
        return true;
    }

    Pipeline &p = *pipe;
    Quantum q;
    {
        std::unique_lock<std::mutex> lock(p.mutex);
        p.ready.wait(lock, [&p] { return !p.queue.empty() || p.finished; });
        if (p.queue.empty()) {
            if (p.failure)
                std::rethrow_exception(p.failure);
            return false;
        }
        q = std::move(p.queue.front());
        p.queue.pop_front();
        // The records move from the queue to the lanes in one step
        // under the lock, so the producer always counts them.
        p.inFlight -= q.records;
        buffered.store(buffered.load(std::memory_order_relaxed) + q.records,
                       std::memory_order_relaxed);
    }
    p.room.notify_one();
    splice(q);
    return true;
}

void
SynthTraceSource::produce(Pipeline &p)
{
    std::exception_ptr failure;
    try {
        while (!gen.done()) {
            {
                std::unique_lock<std::mutex> lock(p.mutex);
                p.room.wait(lock, [&p] {
                    return p.stop || p.inFlight < runAheadRecords;
                });
                if (p.stop)
                    break;
            }
            Quantum q;
            generateQuantum(q, false);
            std::lock_guard<std::mutex> lock(p.mutex);
            // Only a hand-off raises what the lanes and queue hold.
            p.inFlight += q.records;
            peakBuffered = std::max(peakBuffered,
                                    buffered.load(std::memory_order_relaxed) +
                                        p.inFlight);
            p.queue.push_back(std::move(q));
            p.ready.notify_one();
        }
    } catch (...) {
        failure = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(p.mutex);
    p.failure = failure;
    p.finished = true;
    p.ready.notify_one();
}

void
SynthTraceSource::generateQuantum(Quantum &out, bool at_reader)
{
    out.kept.resize(numCpus());
    out.produced.resize(numCpus());
    // Every cpu emits into the one scratch stream, filtered and
    // emptied as each cpu finishes.
    gen.nextQuantum(scratchSinks, [&](CpuId c) {
        Feed &feed = feeds[c];
        Kept &kept = out.kept[c];
        const std::uint64_t begin = feed.produced;
        const std::uint64_t end = begin + scratch.size();
        feed.produced = end;
        out.produced[c] = end;
        const auto keep = [&](std::uint64_t from, std::uint64_t to) {
            out.records += to - from;
            if (!kept.runs.empty() &&
                kept.runs.back().first + kept.runs.back().count == from)
                kept.runs.back().count += to - from;
            else
                kept.runs.push_back({from, to - from});
            const TraceRecord *next = scratch.data() + (from - begin);
            for (std::size_t n = std::size_t(to - from); n > 0;) {
                if (kept.blocks.empty() ||
                    kept.blocks.back()->used == blockRecords)
                    kept.blocks.push_back(std::make_unique<Block>());
                Block &block = *kept.blocks.back();
                const std::size_t k = std::min(n, blockRecords - block.used);
                std::copy_n(next, k, block.records + block.used);
                block.used += k;
                next += k;
                n -= k;
            }
        };
        // Nothing before the cursor is ever read again.
        std::uint64_t at = at_reader ? std::max(begin, lanes[c].pos) : begin;
        if (feed.period == 0) {
            if (at < end)
                keep(at, end);
        } else {
            // Walk the windows the new records overlap, keeping the
            // head of each: one division per quantum, none per record.
            std::uint64_t window = at - at % feed.period;
            while (at < end) {
                const std::uint64_t kept_end =
                    std::min(end, window + feed.keep);
                if (at < kept_end)
                    keep(at, kept_end);
                window += feed.period;
                at = window;
            }
        }
        scratch.clear();
    });
    const BlockOpTable &table = gen.blockOps();
    out.ops.assign(table.begin() + std::ptrdiff_t(opsSent), table.end());
    opsSent = table.size();
}

void
SynthTraceSource::splice(Quantum &q)
{
    for (CpuId c = 0; c < numCpus(); ++c) {
        Lane &lane = lanes[c];
        Kept &kept = q.kept[c];
        lane.produced = q.produced[c];
        for (std::unique_ptr<Block> &block : kept.blocks)
            lane.blocks.push_back(std::move(block));
        for (const Run &run : kept.runs) {
            if (!lane.runs.empty() &&
                lane.runs.back().first + lane.runs.back().count == run.first)
                lane.runs.back().count += run.count;
            else
                lane.runs.push_back(run);
        }
        kept.blocks.clear();
        kept.runs.clear();
        // A raw skip() may have passed records the producer kept.
        dropBefore(lane, lane.pos);
    }
    for (const BlockOp &op : q.ops)
        ops.add(op);
    q.ops.clear();
    q.records = 0;
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
    buffered.store(buffered.load(std::memory_order_relaxed) - n,
                   std::memory_order_relaxed);
    if (lane.runs.empty()) {
        lane.blocks.clear();
        lane.head = 0;
        return;
    }
    lane.head += n;
    while (lane.head >= lane.blocks.front()->used) {
        lane.head -= lane.blocks.front()->used;
        lane.blocks.pop_front();
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
