/**
 * @file
 * Streaming trace pipeline tests: streamed synthesis must reproduce
 * materialized generation bit-for-bit, openTraceFile must serve both
 * on-disk formats, each its way, and replay like the whole-trace
 * reader, the linter must find the same things in a chunked file as
 * in memory, corrupted chunked artifacts must fail cleanly, every
 * cursor's skip() must be exact (a synthesized cursor under the skip
 * promise too, which must also keep the sampled benchmark stream's
 * buffer small), a promised source's producer thread must not show
 * in any read order, must join wherever the source dies and must pass
 * its failures to the reader, the streaming prefetch adapter must match
 * the materializing rewrite, and the in-memory trace cache must
 * evict by LRU under its byte cap.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/tracelint.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "exp/artifact_cache.hh"
#include "exp/hash.hh"
#include "report/experiment.hh"
#include "sample/run.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"
#include "trace/io.hh"
#include "trace/source.hh"

// ---------------------------------------------------------------------
// Allocation failure on demand, for the producer-failure test: while
// set, every operator new off the thread that runs the tests throws.
// ---------------------------------------------------------------------

namespace
{
std::atomic<bool> g_fail_off_main{false};
const std::thread::id g_main_thread = std::this_thread::get_id();
}

// noinline keeps GCC from pairing the malloc in the replacement new
// with the free in the replacement delete at inlined use sites and
// raising -Wmismatched-new-delete false positives.
__attribute__((noinline)) void *
operator new(std::size_t size)
{
    if (g_fail_off_main.load(std::memory_order_relaxed) &&
        std::this_thread::get_id() != g_main_thread)
        throw std::bad_alloc();
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace oscache
{
namespace
{

namespace fs = std::filesystem;

/** Small but representative profile so every test stays fast. */
WorkloadProfile
smallProfile(WorkloadKind kind, unsigned quanta = 6)
{
    WorkloadProfile p = WorkloadProfile::forKind(kind);
    p.quanta = quanta;
    return p;
}

/** Drain every record of @p source, per cpu. */
std::vector<std::vector<TraceRecord>>
drain(TraceSource &source)
{
    std::vector<std::vector<TraceRecord>> out(source.numCpus());
    for (CpuId c = 0; c < source.numCpus(); ++c) {
        auto cursor = source.cursor(c);
        while (const TraceRecord *rec = cursor->peek()) {
            out[c].push_back(*rec);
            cursor->advance();
        }
        EXPECT_EQ(cursor->peek(), nullptr);
    }
    return out;
}

/** The streams of a materialized trace, in drain() shape. */
std::vector<std::vector<TraceRecord>>
streamsOf(const Trace &trace)
{
    std::vector<std::vector<TraceRecord>> out(trace.numCpus());
    for (CpuId c = 0; c < trace.numCpus(); ++c)
        out[c] = trace.stream(c);
    return out;
}

void
expectSameBlockOps(const BlockOpTable &a, const BlockOpTable &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (BlockOpId id = 0; id < a.size(); ++id) {
        const BlockOp &x = a.get(id);
        const BlockOp &y = b.get(id);
        EXPECT_EQ(x.src, y.src);
        EXPECT_EQ(x.dst, y.dst);
        EXPECT_EQ(x.size, y.size);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.readOnlyAfter, y.readOnlyAfter);
    }
}

/** Unique scratch path under the build's temp dir. */
std::string
scratchPath(const std::string &name)
{
    const auto dir =
        fs::temp_directory_path() / "oscache_stream_tests";
    fs::create_directories(dir);
    return (dir / name).string();
}

// ---------------------------------------------------------------------
// Streamed synthesis == materialized generation, all four workloads.

TEST(StreamSynth, RecordsMatchMaterializedAllWorkloads)
{
    for (const WorkloadKind kind : allWorkloads) {
        const WorkloadProfile profile = smallProfile(kind);
        const CoherenceOptions options = CoherenceOptions::none();
        const Trace trace = generateTrace(profile, options);

        SynthTraceSource source(profile, options);
        EXPECT_STREQ(source.mode(), "synth");
        const auto streamed = drain(source);

        ASSERT_EQ(streamed.size(), trace.numCpus());
        for (CpuId c = 0; c < trace.numCpus(); ++c)
            EXPECT_EQ(streamed[c], trace.stream(c))
                << toString(kind) << " cpu " << c;
        expectSameBlockOps(source.blockOps(), trace.blockOps());
        EXPECT_EQ(source.updatePages(), trace.updatePages());
    }
}

TEST(StreamSynth, BufferingStaysBoundedByQuantum)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Shell, 12);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    SynthTraceSource source(profile, CoherenceOptions::none());
    (void)drain(source);
    // Lock-step draining holds at most a few quanta; the whole trace
    // would be an order of magnitude more.
    EXPECT_LT(source.peakBufferedRecords(), trace.totalRecords());
    EXPECT_GT(source.peakBufferedRecords(), 0u);
}

TEST(StreamSim, StatsIdenticalAllWorkloadsAndSystems)
{
    const MachineConfig machine = MachineConfig::base();
    for (const WorkloadKind kind : allWorkloads) {
        const WorkloadProfile profile = smallProfile(kind, 4);
        for (const SystemKind sys :
             {SystemKind::Base, SystemKind::BlkDma, SystemKind::BCohRelUp}) {
            const SystemSetup setup = SystemSetup::forKind(sys);
            const Trace trace = generateTrace(profile, setup.coherence);
            const RunResult materialized = runOnTrace(
                trace, machine, profile.simOptions(), setup);
            const RunResult streamed = runOnSource(
                [&]() {
                    return std::make_unique<SynthTraceSource>(
                        profile, setup.coherence);
                },
                machine, profile.simOptions(), setup);
            EXPECT_EQ(streamed.stats, materialized.stats)
                << toString(kind) << " on " << toString(sys);
            EXPECT_EQ(streamed.traceMode, "synth");
            EXPECT_EQ(materialized.traceMode, "materialized");
        }
    }
}

TEST(StreamSim, HotspotPassMatchesMaterialized)
{
    // BCPref runs the two-phase hot-spot methodology: profile pass,
    // block selection, prefetch insertion, rerun.  The streaming
    // flavor re-opens the source and splices prefetches on the fly;
    // the stats must not diverge.
    const WorkloadProfile profile = smallProfile(WorkloadKind::Trfd4, 4);
    const SystemSetup setup = SystemSetup::forKind(SystemKind::BCPref);
    ASSERT_TRUE(setup.hotspotPrefetch);
    const MachineConfig machine = MachineConfig::base();

    const Trace trace = generateTrace(profile, setup.coherence);
    const RunResult materialized =
        runOnTrace(trace, machine, profile.simOptions(), setup);
    const RunResult streamed = runOnSource(
        [&]() {
            return std::make_unique<SynthTraceSource>(profile,
                                                      setup.coherence);
        },
        machine, profile.simOptions(), setup);

    EXPECT_EQ(streamed.stats, materialized.stats);
    EXPECT_EQ(streamed.hotspots.hotBlocks, materialized.hotspots.hotBlocks);
    EXPECT_DOUBLE_EQ(streamed.hotspotCoverage,
                     materialized.hotspotCoverage);
}

// ---------------------------------------------------------------------
// The streaming prefetch adapter vs. the materializing rewrite.

/** Drain every record of @p source span by span, per cpu. */
std::vector<std::vector<TraceRecord>>
drainSpans(TraceSource &source)
{
    std::vector<std::vector<TraceRecord>> out(source.numCpus());
    for (CpuId c = 0; c < source.numCpus(); ++c) {
        auto cursor = source.cursor(c);
        const TraceRecord *first = nullptr;
        while (const std::size_t n = cursor->peekRun(first)) {
            // Consume part of each span, so the next one starts
            // inside a block.
            const std::size_t used = std::max<std::size_t>(1, n / 2);
            out[c].insert(out[c].end(), first, first + used);
            cursor->advanceRun(used);
        }
        EXPECT_EQ(first, nullptr);
    }
    return out;
}

/** Forwards to @p inner's cursor, clipping every peekRun() span. */
class ClippedCursor final : public RecordCursor
{
  public:
    ClippedCursor(std::unique_ptr<RecordCursor> inner, std::size_t most)
        : cursor(std::move(inner)), limit(most)
    {}

    const TraceRecord *peek() override { return cursor->peek(); }
    void advance() override { cursor->advance(); }
    std::size_t skip(std::size_t n) override { return cursor->skip(n); }

    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        return std::min(cursor->peekRun(first), limit);
    }

    void advanceRun(std::size_t n) override { cursor->advanceRun(n); }

  private:
    std::unique_ptr<RecordCursor> cursor;
    std::size_t limit;
};

/**
 * A source whose cursors hand out spans of at most @p most records,
 * so span boundaries fall at odd offsets of the inner source's.
 */
class ClippedSource final : public TraceSource
{
  public:
    ClippedSource(std::unique_ptr<TraceSource> source, std::size_t most)
        : inner(std::move(source)), limit(most)
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
        return std::make_unique<ClippedCursor>(inner->cursor(cpu), limit);
    }
    const char *mode() const override { return inner->mode(); }

  private:
    std::unique_ptr<TraceSource> inner;
    std::size_t limit;
};

TEST(StreamPrefetch, AdapterMatchesInsertPrefetches)
{
    // Every inner span shape (one whole-stream span, a file's blocks,
    // spans clipped to 1 and 7 records, synthesized lanes) under every
    // kind of lookahead, drained record by record and span by span.
    const WorkloadProfile profile = smallProfile(WorkloadKind::Shell, 4);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const std::string path = scratchPath("prefetch_matrix.otc");
    writeTraceFile(path, trace, TraceFormat::Chunked);

    // Mark some genuinely occurring blocks hot.
    HotspotPlan hot;
    for (const TraceRecord &rec : trace.stream(0))
        if (rec.type == RecordType::Read && rec.isOs()) {
            hot.hotBlocks.insert(rec.bb);
            if (hot.hotBlocks.size() >= 4)
                break;
        }
    ASSERT_FALSE(hot.hotBlocks.empty());

    std::size_t longest = 0;
    for (CpuId c = 0; c < trace.numCpus(); ++c)
        longest = std::max(longest, trace.stream(c).size());

    const auto clipped = [&path](std::size_t most) {
        return [&path, most] {
            return std::make_unique<ClippedSource>(
                std::make_unique<FileTraceSource>(path), most);
        };
    };
    const std::pair<const char *, TraceSourceFactory> inners[] = {
        {"materialized",
         [&] { return std::make_unique<MaterializedTraceSource>(trace); }},
        {"file/1", clipped(1)},
        {"file/7", clipped(7)},
        {"file", [&] { return std::make_unique<FileTraceSource>(path); }},
        {"synth",
         [&] {
             return std::make_unique<SynthTraceSource>(
                 profile, CoherenceOptions::none());
         }},
    };
    for (const unsigned lookahead :
         {0u, 1u, 5u, 12u, unsigned(longest + 1)}) {
        HotspotPlan plan = hot;
        plan.lookahead = lookahead;
        const Trace rewritten = insertPrefetches(trace, plan);
        const auto expected = streamsOf(rewritten);
        for (const auto &[name, open] : inners) {
            SCOPED_TRACE(std::string(name) + " lookahead " +
                         std::to_string(lookahead));
            PrefetchStreamSource by_record(open(), plan);
            EXPECT_EQ(drain(by_record), expected);
            EXPECT_EQ(by_record.insertedPrefetches(),
                      rewritten.totalRecords() - trace.totalRecords());
            PrefetchStreamSource by_span(open(), plan);
            EXPECT_EQ(drainSpans(by_span), expected);
        }
    }
    fs::remove(path);
}

// ---------------------------------------------------------------------
// File sources: both formats round-trip through cursors.

TEST(StreamFile, AllFormatsRoundTrip)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Trfd4, 3);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const auto expected = streamsOf(trace);

    const struct
    {
        TraceFormat format;
        const char *name;
        const char *mode;
    } cases[] = {
        {TraceFormat::Text, "roundtrip.trace", "materialized"},
        {TraceFormat::Chunked, "roundtrip.otc", "file"},
    };
    for (const auto &c : cases) {
        const std::string path = scratchPath(c.name);
        writeTraceFile(path, trace, c.format);

        const std::unique_ptr<TraceSource> source = openTraceFile(path)();
        EXPECT_STREQ(source->mode(), c.mode);
        ASSERT_EQ(source->numCpus(), trace.numCpus()) << c.name;
        for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
            ASSERT_TRUE(source->knownRecords(cpu).has_value());
            EXPECT_EQ(*source->knownRecords(cpu),
                      trace.stream(cpu).size());
        }
        expectSameBlockOps(source->blockOps(), trace.blockOps());
        EXPECT_EQ(source->updatePages(), trace.updatePages());
        EXPECT_EQ(drain(*source), expected) << c.name;

        // The materializing reader agrees on every format too.
        const Trace reread = readTraceFile(path);
        EXPECT_EQ(streamsOf(reread), expected) << c.name;
        fs::remove(path);
    }
}

// ---------------------------------------------------------------------
// RecordCursor::skip must land exactly where n advances would, on
// every implementation — the sampling subsystem leaps over unmeasured
// stretches with it, so an off-by-one here silently shifts windows.

/** Skip/advance mix against the reference stream @p expected. */
void
expectSkipExact(RecordCursor &cursor,
                const std::vector<TraceRecord> &expected)
{
    ASSERT_GE(expected.size(), 20u);
    // Interleave skips with reads, crossing refill boundaries.
    std::size_t pos = 0;
    EXPECT_EQ(cursor.skip(5), 5u);
    pos += 5;
    ASSERT_NE(cursor.peek(), nullptr);
    EXPECT_EQ(*cursor.peek(), expected[pos]);
    cursor.advance();
    ++pos;
    const std::size_t leap =
        std::min<std::size_t>(expected.size() - pos - 4, 777);
    EXPECT_EQ(cursor.skip(leap), leap);
    pos += leap;
    ASSERT_NE(cursor.peek(), nullptr);
    EXPECT_EQ(*cursor.peek(), expected[pos]);
    // Skipping past the end reports the shortfall, then sticks at 0.
    EXPECT_EQ(cursor.skip(expected.size()), expected.size() - pos);
    EXPECT_EQ(cursor.peek(), nullptr);
    EXPECT_EQ(cursor.skip(10), 0u);
}

TEST(StreamSkip, VectorCursorSkipsExactly)
{
    const Trace trace = generateTrace(
        smallProfile(WorkloadKind::Trfd4, 3), CoherenceOptions::none());
    MaterializedTraceSource source(trace);
    for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
        auto cursor = source.cursor(cpu);
        expectSkipExact(*cursor, trace.stream(cpu));
    }
}

TEST(StreamSkip, FileCursorSkipsExactlyAllFormats)
{
    const Trace trace = generateTrace(
        smallProfile(WorkloadKind::Shell, 3), CoherenceOptions::none());
    const struct
    {
        TraceFormat format;
        const char *name;
    } cases[] = {
        {TraceFormat::Text, "skip.trace"},
        {TraceFormat::Chunked, "skip.otc"},
    };
    for (const auto &c : cases) {
        const std::string path = scratchPath(c.name);
        writeTraceFile(path, trace, c.format);
        // A chunked file's skips cross many block boundaries.
        const std::unique_ptr<TraceSource> source = openTraceFile(path)();
        for (CpuId cpu = 0; cpu < source->numCpus(); ++cpu) {
            auto cursor = source->cursor(cpu);
            expectSkipExact(*cursor, trace.stream(cpu));
        }
        fs::remove(path);
    }
}

/** Odd window sizes, so kept runs straddle quanta and lane blocks. */
constexpr std::uint64_t promisePeriod = 1'531;
constexpr std::uint64_t promiseKeep = 389;

/**
 * Read every position @p cursor may read under the skip promise and
 * skip the rest window by window; every kept record must equal the
 * materialized one, and the stream must end where it does.
 */
void
expectKeptRecordsExact(RecordCursor &cursor,
                       const std::vector<TraceRecord> &expected)
{
    std::uint64_t pos = 0;
    for (;;) {
        const std::uint64_t off = pos % promisePeriod;
        if (off >= promiseKeep) {
            const std::uint64_t want = promisePeriod - off;
            const std::size_t done = cursor.skip(want);
            pos += done;
            if (done < want)
                break;
            continue;
        }
        const TraceRecord *first = nullptr;
        const std::size_t n = cursor.peekRun(first);
        if (n == 0)
            break;
        // Spans may be clipped short, never past the stream's end.
        ASSERT_LE(pos + n, expected.size());
        const std::size_t used =
            std::min<std::uint64_t>(n, promiseKeep - off);
        for (std::size_t i = 0; i < used; ++i)
            ASSERT_EQ(first[i], expected[pos + i]) << "position " << pos + i;
        cursor.advanceRun(used);
        pos += used;
    }
    EXPECT_EQ(pos, expected.size());
    EXPECT_EQ(cursor.peek(), nullptr);
    EXPECT_EQ(cursor.skip(10), 0u);
}

TEST(StreamSkip, SynthCursorSkipsExactly)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Arc2dFsck, 3);
    const Trace trace = generateTrace(profile, CoherenceOptions::none());
    {
        SynthTraceSource source(profile, CoherenceOptions::none());
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
            auto cursor = source.cursor(cpu);
            expectSkipExact(*cursor, trace.stream(cpu));
        }
    }

    // Under the skip promise, made before any read: the kept records
    // are exactly the materialized ones at kept positions, and the
    // stream ends at the same count.
    {
        SynthTraceSource source(profile, CoherenceOptions::none());
        std::vector<std::unique_ptr<RecordCursor>> cursors;
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
            cursors.push_back(source.cursor(cpu));
            cursors.back()->promiseSkips(promisePeriod, promiseKeep);
        }
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
            expectKeptRecordsExact(*cursors[cpu], trace.stream(cpu));
    }

    // A raw skip() across kept records (what checkpoint resume does)
    // lands exactly, under the promise too.
    {
        SynthTraceSource source(profile, CoherenceOptions::none());
        auto cursor = source.cursor(0);
        cursor->promiseSkips(promisePeriod, promiseKeep);
        const std::vector<TraceRecord> &expected = trace.stream(0);
        ASSERT_GT(expected.size(), 4 * promisePeriod);
        EXPECT_EQ(cursor->skip(5), 5u);
        ASSERT_NE(cursor->peek(), nullptr);
        EXPECT_EQ(*cursor->peek(), expected[5]);
        // Into the skipped tail of window 2, then on to window 3.
        const std::uint64_t tail = 2 * promisePeriod + promiseKeep + 7;
        EXPECT_EQ(cursor->skip(tail - 5), tail - 5);
        EXPECT_EQ(cursor->skip(promisePeriod - promiseKeep - 7),
                  promisePeriod - promiseKeep - 7);
        ASSERT_NE(cursor->peek(), nullptr);
        EXPECT_EQ(*cursor->peek(), expected[3 * promisePeriod]);
        const std::uint64_t at = 3 * promisePeriod;
        EXPECT_EQ(cursor->skip(expected.size()), expected.size() - at);
        EXPECT_EQ(cursor->peek(), nullptr);
        EXPECT_EQ(cursor->skip(10), 0u);
    }

    // A promise made after the first read is ignored, by the lane
    // read and by lanes the read already filled: every record of the
    // stream stays readable and exact.
    {
        SynthTraceSource source(profile, CoherenceOptions::none());
        auto first = source.cursor(0);
        ASSERT_NE(first->peek(), nullptr);
        first->promiseSkips(promisePeriod, promiseKeep);
        auto second = source.cursor(1);
        second->promiseSkips(promisePeriod, promiseKeep);
        for (const auto &[cursor, cpu] :
             {std::pair{first.get(), 0}, std::pair{second.get(), 1}}) {
            std::vector<TraceRecord> all;
            while (const TraceRecord *rec = cursor->peek()) {
                all.push_back(*rec);
                cursor->advance();
            }
            EXPECT_EQ(all, trace.stream(CpuId(cpu))) << "cpu " << cpu;
        }
    }
}

// ---------------------------------------------------------------------
// A source whose every lane is promised before the first read
// generates on a producer thread; the reader's timing must not show.

/**
 * Reads a promised source against generateTrace()'s output: each
 * read checks every record at a kept position, the block op of every
 * BlockOpBegin, and where each stream ends.
 */
class PromisedReader
{
  public:
    PromisedReader(SynthTraceSource &source, const Trace &reference)
        : src(source), trace(reference), pos(source.numCpus(), 0),
          ended(source.numCpus(), false)
    {
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
            cursors.push_back(source.cursor(cpu));
            cursors.back()->promiseSkips(promisePeriod, promiseKeep);
        }
    }

    /**
     * Read up to @p max of @p cpu's kept records in one span, first
     * skipping to its next kept position; false once it has ended.
     */
    bool
    read(CpuId cpu, std::size_t max = ~std::size_t{0})
    {
        if (ended[cpu])
            return false;
        RecordCursor &cursor = *cursors[cpu];
        const std::vector<TraceRecord> &expected = trace.stream(cpu);
        std::uint64_t &at = pos[cpu];
        const std::uint64_t off = at % promisePeriod;
        if (off >= promiseKeep) {
            const std::uint64_t want = promisePeriod - off;
            const std::size_t done = cursor.skip(want);
            at += done;
            if (done < want)
                return finish(cpu);
            return true;
        }
        const TraceRecord *first = nullptr;
        const std::size_t n = cursor.peekRun(first);
        if (n == 0)
            return finish(cpu);
        const std::size_t used = std::min<std::uint64_t>(
            {n, promiseKeep - off, std::uint64_t(max)});
        EXPECT_LE(at + used, expected.size());
        for (std::size_t i = 0; i < used && at + i < expected.size(); ++i) {
            const TraceRecord &rec = first[i];
            EXPECT_EQ(rec, expected[at + i])
                << "cpu " << cpu << " position " << at + i;
            if (rec.type == RecordType::BlockOpBegin)
                expectSameOp(rec.aux);
        }
        cursor.advanceRun(used);
        at += used;
        return true;
    }

    /** Raw skip() of @p n records, as checkpoint resume does. */
    void
    skipRaw(CpuId cpu, std::uint64_t n)
    {
        EXPECT_EQ(cursors[cpu]->skip(n), n);
        pos[cpu] += n;
    }

    /** BlockOpBegin records read, and how many were readOnlyAfter. */
    std::size_t opsRead = 0;
    std::size_t readOnlyOps = 0;

  private:
    bool
    finish(CpuId cpu)
    {
        EXPECT_EQ(pos[cpu], trace.stream(cpu).size()) << "cpu " << cpu;
        EXPECT_EQ(cursors[cpu]->peek(), nullptr);
        EXPECT_EQ(cursors[cpu]->skip(10), 0u);
        ended[cpu] = true;
        return false;
    }

    void
    expectSameOp(std::uint64_t id)
    {
        // By value: the table may grow at the next read.
        const BlockOp got = src.blockOps().get(BlockOpId(id));
        const BlockOp &want = trace.blockOps().get(BlockOpId(id));
        EXPECT_EQ(got.src, want.src) << "op " << id;
        EXPECT_EQ(got.dst, want.dst) << "op " << id;
        EXPECT_EQ(got.size, want.size) << "op " << id;
        EXPECT_EQ(got.kind, want.kind) << "op " << id;
        EXPECT_EQ(got.readOnlyAfter, want.readOnlyAfter) << "op " << id;
        ++opsRead;
        readOnlyOps += want.readOnlyAfter ? 1 : 0;
    }

    SynthTraceSource &src;
    const Trace &trace;
    std::vector<std::unique_ptr<RecordCursor>> cursors;
    std::vector<std::uint64_t> pos;
    std::vector<bool> ended;
};

/** A promised stream with several budgets' worth of kept records. */
WorkloadProfile
promisedProfile()
{
    return smallProfile(WorkloadKind::Shell, 16);
}

TEST(StreamProducer, AdversarialReadOrdersMatchGenerateTrace)
{
    const WorkloadProfile profile = promisedProfile();
    const Trace trace = generateTrace(profile, CoherenceOptions::none());

    // One cpu to its end before the others start: the producer runs
    // the whole stream past the waiting lanes.
    {
        SCOPED_TRACE("one cpu at a time");
        SynthTraceSource source(profile, CoherenceOptions::none());
        PromisedReader r(source, trace);
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
            while (r.read(cpu)) {}
        EXPECT_GT(r.opsRead, 0u);
        EXPECT_GT(r.readOnlyOps, 0u);
        EXPECT_EQ(source.blockOps().size(), trace.blockOps().size());
    }

    // Round-robin, one record at a time.
    {
        SCOPED_TRACE("round-robin by record");
        SynthTraceSource source(profile, CoherenceOptions::none());
        PromisedReader r(source, trace);
        for (bool any = true; any;) {
            any = false;
            for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
                any = r.read(cpu, 1) || any;
        }
        EXPECT_EQ(source.blockOps().size(), trace.blockOps().size());
    }

    // A reader that pauses after a span until the producer has run
    // ahead to its budget, then round-robin by span.
    {
        SCOPED_TRACE("paused reader");
        SynthTraceSource source(profile, CoherenceOptions::none());
        PromisedReader r(source, trace);
        ASSERT_TRUE(r.read(0));
        for (int wait = 0; wait < 10'000 &&
             source.peakBufferedRecords() < SynthTraceSource::runAheadRecords;
             ++wait)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_GE(source.peakBufferedRecords(),
                  SynthTraceSource::runAheadRecords);
        for (bool any = true; any;) {
            any = false;
            for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
                any = r.read(cpu) || any;
        }
        EXPECT_EQ(source.blockOps().size(), trace.blockOps().size());
        // The run-ahead never held the whole kept stream.
        EXPECT_LT(source.peakBufferedRecords(),
                  trace.totalRecords() * promiseKeep / promisePeriod);
    }

    // Raw skips into kept windows (checkpoint resume) first: the
    // reader drops what the producer kept before each position.
    {
        SCOPED_TRACE("raw skips, then round-robin by span");
        SynthTraceSource source(profile, CoherenceOptions::none());
        PromisedReader r(source, trace);
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
            r.skipRaw(cpu, (3 + cpu) * promisePeriod + 5 + 7 * cpu);
        for (bool any = true; any;) {
            any = false;
            for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
                any = r.read(cpu) || any;
        }
    }
}

TEST(StreamProducer, DestroyedAtAnyPointJoinsPromptly)
{
    // Destroying a promised source stops and joins its producer
    // wherever the reader is: before the first read (no producer
    // yet), after one span, midway with the producer held at its
    // budget, and after the last record.
    const WorkloadProfile profile = promisedProfile();
    const Trace trace = generateTrace(profile, CoherenceOptions::none());
    const std::uint64_t kept0 =
        trace.stream(0).size() * promiseKeep / promisePeriod;
    const struct
    {
        const char *name;
        std::uint64_t spans; ///< cpu 0 spans read first (~0 = all).
    } stages[] = {
        {"before the first read", 0},
        {"after one span", 1},
        {"midway", kept0 / 2},
        {"at the end", ~std::uint64_t{0}},
    };
    for (const auto &stage : stages) {
        SCOPED_TRACE(stage.name);
        auto source = std::make_unique<SynthTraceSource>(
            profile, CoherenceOptions::none());
        {
            PromisedReader r(*source, trace);
            for (std::uint64_t i = 0; i < stage.spans && r.read(0, 1); ++i) {}
            if (stage.spans == ~std::uint64_t{0}) {
                for (CpuId cpu = 1; cpu < source->numCpus(); ++cpu)
                    while (r.read(cpu)) {}
            }
        }
        // Give the producer time to fill its budget and block.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto t0 = std::chrono::steady_clock::now();
        source.reset();
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(2));
    }
}

TEST(StreamProducer, GenerationFailureReachesTheReader)
{
    // The producer's first allocation fails; the reader must see the
    // exception at its next read, and the source still joins.
    const WorkloadProfile profile = promisedProfile();
    SynthTraceSource source(profile, CoherenceOptions::none());
    std::vector<std::unique_ptr<RecordCursor>> cursors;
    for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
        cursors.push_back(source.cursor(cpu));
        cursors.back()->promiseSkips(promisePeriod, promiseKeep);
    }
    g_fail_off_main = true;
    EXPECT_THROW(cursors[0]->peek(), std::bad_alloc);
    g_fail_off_main = false;
    EXPECT_THROW(cursors[1]->peek(), std::bad_alloc);
}

/** Forwards to a SynthTraceSource the caller keeps, to read its peak. */
class KeptSynthSource final : public TraceSource
{
  public:
    explicit KeptSynthSource(SynthTraceSource &source) : inner(source) {}

    unsigned numCpus() const override { return inner.numCpus(); }
    const BlockOpTable &blockOps() const override
    {
        return inner.blockOps();
    }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return inner.updatePages();
    }
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override
    {
        return inner.cursor(cpu);
    }
    const char *mode() const override { return inner.mode(); }

  private:
    SynthTraceSource &inner;
};

TEST(StreamSkip, SampledLongStreamBuffersOnlyKeptRecords)
{
    // The 12M-record TRFD_4 stream and plan of the repository
    // benchmark's sampled_long workload.  Without the skip promise a
    // processor's leap over a skipped stretch left the others'
    // records from every quantum it generated buffered: 1.61M at
    // peak.  With it the lanes hold only kept records.
    WorkloadProfile profile = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    profile.quanta = 280;
    const SystemSetup setup = SystemSetup::forKind(SystemKind::Base);
    SynthTraceSource source(profile, setup.coherence);
    SimOptions opts = profile.simOptions();
    opts.checkCoherence = false;
    sample::SampleRunOptions run;
    run.plan = sample::SamplingPlan::parse(
        "period=200k,measure=2k,warmup=12k");
    const sample::SampleRunOutcome outcome = sample::runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<KeptSynthSource>(source);
        },
        MachineConfig::base(), opts, setup.blockScheme, run);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_NE(outcome.result.sample, nullptr);
    EXPECT_GT(outcome.result.sample->totalRecords, 11'000'000u);
    EXPECT_LT(source.peakBufferedRecords(), 200'000u);
    EXPECT_GT(source.peakBufferedRecords(), 0u);
}

TEST(StreamFile, ChunkedReplayMatchesMaterializedSim)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Arc2dFsck, 3);
    const SystemSetup setup = SystemSetup::forKind(SystemKind::Base);
    const Trace trace = generateTrace(profile, setup.coherence);
    const std::string path = scratchPath("replay.otc");
    writeTraceFile(path, trace, TraceFormat::Chunked);

    const MachineConfig machine = MachineConfig::base();
    const RunResult materialized =
        runOnTrace(trace, machine, profile.simOptions(), setup);
    const RunResult streamed = runOnSource(
        [&path]() { return std::make_unique<FileTraceSource>(path); },
        machine, profile.simOptions(), setup);

    EXPECT_EQ(streamed.stats, materialized.stats);
    EXPECT_EQ(streamed.traceMode, "file");
    fs::remove(path);
}

// openTraceFile: the format picks the source, and either replays
// like the whole-trace reader.

TEST(StreamFile, OpenTraceFileFollowsFormat)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Trfd4, 3);
    const Trace trace = generateTrace(profile, CoherenceOptions::none());
    const MachineConfig machine = MachineConfig::base();
    const struct
    {
        TraceFormat format;
        const char *name;
        const char *mode;
    } cases[] = {
        {TraceFormat::Text, "open.trace", "materialized"},
        {TraceFormat::Chunked, "open.otc", "file"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = scratchPath(c.name);
        writeTraceFile(path, trace, c.format);
        const TraceSourceFactory open = openTraceFile(path);
        // Every pass gets a fresh source over the whole trace.
        for (int pass = 0; pass < 2; ++pass) {
            const std::unique_ptr<TraceSource> source = open();
            EXPECT_STREQ(source->mode(), c.mode);
            expectSameBlockOps(source->blockOps(), trace.blockOps());
            EXPECT_EQ(source->updatePages(), trace.updatePages());
            EXPECT_EQ(drain(*source), streamsOf(trace));
        }
        const Trace reread = readTraceFile(path);
        for (const SystemKind kind : {SystemKind::Base, SystemKind::BCPref}) {
            SCOPED_TRACE(toString(kind));
            const SystemSetup setup = SystemSetup::forKind(kind);
            const RunResult expected =
                runOnTrace(reread, machine, SimOptions{}, setup);
            const RunResult opened =
                runOnSource(open, machine, SimOptions{}, setup);
            EXPECT_EQ(opened.stats, expected.stats);
            EXPECT_EQ(opened.bus, expected.bus);
        }
        fs::remove(path);
    }
}

TEST(StreamFile, TruncatedChunkedFailsCleanly)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Trfd4, 2);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const std::string path = scratchPath("truncated.otc");
    writeTraceFile(path, trace, TraceFormat::Chunked);

    // Cut the file at several points; every cut must be rejected
    // with a reason, never crash or return a half-open source.
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, bytes.size() / 4,
          std::size_t{10}, std::size_t{3}}) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), std::streamsize(keep));
        os.close();
        std::string why;
        EXPECT_EQ(FileTraceSource::tryOpen(path, &why), nullptr)
            << "keep=" << keep;
        EXPECT_FALSE(why.empty()) << "keep=" << keep;
    }
    fs::remove(path);
}

TEST(StreamFile, CorruptedChunkedFailsCleanly)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Trfd4, 2);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const std::string path = scratchPath("corrupt.otc");
    writeTraceFile(path, trace, TraceFormat::Chunked);

    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    // Flip one byte mid-records: the trailing checksum must catch it.
    std::string flipped = bytes;
    flipped[flipped.size() / 2] =
        char(flipped[flipped.size() / 2] ^ 0x5a);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(flipped.data(), std::streamsize(flipped.size()));
    }
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, &why), nullptr);
    EXPECT_FALSE(why.empty());

    // Trailing garbage after the checksum is rejected too.
    std::string padded = bytes + std::string("xx");
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(padded.data(), std::streamsize(padded.size()));
    }
    EXPECT_EQ(FileTraceSource::tryOpen(path, &why), nullptr);
    fs::remove(path);
}

// ---------------------------------------------------------------------
// Streamed lint agrees with the materialized linter.

TEST(StreamLint, SourceFindingsMatchTrace)
{
    // The linter's one walk also runs the lockset discipline, so a
    // chunked file is race-checked while it streams.
    bool sawRace = false;
    for (const WorkloadKind kind : allWorkloads) {
        SCOPED_TRACE(toString(kind));
        const Trace trace =
            generateTrace(smallProfile(kind, 4), CoherenceOptions::none());
        const std::string path = scratchPath("lint_seed.otc");
        writeTraceFile(path, trace, TraceFormat::Chunked);
        FileTraceSource source(path);
        const auto fromFile = lintSource(source);
        const auto fromTrace = lintTrace(trace);
        ASSERT_EQ(fromFile.size(), fromTrace.size());
        for (std::size_t i = 0; i < fromTrace.size(); ++i) {
            EXPECT_EQ(fromFile[i].code, fromTrace[i].code) << i;
            EXPECT_EQ(fromFile[i].cpu, fromTrace[i].cpu) << i;
            EXPECT_EQ(fromFile[i].index, fromTrace[i].index) << i;
            EXPECT_EQ(fromFile[i].message, fromTrace[i].message) << i;
            sawRace |= fromFile[i].code == CheckCode::UnlockedSharedWrite;
        }
        fs::remove(path);
    }
    EXPECT_TRUE(sawRace);
}

// ---------------------------------------------------------------------
// Artifact store: streamed generation to disk, streamed replay back.

TEST(StreamStore, StreamedArtifactMatchesMaterialized)
{
    const std::string dir = scratchPath("store");
    fs::remove_all(dir);
    TraceStore store(dir);

    const WorkloadProfile profile = smallProfile(WorkloadKind::Shell, 3);
    const CoherenceOptions options = CoherenceOptions::none();
    const std::string key = traceKey(profile, options, 4);

    EXPECT_EQ(store.openSource(key), nullptr); // cold: miss
    store.storeStreaming(key, profile, options);
    auto source = store.openSource(key);
    ASSERT_NE(source, nullptr);

    const Trace trace = generateTrace(profile, options);
    EXPECT_EQ(drain(*source), streamsOf(trace));
    expectSameBlockOps(source->blockOps(), trace.blockOps());
    EXPECT_EQ(source->updatePages(), trace.updatePages());
    EXPECT_GE(store.hits(), 1u);
    EXPECT_GE(store.misses(), 1u);

    // A cache loads the same artifact as the blocks it holds.
    const auto again = store.load(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(streamsOf(again->unpack()), streamsOf(trace));

    // A corrupt artifact is deleted and reported as a miss.
    {
        std::ofstream os(store.pathFor(key),
                         std::ios::binary | std::ios::trunc);
        os << "not a trace";
    }
    EXPECT_EQ(store.openSource(key), nullptr);
    EXPECT_GE(store.rejected(), 1u);
    EXPECT_FALSE(fs::exists(store.pathFor(key)));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// In-memory trace cache: LRU byte cap and counters.

TEST(StreamCache, LruEvictsUnderByteCap)
{
    // One trace's footprint, as a cache at the default cap counts it.
    const WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    const CoherenceOptions base = CoherenceOptions::none();
    TraceCache probe;
    const auto first = probe.trace(profile, base);
    const std::size_t oneTrace = probe.heldBytes();
    EXPECT_EQ(oneTrace, first->bytes());
    EXPECT_EQ(probe.peakBytes(), oneTrace);

    // A cache where roughly one trace fits, pulling in several
    // distinct coherence variants of the same workload.
    TraceCache cache({}, oneTrace + oneTrace / 2);
    CoherenceOptions reloc = base;
    reloc.relocate = true;
    CoherenceOptions relup = reloc;
    relup.selectiveUpdate = true;
    const auto held = cache.trace(profile, base);
    (void)cache.trace(profile, reloc);
    (void)cache.trace(profile, relup);

    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.generated, 3u);
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(cache.heldBytes(), oneTrace + oneTrace / 2);

    // Evicted pointers stay alive for their holders.
    EXPECT_EQ(held->totalRecords(), first->totalRecords());

    // An evicted key regenerates (a later miss, not an error).
    (void)cache.trace(profile, base);
    const TraceCacheStats after = cache.stats() - stats;
    EXPECT_EQ(after.memoryHits + after.generated, 1u);
}

TEST(StreamCache, StreamedModeBypassesMaterialization)
{
    TraceCache cache;
    RunContext streaming;
    streaming.stream = true;
    streaming.traces = &cache;
    RunContext materializing;
    materializing.traces = &cache;
    const RunResult streamed = runWorkload(
        WorkloadKind::Trfd4, SystemKind::Base, MachineConfig::base(),
        streaming);
    const RunResult materialized = runWorkload(
        WorkloadKind::Trfd4, SystemKind::Base, MachineConfig::base(),
        materializing);

    EXPECT_EQ(streamed.stats, materialized.stats);
    EXPECT_EQ(streamed.traceMode, "synth");
    EXPECT_EQ(materialized.traceMode, "materialized");
    // The streamed run synthesized its one pass and never touched the
    // cached traces.
    EXPECT_EQ(cache.stats().streamedSynthesized, 1u);
    EXPECT_EQ(cache.stats().streamedStored, 0u);
    EXPECT_EQ(cache.stats().generated, 1u);
    EXPECT_EQ(cache.stats().memoryHits, 0u);
}

} // namespace
} // namespace oscache
