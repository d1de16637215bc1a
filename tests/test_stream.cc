/**
 * @file
 * Streaming trace pipeline tests: streamed synthesis must reproduce
 * materialized generation bit-for-bit, file sources must replay both
 * on-disk formats through bounded cursors, corrupted chunked
 * artifacts must fail cleanly, every cursor's skip() must be exact
 * (a synthesized cursor under the skip promise too, which must also
 * keep the sampled benchmark stream's buffer small), the streaming
 * prefetch adapter must match the materializing rewrite, and the
 * in-memory trace cache must evict by LRU under its byte cap.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/tracelint.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "exp/artifact_cache.hh"
#include "report/experiment.hh"
#include "sample/run.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"
#include "trace/io.hh"
#include "trace/source.hh"

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

TEST(StreamPrefetch, AdapterMatchesInsertPrefetches)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Shell, 4);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());

    // Mark some genuinely occurring blocks hot.
    HotspotPlan plan;
    plan.lookahead = 5;
    for (const TraceRecord &rec : trace.stream(0))
        if (rec.type == RecordType::Read && rec.isOs()) {
            plan.hotBlocks.insert(rec.bb);
            if (plan.hotBlocks.size() >= 4)
                break;
        }
    ASSERT_FALSE(plan.hotBlocks.empty());

    const Trace rewritten = insertPrefetches(trace, plan);
    PrefetchStreamSource adapter(
        std::make_unique<MaterializedTraceSource>(trace), plan);
    const auto streamed = drain(adapter);

    ASSERT_EQ(streamed.size(), rewritten.numCpus());
    for (CpuId c = 0; c < rewritten.numCpus(); ++c)
        EXPECT_EQ(streamed[c], rewritten.stream(c)) << "cpu " << c;
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
    } cases[] = {
        {TraceFormat::Text, "roundtrip.trace"},
        {TraceFormat::Chunked, "roundtrip.otc"},
    };
    for (const auto &c : cases) {
        const std::string path = scratchPath(c.name);
        writeTraceFile(path, trace, c.format);

        FileTraceSource source(path, 64);
        EXPECT_STREQ(source.mode(), "file");
        EXPECT_EQ(source.readAhead(), 64u);
        ASSERT_EQ(source.numCpus(), trace.numCpus()) << c.name;
        for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
            ASSERT_TRUE(source.knownRecords(cpu).has_value());
            EXPECT_EQ(*source.knownRecords(cpu),
                      trace.stream(cpu).size());
        }
        expectSameBlockOps(source.blockOps(), trace.blockOps());
        EXPECT_EQ(source.updatePages(), trace.updatePages());
        EXPECT_EQ(drain(source), expected) << c.name;

        // The materializing reader agrees on every format too.
        const Trace reread = readTraceFile(path);
        EXPECT_EQ(streamsOf(reread), expected) << c.name;
        fs::remove(path);
    }
}

TEST(StreamFile, TinyReadAheadStillExact)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Shell, 2);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const std::string path = scratchPath("tiny_buffer.otc");
    writeTraceFile(path, trace, TraceFormat::Chunked);

    FileTraceSource source(path, 1);
    EXPECT_EQ(source.readAhead(), 1u);
    EXPECT_EQ(drain(source), streamsOf(trace));
    fs::remove(path);
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
        // Small read-ahead so skips cross many refill boundaries.
        FileTraceSource source(path, 64);
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
            auto cursor = source.cursor(cpu);
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
        [&path]() { return std::make_unique<FileTraceSource>(path, 128); },
        machine, profile.simOptions(), setup);

    EXPECT_EQ(streamed.stats, materialized.stats);
    EXPECT_EQ(streamed.traceMode, "file");
    fs::remove(path);
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
        EXPECT_EQ(FileTraceSource::tryOpen(path, 64, &why), nullptr)
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
    EXPECT_EQ(FileTraceSource::tryOpen(path, 64, &why), nullptr);
    EXPECT_FALSE(why.empty());

    // Trailing garbage after the checksum is rejected too.
    std::string padded = bytes + std::string("xx");
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(padded.data(), std::streamsize(padded.size()));
    }
    EXPECT_EQ(FileTraceSource::tryOpen(path, 64, &why), nullptr);
    fs::remove(path);
}

// ---------------------------------------------------------------------
// Streamed lint agrees with the materialized linter.

TEST(StreamLint, SourceFindingsMatchTrace)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::TrfdMake, 3);
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const auto fromTrace = lintTrace(trace);
    MaterializedTraceSource source(trace);
    const auto fromSource = lintSource(source);
    ASSERT_EQ(fromSource.size(), fromTrace.size());
    for (std::size_t i = 0; i < fromTrace.size(); ++i) {
        EXPECT_EQ(fromSource[i].code, fromTrace[i].code);
        EXPECT_EQ(fromSource[i].cpu, fromTrace[i].cpu);
        EXPECT_EQ(fromSource[i].index, fromTrace[i].index);
    }
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
    const std::string key = TraceStore::keyFor(profile, options);

    EXPECT_EQ(store.openSource(key), nullptr); // cold: miss
    store.storeStreaming(key, profile, options);
    auto source = store.openSource(key, 64);
    ASSERT_NE(source, nullptr);

    const Trace trace = generateTrace(profile, options);
    EXPECT_EQ(drain(*source), streamsOf(trace));
    expectSameBlockOps(source->blockOps(), trace.blockOps());
    EXPECT_EQ(source->updatePages(), trace.updatePages());
    EXPECT_GE(store.hits(), 1u);
    EXPECT_GE(store.misses(), 1u);

    // A materialized run loads the same artifact whole.
    const auto loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(streamsOf(*loaded), streamsOf(trace));

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
    clearTraceCache();
    resetTraceCacheStats();
    // One small trace's footprint, measured through the public API.
    setTraceCacheCapacity(0);
    const CoherenceOptions base = CoherenceOptions::none();
    const auto first = cachedWorkloadTrace(WorkloadKind::Trfd4, base);

    // Cap the cache so roughly one trace fits, then pull in several
    // distinct coherence variants of the same workload.
    const std::size_t oneTrace =
        first->totalRecords() * sizeof(TraceRecord) +
        first->blockOps().size() * sizeof(BlockOp) +
        first->updatePages().size() * sizeof(Addr);
    setTraceCacheCapacity(oneTrace + oneTrace / 2);
    EXPECT_EQ(traceCacheCapacity(), oneTrace + oneTrace / 2);

    CoherenceOptions reloc = base;
    reloc.relocate = true;
    CoherenceOptions relup = reloc;
    relup.selectiveUpdate = true;
    (void)cachedWorkloadTrace(WorkloadKind::Trfd4, reloc);
    (void)cachedWorkloadTrace(WorkloadKind::Trfd4, relup);

    const TraceCacheStats stats = traceCacheStats();
    EXPECT_EQ(stats.generated, 3u);
    EXPECT_GE(stats.evictions, 1u);

    // Evicted pointers stay alive for their holders.
    EXPECT_GT(first->totalRecords(), 0u);

    // An evicted key regenerates (a later miss, not an error).
    resetTraceCacheStats();
    (void)cachedWorkloadTrace(WorkloadKind::Trfd4, base);
    const TraceCacheStats after = traceCacheStats();
    EXPECT_EQ(after.memoryHits + after.generated, 1u);

    setTraceCacheCapacity(defaultTraceCacheBytes);
    clearTraceCache();
}

TEST(StreamCache, StreamedModeBypassesMaterialization)
{
    clearTraceCache();
    resetTraceCacheStats();
    setTraceSourceMode(TraceSourceMode::Streamed);
    const RunResult streamed =
        runWorkload(WorkloadKind::Trfd4, SystemKind::Base);
    setTraceSourceMode(TraceSourceMode::Materialized);
    const RunResult materialized =
        runWorkload(WorkloadKind::Trfd4, SystemKind::Base);

    EXPECT_EQ(streamed.stats, materialized.stats);
    EXPECT_EQ(streamed.traceMode, "synth");
    EXPECT_EQ(materialized.traceMode, "materialized");
    // The streamed run never touched the materialized cache.
    EXPECT_EQ(traceCacheStats().generated, 1u);
    clearTraceCache();
}

} // namespace
} // namespace oscache
