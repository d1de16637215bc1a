/**
 * @file
 * Tests for the src/exp experiment-orchestration subsystem and the
 * parallel loop it runs on: parallelFor (common/parallel.hh), the
 * persistent artifact cache (which concurrent processes may share),
 * the thread-safe trace cache, and — the key acceptance property —
 * that the parallel scheduler produces exactly the statistics the
 * direct serial runWorkload() calls produce.
 *
 * Every suite here but ServeCellrun is named Exp* so the
 * thread-sanitizer stage in tools/run_checks.sh can select them with
 * `ctest -R '^Exp'`; ServeCellrun keeps the name it has long had.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "exp/artifact_cache.hh"
#include "exp/driver.hh"
#include "exp/hash.hh"
#include "exp/registry.hh"
#include "exp/results.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"
#include "synth/generator.hh"
#include "trace/io.hh"

namespace oscache
{
namespace
{

namespace fs = std::filesystem;

// ----------------------------------------------------- parallel loop

TEST(ExpParallel, RunsEveryIndexOnceOnAtMostMinJobsCountThreads)
{
    for (const unsigned jobs : {1u, 3u, 8u}) {
        for (const std::size_t count : {0u, 1u, 2u, 200u}) {
            SCOPED_TRACE(testing::Message()
                         << "jobs " << jobs << ", count " << count);
            std::vector<std::atomic<int>> runs(count);
            std::mutex mutex;
            std::set<std::thread::id> threads; // Guarded by mutex.
            std::set<unsigned> workers;        // Guarded by mutex.
            parallelFor(jobs, count, [&](std::size_t i, unsigned worker) {
                runs[i].fetch_add(1);
                std::lock_guard<std::mutex> lock(mutex);
                threads.insert(std::this_thread::get_id());
                workers.insert(worker);
                return true;
            });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(runs[i].load(), 1) << "index " << i;
            const std::size_t most = std::min<std::size_t>(jobs, count);
            EXPECT_LE(threads.size(), most);
            EXPECT_LE(workers.size(), most);
            if (!workers.empty()) {
                EXPECT_LT(*workers.rbegin(), most);
            }
        }
    }
}

TEST(ExpParallel, OneWorkerStopsAfterFalseOrThrow)
{
    // One worker runs the indices in order, so the stop is exact.
    std::vector<std::size_t> ran;
    parallelFor(1, 200, [&](std::size_t i, unsigned) {
        ran.push_back(i);
        return i != 5;
    });
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

    ran.clear();
    try {
        parallelFor(1, 200, [&](std::size_t i, unsigned) {
            ran.push_back(i);
            if (i == 5)
                throw std::runtime_error("index 5");
            return true;
        });
        ADD_FAILURE() << "parallelFor returned instead of rethrowing";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 5");
    }
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

/** What stopWhileOthersRun() saw: the indices run, the error. */
struct StopRun
{
    std::set<std::size_t> ran;
    std::string error;
};

/**
 * Run parallelFor(3, 200) where index 0 ends the loop through @p stop
 * (return false or throw) while indices 1 and 2 are still running on
 * the other two workers; those then finish through @p finish.
 */
template <typename Stop, typename Finish>
StopRun
stopWhileOthersRun(Stop stop, Finish finish)
{
    std::atomic<int> started{0};
    std::atomic<bool> stopping{false};
    std::mutex mutex;
    StopRun run; // run.ran is guarded by mutex.
    try {
        parallelFor(3, 200, [&](std::size_t i, unsigned) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                run.ran.insert(i);
            }
            started.fetch_add(1);
            if (i >= 3)
                return true;
            // Indices 0-2 each block until all three are running, so
            // each holds one worker.
            while (started.load() < 3)
                std::this_thread::yield();
            if (i == 0) {
                stopping = true;
                return stop();
            }
            while (!stopping.load())
                std::this_thread::yield();
            // Give the stopping worker ample time to publish its stop.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return finish(i);
        });
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    return run;
}

TEST(ExpParallel, FalseReturnStopsNewIndices)
{
    const StopRun run = stopWhileOthersRun(
        [] { return false; }, [](std::size_t) { return true; });
    EXPECT_EQ(run.ran, (std::set<std::size_t>{0, 1, 2}));
    EXPECT_EQ(run.error, "");
}

TEST(ExpParallel, ThrowStopsNewIndicesAndFirstIsRethrown)
{
    const StopRun run = stopWhileOthersRun(
        []() -> bool { throw std::runtime_error("first"); },
        [](std::size_t i) -> bool {
            throw std::runtime_error("later " + std::to_string(i));
        });
    EXPECT_EQ(run.ran, (std::set<std::size_t>{0, 1, 2}));
    EXPECT_EQ(run.error, "first");
}

// ----------------------------------------------------- artifact cache

TEST(ExpArtifactCache, KeyIsStableAndSensitive)
{
    const WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    const CoherenceOptions none = CoherenceOptions::none();
    EXPECT_EQ(traceKey(p, none, 4), traceKey(p, none, 4));

    WorkloadProfile p2 = p;
    p2.seed += 1;
    EXPECT_NE(traceKey(p, none, 4), traceKey(p2, none, 4));
    EXPECT_NE(traceKey(p, none, 4),
              traceKey(p, CoherenceOptions::relocUpdate(), 4));
    EXPECT_NE(traceKey(p, none, 4), traceKey(p, none, 8));
}

TEST(ExpArtifactCache, StoreLoadRoundTrip)
{
    const std::string dir = "/tmp/oscache_test_artifacts_roundtrip";
    fs::remove_all(dir);
    TraceStore store(dir);

    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = 2;
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    const std::string key = traceKey(p, CoherenceOptions::none(), 4);

    EXPECT_EQ(store.openSource(key), nullptr);
    const PackedTrace stored = generatePacked(p, CoherenceOptions::none());
    store.store(key, stored);

    // store() writes the same chunked encoding storeStreaming() does,
    // so a streamed run replays it from disk, and a cache loads it
    // back as the blocks it stored.
    auto source = store.openSource(key);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
    ASSERT_EQ(source->numCpus(), trace.numCpus());
    EXPECT_EQ(source->updatePages(), trace.updatePages());
    EXPECT_EQ(source->blockOps().size(), trace.blockOps().size());
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
        auto cursor = source->cursor(cpu);
        for (const TraceRecord &rec : trace.stream(cpu)) {
            ASSERT_NE(cursor->peek(), nullptr);
            ASSERT_EQ(*cursor->peek(), rec);
            cursor->advance();
        }
        EXPECT_EQ(cursor->peek(), nullptr);
    }

    // The file holds the cache's packed blocks, not 20-byte records.
    const double bytes_per_record =
        double(fs::file_size(store.pathFor(key))) /
        double(trace.totalRecords());
    EXPECT_LT(bytes_per_record, 4.0);

    // load() hands back those blocks byte for byte, so a warm cache
    // holds the bytes a cold one does, and they decode to the trace
    // and write back to the same file.
    const std::optional<PackedTrace> loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(store.hits(), 2u);
    ASSERT_EQ(loaded->numCpus(), stored.numCpus());
    for (CpuId cpu = 0; cpu < stored.numCpus(); ++cpu) {
        const PackedTrace::Blocks want = stored.blocks(cpu);
        const PackedTrace::Blocks got = loaded->blocks(cpu);
        EXPECT_EQ(got.records, want.records);
        ASSERT_TRUE(std::ranges::equal(got.starts, want.starts));
        EXPECT_EQ(std::memcmp(got.bytes, want.bytes, want.starts.back()), 0);
    }
    EXPECT_EQ(loaded->bytes(), stored.bytes());
    EXPECT_EQ(loaded->blockOps().size(), stored.blockOps().size());
    EXPECT_EQ(loaded->updatePages(), stored.updatePages());
    const Trace unpacked = loaded->unpack();
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu)
        EXPECT_EQ(unpacked.stream(cpu), trace.stream(cpu));
    std::ostringstream rewritten;
    writeTraceChunked(rewritten, *loaded);
    std::ifstream file(store.pathFor(key), std::ios::binary);
    const std::string on_disk{std::istreambuf_iterator<char>(file),
                              std::istreambuf_iterator<char>()};
    EXPECT_EQ(rewritten.str(), on_disk);
}

TEST(ExpArtifactCache, CorruptFileRejectedAndRemoved)
{
    const std::string dir = "/tmp/oscache_test_artifacts_corrupt";
    fs::remove_all(dir);
    TraceStore store(dir);

    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    const std::string key = traceKey(p, CoherenceOptions::none(), 4);
    const PackedTrace packed = generatePacked(p, CoherenceOptions::none());
    store.store(key, packed);

    // Truncate the artifact to simulate a torn write.
    const std::string path = store.pathFor(key);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    EXPECT_EQ(store.openSource(key), nullptr);
    EXPECT_EQ(store.rejected(), 1u);
    EXPECT_FALSE(fs::exists(path)) << "corrupt artifact must be deleted";

    // A fresh store regenerates transparently.
    store.store(key, packed);
    EXPECT_NE(store.openSource(key), nullptr);

    // load() rejects a torn artifact the same way.
    fs::resize_file(path, size / 2);
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.rejected(), 2u);
    EXPECT_FALSE(fs::exists(path)) << "corrupt artifact must be deleted";
    EXPECT_FALSE(store.load(key).has_value()) << "now a plain miss";
    EXPECT_EQ(store.rejected(), 2u);
    store.store(key, packed);
    ASSERT_TRUE(store.load(key).has_value());

    // A cache over the store regenerates the trace a corrupt artifact
    // held, and stores it again.
    fs::resize_file(path, size / 2);
    {
        TraceCache cache(traceStoreHooks(store));
        const auto regenerated = cache.trace(p, CoherenceOptions::none(), 4);
        EXPECT_EQ(cache.stats().generated, 1u);
        EXPECT_EQ(cache.stats().persistentHits, 0u);
        EXPECT_EQ(regenerated->unpack().stream(0), trace.stream(0));
    }
    EXPECT_EQ(store.rejected(), 3u);
    ASSERT_TRUE(store.load(key).has_value());

    // So does an artifact of the retired binary version 2.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const std::uint32_t retired = 2;
        f.seekp(4); // The version word follows the 4-byte magic.
        f.write(reinterpret_cast<const char *>(&retired), sizeof(retired));
    }
    EXPECT_EQ(store.openSource(key), nullptr);
    EXPECT_EQ(store.rejected(), 4u);
    EXPECT_FALSE(fs::exists(path));
    store.store(key, packed);
    EXPECT_NE(store.openSource(key), nullptr);
}

TEST(ExpArtifactCache, ConcurrentSameKeyTraceWritersNeverTear)
{
    // Two oscache-bench processes may share one --cache-dir: two
    // forked writers store the same key concurrently while this
    // process loads it, and every load must see a complete artifact.
    const std::string dir = "/tmp/oscache_test_artifacts_race";
    fs::remove_all(dir);

    WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    profile.quanta = 2;
    const PackedTrace trace =
        generatePacked(profile, CoherenceOptions::none());
    const std::string key =
        traceKey(profile, CoherenceOptions::none(), 4);

    pid_t writers[2];
    for (int w = 0; w < 2; ++w) {
        writers[w] = ::fork();
        ASSERT_GE(writers[w], 0);
        if (writers[w] == 0) {
            TraceStore mine(dir);
            for (int i = 0; i < 10; ++i)
                mine.store(key, trace);
            ::_exit(0);
        }
    }

    // The reader alternates the streamed opener and the loader.
    TraceStore reader(dir);
    int alive = 2;
    int reaped_ok = 0;
    for (bool stream = true; alive > 0; stream = !stream) {
        if (!stream) {
            if (const auto loaded = reader.load(key)) {
                EXPECT_EQ(loaded->totalRecords(), trace.totalRecords());
            }
        } else if (const auto opened = reader.openSource(key)) {
            std::size_t records = 0;
            for (CpuId cpu = 0; cpu < opened->numCpus(); ++cpu)
                records += opened->knownRecords(cpu).value_or(0);
            EXPECT_EQ(records, trace.totalRecords());
        }
        for (const pid_t w : writers) {
            int status = 0;
            if (::waitpid(w, &status, WNOHANG) == w) {
                --alive;
                if (status == 0)
                    ++reaped_ok;
            }
        }
    }
    EXPECT_EQ(reaped_ok, 2);
    EXPECT_EQ(reader.rejected(), 0u)
        << "a reader saw a torn artifact";
    ASSERT_NE(reader.openSource(key), nullptr);
    ASSERT_TRUE(reader.load(key).has_value());
}

// -------------------------------------------------------- trace cache

TEST(ExpTraceCache, ConcurrentRequestsGenerateOnce)
{
    TraceCache cache;
    const WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const PackedTrace>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&cache, &profile, &seen, t] {
                seen[std::size_t(t)] =
                    cache.trace(profile, CoherenceOptions::none());
            });
        for (auto &th : threads)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[std::size_t(t)], seen[0]) << "same latch result";
    EXPECT_EQ(cache.stats().generated, 1u);
    EXPECT_EQ(cache.stats().memoryHits, unsigned(kThreads - 1));
}

TEST(ExpTraceCache, ClearDuringUseKeepsTracesAlive)
{
    TraceCache cache;
    const auto trace = cache.trace(
        WorkloadProfile::forKind(WorkloadKind::Trfd4), CoherenceOptions::none());
    const std::size_t records = trace->totalRecords();
    cache.clear();
    // The holder's pointer must stay valid after the clear.
    EXPECT_EQ(trace->totalRecords(), records);
}

// ---------------------------------------------- scheduler == serial

TEST(ExpScheduler, MatchesDirectRunWorkload)
{
    // Run figure2 through the parallel scheduler and check every cell
    // against a direct serial runWorkload() call.
    const Experiment *fig2 = resolveExperiments({"figure2"}).front();

    DriverOptions options;
    options.jobs = 4;
    const DriverReport report = runExperiments({fig2}, options);
    ASSERT_EQ(report.experiments.size(), 1u);
    const auto &outcomes = report.experiments[0].outcomes;
    ASSERT_EQ(outcomes.size(), fig2->cells.size());

    for (const CellSpec &cell : fig2->cells) {
        const auto it = outcomes.find(cell.id);
        ASSERT_NE(it, outcomes.end()) << cell.id;
        const RunResult direct =
            runWorkload(cell.workload, cell.system, cell.machine);
        const SimStats &a = it->second.run.stats;
        const SimStats &b = direct.stats;
        EXPECT_EQ(a.osTime(), b.osTime()) << cell.id;
        EXPECT_EQ(a.osMissTotal(), b.osMissTotal()) << cell.id;
        EXPECT_EQ(a.osMissBlock, b.osMissBlock) << cell.id;
        EXPECT_EQ(a.osMissCoherenceTotal(), b.osMissCoherenceTotal())
            << cell.id;
        EXPECT_EQ(a.osMissPartiallyHidden, b.osMissPartiallyHidden)
            << cell.id;
        EXPECT_EQ(a.userMisses, b.userMisses) << cell.id;
        EXPECT_EQ(it->second.run.bus.totalBytes, direct.bus.totalBytes)
            << cell.id;
    }
}

/**
 * Every outcome of @p concurrent equals @p solo's in SimStats and bus,
 * and every outcome of both carries a sample and an obs report
 * exactly when @p in_context.
 */
void
expectSameOutcomes(const DriverReport &solo, const DriverReport &concurrent,
                   bool in_context)
{
    ASSERT_EQ(concurrent.experiments.size(), solo.experiments.size());
    for (std::size_t e = 0; e < solo.experiments.size(); ++e) {
        const auto &expected = solo.experiments[e].outcomes;
        const auto &got = concurrent.experiments[e].outcomes;
        ASSERT_EQ(expected.size(), 1u);
        ASSERT_EQ(got.size(), expected.size());
        for (const auto &[id, outcome] : expected) {
            ASSERT_EQ(got.count(id), 1u) << id;
            const RunResult &run = got.at(id).run;
            EXPECT_EQ(run.stats, outcome.run.stats) << id;
            EXPECT_EQ(run.bus, outcome.run.bus) << id;
            for (const RunResult *r : {&outcome.run, &run}) {
                EXPECT_EQ(r->sample != nullptr, in_context) << id;
                EXPECT_EQ(r->obs != nullptr, in_context) << id;
            }
        }
    }
}

TEST(ExpScheduler, ConcurrentRunsKeepTheirOwnContext)
{
    // Two driver calls at once in one process, one sampled and
    // observed, one with defaults: each must equal its solo run, and
    // only the first's cells may sample or observe.  calibrate's
    // custom body calls runWorkload(), so its row shows whether a
    // custom cell passes the context on.
    const std::vector<const Experiment *> selected =
        resolveExperiments({"figure1", "calibrate"});
    ASSERT_EQ(selected.size(), 2u);

    DriverOptions plain;
    plain.jobs = 2;
    plain.smoke = true;
    DriverOptions sampled = plain;
    sampled.samplePlan =
        sample::SamplingPlan::parse("period=40k,measure=2k,warmup=12k");
    sampled.obs.metrics = true;

    const DriverReport solo_sampled = runExperiments(selected, sampled);
    const DriverReport solo_plain = runExperiments(selected, plain);

    DriverReport both_sampled;
    std::exception_ptr failure;
    std::thread other([&] {
        try {
            both_sampled = runExperiments(selected, sampled);
        } catch (...) {
            failure = std::current_exception();
        }
    });
    const DriverReport both_plain = runExperiments(selected, plain);
    other.join();
    if (failure)
        std::rethrow_exception(failure);

    expectSameOutcomes(solo_sampled, both_sampled, true);
    expectSameOutcomes(solo_plain, both_plain, false);
    clearTraceCache();
}

TEST(ExpScheduler, SharesIdenticalCellsAcrossExperiments)
{
    // table1, table2, and table5 all need Base on all four workloads:
    // the scheduler must simulate each cell once and share it.
    const std::vector<const Experiment *> selected =
        resolveExperiments({"table1", "table2", "table5"});
    ASSERT_EQ(selected.size(), 3u);

    DriverOptions options;
    options.jobs = 2;
    const DriverReport report = runExperiments(selected, options);
    EXPECT_EQ(report.cellsRun, 4u);
    EXPECT_EQ(report.cellsShared, 8u);
    for (const ExperimentReport &er : report.experiments) {
        EXPECT_EQ(er.outcomes.size(), 4u);
        EXPECT_FALSE(er.rendered.empty());
    }
}

TEST(ExpScheduler, WarmArtifactCacheSkipsGeneration)
{
    const std::string dir = "/tmp/oscache_test_artifacts_warm";
    fs::remove_all(dir);
    const std::vector<const Experiment *> table2 =
        resolveExperiments({"table2"});
    DriverOptions options;
    options.jobs = 2;
    {
        TraceStore store(dir);
        TraceCache cache(traceStoreHooks(store));
        options.cache = &cache;
        const DriverReport cold = runExperiments(table2, options);
        EXPECT_GT(cold.traceStats.generated, 0u);
    }
    {
        TraceStore store(dir);
        TraceCache cache(traceStoreHooks(store));
        options.cache = &cache;
        const DriverReport warm = runExperiments(table2, options);
        EXPECT_EQ(warm.traceStats.generated, 0u)
            << "warm rerun must not regenerate traces";
        EXPECT_GT(warm.traceStats.persistentHits, 0u);
    }
    fs::remove_all(dir);
}

TEST(ExpScheduler, StreamedWarmStoreServesEveryPassFromItsArtifacts)
{
    // Under stream every pass of every cell, custom passes included,
    // reads the store's chunked artifact: a cold call generates each
    // one straight to disk, and a warm call on a fresh cache generates
    // nothing and materializes nothing.
    const std::string dir = "/tmp/oscache_test_artifacts_streamed";
    fs::remove_all(dir);
    const std::vector<const Experiment *> selected = resolveExperiments(
        {"table4", "ablation_update_set", "extension_cpu_scaling",
         "calibrate"});
    DriverOptions options;
    options.jobs = 2;
    options.smoke = true;
    options.stream = true;
    TraceStore store(dir);
    {
        TraceCache cold(traceStoreHooks(store));
        options.cache = &cold;
        runExperiments(selected, options);
    }
    const std::uint64_t misses = store.misses();
    EXPECT_GT(misses, 0u);

    TraceCache warm(traceStoreHooks(store));
    options.cache = &warm;
    const DriverReport report = runExperiments(selected, options);
    EXPECT_EQ(store.misses(), misses) << "a warm call generated an artifact";
    EXPECT_EQ(report.traceStats.generated, 0u);
    EXPECT_EQ(report.traceStats.persistentHits, 0u);
    EXPECT_EQ(report.traceStats.memoryHits, 0u);
    ASSERT_EQ(report.experiments.size(), selected.size());
    for (const ExperimentReport &er : report.experiments) {
        ASSERT_EQ(er.outcomes.size(), 1u) << er.experiment->name;
        for (const auto &[id, outcome] : er.outcomes)
            EXPECT_EQ(outcome.run.traceMode, "file")
                << er.experiment->name << ":" << id;
    }
    fs::remove_all(dir);
}

TEST(ExpScheduler, TraceStatsCountOnlyThisCall)
{
    // A call reports its own traffic and leaves the cache's counters
    // running: the trace the cold call generated is still counted
    // after the warm call, which generated nothing.
    TraceCache cache;
    DriverOptions options;
    options.smoke = true;
    options.cache = &cache;
    const std::vector<const Experiment *> table1 =
        resolveExperiments({"table1"});
    const DriverReport cold = runExperiments(table1, options);
    const std::uint64_t generated = cache.stats().generated;
    EXPECT_GT(generated, 0u);
    EXPECT_EQ(cold.traceStats.generated, generated);

    const DriverReport warm = runExperiments(table1, options);
    EXPECT_EQ(warm.traceStats.generated, 0u);
    EXPECT_GT(warm.traceStats.memoryHits, 0u);
    EXPECT_EQ(cache.stats().generated, generated);
}

TEST(ExpScheduler, StreamedCalibrateSynthesizesItsTraceOnce)
{
    // Calibrate's block-op census reads the table of the source its run
    // replayed, so a streamed call synthesizes its one trace once, and
    // counts the census the default mode counts.
    TraceCache cache;
    DriverOptions options;
    options.smoke = true;
    options.stream = true;
    options.cache = &cache;
    const std::vector<const Experiment *> calibrate =
        resolveExperiments({"calibrate"});
    const DriverReport streamed = runExperiments(calibrate, options);
    EXPECT_EQ(streamed.traceStats.streamedSynthesized, 1u);
    EXPECT_EQ(streamed.traceStats.streamedStored, 0u);
    EXPECT_EQ(streamed.traceStats.generated, 0u);

    options.stream = false;
    const DriverReport packed = runExperiments(calibrate, options);
    EXPECT_EQ(packed.traceStats.generated, 1u);
    EXPECT_EQ(packed.traceStats.streamedSynthesized, 0u);
    ASSERT_EQ(streamed.experiments.size(), 1u);
    ASSERT_EQ(packed.experiments.size(), 1u);
    const auto &want = packed.experiments[0].outcomes;
    const auto &got = streamed.experiments[0].outcomes;
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(got.begin()->second.extra, want.begin()->second.extra);
    EXPECT_GT(got.begin()->second.extra.at("copies_page"), 0.0);
}

TEST(ExpScheduler, ConcurrentCallsOnOwnCachesReportTheirSoloTraceStats)
{
    // Each call runs three standard TRFD_4 cells through its own cache:
    // Base and Blk_Dma replay one trace (one generation, one hit),
    // BCoh_RelUp another.  In the concurrent pair each call's first
    // cell waits until the other call's has started, so the calls
    // overlap for certain: counters they shared would count each
    // other's traffic.
    std::latch *started = nullptr;
    Experiment three;
    three.name = "three";
    three.smokeCell = "Base";
    for (const SystemKind system :
         {SystemKind::Base, SystemKind::BlkDma, SystemKind::BCohRelUp}) {
        CellSpec standard;
        standard.id = toString(system);
        standard.system = system;
        CellSpec cell = standard;
        const bool first = three.cells.empty();
        cell.body = [standard, first, &started](const RunContext &ctx) {
            if (first && started != nullptr)
                started->arrive_and_wait();
            return runCell(standard, ctx);
        };
        three.cells.push_back(std::move(cell));
    }
    const auto run = [&three](TraceCache &cache) {
        DriverOptions options;
        options.cache = &cache;
        return runExperiments({&three}, options).traceStats;
    };
    const auto expect_eq = [](const TraceCacheStats &got,
                              const TraceCacheStats &want) {
        EXPECT_EQ(got.generated, want.generated);
        EXPECT_EQ(got.memoryHits, want.memoryHits);
        EXPECT_EQ(got.persistentHits, want.persistentHits);
        EXPECT_EQ(got.evictions, want.evictions);
    };

    TraceCache solo_cache;
    const TraceCacheStats solo = run(solo_cache);
    EXPECT_EQ(solo.generated, 2u);
    EXPECT_EQ(solo.memoryHits, 1u);

    std::latch both(2);
    started = &both;
    TraceCache first_cache;
    TraceCache second_cache;
    TraceCacheStats first;
    std::exception_ptr failure;
    std::thread other([&] {
        try {
            first = run(first_cache);
        } catch (...) {
            failure = std::current_exception();
        }
    });
    const TraceCacheStats second = run(second_cache);
    other.join();
    if (failure)
        std::rethrow_exception(failure);
    expect_eq(first, solo);
    expect_eq(second, solo);
}

/** The cell ids in the results sink's JSONL file @p path. */
std::multiset<std::string>
sinkCells(const std::string &path)
{
    std::multiset<std::string> cells;
    std::ifstream in(path);
    const std::string key = "\"cell\":\"";
    for (std::string line; std::getline(in, line);) {
        const std::size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        const std::size_t begin = at + key.size();
        cells.insert(line.substr(begin, line.find('"', begin) - begin));
    }
    return cells;
}

TEST(ExpScheduler, FailedCellRethrowsWithoutRenders)
{
    // A cell that throws fails the whole call: the exception comes
    // back out, no experiment renders, and the sink holds rows only
    // for cells that finished.  Cells not yet started do not run, so
    // with one job the cell after the failing one never runs.
    std::atomic<bool> rendered{false};
    Experiment failing;
    failing.name = "failing";
    failing.smokeCell = "ok/first";
    for (const char *id : {"ok/first", "boom", "ok/last"}) {
        CellSpec cell;
        cell.id = id;
        const bool throws = cell.id == "boom";
        cell.body = [throws](const RunContext &) -> CellOutcome {
            if (throws)
                throw std::runtime_error("cell boom failed");
            return {};
        };
        failing.cells.push_back(std::move(cell));
    }
    failing.render = [&rendered](const CellLookup &, std::ostream &) {
        rendered = true;
    };

    const std::string base = "/tmp/oscache_test_failed_cell";
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        DriverOptions options;
        options.jobs = jobs;
        options.resultsBase = base;
        try {
            runExperiments({&failing}, options);
            ADD_FAILURE() << "runExperiments returned a report";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "cell boom failed");
        }
        EXPECT_FALSE(rendered.load());
        const std::multiset<std::string> rows = sinkCells(base + ".jsonl");
        EXPECT_EQ(rows.count("boom"), 0u);
        EXPECT_LE(rows.count("ok/first"), 1u);
        EXPECT_LE(rows.count("ok/last"), 1u);
        if (jobs == 1) {
            EXPECT_EQ(rows, (std::multiset<std::string>{"ok/first"}));
        }
    }
    fs::remove(base + ".jsonl");
    fs::remove(base + ".csv");
}

TEST(ServeCellrun, SampledCellMatchesDriverRow)
{
    // A cell run alone through runCell() under a RunContext's plan
    // must give the canonical row the driver gives it under the same
    // plan, for a plain cell, a custom body that calls runWorkload()
    // and a hot-spot cell, which replays in full under any plan.
    const std::vector<const Experiment *> selected =
        resolveExperiments({"figure1", "figure3", "calibrate"});
    const std::map<std::string, std::string> smoke = {
        {"figure1", "Base/TRFD_4"},
        {"figure3", "BCPref/TRFD_4"},
        {"calibrate", "calibrate/TRFD_4"},
    };

    RunContext ctx;
    ctx.samplePlan =
        sample::SamplingPlan::parse("period=40k,measure=2k,warmup=12k");
    DriverOptions options;
    options.jobs = 2;
    options.smoke = true;
    options.samplePlan = ctx.samplePlan;
    const DriverReport report = runExperiments(selected, options);

    ASSERT_EQ(report.experiments.size(), smoke.size());
    for (const ExperimentReport &er : report.experiments) {
        const std::string &cell = smoke.at(er.experiment->name);
        ASSERT_EQ(er.experiment->smokeCell, cell);
        const auto spec = std::find_if(
            er.experiment->cells.begin(), er.experiment->cells.end(),
            [&](const CellSpec &s) { return s.id == cell; });
        ASSERT_NE(spec, er.experiment->cells.end()) << cell;

        ResultRow row;
        row.canonical = true;
        row.outcome = &er.outcomes.at(cell);
        const std::string expected = resultRowOutcomeJson(row);
        const CellOutcome alone = runCell(*spec, ctx);
        row.outcome = &alone;
        EXPECT_EQ(resultRowOutcomeJson(row), expected) << cell;
        const bool hotspot =
            SystemSetup::forKind(spec->system).hotspotPrefetch;
        EXPECT_EQ(expected.find("\"sample\"") != std::string::npos,
                  !hotspot)
            << cell;
    }
    clearTraceCache();
}

// ----------------------------------------------------------- registry

TEST(ExpRegistry, ResolvesGroupsAndDeduplicates)
{
    const auto all = resolveExperiments({"all"});
    EXPECT_EQ(all.size(), experimentRegistry().size());

    const auto figs = resolveExperiments({"figures", "figure3"});
    std::set<std::string> names;
    for (const Experiment *e : figs)
        names.insert(e->name);
    EXPECT_EQ(figs.size(), names.size()) << "no duplicates";
    EXPECT_EQ(figs.size(), 7u);
}

TEST(ExpRegistry, TryResolveAgreesWithResolve)
{
    // Every group resolves to something, every experiment name to
    // exactly its entry, and "numa" to the one NUMA experiment.
    for (const char *group : {"figures", "tables", "ablations", "numa", "all"})
        EXPECT_FALSE(resolveExperiments({group}).empty()) << group;
    for (const Experiment &e : experimentRegistry())
        EXPECT_EQ(resolveExperiments({e.name}),
                  std::vector<const Experiment *>{&e})
            << e.name;

    const auto numa = resolveExperiments({"numa"});
    ASSERT_EQ(numa.size(), 1u);
    EXPECT_EQ(numa.front()->name, "numa_server");
}

TEST(ExpRegistry, ResolvesInRegistryOrder)
{
    const auto out = resolveExperiments({"table2", "figure1"});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0]->name, "figure1");
    EXPECT_EQ(out[1]->name, "table2");
}

TEST(ExpRegistry, UnknownNameYieldsErrorAndNoExperiments)
{
    EXPECT_EXIT(resolveExperiments({"figure1", "no_such_experiment"}),
                testing::ExitedWithCode(1),
                "fatal: unknown experiment 'no_such_experiment' "
                "\\(try --list for the registry\\)");
}

TEST(ExpRegistry, EveryExperimentIsWellFormed)
{
    for (const Experiment &e : experimentRegistry()) {
        EXPECT_FALSE(e.cells.empty()) << e.name;
        EXPECT_TRUE(e.render) << e.name;
        std::set<std::string> ids;
        bool smoke_found = false;
        for (const CellSpec &cell : e.cells) {
            EXPECT_TRUE(ids.insert(cell.id).second)
                << e.name << " duplicate cell id " << cell.id;
            smoke_found |= cell.id == e.smokeCell;
        }
        EXPECT_TRUE(smoke_found)
            << e.name << " smoke cell '" << e.smokeCell << "' not found";
    }
}

} // namespace
} // namespace oscache
