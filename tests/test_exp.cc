/**
 * @file
 * Tests for the src/exp experiment-orchestration subsystem: the
 * work-stealing pool and job graph, the persistent artifact cache,
 * the thread-safe trace cache, and — the key acceptance property —
 * that the parallel scheduler produces exactly the statistics the
 * direct serial runWorkload() calls produce.
 *
 * All suites here are named Exp* so the thread-sanitizer stage in
 * tools/run_checks.sh can select them with `ctest -R '^Exp'`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "exp/artifact_cache.hh"
#include "exp/driver.hh"
#include "exp/hash.hh"
#include "exp/pool.hh"
#include "exp/registry.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"
#include "synth/generator.hh"

namespace oscache
{
namespace
{

namespace fs = std::filesystem;

// ------------------------------------------------------------- pool

TEST(ExpPool, RunsEveryJob)
{
    WorkStealingPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(count.load(), 200);
}

TEST(ExpPool, NestedSubmitFromWorker)
{
    WorkStealingPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&pool, &count] {
            for (int j = 0; j < 4; ++j)
                pool.submit([&count] { count.fetch_add(1); });
        });
    pool.drain();
    EXPECT_EQ(count.load(), 32);
}

TEST(ExpPool, DrainPropagatesFirstException)
{
    WorkStealingPool pool(2);
    for (int i = 0; i < 10; ++i)
        pool.submit([i] {
            if (i == 5)
                throw std::runtime_error("job 5 failed");
        });
    EXPECT_THROW(pool.drain(), std::runtime_error);
    // The pool stays usable after a failed drain.
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(count.load(), 1);
}

TEST(ExpPool, DrainWithoutJobsReturns)
{
    WorkStealingPool pool(2);
    pool.drain();
    SUCCEED();
}

// -------------------------------------------------------------- graph

TEST(ExpGraph, RespectsDependencies)
{
    JobGraph graph;
    std::vector<int> order;
    std::mutex m;
    auto log = [&](int id) {
        return [&order, &m, id] {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(id);
        };
    };
    const auto a = graph.add("a", log(0));
    const auto b = graph.add("b", log(1), {a});
    const auto c = graph.add("c", log(2), {a});
    graph.add("d", log(3), {b, c});
    graph.run(4);

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), 0);
    EXPECT_EQ(order.back(), 3);
}

TEST(ExpGraph, SkipsDependentsOfFailedNode)
{
    JobGraph graph;
    std::atomic<bool> dependent_ran{false};
    const auto a =
        graph.add("fails", [] { throw std::runtime_error("boom"); });
    graph.add("skipped", [&dependent_ran] { dependent_ran = true; }, {a});
    EXPECT_THROW(graph.run(2), std::runtime_error);
    EXPECT_FALSE(dependent_ran.load());
}

TEST(ExpGraph, ParallelMatchesSerial)
{
    // The same graph run with 1 and with 4 threads must produce the
    // same per-node results.
    auto build_and_run = [](unsigned threads) {
        JobGraph graph;
        std::vector<int> results(20, 0);
        std::vector<JobGraph::NodeId> prev;
        for (int i = 0; i < 20; ++i) {
            const int dep = i >= 2 ? i - 2 : -1;
            std::vector<JobGraph::NodeId> deps;
            if (dep >= 0)
                deps.push_back(prev[std::size_t(dep)]);
            prev.push_back(graph.add(
                std::string("n") + std::to_string(i),
                [&results, dep, i] {
                    results[std::size_t(i)] =
                        (dep >= 0 ? results[std::size_t(dep)] : 1) * 2 + i;
                },
                deps));
        }
        graph.run(threads);
        return results;
    };
    EXPECT_EQ(build_and_run(1), build_and_run(4));
}

// ----------------------------------------------------- artifact cache

TEST(ExpArtifactCache, KeyIsStableAndSensitive)
{
    const WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    const CoherenceOptions none = CoherenceOptions::none();
    EXPECT_EQ(TraceStore::keyFor(p, none), TraceStore::keyFor(p, none));

    WorkloadProfile p2 = p;
    p2.seed += 1;
    EXPECT_NE(TraceStore::keyFor(p, none), TraceStore::keyFor(p2, none));
    EXPECT_NE(TraceStore::keyFor(p, none),
              TraceStore::keyFor(p, CoherenceOptions::relocUpdate()));
    EXPECT_NE(TraceStore::keyFor(p, none, 4),
              TraceStore::keyFor(p, none, 8));
}

TEST(ExpArtifactCache, StoreLoadRoundTrip)
{
    const std::string dir = "/tmp/oscache_test_artifacts_roundtrip";
    fs::remove_all(dir);
    TraceStore store(dir);

    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = 2;
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    const std::string key =
        TraceStore::keyFor(p, CoherenceOptions::none());

    EXPECT_FALSE(store.load(key).has_value());
    store.store(key, trace);
    const auto loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->totalRecords(), trace.totalRecords());
    EXPECT_EQ(loaded->numCpus(), trace.numCpus());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);

    // store() writes the same chunked encoding storeStreaming() does,
    // so a streamed run can replay it from disk.
    auto source = store.openSource(key, 64);
    ASSERT_NE(source, nullptr);
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
        auto cursor = source->cursor(cpu);
        for (const TraceRecord &rec : trace.stream(cpu)) {
            ASSERT_NE(cursor->peek(), nullptr);
            ASSERT_EQ(*cursor->peek(), rec);
            cursor->advance();
        }
        EXPECT_EQ(cursor->peek(), nullptr);
    }
}

TEST(ExpArtifactCache, CorruptFileRejectedAndRemoved)
{
    const std::string dir = "/tmp/oscache_test_artifacts_corrupt";
    fs::remove_all(dir);
    TraceStore store(dir);

    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    const std::string key =
        TraceStore::keyFor(p, CoherenceOptions::none());
    store.store(key, trace);

    // Truncate the artifact to simulate a torn write.
    const std::string path = store.pathFor(key);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.rejected(), 1u);
    EXPECT_FALSE(fs::exists(path)) << "corrupt artifact must be deleted";

    // A fresh store regenerates transparently.
    store.store(key, trace);
    EXPECT_TRUE(store.load(key).has_value());

    // So does an artifact of the retired binary version 2.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const std::uint32_t retired = 2;
        f.seekp(4); // The version word follows the 4-byte magic.
        f.write(reinterpret_cast<const char *>(&retired), sizeof(retired));
    }
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.rejected(), 2u);
    EXPECT_FALSE(fs::exists(path));
    store.store(key, trace);
    EXPECT_TRUE(store.load(key).has_value());
}

// -------------------------------------------------------- trace cache

TEST(ExpTraceCache, ConcurrentRequestsGenerateOnce)
{
    clearTraceCache();
    resetTraceCacheStats();
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Trace>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&seen, t] {
                seen[std::size_t(t)] = cachedWorkloadTrace(
                    WorkloadKind::Trfd4, CoherenceOptions::none());
            });
        for (auto &th : threads)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[std::size_t(t)], seen[0]) << "same latch result";
    EXPECT_EQ(traceCacheStats().generated, 1u);
    clearTraceCache();
}

TEST(ExpTraceCache, ClearDuringUseKeepsTracesAlive)
{
    clearTraceCache();
    const auto trace =
        cachedWorkloadTrace(WorkloadKind::Trfd4, CoherenceOptions::none());
    const std::size_t records = trace->totalRecords();
    clearTraceCache();
    // The holder's pointer must stay valid after the clear.
    EXPECT_EQ(trace->totalRecords(), records);
    clearTraceCache();
}

// ---------------------------------------------- scheduler == serial

TEST(ExpScheduler, MatchesDirectRunWorkload)
{
    // Run figure2 through the parallel scheduler and check every cell
    // against a direct serial runWorkload() call.
    const Experiment *fig2 = findExperiment("figure2");
    ASSERT_NE(fig2, nullptr);

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
    const Experiment *table2 = findExperiment("table2");
    ASSERT_NE(table2, nullptr);

    {
        TraceStore store(dir);
        DriverOptions options;
        options.jobs = 2;
        options.store = &store;
        clearTraceCache();
        const DriverReport cold = runExperiments({table2}, options);
        EXPECT_GT(cold.traceStats.generated, 0u);
    }
    {
        TraceStore store(dir);
        DriverOptions options;
        options.jobs = 2;
        options.store = &store;
        clearTraceCache();
        const DriverReport warm = runExperiments({table2}, options);
        EXPECT_EQ(warm.traceStats.generated, 0u)
            << "warm rerun must not regenerate traces";
        EXPECT_GT(warm.traceStats.persistentHits, 0u);
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
    std::vector<std::string> names = {"figures", "tables", "ablations",
                                      "numa", "all"};
    for (const Experiment &e : experimentRegistry())
        names.push_back(e.name);
    for (const std::string &name : names) {
        std::string error;
        const auto tried = tryResolveExperiments({name}, error);
        EXPECT_TRUE(error.empty()) << name << ": " << error;
        EXPECT_FALSE(tried.empty()) << name;
        EXPECT_EQ(tried, resolveExperiments({name})) << name;
    }

    std::string error;
    const auto numa = tryResolveExperiments({"numa"}, error);
    ASSERT_EQ(numa.size(), 1u);
    EXPECT_EQ(numa.front()->name, "numa_server");
}

TEST(ExpRegistry, ResolvesInRegistryOrder)
{
    std::string error;
    const auto out = tryResolveExperiments({"table2", "figure1"}, error);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0]->name, "figure1");
    EXPECT_EQ(out[1]->name, "table2");
}

TEST(ExpRegistry, UnknownNameYieldsErrorAndNoExperiments)
{
    std::string error;
    const auto out =
        tryResolveExperiments({"figure1", "no_such_experiment"}, error);
    EXPECT_TRUE(out.empty());
    EXPECT_NE(error.find("unknown experiment 'no_such_experiment'"),
              std::string::npos)
        << error;
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
