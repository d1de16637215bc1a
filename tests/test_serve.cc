/**
 * @file
 * Serving-layer tests: the JSON codec and framed transport the
 * protocol rides on, the cross-process claim/result-cache discipline
 * (including forked-writer torn-write regressions), and the
 * ShardScheduler's retry/backoff/quarantine state machine — the
 * failure model replayed deterministically, no daemon required.
 * The end-to-end story (real daemon, 4 workers, 8 clients, SIGKILL
 * mid-run, byte-compare against oscache-bench) lives in
 * tools/serve_smoke.sh as the oscache_serve_smoke ctest.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/ipc.hh"
#include "common/json.hh"
#include "exp/artifact_cache.hh"
#include "exp/driver.hh"
#include "exp/registry.hh"
#include "exp/results.hh"
#include "sample/plan.hh"
#include "serve/cellrun.hh"
#include "serve/claims.hh"
#include "serve/scheduler.hh"
#include "synth/generator.hh"

using namespace oscache;
using namespace oscache::serve;
namespace fs = std::filesystem;

// ------------------------------------------------------- JSON codec

TEST(ServeJson, RoundTripPreservesBytes)
{
    Json o = Json::object();
    o.set("type", "result");
    o.set("ok", true);
    o.set("attempt", std::int64_t(3));
    o.set("ratio", 0.5);
    o.set("error", "");
    Json arr = Json::array();
    arr.push(std::int64_t(-7));
    arr.push("a\"b\\c\n");
    arr.push(Json());
    o.set("list", std::move(arr));

    const std::string text = o.dump();
    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(text, back, &error)) << error;
    EXPECT_EQ(back.dump(), text) << "dump/parse/dump must be stable";
    EXPECT_EQ(back.get("type").asString(), "result");
    EXPECT_TRUE(back.get("ok").asBool());
    EXPECT_EQ(back.get("attempt").asInt(), 3);
    EXPECT_DOUBLE_EQ(back.get("ratio").asDouble(), 0.5);
    EXPECT_EQ(back.get("list").at(0).asInt(), -7);
    EXPECT_EQ(back.get("list").at(1).asString(), "a\"b\\c\n");
    EXPECT_TRUE(back.get("list").at(2).isNull());
}

TEST(ServeJson, ParsesScalarsAndEscapes)
{
    Json v;
    ASSERT_TRUE(Json::parse("-12", v));
    EXPECT_EQ(v.asInt(), -12);
    ASSERT_TRUE(Json::parse("2.5e2", v));
    EXPECT_DOUBLE_EQ(v.asDouble(), 250.0);
    ASSERT_TRUE(Json::parse("9223372036854775807", v));
    EXPECT_EQ(v.asInt(), 9223372036854775807LL);
    ASSERT_TRUE(Json::parse("true", v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(Json::parse("null", v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(Json::parse("\"\\u0041\\u00e9\"", v));
    EXPECT_EQ(v.asString(), "A\xc3\xa9");
    // Surrogate pair: U+1F600.
    ASSERT_TRUE(Json::parse("\"\\ud83d\\ude00\"", v));
    EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",                    // empty
        "{",                   // unterminated object
        "[1,",                 // unterminated array
        "01",                  // leading zero
        "1.",                  // digits required after point
        "1e",                  // digits required in exponent
        "tru",                 // bad literal
        "\"\\x\"",             // unknown escape
        "\"\x01\"",            // raw control character
        "{\"a\":1,}",          // trailing comma
        "{\"a\" 1}",           // missing colon
        "{1:2}",               // non-string key
        "\"\\ud800\"",         // unpaired surrogate
        "1 2",                 // trailing content
        "nullx",               // trailing content
    };
    for (const char *text : bad) {
        Json v;
        std::string error;
        EXPECT_FALSE(Json::parse(text, v, &error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty()) << text;
    }

    // Nesting past the depth cap must fail, not blow the stack.
    std::string deep(200, '[');
    Json v;
    EXPECT_FALSE(Json::parse(deep, v));
}

TEST(ServeJson, MissingKeyChainingIsSafe)
{
    Json o = Json::object();
    const Json &leaf = o.get("a").get("b").at(4).get("c");
    EXPECT_TRUE(leaf.isNull());
    EXPECT_EQ(leaf.asInt(7), 7);
    EXPECT_EQ(o.get("nope").asString(), "");
}

// -------------------------------------------------- framed transport

TEST(ServeFraming, RoundTripBothDirections)
{
    Conn a, b;
    ASSERT_TRUE(makeSocketPair(a, b));

    Json msg = Json::object();
    msg.set("type", "ping");
    ASSERT_TRUE(a.sendJson(msg));
    ASSERT_TRUE(a.sendFrame("{\"n\":2}"));

    Json got;
    bool parse_ok = false;
    ASSERT_EQ(b.recvJson(got, parse_ok), FrameResult::Ok);
    ASSERT_TRUE(parse_ok);
    EXPECT_EQ(got.get("type").asString(), "ping");
    std::string payload;
    ASSERT_EQ(b.recvFrame(payload), FrameResult::Ok);
    EXPECT_EQ(payload, "{\"n\":2}");

    ASSERT_TRUE(b.sendFrame("{}"));
    ASSERT_EQ(a.recvFrame(payload), FrameResult::Ok);
    EXPECT_EQ(payload, "{}");
}

TEST(ServeFraming, OversizedFrameRejectedBeforeBuffering)
{
    Conn a, b;
    ASSERT_TRUE(makeSocketPair(a, b));

    // Craft a header declaring a payload past the cap; no payload
    // bytes needed — the receiver must refuse on the prefix alone.
    const std::uint32_t huge = maxFrameBytes + 1;
    const unsigned char prefix[4] = {
        (unsigned char)(huge >> 24), (unsigned char)(huge >> 16),
        (unsigned char)(huge >> 8), (unsigned char)huge};
    ASSERT_EQ(::write(a.fd(), prefix, 4), 4);

    std::string payload;
    EXPECT_EQ(b.recvFrame(payload, 1000), FrameResult::Oversized);
}

TEST(ServeFraming, TruncatedFrameDistinctFromCleanClose)
{
    {
        // Peer dies mid-frame: header promises 100 bytes, 10 arrive.
        Conn a, b;
        ASSERT_TRUE(makeSocketPair(a, b));
        const unsigned char prefix[4] = {0, 0, 0, 100};
        ASSERT_EQ(::write(a.fd(), prefix, 4), 4);
        ASSERT_EQ(::write(a.fd(), "0123456789", 10), 10);
        a.close();
        std::string payload;
        EXPECT_EQ(b.recvFrame(payload), FrameResult::Truncated);
    }
    {
        // Clean close on a frame boundary.
        Conn a, b;
        ASSERT_TRUE(makeSocketPair(a, b));
        a.close();
        std::string payload;
        EXPECT_EQ(b.recvFrame(payload), FrameResult::Closed);
    }
}

TEST(ServeFraming, ReceiveTimeoutExpires)
{
    Conn a, b;
    ASSERT_TRUE(makeSocketPair(a, b));
    std::string payload;
    EXPECT_EQ(b.recvFrame(payload, 50), FrameResult::Timeout);
}

TEST(ServeFraming, WellFramedBadJsonIsReportedNotFatal)
{
    Conn a, b;
    ASSERT_TRUE(makeSocketPair(a, b));
    ASSERT_TRUE(a.sendFrame("{not json"));
    Json got;
    bool parse_ok = true;
    std::string parse_error;
    EXPECT_EQ(b.recvJson(got, parse_ok, &parse_error),
              FrameResult::Ok);
    EXPECT_FALSE(parse_ok);
    EXPECT_FALSE(parse_error.empty());
    // The connection stays usable for an error reply + next frame.
    ASSERT_TRUE(a.sendFrame("{\"ok\":true}"));
    EXPECT_EQ(b.recvJson(got, parse_ok), FrameResult::Ok);
    EXPECT_TRUE(parse_ok);
}

// --------------------------------------------- claims / result cache

TEST(ServeClaims, ExclusiveUntilRelease)
{
    const std::string dir = "/tmp/oscache_test_serve_claims";
    fs::remove_all(dir);
    ClaimStore claims(dir);

    EXPECT_TRUE(claims.tryClaim("k1", "me"));
    EXPECT_FALSE(claims.tryClaim("k1", "me-too"));
    const auto record = claims.read("k1");
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->owner, "me");
    EXPECT_EQ(record->pid, long(::getpid()));

    claims.release("k1");
    EXPECT_TRUE(claims.tryClaim("k1", "me-too"));
    EXPECT_EQ(claims.claims(), 2u);
    EXPECT_EQ(claims.conflicts(), 1u);
}

TEST(ServeClaims, LiveOwnersClaimIsNotBroken)
{
    const std::string dir = "/tmp/oscache_test_serve_claims_live";
    fs::remove_all(dir);
    ClaimStore claims(dir);
    ASSERT_TRUE(claims.tryClaim("k", "self"));
    EXPECT_FALSE(claims.breakIfStale("k")) << "owner (us) is alive";
    EXPECT_TRUE(fs::exists(claims.pathFor("k")));
}

TEST(ServeClaims, DeadOwnersClaimIsBroken)
{
    const std::string dir = "/tmp/oscache_test_serve_claims_dead";
    fs::remove_all(dir);
    ClaimStore claims(dir);

    // A forked child takes the claim and dies without releasing —
    // exactly what a SIGKILL'd worker leaves behind.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ClaimStore mine(dir);
        ::_exit(mine.tryClaim("k", "doomed") ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(status, 0) << "child failed to claim";

    EXPECT_FALSE(claims.tryClaim("k", "survivor"));
    EXPECT_TRUE(claims.breakIfStale("k")) << "owner is dead";
    EXPECT_TRUE(claims.tryClaim("k", "survivor"));
    EXPECT_EQ(claims.broken(), 1u);
}

TEST(ServeResultCache, RoundTripAndKeyMismatchRejected)
{
    const std::string dir = "/tmp/oscache_test_serve_results";
    fs::remove_all(dir);
    ResultCache cache(dir);

    EXPECT_FALSE(cache.load("a").has_value());
    cache.store("a", ",\"wall_ms\":0}");
    const auto hit = cache.load("a");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->row, ",\"wall_ms\":0}");

    // A result copied under the wrong key (operator error, fs
    // corruption) must be rejected and removed.
    fs::copy_file(cache.pathFor("a"), cache.pathFor("b"));
    EXPECT_FALSE(cache.load("b").has_value());
    EXPECT_FALSE(fs::exists(cache.pathFor("b")));

    // As must a torn/garbage entry.
    std::FILE *f = std::fopen(cache.pathFor("c").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"key\":\"c\",\"row\":", f);
    std::fclose(f);
    EXPECT_FALSE(cache.load("c").has_value());
    EXPECT_FALSE(fs::exists(cache.pathFor("c")));
}

TEST(ServeResultCache, ConcurrentSameKeyWritersNeverTear)
{
    // Regression for the multi-process store discipline: two forked
    // writers hammer the same key with large, distinguishable rows;
    // every load must observe one row in full, never an interleaving.
    const std::string dir = "/tmp/oscache_test_serve_results_race";
    fs::remove_all(dir);
    ResultCache parent_cache(dir);

    const std::string row_a(64 * 1024, 'A');
    const std::string row_b(64 * 1024, 'B');
    constexpr int kWrites = 40;

    pid_t writers[2];
    for (int w = 0; w < 2; ++w) {
        writers[w] = ::fork();
        ASSERT_GE(writers[w], 0);
        if (writers[w] == 0) {
            ResultCache mine(dir);
            const std::string &row = w == 0 ? row_a : row_b;
            for (int i = 0; i < kWrites; ++i)
                mine.store("contested", row);
            ::_exit(0);
        }
    }

    // Read continuously while the writers race; every observed value
    // must be one complete row, never an interleaving.
    int alive = 2;
    int reaped_ok = 0;
    while (alive > 0) {
        const auto hit = parent_cache.load("contested");
        if (hit.has_value()) {
            ASSERT_TRUE(hit->row == row_a || hit->row == row_b)
                << "torn row observed (" << hit->row.size()
                << " bytes)";
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
    const auto final_hit = parent_cache.load("contested");
    ASSERT_TRUE(final_hit.has_value());
    EXPECT_TRUE(final_hit->row == row_a || final_hit->row == row_b);
}

TEST(ServeArtifactCache, ConcurrentSameKeyTraceWritersNeverTear)
{
    // Same discipline, one layer down: the trace artifact cache that
    // all workers share.  Two processes store the same key
    // concurrently; readers must only ever see a complete artifact.
    const std::string dir = "/tmp/oscache_test_serve_trace_race";
    fs::remove_all(dir);

    WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    profile.quanta = 2;
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const std::string key =
        TraceStore::keyFor(profile, CoherenceOptions::none());

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

    TraceStore reader(dir);
    int alive = 2;
    int reaped_ok = 0;
    while (alive > 0) {
        const auto loaded = reader.load(key);
        if (loaded.has_value()) {
            EXPECT_EQ(loaded->totalRecords(), trace.totalRecords());
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
    ASSERT_TRUE(reader.load(key).has_value());
}

// ------------------------------------------------- shard scheduler

namespace
{

CellRequest
request(const std::string &key)
{
    CellRequest r;
    r.key = key;
    r.experiment = "figure2";
    r.cell = key + "/cell";
    return r;
}

} // namespace

TEST(ServeScheduler, RunsAliasedCellOnceServesEverySubscriber)
{
    ShardScheduler sched;
    SchedulerEffects fx;
    ASSERT_TRUE(sched.submit(1, {request("k")}, fx));
    ASSERT_TRUE(sched.submit(2, {request("k")}, fx));
    EXPECT_TRUE(fx.emissions.empty());

    // One task despite two jobs: a single assignment exists.
    const auto a = sched.assignNext("w1", 0);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->key, "k");
    EXPECT_FALSE(sched.assignNext("w2", 0).has_value());

    const SchedulerEffects done =
        sched.onResult("w1", "k", true, ",\"x\":1}", false, "", 10);
    ASSERT_EQ(done.emissions.size(), 2u);
    EXPECT_EQ(done.emissions[0].fragment, ",\"x\":1}");
    EXPECT_EQ(done.emissions[1].fragment, ",\"x\":1}");
    EXPECT_EQ(done.completedJobs.size(), 2u);
    EXPECT_EQ(sched.activeJobs(), 0u);
    EXPECT_EQ(sched.totalSharedHits(), 1u);
}

TEST(ServeScheduler, WorkerDeathRequeuesWithBackoff)
{
    SchedulerConfig cfg;
    cfg.backoffMs = 250;
    ShardScheduler sched(cfg);
    SchedulerEffects fx;
    ASSERT_TRUE(sched.submit(1, {request("k")}, fx));
    ASSERT_TRUE(sched.assignNext("w1", 0).has_value());

    const SchedulerEffects crash = sched.onWorkerGone("w1", 1000);
    EXPECT_TRUE(crash.emissions.empty()) << "cell retries, not fails";
    EXPECT_EQ(sched.totalRetries(), 1u);

    // Backoff holds the cell until notBefore passes.
    EXPECT_FALSE(sched.assignNext("w2", 1000).has_value());
    EXPECT_FALSE(sched.assignNext("w2", 1200).has_value());
    const auto wake = sched.nextWakeMs();
    ASSERT_TRUE(wake.has_value());
    EXPECT_EQ(*wake, 1250u);
    const auto retry = sched.assignNext("w2", 1251);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->attempt, 2u);

    const SchedulerEffects done =
        sched.onResult("w2", "k", true, ",\"x\":1}", false, "", 1300);
    EXPECT_EQ(done.emissions.size(), 1u);
    EXPECT_EQ(done.completedJobs.size(), 1u);
}

TEST(ServeScheduler, PoisonedCellQuarantinesAfterMaxAttempts)
{
    SchedulerConfig cfg;
    cfg.maxAttempts = 2;
    cfg.backoffMs = 100;
    ShardScheduler sched(cfg);
    SchedulerEffects fx;
    ASSERT_TRUE(sched.submit(7, {request("bad"), request("good")}, fx));

    const auto bad1 = sched.assignNext("w1", 0);
    ASSERT_TRUE(bad1.has_value());
    EXPECT_EQ(bad1->key, "bad");
    const auto good1 = sched.assignNext("w2", 0);
    ASSERT_TRUE(good1.has_value());
    EXPECT_EQ(good1->key, "good");

    const SchedulerEffects first =
        sched.onResult("w1", "bad", false, "", false, "boom", 10);
    EXPECT_TRUE(first.emissions.empty()) << "one attempt left";

    const auto again = sched.assignNext("w1", 500);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->key, "bad");
    const SchedulerEffects second =
        sched.onResult("w1", "bad", false, "", false, "boom", 600);
    ASSERT_EQ(second.emissions.size(), 1u);
    EXPECT_TRUE(second.emissions[0].failed);
    EXPECT_EQ(second.emissions[0].error, "boom");
    ASSERT_EQ(second.quarantined.size(), 1u);
    EXPECT_EQ(second.quarantined[0], "bad");
    EXPECT_TRUE(second.completedJobs.empty()) << "good still pending";

    // The healthy cell still completes the job, with the failure
    // accounted.
    const SchedulerEffects done =
        sched.onResult("w2", "good", true, ",\"x\":1}", false, "", 800);
    ASSERT_EQ(done.completedJobs.size(), 1u);
    EXPECT_EQ(done.completedJobs[0].failed, 1u);
    EXPECT_EQ(sched.totalQuarantined(), 1u);

    // A poisoned cell answers later submits immediately, as failed.
    SchedulerEffects resubmit;
    ASSERT_TRUE(sched.submit(8, {request("bad")}, resubmit));
    ASSERT_EQ(resubmit.emissions.size(), 1u);
    EXPECT_TRUE(resubmit.emissions[0].failed);
    EXPECT_EQ(resubmit.completedJobs.size(), 1u);
}

TEST(ServeScheduler, QueueCapRefusesWholeSubmit)
{
    SchedulerConfig cfg;
    cfg.maxQueuedCells = 2;
    ShardScheduler sched(cfg);
    SchedulerEffects fx;

    EXPECT_FALSE(sched.submit(
        1, {request("a"), request("b"), request("c")}, fx));
    EXPECT_EQ(sched.queueDepth(), 0u) << "refused submit records nothing";
    EXPECT_EQ(sched.activeJobs(), 0u);

    ASSERT_TRUE(sched.submit(2, {request("a"), request("b")}, fx));
    EXPECT_FALSE(sched.submit(3, {request("c")}, fx));

    // Aliases of queued work never count against the cap.
    ASSERT_TRUE(sched.submit(4, {request("a"), request("b")}, fx));
}

TEST(ServeScheduler, StaleResultFromReplacedWorkerIgnored)
{
    SchedulerConfig cfg;
    cfg.backoffMs = 0;
    ShardScheduler sched(cfg);
    SchedulerEffects fx;
    ASSERT_TRUE(sched.submit(1, {request("k")}, fx));
    ASSERT_TRUE(sched.assignNext("w1", 0).has_value());
    sched.onWorkerGone("w1", 10); // declared wedged...

    // ...but its result limps in afterwards: must be ignored, the
    // retry is authoritative.
    const SchedulerEffects stale =
        sched.onResult("w1", "k", true, ",\"stale\":1}", false, "", 20);
    EXPECT_TRUE(stale.emissions.empty());
    EXPECT_TRUE(stale.completedJobs.empty());

    const auto retry = sched.assignNext("w2", 30);
    ASSERT_TRUE(retry.has_value());
    const SchedulerEffects done =
        sched.onResult("w2", "k", true, ",\"fresh\":1}", false, "", 40);
    ASSERT_EQ(done.emissions.size(), 1u);
    EXPECT_EQ(done.emissions[0].fragment, ",\"fresh\":1}");
}

TEST(ServeScheduler, DoubleSubmitAfterCompletionAnswersImmediately)
{
    ShardScheduler sched;
    SchedulerEffects fx;
    ASSERT_TRUE(sched.submit(1, {request("k")}, fx));
    ASSERT_TRUE(sched.assignNext("w1", 0).has_value());
    sched.onResult("w1", "k", true, ",\"x\":1}", false, "", 10);

    // The dedup cache: a later identical submit emits straight away
    // — no queueing, no assignment, job completes inside submit().
    SchedulerEffects again;
    ASSERT_TRUE(sched.submit(2, {request("k")}, again));
    ASSERT_EQ(again.emissions.size(), 1u);
    EXPECT_TRUE(again.emissions[0].shared);
    EXPECT_EQ(again.emissions[0].fragment, ",\"x\":1}");
    ASSERT_EQ(again.completedJobs.size(), 1u);
    EXPECT_FALSE(sched.assignNext("w1", 20).has_value());
}

// ------------------------------------------------- cell resolution

TEST(ServeCellrun, ResolvesRegistryCellsAndRejectsUnknown)
{
    const Experiment *fig2 = findExperiment("figure2");
    ASSERT_NE(fig2, nullptr);
    ASSERT_FALSE(fig2->cells.empty());

    const auto ok = findCell("figure2", fig2->cells[0].id);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->experiment, fig2);
    EXPECT_EQ(ok->spec, &fig2->cells[0]);

    EXPECT_FALSE(findCell("no-such-experiment", "x").has_value());
    EXPECT_FALSE(findCell("figure2", "no-such-cell").has_value());
}

TEST(ServeCellrun, WorkKeyCoalescesSharedCellsAndSplitsPlans)
{
    // Find two cells, in different experiments, that the registry
    // marks as identical work: their work keys must collide so the
    // fleet simulates one of them.
    const CellSpec *first = nullptr;
    const Experiment *first_exp = nullptr;
    const CellSpec *second = nullptr;
    const Experiment *second_exp = nullptr;
    for (const Experiment &e : experimentRegistry()) {
        for (const CellSpec &c : e.cells) {
            if (c.sharedKey.empty())
                continue;
            if (first == nullptr) {
                first = &c;
                first_exp = &e;
            } else if (&e != first_exp &&
                       c.sharedKey == first->sharedKey) {
                second = &c;
                second_exp = &e;
            }
        }
        if (second != nullptr)
            break;
    }
    ASSERT_NE(second, nullptr)
        << "registry no longer shares any cell across experiments";

    const CellRef a{first_exp, first};
    const CellRef b{second_exp, second};
    EXPECT_EQ(workKeyFor(a, ""), workKeyFor(b, ""));
    EXPECT_NE(workKeyFor(a, ""),
              workKeyFor(a, "period=100k,measure=2k,warmup=8k"));

    // Distinct identities always render distinct prefixes, even when
    // the work key collides.
    EXPECT_NE(identityJsonFor(a), identityJsonFor(b));
    EXPECT_EQ(identityJsonFor(a).rfind("{\"experiment\":", 0), 0u);
}

TEST(ServeCellrun, SampledCellMatchesDriverRow)
{
    // A worker hands the assignment's plan to the cell in its
    // RunContext.  The canonical outcome must equal the in-process
    // driver's row under the same plan for a plain cell, a custom body
    // that calls runWorkload() and a hot-spot cell, which replays in
    // full under any plan.
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
        const auto ref = findCell(er.experiment->name, cell);
        ASSERT_TRUE(ref.has_value()) << cell;

        ResultRow row;
        row.canonical = true;
        row.outcome = &er.outcomes.at(cell);
        const std::string expected = resultRowOutcomeJson(row);
        EXPECT_EQ(runCellCanonical(*ref, ctx), expected) << cell;
        const bool hotspot =
            SystemSetup::forKind(ref->spec->system).hotspotPrefetch;
        EXPECT_EQ(expected.find("\"sample\"") != std::string::npos,
                  !hotspot)
            << cell;
    }
    clearTraceCache();
}

TEST(ServeCellrun, SamplingPlanTryParseMirrorsParse)
{
    const auto good = sample::SamplingPlan::tryParse(
        "period=100k,measure=2k,warmup=8k");
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->period, 100'000u);
    EXPECT_EQ(good->measure, 2'000u);

    std::string error;
    EXPECT_FALSE(sample::SamplingPlan::tryParse("period=", &error)
                     .has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        sample::SamplingPlan::tryParse("bogus=1", &error).has_value());
    EXPECT_FALSE(sample::SamplingPlan::tryParse(
                     "period=1k,measure=2k,warmup=8k", &error)
                     .has_value())
        << "invalid geometry (warmup+measure > period) must be caught";
}
