/**
 * @file
 * oscache-perfbench: the repository benchmark program.
 *
 * Times the simulator's public entry points from outside the program
 * and checks every simulated cell against canonical-outcome digests
 * stored with the benchmark (perfbench/expected.tsv).  Three
 * workloads, each a closed loop on the calling thread (figures_sweep
 * fans out over the experiment pool):
 *
 *   figures_sweep  runExperiments(resolveExperiments({"figures"})),
 *                  materialized traces, checker on, renders on, every
 *                  row serialized with resultRowJsonl.
 *   numa_metrics   runOnSource over a streamed SynthTraceSource for the
 *                  four server mixes x {Base, Blk_Dma} on numa(2,4),
 *                  with metrics and profiler observers on.
 *   sampled_long   sample::runSampled over one long TRFD_4 stream.
 *
 * --trace 0 repeats the workload for --seconds and prints the
 * end-to-end metrics; --trace 1 runs it untraced and with spans around
 * every entry point, calibrates the calls that interleave layers with
 * replays of the same inputs, and splits the traced wall time into the
 * simulator's layers.  The last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/version.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "exp/driver.hh"
#include "exp/hash.hh"
#include "exp/registry.hh"
#include "exp/results.hh"
#include "mem/config.hh"
#include "obs/timeline.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"
#include "sample/run.hh"
#include "sample/stats.hh"
#include "synth/generator.hh"
#include "synth/profile.hh"
#include "synth/stream_source.hh"

using namespace oscache;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest whole percentile with at least ten samples beyond it
 * (never below the median), and the nearest-rank value there.
 */
struct Tail
{
    unsigned percentile = 50;
    double value = 0.0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n > 10)
        t.percentile = unsigned(std::max<std::size_t>(
            50, std::min<std::size_t>(99, 100 * (n - 10) / n)));
    if (t.percentile == 50) {
        t.value = median(v);
        return t;
    }
    const std::size_t rank =
        std::size_t(std::ceil(double(t.percentile) / 100.0 * double(n)));
    t.value = v[std::min(n, std::max<std::size_t>(rank, 1)) - 1];
    return t;
}

long
peakRssKb()
{
    struct rusage usage{};
    return getrusage(RUSAGE_SELF, &usage) == 0 ? usage.ru_maxrss : 0;
}

/**
 * Return freed heap to the kernel and restart its peak-RSS mark (Linux
 * clear_refs "5"), so each iteration starts from the same heap state
 * and its peak is its own.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Peak RSS (KiB) since the last resetPeakRss() (VmHWM), or the process
 * peak when /proc does not report it.
 */
long
peakRssSinceResetKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return peakRssKb();
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------- inputs

/** Input sets with stored digests; --seed selects seed % inputSets. */
constexpr unsigned inputSets = 8;

/** The inputs one benchmark run feeds the program. */
struct Inputs
{
    /** 0 = the calibrated default profiles; 1.. = held-out seeds. */
    unsigned index = 0;
    /** Tiny-input self-test mode: a few quanta per workload. */
    bool tiny = false;

    std::string
    key() const
    {
        return (tiny ? "tiny-" : "") + std::to_string(index);
    }

    /** True when the program's own default traces are the inputs. */
    bool defaults() const { return index == 0 && !tiny; }

    /**
     * The input set of iteration @p i of a run that cycles through every
     * set (sampled_long): the next set each time.
     */
    Inputs
    at(unsigned i) const
    {
        return {(index + i) % inputSets, tiny};
    }
};

/*
 * Host speed on a shared machine swings by a third within seconds, so
 * the untraced runs report each cell's fastest time, and the cells of
 * the single-threaded workloads are kept short enough that a 30-s run
 * times each of them many times.
 */
/** Scheduling quanta of sampled_long's TRFD_4 stream (~12M records). */
constexpr unsigned longQuanta = 280;
constexpr const char *longPlan = "period=200k,measure=2k,warmup=12k";
constexpr const char *tinyPlan = "period=20k,measure=1k,warmup=4k";
/** Prefix used to price one replayed record on sampled_long. */
constexpr unsigned prefixQuanta = 36;
/** Scheduling quanta of numa_metrics' server mixes (the default is 36). */
constexpr unsigned numaQuanta = 6;
/**
 * Traced passes (numa_metrics) or calls (sampled_long) per traced run:
 * one is short next to the host's swings, so several are summed.
 */
constexpr unsigned tracedReps = 6;

WorkloadProfile
profileFor(WorkloadKind kind, const Inputs &in)
{
    WorkloadProfile p = WorkloadProfile::forKind(kind);
    if (in.index != 0)
        p.seed ^= 0x9e3779b97f4a7c15ULL * in.index;
    if (in.tiny)
        p.quanta = std::min(p.quanta, 3u);
    return p;
}

WorkloadProfile
longProfile(const Inputs &in)
{
    WorkloadProfile p = profileFor(WorkloadKind::Trfd4, in);
    p.quanta = in.tiny ? 12 : longQuanta;
    return p;
}

/**
 * Generate every record of @p source and drop it in bulk (skip), a
 * chunk per processor in turn so buffers stay small: the cost of
 * generation alone.
 */
std::uint64_t
drain(TraceSource &source)
{
    constexpr std::size_t chunk = 4096;
    const unsigned n = source.numCpus();
    std::vector<std::unique_ptr<RecordCursor>> cursors;
    for (unsigned c = 0; c < n; ++c)
        cursors.push_back(source.cursor(CpuId(c)));
    std::vector<bool> done(n, false);
    std::uint64_t total = 0;
    for (unsigned live = n; live > 0;) {
        for (unsigned c = 0; c < n; ++c) {
            if (done[c])
                continue;
            const std::size_t k = cursors[c]->skip(chunk);
            total += k;
            if (k < chunk) {
                done[c] = true;
                --live;
            }
        }
    }
    return total;
}

/**
 * Forwards to a shared SynthTraceSource, so the benchmark can read its
 * buffer high-water mark after the runner has dropped the source (see
 * takePeaks).
 */
class SharedSource final : public TraceSource
{
  public:
    explicit SharedSource(std::shared_ptr<SynthTraceSource> source)
        : inner(std::move(source))
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
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override
    {
        return inner->cursor(cpu);
    }
    std::optional<std::size_t> knownRecords(CpuId cpu) const override
    {
        return inner->knownRecords(cpu);
    }
    const char *mode() const override { return inner->mode(); }

  private:
    std::shared_ptr<SynthTraceSource> inner;
};

/**
 * Raise @p peak to the buffer high-water marks of the sources a call
 * opened, then free them, as the call would have.
 */
void
takePeaks(std::vector<std::shared_ptr<SynthTraceSource>> &opened,
          std::uint64_t &peak)
{
    for (const auto &source : opened)
        peak = std::max<std::uint64_t>(peak, source->peakBufferedRecords());
    opened.clear();
}

// --------------------------------------------------------- correctness

/** A cell's canonical outcome, as the results sink would write it. */
std::string
canonicalOutcome(const CellOutcome &outcome)
{
    ResultRow row;
    row.canonical = true;
    row.outcome = &outcome;
    return resultRowOutcomeJson(row);
}

std::string
digestOf(const std::string &text)
{
    ContentHash h;
    h.mix(text);
    return h.hex();
}

/**
 * Compares each cell's canonical-outcome digest with the stored one
 * (or, in --record mode, collects the digests instead).  Used from the
 * main thread only.
 */
class OutcomeCheck
{
  public:
    OutcomeCheck(std::string workload_name, bool record_only)
        : workload(std::move(workload_name)), record(record_only)
    {}

    /** Load this workload's lines of a perfbench/expected.tsv file. */
    bool
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::vector<std::string> f;
            std::stringstream ss(line);
            std::string field;
            while (std::getline(ss, field, '\t'))
                f.push_back(field);
            if (f.size() == 4 && f[0] == workload)
                expected[f[1] + "\t" + f[2]] = f[3];
        }
        return true;
    }

    /** Check one cell; a non-empty @p other_failure fails it too. */
    void
    cell(const Inputs &inputs, const std::string &id,
         const CellOutcome &outcome, const std::string &other_failure = {})
    {
        const std::string digest = digestOf(canonicalOutcome(outcome));
        const std::string key = inputs.key() + "\t" + id;
        ++attempted;
        if (!other_failure.empty())
            return fail(key, other_failure);
        if (record) {
            const auto [it, fresh] = recorded.emplace(key, digest);
            if (!fresh && it->second != digest)
                fail(key, "outcome differs between iterations");
            return;
        }
        const auto it = expected.find(key);
        if (it == expected.end())
            fail(key, "no stored digest");
        else if (it->second != digest)
            fail(key, "digest " + digest + " != stored " + it->second);
    }

    /** Count @p n cells that threw or could not be checked. */
    void
    failCells(unsigned n, const std::string &why)
    {
        attempted += n;
        failed += n;
        note("(" + std::to_string(n) + " cells): " + why);
    }

    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> notes;
    /** "input set<TAB>cell" -> digest, in --record mode. */
    std::map<std::string, std::string> recorded;
    const std::string workload;

  private:
    void
    fail(const std::string &id, const std::string &why)
    {
        ++failed;
        note(id + ": " + why);
    }

    void
    note(const std::string &text)
    {
        if (notes.size() < 8)
            notes.push_back(text);
    }

    const bool record;
    std::map<std::string, std::string> expected;
};

/** Value of "key":"..." in a one-line JSON object, or empty. */
std::string
jsonField(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return {};
    const std::size_t start = at + needle.size();
    const std::size_t end = line.find('"', start);
    return end == std::string::npos ? std::string()
                                    : line.substr(start, end - start);
}

/** Rows of tests/golden/cells.jsonl, keyed "experiment:cell". */
std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::map<std::string, std::string> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            rows[jsonField(line, "experiment") + ":" +
                 jsonField(line, "cell")] = line;
    return rows;
}

/**
 * Why @p outcome disagrees with its row in tests/golden/cells.jsonl, or
 * empty when it agrees or has no row there.  The golden rows keep their
 * run-to-run fields, so the identity and the simulated outcome ("stats"
 * onward) are compared.
 */
std::string
goldenMismatch(const std::map<std::string, std::string> *golden,
               const std::string &experiment, const CellSpec &spec,
               const CellOutcome &outcome)
{
    if (golden == nullptr)
        return {};
    const auto g = golden->find(experiment + ":" + spec.id);
    if (g == golden->end())
        return {};
    ContentHash mh;
    mixMachine(mh, spec.machine);
    ResultRow row;
    row.experiment = experiment;
    row.cell = spec.id;
    row.workload = toString(spec.workload);
    row.system = toString(spec.system);
    row.machineHash = mh.hex();
    row.canonical = true;
    row.outcome = &outcome;
    const std::string mine = resultRowJsonl(row);
    const auto part = [](const std::string &line, bool identity) {
        const std::size_t at =
            line.find(identity ? ",\"wall_ms\"" : ",\"stats\"");
        if (at == std::string::npos)
            return std::string();
        return identity ? line.substr(0, at) : line.substr(at);
    };
    if (part(mine, true) == part(g->second, true) &&
        part(mine, false) == part(g->second, false) &&
        !part(mine, false).empty())
        return {};
    return "differs from its tests/golden/cells.jsonl row";
}

// ------------------------------------------------------------- tracing

/** The simulator's modules, as the traced run names them. */
enum class Layer : std::uint8_t
{
    Synth,
    Trace,
    Core,
    Sim,
    Mem,
    Check,
    Obs,
    Sample,
    Exp,
    Report,
    /** The benchmark's own loop: what no layer accounts for. */
    Bench,
    /**
     * Calibration replays made inside the traced run, right after the
     * call they calibrate; not part of the traced wall time.
     */
    Calib,
    Count,
};

constexpr std::size_t numLayers = std::size_t(Layer::Count);
constexpr const char *layerNames[numLayers] = {
    "synth", "trace", "core", "sim", "mem", "check",
    "obs", "sample", "exp", "report", "bench", "calib"};

using LayerMs = std::array<double, numLayers>;

/**
 * What calls that interleave layers cost per layer, measured on
 * separate replays of the same inputs, each adding one layer's work to
 * the previous one: (layer, ms) in that order.
 */
using Steps = std::vector<std::pair<Layer, double>>;

/** Add @p one to @p total step by step; both list the same layers. */
void
addSteps(Steps &total, const Steps &one)
{
    if (total.empty()) {
        total = one;
        return;
    }
    for (std::size_t i = 0; i < total.size(); ++i)
        total[i].second += one[i].second;
}

/** Summed steps of every span carrying a calibration key, by key. */
using Calibration = std::map<std::string, Steps>;

/**
 * In-memory span recorder.  Each span has a name, a layer, start and
 * end, its parent (the innermost open span on the same thread, or the
 * adopting span for pool workers) and the cell it belongs to.  A span
 * whose work interleaves several layers inside one call carries a
 * calibration key.  The self time of all spans with one key is handed
 * out to the layers of the key's steps, each getting the ms its step
 * measured, in order, as long as that self time lasts; what the steps
 * do not cover stays unattributed, so a split that does not add up
 * shows.  (Capping the sum rather than each span keeps the noise of
 * single replays from piling up as unattributed time.)
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        Layer layer = Layer::Bench;
        int parent = -1;
        double startUs = 0;
        double endUs = 0;
        std::uint32_t thread = 0;
        std::string cell;
        std::string calib;
    };

    Tracer() : origin(Clock::now()) {}

    int
    begin(std::string name, Layer layer, std::string cell = {},
          std::string calib = {})
    {
        std::vector<int> &stack = openStack();
        std::lock_guard<std::mutex> lock(mutex);
        Span s;
        s.name = std::move(name);
        s.layer = layer;
        s.parent = stack.empty() ? adopter.load() : stack.back();
        s.startUs = nowUs();
        s.thread = threadLane();
        s.cell = std::move(cell);
        s.calib = std::move(calib);
        spans.push_back(std::move(s));
        const int id = int(spans.size()) - 1;
        stack.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        std::vector<int> &stack = openStack();
        std::lock_guard<std::mutex> lock(mutex);
        spans[std::size_t(id)].endUs = nowUs();
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
    }

    /** Spans opened on threads with no open span become children of @p id. */
    void adopt(int id) { adopter.store(id); }

    /** Wall time of span @p id less the calibration spans inside it. */
    double
    wallMs(int id) const
    {
        const Span &root = spans[std::size_t(id)];
        double us = root.endUs - root.startUs;
        for (const Span &s : spans)
            if (s.layer == Layer::Calib && s.startUs >= root.startUs &&
                s.endUs <= root.endUs)
                us -= s.endUs - s.startUs;
        return us / 1000.0;
    }

    /** Self time attributed to each layer. */
    LayerMs
    selfByLayer(const Calibration &calibration) const
    {
        const std::vector<double> self = selfMs();
        LayerMs out{};
        std::map<std::string, double> calibrated; // Self time by key.
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (calibration.count(spans[i].calib))
                calibrated[spans[i].calib] += self[i];
            else
                out[std::size_t(spans[i].layer)] += self[i];
        }
        for (const auto &[key, total] : calibrated) {
            double left = total;
            for (const auto &[layer, ms] : calibration.at(key)) {
                const double take = std::min(left, std::max(0.0, ms));
                out[std::size_t(layer)] += take;
                left -= take;
            }
        }
        return out;
    }

    /** Summed self time (ms) of the spans named @p name. */
    double
    selfOf(const std::string &name) const
    {
        const std::vector<double> self = selfMs();
        double total = 0;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].name == name)
                total += self[i];
        return total;
    }

    /** Write the spans as a Chrome trace_event document. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return;
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"cat\":\"" << layerNames[std::size_t(s.layer)]
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
               << ",\"ts\":" << jsonNumber(s.startUs)
               << ",\"dur\":" << jsonNumber(s.endUs - s.startUs)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"cell\":\"" << s.cell << "\",\"calib\":\"" << s.calib
               << "\"}}";
        }
        os << "\n]}\n";
    }

  private:
    /** Each span's duration minus its children's, in ms. */
    std::vector<double>
    selfMs() const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].endUs - spans[i].startUs;
        for (const Span &s : spans)
            if (s.parent >= 0)
                self[std::size_t(s.parent)] -= s.endUs - s.startUs;
        for (double &v : self)
            v = std::max(0.0, v) / 1000.0;
        return self;
    }

    static std::vector<int> &
    openStack()
    {
        thread_local std::vector<int> stack;
        return stack;
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin)
            .count();
    }

    std::uint32_t
    threadLane()
    {
        return lanes.emplace(std::this_thread::get_id(),
                             std::uint32_t(lanes.size()))
            .first->second;
    }

    Clock::time_point origin;
    std::mutex mutex; // Guards spans and lanes.
    std::vector<Span> spans;
    std::map<std::thread::id, std::uint32_t> lanes;
    std::atomic<int> adopter{-1};
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(Tracer &t, std::string name, Layer layer, std::string cell = {},
           std::string calib = {})
        : tracer(t), id(t.begin(std::move(name), layer, std::move(cell),
                                std::move(calib)))
    {}
    ~Scoped() { tracer.end(id); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    Tracer &tracer;
    const int id;
};

/** Best (minimum) wall time of @p reps calls of @p fn, in ms. */
double
bestOf(unsigned reps, const std::function<void()> &fn)
{
    double best = 0;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        const double ms = msSince(t0);
        best = r == 0 ? ms : std::min(best, ms);
    }
    return best;
}

std::uint64_t
accessesOf(const SimStats &s)
{
    return s.userReads + s.osReads + s.userWrites + s.osWrites;
}

// ------------------------------------------------------------- results

/** One metric line of the result. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;
};

/** Everything a workload run reports. */
using Metrics = std::vector<Metric>;

void
add(Metrics &out, std::string name, double value, std::string unit,
    std::string note = {})
{
    out.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
}

/** Simulated (exact) memory-system totals over a set of runs. */
struct MemTotals
{
    std::uint64_t osMisses = 0;
    std::uint64_t busTxns = 0;
    std::uint64_t linkTxns = 0;
    std::uint64_t snoopsFiltered = 0;
    std::uint64_t snoopsForwarded = 0;
    std::uint64_t accesses = 0;

    void
    add(const RunResult &r)
    {
        osMisses += r.stats.osMissTotal();
        busTxns += r.bus.totalTransactions;
        linkTxns += r.bus.linkTransactions;
        snoopsFiltered += r.bus.snoopsFiltered;
        snoopsForwarded += r.bus.snoopsForwarded;
        accesses += accessesOf(r.stats);
    }
};

/** Counters the traced run gathers at the span boundaries. */
struct TracedCounts
{
    std::mutex mutex; // Guards everything below.
    MemTotals mem;
    std::uint64_t synthRecords = 0;
    std::uint64_t prefetches = 0;
    double coverageSum = 0;
    unsigned hotspotCells = 0;
    /** Summed bare/checked steps of the traced checked replays. */
    Steps replaySteps;
};

/** The layers whose self time counts as attributed. */
bool
attributes(std::size_t layer)
{
    return Layer(layer) != Layer::Bench && Layer(layer) != Layer::Calib;
}

/**
 * The per-layer metrics every traced run prints.  Values the workload
 * does not exercise are 0.
 */
struct LayerReport
{
    LayerMs self{};
    double tracedWallMs = 0;
    double untracedMs = 0;
    std::uint64_t synthRecords = 0;
    std::uint64_t streamPeak = 0;
    double hotspotProfileMs = 0, hotspotSelectMs = 0, hotspotRewriteMs = 0;
    std::uint64_t prefetches = 0;
    double coverage = 0;
    MemTotals mem;
    double sampleReplayedFrac = 0, sampleRounds = 0, sampleMaxRelErr = 0;
    double cellsRequested = 0, cellsRun = 0, sharedRatio = 0;
    double parallelEff = 0, traceGenerated = 0, traceMemoryHits = 0;
    double renderMs = 0, serializeMs = 0;
};

void
emitLayers(Metrics &out, const LayerReport &r)
{
    const auto ms = [&r](Layer l) { return r.self[std::size_t(l)]; };
    double attributed = 0;
    for (std::size_t l = 0; l < numLayers; ++l)
        if (attributes(l))
            attributed += r.self[l];
    const double unattributed = r.tracedWallMs - attributed;
    const double sim = ms(Layer::Sim);

    add(out, "synth.generate_ms", ms(Layer::Synth), "ms");
    add(out, "synth.records", double(r.synthRecords), "count");
    add(out, "synth.ns_per_record",
        r.synthRecords ? ms(Layer::Synth) * 1e6 / double(r.synthRecords)
                       : 0.0,
        "ns");
    add(out, "trace.stream_peak_records", double(r.streamPeak), "count");
    add(out, "core.hotspot.profile_ms", r.hotspotProfileMs, "ms");
    add(out, "core.hotspot.select_ms", r.hotspotSelectMs, "ms");
    add(out, "core.hotspot.rewrite_ms", r.hotspotRewriteMs, "ms");
    add(out, "core.hotspot.prefetches", double(r.prefetches), "count");
    add(out, "core.hotspot.coverage", r.coverage, "ratio");
    add(out, "sim.replay_ms", sim, "ms");
    add(out, "sim.accesses", double(r.mem.accesses), "count");
    add(out, "sim.ns_per_access",
        r.mem.accesses ? sim * 1e6 / double(r.mem.accesses) : 0.0, "ns");
    add(out, "mem.os_misses", double(r.mem.osMisses), "count");
    add(out, "mem.bus_txns", double(r.mem.busTxns), "count");
    add(out, "mem.link_txns", double(r.mem.linkTxns), "count");
    const double snoops =
        double(r.mem.snoopsFiltered + r.mem.snoopsForwarded);
    add(out, "mem.snoop_filter_ratio",
        snoops > 0 ? double(r.mem.snoopsFiltered) / snoops : 0.0, "ratio");
    add(out, "check.overhead_ms", ms(Layer::Check), "ms");
    add(out, "check.overhead_ratio", sim > 0 ? ms(Layer::Check) / sim : 0.0,
        "ratio");
    add(out, "obs.overhead_ms", ms(Layer::Obs), "ms");
    add(out, "obs.overhead_ratio", sim > 0 ? ms(Layer::Obs) / sim : 0.0,
        "ratio");
    add(out, "sample.run_ms", ms(Layer::Sample), "ms");
    add(out, "sample.replayed_frac", r.sampleReplayedFrac, "ratio");
    add(out, "sample.rounds", r.sampleRounds, "count");
    add(out, "sample.max_rel_err", r.sampleMaxRelErr, "ratio");
    add(out, "exp.sched_ms", ms(Layer::Exp), "ms");
    add(out, "exp.cells_requested", r.cellsRequested, "count");
    add(out, "exp.cells_run", r.cellsRun, "count");
    add(out, "exp.shared_ratio", r.sharedRatio, "ratio");
    add(out, "exp.parallel_eff", r.parallelEff, "ratio");
    add(out, "exp.trace_cache.generated", r.traceGenerated, "count");
    add(out, "exp.trace_cache.memory_hits", r.traceMemoryHits, "count");
    add(out, "report.render_ms", r.renderMs, "ms");
    add(out, "report.serialize_ms", r.serializeMs, "ms");
    add(out, "traced_wall_ms", r.tracedWallMs, "ms");
    add(out, "unattributed_ms", unattributed, "ms");
    add(out, "unattributed_ratio",
        r.tracedWallMs > 0 ? unattributed / r.tracedWallMs : 0.0, "ratio");
    add(out, "tracing.overhead_ratio",
        r.untracedMs > 0 ? r.tracedWallMs / r.untracedMs - 1.0 : 0.0,
        "ratio");

    std::printf("layer self time (traced wall %.1f ms, untraced %.1f ms):\n",
                r.tracedWallMs, r.untracedMs);
    for (std::size_t l = 0; l < numLayers; ++l)
        if (attributes(l))
            std::printf("  %-7s %10.1f ms %6.2f%%\n", layerNames[l],
                        r.self[l],
                        r.tracedWallMs > 0
                            ? 100.0 * r.self[l] / r.tracedWallMs
                            : 0.0);
    std::printf("  %-7s %10.1f ms %6.2f%%\n", "(none)", unattributed,
                r.tracedWallMs > 0 ? 100.0 * unattributed / r.tracedWallMs
                                   : 0.0);
}

/** Host ms of each simulated cell, one entry per iteration, by cell. */
using CellTimes = std::map<std::string, std::vector<double>>;

/** Each cell's fastest time over the run's iterations (ms). */
std::vector<double>
fastestCells(const CellTimes &cell_times)
{
    std::vector<double> out;
    for (const auto &[cell, times] : cell_times)
        out.push_back(*std::min_element(times.begin(), times.end()));
    return out;
}

/**
 * The end-to-end metrics of an untraced run.  Host speed on a shared
 * machine wanders at the scale of seconds, so the time metrics are the
 * run's fastest: @p sweep_s is the fastest sweep (or sumOfFastest), and
 * the cell statistics are taken over one sample per cell, its fastest
 * time, so the sample count is fixed by the workload, not by how many
 * iterations fit in the run.  @p records is one sweep's input records.
 */
void
emitEndToEnd(Metrics &out, double sweep_s, const std::string &sweep_note,
             const CellTimes &cell_times, double records,
             const std::vector<double> &peak_rss_kb, double setup_s)
{
    const std::vector<double> cell_ms = fastestCells(cell_times);
    const Tail tail = tailOf(cell_ms);
    add(out, "sweep_s", sweep_s, "s", sweep_note);
    add(out, "cell_ms_p50", median(cell_ms), "ms",
        "n=" + std::to_string(cell_ms.size()) + " cells");
    add(out, "cell_ms_tail", tail.value, "ms",
        "p" + std::to_string(tail.percentile) +
            " n=" + std::to_string(cell_ms.size()) + " cells");
    add(out, "records_per_s", sweep_s > 0 ? records / sweep_s : 0.0, "1/s",
        "records of one sweep / sweep_s");
    add(out, "peak_rss_mb", median(peak_rss_kb) / 1024.0, "MB",
        "median of per-iteration peaks");
    add(out, "setup_s", setup_s, "s");
}

/**
 * sweep_s of a workload whose cells run one after another on one
 * thread: the sum of each cell's fastest time.
 */
double
sumOfFastest(const CellTimes &cell_times)
{
    double ms = 0;
    for (double v : fastestCells(cell_times))
        ms += v;
    return ms / 1000.0;
}

/**
 * Runs iteration(i) for i = 0, 1, ... in whole cycles of @p cycle
 * iterations, starting another cycle while it is expected to fit in
 * @p seconds (at least one cycle); returns each iteration's peak RSS
 * (KiB).
 */
template <typename Fn>
std::vector<double>
timedLoop(double seconds, unsigned cycle, Fn &&iteration)
{
    const auto start = Clock::now();
    std::vector<double> peaks;
    const auto more = [&] {
        const double spent = msSince(start) / 1000.0;
        return peaks.size() % cycle != 0 ||
               spent + spent / double(peaks.size()) * cycle <= seconds;
    };
    do {
        const auto t0 = Clock::now();
        resetPeakRss();
        iteration(unsigned(peaks.size()));
        peaks.push_back(double(peakRssSinceResetKb()));
        std::printf("iteration %zu: %.3f s, peak rss %.1f MB\n",
                    peaks.size(), msSince(t0) / 1000.0,
                    peaks.back() / 1024.0);
    } while (more());
    return peaks;
}

// ------------------------------------------------------- figures_sweep

struct FiguresSetup
{
    std::vector<const Experiment *> experiments;
    unsigned jobs = 1;
    Inputs inputs;
};

/** Install the load hook that feeds non-default inputs to the sweep. */
void
installInputs(const Inputs &inputs, Tracer *tracer, TracedCounts *counts)
{
    if (inputs.defaults() && tracer == nullptr) {
        setTraceCacheHooks({}, {});
        return;
    }
    setTraceCacheHooks(
        [inputs, tracer, counts](WorkloadKind w, const CoherenceOptions &o,
                                 unsigned cpus) -> std::optional<Trace> {
            std::optional<Scoped> span;
            if (tracer != nullptr)
                span.emplace(*tracer, "synth.generateTrace", Layer::Synth);
            Trace trace = generateTrace(profileFor(w, inputs), o, cpus);
            if (counts != nullptr) {
                std::lock_guard<std::mutex> lock(counts->mutex);
                counts->synthRecords += trace.totalRecords();
            }
            return trace;
        },
        {});
}

/** Serialize every cell's row as the results sink would (in memory). */
void
serializeRows(const DriverReport &report)
{
    for (const ExperimentReport &er : report.experiments) {
        for (const CellSpec &spec : er.experiment->cells) {
            const auto it = er.outcomes.find(spec.id);
            if (it == er.outcomes.end())
                continue;
            ContentHash mh;
            mixMachine(mh, spec.machine);
            ResultRow row;
            row.experiment = er.experiment->name;
            row.cell = spec.id;
            row.workload = toString(spec.workload);
            row.system = toString(spec.system);
            row.machineHash = mh.hex();
            row.traceMode = it->second.run.traceMode;
            row.peakRssKb = peakRssKb();
            row.outcome = &it->second;
            resultRowJsonl(row);
        }
    }
}

void
checkFigures(const DriverReport &report, const Inputs &inputs,
             OutcomeCheck &check,
             const std::map<std::string, std::string> &golden_rows)
{
    const auto *golden = inputs.defaults() ? &golden_rows : nullptr;
    for (const ExperimentReport &er : report.experiments) {
        for (const CellSpec &spec : er.experiment->cells) {
            const std::string id = er.experiment->name + ":" + spec.id;
            const auto it = er.outcomes.find(spec.id);
            if (it == er.outcomes.end()) {
                check.failCells(1, id + " has no outcome");
                continue;
            }
            check.cell(inputs, id, it->second,
                       goldenMismatch(golden, er.experiment->name, spec,
                                      it->second));
        }
    }
}

unsigned
cellsRequested(const std::vector<const Experiment *> &experiments)
{
    unsigned n = 0;
    for (const Experiment *e : experiments)
        n += unsigned(e->cells.size());
    return n;
}

/** One untimed-setup, timed sweep; nullopt when a cell threw. */
struct Sweep
{
    DriverReport report;
    double wallS = 0;
    /** Each simulated cell's host ms, by its scheduler label. */
    std::vector<std::pair<std::string, double>> cellMs;
};

std::optional<Sweep>
runSweep(const std::vector<const Experiment *> &experiments, unsigned jobs,
         const Inputs &inputs, OutcomeCheck &check)
{
    installInputs(inputs, nullptr, nullptr);
    clearTraceCache();
    Timeline timeline(1u << 14);
    DriverOptions options;
    options.jobs = jobs;
    options.timeline = &timeline;
    Sweep s;
    try {
        const auto t0 = Clock::now();
        s.report = runExperiments(experiments, options);
        serializeRows(s.report);
        s.wallS = msSince(t0) / 1000.0;
    } catch (const std::exception &e) {
        check.failCells(cellsRequested(experiments),
                        std::string("sweep threw: ") + e.what());
        return std::nullopt;
    }
    for (const TimelineEvent &ev : timeline.sorted())
        if (std::strcmp(ev.category, "cell") == 0)
            s.cellMs.emplace_back(ev.name, double(ev.dur) / 1000.0);
    return s;
}

/** Input records of one sweep: each simulated cell's trace once. */
double
sweepRecords(const std::vector<const Experiment *> &experiments)
{
    std::set<std::string> seen;
    double records = 0;
    for (const Experiment *e : experiments) {
        for (const CellSpec &spec : e->cells) {
            if (!spec.sharedKey.empty() && !seen.insert(spec.sharedKey).second)
                continue;
            const SystemSetup setup = SystemSetup::forKind(spec.system);
            records += double(cachedWorkloadTrace(spec.workload,
                                                  setup.coherence,
                                                  spec.machine.numCpus)
                                  ->totalRecords());
        }
    }
    return records;
}

/** Calibration key of figures_sweep's checked replays. */
const std::string replayKey = "sim.runOnTrace";

/**
 * A cell's traced checked replay; then, in a calibration span, the same
 * replay bare and checked, whose times are added to @p counts.
 */
RunResult
tracedReplay(Tracer &tracer, TracedCounts &counts, const std::string &label,
             const Trace &trace, const MachineConfig &machine,
             const SimOptions &opts, const SystemSetup &setup)
{
    RunResult run;
    {
        Scoped r(tracer, "sim.runOnTrace", Layer::Sim, label, replayKey);
        run = runOnTrace(trace, machine, opts, setup);
    }
    Scoped c(tracer, "calibrate", Layer::Calib, label);
    SimOptions bare = opts;
    bare.checkCoherence = false;
    const double bare_ms =
        bestOf(1, [&] { runOnTrace(trace, machine, bare, setup); });
    const double checked_ms =
        bestOf(1, [&] { runOnTrace(trace, machine, opts, setup); });
    std::lock_guard<std::mutex> lock(counts.mutex);
    addSteps(counts.replaySteps,
             {{Layer::Sim, bare_ms}, {Layer::Check, checked_ms - bare_ms}});
    return run;
}

/** Registry copies whose standard cells and renders open spans. */
std::vector<Experiment>
instrument(const std::vector<const Experiment *> &experiments,
           Tracer &tracer, TracedCounts &counts)
{
    std::vector<Experiment> out;
    for (const Experiment *src : experiments) {
        Experiment e = *src;
        for (CellSpec &cell : e.cells) {
            if (cell.body)
                continue; // Custom cells keep their own body.
            const std::string label = e.name + ":" + cell.id;
            cell.body = [&tracer, &counts, label, w = cell.workload,
                         sys = cell.system, machine = cell.machine] {
                Scoped span(tracer, "exp.cell", Layer::Exp, label);
                const SystemSetup setup = SystemSetup::forKind(sys);
                const SimOptions opts =
                    WorkloadProfile::forKind(w).simOptions();
                std::shared_ptr<const Trace> trace;
                {
                    Scoped t(tracer, "exp.cachedWorkloadTrace", Layer::Exp,
                             label);
                    trace = cachedWorkloadTrace(w, setup.coherence,
                                                machine.numCpus);
                }
                CellOutcome outcome;
                if (!setup.hotspotPrefetch) {
                    outcome.run = tracedReplay(tracer, counts, label, *trace,
                                               machine, opts, setup);
                } else {
                    // The runner's two-phase path, one call at a time.
                    SystemSetup plain = setup;
                    plain.hotspotPrefetch = false;
                    RunResult profile;
                    {
                        Scoped p(tracer, "core.hotspot.profile", Layer::Core,
                                 label);
                        profile = runOnTrace(*trace, machine, opts, plain);
                    }
                    HotspotPlan plan;
                    double coverage = 0;
                    {
                        Scoped p(tracer, "core.hotspot.select", Layer::Core,
                                 label);
                        plan = selectHotspots(profile.stats,
                                              paperHotspotCount);
                        coverage = hotspotCoverage(profile.stats, plan);
                    }
                    std::optional<Trace> rewritten;
                    {
                        Scoped p(tracer, "core.hotspot.rewrite", Layer::Core,
                                 label);
                        rewritten.emplace(insertPrefetches(*trace, plan));
                    }
                    outcome.run = tracedReplay(tracer, counts, label,
                                               *rewritten, machine, opts,
                                               plain);
                    std::lock_guard<std::mutex> lock(counts.mutex);
                    counts.prefetches +=
                        rewritten->totalRecords() - trace->totalRecords();
                    counts.coverageSum += coverage;
                    ++counts.hotspotCells;
                    outcome.run.hotspots = std::move(plan);
                    outcome.run.hotspotCoverage = coverage;
                }
                std::lock_guard<std::mutex> lock(counts.mutex);
                counts.mem.add(outcome.run);
                return outcome;
            };
        }
        if (e.render) {
            e.render = [&tracer, render = src->render](const CellLookup &lk,
                                                       std::ostream &os) {
                Scoped span(tracer, "report.render", Layer::Report);
                render(lk, os);
            };
        }
        out.push_back(std::move(e));
    }
    return out;
}

/** One row of ROADMAP's Open-items table (best of 3, ms). */
struct OpenItemsRow
{
    double gen = 0, bare = 0, checked = 0, metrics = 0, bcpref = 0;
};

OpenItemsRow
openItemsRow(WorkloadKind w, const Inputs &inputs)
{
    const WorkloadProfile profile = profileFor(w, inputs);
    const MachineConfig machine = MachineConfig::base();
    const SystemSetup base = SystemSetup::forKind(SystemKind::Base);
    const SystemSetup bcpref = SystemSetup::forKind(SystemKind::BCPref);
    SimOptions checked = profile.simOptions();
    SimOptions bare = checked;
    bare.checkCoherence = false;
    SimOptions metrics = bare;
    metrics.obs.metrics = true;

    OpenItemsRow row;
    std::optional<Trace> trace;
    row.gen = bestOf(3, [&] {
        trace.emplace(generateTrace(profile, base.coherence, 4));
    });
    row.bare = bestOf(3, [&] { runOnTrace(*trace, machine, bare, base); });
    row.checked =
        bestOf(3, [&] { runOnTrace(*trace, machine, checked, base); });
    row.metrics =
        bestOf(3, [&] { runOnTrace(*trace, machine, metrics, base); });
    const Trace bc = generateTrace(profile, bcpref.coherence, 4);
    row.bcpref = bestOf(3, [&] { runOnTrace(bc, machine, checked, bcpref); });
    return row;
}

Metrics
figuresSweep(const FiguresSetup &setup, double seconds, bool traced,
             OutcomeCheck &check, const std::string &golden_path,
             Tracer &tracer, double setup_s)
{
    Metrics out;
    const std::map<std::string, std::string> golden = loadGolden(golden_path);

    if (!traced) {
        // Every sweep runs the seed's own input set.
        double fastest = 0;
        unsigned sweeps = 0;
        CellTimes cells;
        const std::vector<double> rss = timedLoop(seconds, 1, [&](unsigned) {
            std::optional<Sweep> s =
                runSweep(setup.experiments, setup.jobs, setup.inputs, check);
            if (!s)
                return;
            fastest = sweeps++ ? std::min(fastest, s->wallS) : s->wallS;
            for (const auto &[label, ms] : s->cellMs)
                cells[label].push_back(ms);
            checkFigures(s->report, setup.inputs, check, golden);
        });
        // The last sweep's traces are still cached: this only reads them.
        const double records = sweepRecords(setup.experiments);
        installInputs(setup.inputs, nullptr, nullptr);
        emitEndToEnd(out, fastest,
                     "fastest of " + std::to_string(sweeps) + " sweeps", cells,
                     records, rss, setup_s);
        return out;
    }

    LayerReport lr;
    // Pool and trace-cache behaviour of the real sweep (jobs = J).
    if (std::optional<Sweep> s =
            runSweep(setup.experiments, setup.jobs, setup.inputs, check)) {
        checkFigures(s->report, setup.inputs, check, golden);
        const DriverReport &r = s->report;
        lr.cellsRequested = cellsRequested(setup.experiments);
        lr.cellsRun = r.cellsRun;
        lr.sharedRatio = lr.cellsRequested > 0
                             ? double(r.cellsShared) / lr.cellsRequested
                             : 0.0;
        lr.parallelEff =
            r.totalCellMs / (double(setup.jobs) * s->wallS * 1000.0);
        lr.traceGenerated =
            double(r.traceStats.generated + r.traceStats.persistentHits);
        lr.traceMemoryHits = double(r.traceStats.memoryHits);
    }
    // Untraced single-worker baseline for the tracing overhead.
    if (std::optional<Sweep> s =
            runSweep(setup.experiments, 1, setup.inputs, check)) {
        checkFigures(s->report, setup.inputs, check, golden);
        lr.untracedMs = s->wallS * 1000.0;
    }

    // The traced sweep: one worker, so span self times add up to wall.
    TracedCounts counts;
    const std::vector<Experiment> instrumented =
        instrument(setup.experiments, tracer, counts);
    std::vector<const Experiment *> ptrs;
    for (const Experiment &e : instrumented)
        ptrs.push_back(&e);
    installInputs(setup.inputs, &tracer, &counts);
    clearTraceCache();
    int root = -1;
    DriverReport report;
    try {
        Scoped run(tracer, "run", Layer::Bench);
        root = run.id;
        DriverOptions options;
        options.jobs = 1;
        {
            Scoped rx(tracer, "exp.runExperiments", Layer::Exp);
            tracer.adopt(rx.id);
            report = runExperiments(ptrs, options);
            tracer.adopt(-1);
        }
        Scoped ser(tracer, "report.serialize", Layer::Report);
        serializeRows(report);
    } catch (const std::exception &e) {
        check.failCells(cellsRequested(setup.experiments),
                        std::string("traced sweep threw: ") + e.what());
    }
    installInputs(setup.inputs, nullptr, nullptr);
    if (!report.experiments.empty())
        checkFigures(report, setup.inputs, check, golden);

    // ROADMAP's Open-items table.
    std::printf("open items (best of 3, ms; Release, this host):\n"
                "| workload | gen | bare | checked | metrics | BCPref cell "
                "|\n|---|---|---|---|---|---|\n");
    for (WorkloadKind w : allWorkloads) {
        const OpenItemsRow row = openItemsRow(w, setup.inputs);
        std::printf("| %s | %.0f ms | %.0f ms | %.0f ms | %.0f ms | %.0f ms "
                    "|\n",
                    toString(w), row.gen, row.bare, row.checked, row.metrics,
                    row.bcpref);
    }

    if (root >= 0)
        lr.tracedWallMs = tracer.wallMs(root);
    lr.self = tracer.selfByLayer({{replayKey, counts.replaySteps}});
    lr.synthRecords = counts.synthRecords;
    lr.mem = counts.mem;
    lr.prefetches = counts.prefetches;
    lr.coverage = counts.hotspotCells
                      ? counts.coverageSum / counts.hotspotCells
                      : 0.0;
    lr.hotspotProfileMs = tracer.selfOf("core.hotspot.profile");
    lr.hotspotSelectMs = tracer.selfOf("core.hotspot.select");
    lr.hotspotRewriteMs = tracer.selfOf("core.hotspot.rewrite");
    lr.renderMs = tracer.selfOf("report.render");
    lr.serializeMs = tracer.selfOf("report.serialize");
    emitLayers(out, lr);
    return out;
}

// -------------------------------------------------------- numa_metrics

struct NumaCell
{
    std::string id;
    WorkloadKind workload;
    SystemKind system;
};

struct NumaSetup
{
    MachineConfig machine = MachineConfig::numa(2, 4);
    std::vector<NumaCell> cells;
    /** The run's input set: one profile per server mix. */
    std::map<WorkloadKind, WorkloadProfile> profiles;
    Inputs inputs;
};

NumaSetup
makeNumaSetup(const Inputs &inputs)
{
    NumaSetup s;
    s.inputs = inputs;
    for (WorkloadKind w : serverWorkloads) {
        WorkloadProfile p = profileFor(w, inputs);
        if (!inputs.tiny)
            p.quanta = numaQuanta;
        s.profiles.emplace(w, p);
        for (SystemKind sys : {SystemKind::Base, SystemKind::BlkDma})
            s.cells.push_back({"2x4/" + std::string(toString(sys)) + "/" +
                                   toString(w),
                               w, sys});
    }
    return s;
}

/** Options of a numa_metrics cell: checker, metrics and profiler on. */
SimOptions
numaOptions(const WorkloadProfile &profile, bool check, bool observe)
{
    SimOptions opts = profile.simOptions();
    opts.checkCoherence = check;
    opts.obs.metrics = observe;
    opts.obs.profiler = observe;
    return opts;
}

TraceSourceFactory
synthFactory(const WorkloadProfile &profile, const CoherenceOptions &coh,
             unsigned cpus,
             std::vector<std::shared_ptr<SynthTraceSource>> *opened = nullptr)
{
    return [profile, coh, cpus, opened]() -> std::unique_ptr<TraceSource> {
        if (opened == nullptr)
            return std::make_unique<SynthTraceSource>(profile, coh, cpus);
        auto source = std::make_shared<SynthTraceSource>(profile, coh, cpus);
        opened->push_back(source);
        return std::make_unique<SharedSource>(source);
    };
}

/** Calibration key of numa_metrics' runOnSource calls. */
const std::string numaKey = "sim.runOnSource";

/** Input records of one pass over the eight cells. */
double
numaRecords(const NumaSetup &s)
{
    std::map<std::string, double> streams; // Cells sharing a stream.
    double records = 0;
    for (const NumaCell &cell : s.cells) {
        const CoherenceOptions coh =
            SystemSetup::forKind(cell.system).coherence;
        ContentHash key;
        key.mix(cell.workload);
        mixCoherence(key, coh);
        auto [it, fresh] = streams.emplace(key.hex(), 0.0);
        if (fresh) {
            SynthTraceSource source(s.profiles.at(cell.workload), coh,
                                    s.machine.numCpus);
            it->second = double(drain(source));
        }
        records += it->second;
    }
    return records;
}

Metrics
numaMetrics(const NumaSetup &s, double seconds, bool traced,
            OutcomeCheck &check, Tracer &tracer, double setup_s)
{
    Metrics out;
    CellTimes cells;
    std::vector<std::pair<const NumaCell *, RunResult>> results;

    /**
     * One pass over the cells, traced when @p stream_peak is set (and
     * raised to the streams' buffer high-water mark), calling @p after
     * (if any) after each cell; returns its wall time in ms.
     */
    const auto pass = [&](std::uint64_t *stream_peak,
                          const std::function<void(const NumaCell &)> &after) {
        double pass_ms = 0;
        for (const NumaCell &cell : s.cells) {
            const WorkloadProfile &profile = s.profiles.at(cell.workload);
            const SystemSetup setup = SystemSetup::forKind(cell.system);
            const SimOptions opts = numaOptions(profile, true, true);
            std::vector<std::shared_ptr<SynthTraceSource>> opened;
            std::optional<Scoped> span;
            if (stream_peak != nullptr)
                span.emplace(tracer, "sim.runOnSource", Layer::Sim, cell.id,
                             numaKey);
            const auto t0 = Clock::now();
            try {
                RunResult run = runOnSource(
                    synthFactory(profile, setup.coherence, s.machine.numCpus,
                                 stream_peak ? &opened : nullptr),
                    s.machine, opts, setup);
                results.emplace_back(&cell, std::move(run));
            } catch (const std::exception &e) {
                check.failCells(1, cell.id + " threw: " + e.what());
            }
            if (stream_peak != nullptr)
                takePeaks(opened, *stream_peak);
            const double ms = msSince(t0);
            cells[cell.id].push_back(ms);
            pass_ms += ms;
            span.reset();
            if (after)
                after(cell);
        }
        return pass_ms;
    };
    const auto checkAll = [&] {
        for (auto &[cell, run] : results) {
            CellOutcome outcome;
            outcome.run = std::move(run);
            check.cell(s.inputs, cell->id, outcome);
        }
        results.clear();
    };

    if (!traced) {
        // Every pass runs the seed's own input set.
        unsigned passes = 0;
        const std::vector<double> rss = timedLoop(seconds, 1, [&](unsigned) {
            pass(nullptr, {});
            ++passes;
            checkAll();
        });
        emitEndToEnd(out, sumOfFastest(cells),
                     "sum of each cell's fastest of " +
                         std::to_string(passes) + " passes",
                     cells, numaRecords(s), rss, setup_s);
        return out;
    }

    // After each traced cell, in a calibration span: generation alone,
    // then bare, checked and observed replays of the same stream.
    LayerReport lr;
    Steps steps;
    const auto calibrate = [&](const NumaCell &cell) {
        Scoped c(tracer, "calibrate", Layer::Calib, cell.id);
        const WorkloadProfile &profile = s.profiles.at(cell.workload);
        const SystemSetup setup = SystemSetup::forKind(cell.system);
        const TraceSourceFactory open =
            synthFactory(profile, setup.coherence, s.machine.numCpus);
        std::uint64_t records = 0;
        const double gen = bestOf(1, [&] {
            auto source = open();
            records = drain(*source);
        });
        lr.synthRecords += records;
        const auto replay = [&](bool chk, bool obs) {
            return bestOf(1, [&] {
                runOnSource(open, s.machine, numaOptions(profile, chk, obs),
                            setup);
            });
        };
        const double bare = replay(false, false);
        const double checked = replay(true, false);
        const double observed = replay(true, true);
        addSteps(steps, {{Layer::Synth, gen},
                         {Layer::Sim, bare - gen},
                         {Layer::Check, checked - bare},
                         {Layer::Obs, observed - checked}});
    };

    // Untraced and traced passes alternate, so that the host's swings
    // hit both alike.
    int root = -1;
    {
        Scoped run(tracer, "run", Layer::Bench);
        root = run.id;
        for (unsigned rep = 0; rep < tracedReps; ++rep) {
            {
                Scoped c(tracer, "untraced", Layer::Calib);
                lr.untracedMs += pass(nullptr, {});
                checkAll();
            }
            pass(&lr.streamPeak, calibrate);
            for (const auto &cell_run : results)
                lr.mem.add(cell_run.second);
            checkAll();
        }
    }
    lr.tracedWallMs = tracer.wallMs(root);
    lr.self = tracer.selfByLayer({{numaKey, steps}});
    emitLayers(out, lr);
    return out;
}

// -------------------------------------------------------- sampled_long

struct SampledSetup
{
    /** The long stream's profile for each input set. */
    std::vector<WorkloadProfile> profiles;
    MachineConfig machine = MachineConfig::base();
    SystemSetup setup = SystemSetup::forKind(SystemKind::Base);
    sample::SampleRunOptions options;
    Inputs inputs;
};

SampledSetup
makeSampledSetup(const Inputs &inputs)
{
    SampledSetup s;
    s.inputs = inputs;
    for (unsigned i = 0; i < inputSets; ++i)
        s.profiles.push_back(longProfile({i, inputs.tiny}));
    s.options.plan =
        sample::SamplingPlan::parse(inputs.tiny ? tinyPlan : longPlan);
    return s;
}

const std::string sampledCell = "sampled/TRFD_4";

Metrics
sampledLong(const SampledSetup &s, double seconds, bool traced,
            OutcomeCheck &check, Tracer &tracer, double setup_s)
{
    Metrics out;
    /** One runSampled call on input set @p inputs. */
    const auto call = [&](const Inputs &inputs, bool chk,
                          std::vector<std::shared_ptr<SynthTraceSource>>
                              *opened) -> std::optional<CellOutcome> {
        const WorkloadProfile &profile = s.profiles[inputs.index];
        SimOptions opts = profile.simOptions();
        opts.checkCoherence = chk;
        try {
            sample::SampleRunOutcome r = sample::runSampled(
                synthFactory(profile, s.setup.coherence, s.machine.numCpus,
                             opened),
                s.machine, opts, s.setup.blockScheme, s.options);
            if (!r.ok)
                throw std::runtime_error(r.error);
            CellOutcome outcome;
            outcome.run = std::move(r.result);
            return outcome;
        } catch (const std::exception &e) {
            check.failCells(1, sampledCell + " threw: " + e.what());
            return std::nullopt;
        }
    };

    if (!traced) {
        // A sweep is one call per input set, in whole cycles: the sets'
        // streams differ in per-processor balance, so time and memory
        // vary by set, and each run covers them all alike.
        CellTimes cells;
        std::map<std::string, double> records; // By input set.
        const std::vector<double> rss =
            timedLoop(seconds, inputSets, [&](unsigned i) {
            const Inputs inputs = s.inputs.at(i);
            const auto t0 = Clock::now();
            std::optional<CellOutcome> o = call(inputs, true, nullptr);
            cells[sampledCell + " " + inputs.key()].push_back(msSince(t0));
            if (o) {
                records[inputs.key()] = double(o->run.sample->totalRecords);
                check.cell(inputs, sampledCell, *o);
            }
        });
        double sweep_records = 0;
        for (const auto &[set, n] : records)
            sweep_records += n;
        emitEndToEnd(out, sumOfFastest(cells),
                     "sum of each input set's fastest of " +
                         std::to_string(rss.size() / inputSets) + " calls",
                     cells, sweep_records, rss, setup_s);
        return out;
    }

    // A full bare replay of a short prefix prices one replayed record.
    const WorkloadProfile &profile = s.profiles[s.inputs.index];
    WorkloadProfile prefix = profile;
    prefix.quanta = s.inputs.tiny ? 3 : prefixQuanta;
    const TraceSourceFactory open_prefix =
        synthFactory(prefix, s.setup.coherence, s.machine.numCpus);
    std::uint64_t prefix_records = 0;
    const double prefix_gen = bestOf(1, [&] {
        auto source = open_prefix();
        prefix_records = drain(*source);
    });
    SimOptions bare_opts = profile.simOptions();
    bare_opts.checkCoherence = false;
    const double prefix_bare = bestOf(1, [&] {
        runOnSource(open_prefix, s.machine, bare_opts, s.setup);
    });
    const double ms_per_record =
        prefix_records ? (prefix_bare - prefix_gen) / double(prefix_records)
                       : 0.0;

    // The traced call, each time followed, in a calibration span, by an
    // untraced checked call, generation alone and a bare call.
    LayerReport lr;
    Steps steps;
    std::vector<std::shared_ptr<SynthTraceSource>> opened;
    std::optional<CellOutcome> traced_outcome;
    int root = -1;
    {
        Scoped run(tracer, "run", Layer::Bench);
        root = run.id;
        for (unsigned rep = 0; rep < tracedReps; ++rep) {
            {
                Scoped span(tracer, "sample.runSampled", Layer::Sample,
                            sampledCell, sampledCell);
                traced_outcome = call(s.inputs, true, &opened);
                takePeaks(opened, lr.streamPeak);
            }
            Scoped c(tracer, "calibrate", Layer::Calib, sampledCell);
            if (!traced_outcome)
                continue;
            check.cell(s.inputs, sampledCell, *traced_outcome);
            lr.mem.add(traced_outcome->run);
            const auto t0 = Clock::now();
            if (std::optional<CellOutcome> o = call(s.inputs, true, nullptr))
                check.cell(s.inputs, sampledCell, *o);
            const double checked = msSince(t0);
            lr.untracedMs += checked;
            const double gen = bestOf(1, [&] {
                SynthTraceSource source(profile, s.setup.coherence,
                                        s.machine.numCpus);
                lr.synthRecords += drain(source);
            });
            const double bare =
                bestOf(1, [&] { call(s.inputs, false, nullptr); });
            const double replay =
                ms_per_record *
                double(traced_outcome->run.sample->replayedRecords);
            addSteps(steps, {{Layer::Synth, gen},
                             {Layer::Sim, replay},
                             {Layer::Sample, bare - gen - replay},
                             {Layer::Check, checked - bare}});
        }
    }
    lr.tracedWallMs = tracer.wallMs(root);
    lr.self = tracer.selfByLayer({{sampledCell, steps}});
    const sample::SampleReport *report =
        traced_outcome ? traced_outcome->run.sample.get() : nullptr;
    if (report) {
        lr.sampleReplayedFrac = report->replayedFraction();
        lr.sampleRounds = report->rounds;
        lr.sampleMaxRelErr = report->maxRelError();
    }
    emitLayers(out, lr);
    return out;
}

// ---------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    bool setupOnly = false;
    bool record = false;
    std::string expected = "perfbench/expected.tsv";
    std::string spans;
};

/** Blessed rows figures_sweep overlaps, relative to the repository root. */
constexpr const char *goldenPath = "tests/golden/cells.jsonl";

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "oscache-perfbench: %s\n"
                 "usage: oscache-perfbench --workload "
                 "figures_sweep|numa_metrics|sampled_long\n"
                 "         [--seed N] [--seconds S] [--trace 0|1] [--tiny]\n"
                 "         [--setup-only] [--record] [--expected FILE]\n"
                 "         [--spans FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = value() != "0";
        else if (arg == "--tiny")
            a.tiny = true;
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else if (arg == "--record")
            a.record = true;
        else if (arg == "--expected")
            a.expected = value();
        else if (arg == "--spans")
            a.spans = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (a.workload != "figures_sweep" && a.workload != "numa_metrics" &&
        a.workload != "sampled_long")
        usage("unknown or missing --workload");
    return a;
}

/** CPU time the process used before main(): loading, static init. */
double
processCpuSeconds()
{
    struct timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printHost()
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::printf("host: {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"lto\": %s, \"version\": %s}\n",
                std::thread::hardware_concurrency(),
                jsonString(cpuModel()).c_str(),
                jsonString(compiler).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                PERFBENCH_LTO ? "true" : "false",
                jsonString(versionString()).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const double pre_main_s = processCpuSeconds();
    const auto main_start = Clock::now();
    const Args args = parseArgs(argc, argv);

    Inputs inputs;
    inputs.index = unsigned(args.seed % inputSets);
    inputs.tiny = args.tiny;
    const unsigned jobs =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

    // Set-up: everything up to the first timed call.
    FiguresSetup figures;
    NumaSetup numa;
    SampledSetup sampled;
    if (args.workload == "figures_sweep") {
        figures.experiments = resolveExperiments({"figures"});
        figures.jobs = jobs;
        figures.inputs = inputs;
    } else if (args.workload == "numa_metrics") {
        numa = makeNumaSetup(inputs);
    } else {
        sampled = makeSampledSetup(inputs);
    }
    clearTraceCache();
    const double setup_s = pre_main_s + msSince(main_start) / 1000.0;
    if (args.setupOnly) {
        std::printf("setup_s %.9f\n", setup_s);
        return 0;
    }

    OutcomeCheck check(args.workload, args.record);
    if (!args.record && !check.load(args.expected))
        std::printf("expected digests: cannot read %s\n",
                    args.expected.c_str());

    printHost();
    std::printf("workload: %s  seed: %llu (input set %s)  trace: %d  "
                "jobs: %u\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                inputs.key().c_str(), args.trace ? 1 : 0,
                args.workload == "figures_sweep" ? jobs : 1);
    std::fflush(stdout);

    Tracer tracer;
    Metrics out;
    if (args.workload == "figures_sweep")
        out = figuresSweep(figures, args.seconds, args.trace, check,
                           goldenPath, tracer, setup_s);
    else if (args.workload == "numa_metrics")
        out = numaMetrics(numa, args.seconds, args.trace, check, tracer,
                          setup_s);
    else
        out = sampledLong(sampled, args.seconds, args.trace, check, tracer,
                          setup_s);

    if (!check.attempted)
        check.failCells(1, "no cell ran");
    if (args.trace && !args.spans.empty())
        tracer.write(args.spans);

    if (args.record) {
        for (const auto &[key, digest] : check.recorded)
            std::printf("digest\t%s\t%s\t%s\n", args.workload.c_str(),
                        key.c_str(), digest.c_str());
    }
    for (const std::string &n : check.notes)
        std::printf("FAIL %s\n", n.c_str());
    std::printf("fail_ratio = %.6f (%u failed of %u cells)\n",
                check.attempted ? double(check.failed) / check.attempted
                                : 1.0,
                check.failed, check.attempted);
    for (const Metric &m : out)
        std::printf("%s = %.6g %s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.empty() ? "" : "  ",
                    m.note.c_str());

    std::string json = "{\"correct\": ";
    json += check.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(check.attempted);
    json += ", \"failed\": " + std::to_string(check.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Metric &m = out[i];
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
