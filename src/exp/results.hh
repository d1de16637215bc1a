/**
 * @file
 * Structured results sink.
 *
 * Every cell the scheduler completes is appended as one JSONL object
 * (and one CSV row) carrying the cell's identity, its configuration
 * metadata, the wall-clock cost of computing it, and the simulator
 * statistics the paper's analyses read.  Downstream tooling — perf
 * trajectories (BENCH_*.json), regression diffing between PRs,
 * plotting — consumes these files instead of scraping the rendered
 * tables.
 */

#ifndef OSCACHE_EXP_RESULTS_HH
#define OSCACHE_EXP_RESULTS_HH

#include <mutex>
#include <string>

#include "exp/registry.hh"

namespace oscache
{

/** One completed cell, as reported to the sink. */
struct ResultRow
{
    std::string experiment;
    std::string cell;
    std::string workload;
    std::string system;
    /** Content hash of the machine configuration. */
    std::string machineHash;
    /** Wall-clock of the computing run (0 for shared outcomes). */
    double wallMs = 0.0;
    /** True when the outcome was computed by another cell's run. */
    bool shared = false;
    /** How the run's records were sourced ("materialized", ...). */
    std::string traceMode;
    /** Process peak RSS (KiB) when the cell finished. */
    long peakRssKb = 0;
    /**
     * Canonical mode: suppress the fields that vary run-to-run
     * (wall_ms, shared, trace_mode, peak_rss_kb are emitted as
     * zero/false/empty) so the line is a pure function of the cell's
     * simulation outcome.  `oscache-bench --canonical-results` emits
     * this form, so two runs of the same cells compare byte-for-byte
     * whatever their job count or trace-cache state.
     */
    bool canonical = false;
    const CellOutcome *outcome = nullptr;
};

/**
 * Render @p row as one JSONL line (no trailing newline) — the exact
 * bytes ResultsSink appends.  Exposed so tests can produce
 * sink-identical lines without a sink.
 */
std::string resultRowJsonl(const ResultRow &row);

/** ',"wall_ms":...}' — everything derived from the outcome. */
std::string resultRowOutcomeJson(const ResultRow &row);

/**
 * Line-durable file: every line is written with a full write() loop
 * and followed by fdatasync(), so a crash mid-sweep can lose at most
 * the line being written — never tear or drop already-reported rows.
 */
class DurableLineFile
{
  public:
    DurableLineFile() = default;
    ~DurableLineFile();

    DurableLineFile(const DurableLineFile &) = delete;
    DurableLineFile &operator=(const DurableLineFile &) = delete;

    /** Open @p path for writing, truncating. False on failure. */
    bool open(const std::string &path);

    /** Write @p line plus '\n' fully, then fdatasync. */
    void writeLine(const std::string &line);

  private:
    int fd = -1;
};

/**
 * Thread-safe append-only writer of results.jsonl / results.csv.
 * Rows arrive in completion order; consumers sort by the identity
 * columns.  Each row is synced to disk before record() returns (see
 * DurableLineFile), so partial sweeps are salvageable after a crash.
 */
class ResultsSink
{
  public:
    /**
     * Open @p basePath + ".jsonl" and ".csv" for writing (truncating
     * previous contents).  fatal()s if either cannot be opened.
     */
    explicit ResultsSink(const std::string &basePath);

    /** Append one row to both files. */
    void record(const ResultRow &row);

    std::string jsonlPath() const { return base + ".jsonl"; }
    std::string csvPath() const { return base + ".csv"; }

  private:
    std::string base;
    std::mutex mutex;
    DurableLineFile jsonl;
    DurableLineFile csv;
};

} // namespace oscache

#endif // OSCACHE_EXP_RESULTS_HH
