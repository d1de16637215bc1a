#include "sample/run.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hh"
#include "common/log.hh"
#include "mem/memsys.hh"
#include "sample/checkpoint.hh"
#include "sample/cursor.hh"
#include "sim/system.hh"

namespace oscache
{
namespace sample
{

namespace
{

/**
 * The SampleController behind a sampled run: classifies each
 * processor's phase from its cursor position and collects one
 * WindowSample per measured window.
 *
 * Windows are global: min-time scheduling keeps the processors
 * within one synchronization interval of each other, so their
 * measured stretches of the same window index overlap in time.  The
 * window opens when the first processor enters Measure and closes
 * when the last one leaves; its metric delta is read off the
 * measured statistics sink at those two instants.
 */
class WindowController final : public SampleController
{
  public:
    WindowController(SampledTraceSource &sampled_source,
                     const SamplingPlan &sampling_plan,
                     const SimStats &measured_sink, ObsHub *obs_hub,
                     std::vector<WindowSample> prior_windows)
        : src(sampled_source), plan(sampling_plan), measured(measured_sink),
          hub(obs_hub), windows(std::move(prior_windows)),
          measuring(sampled_source.numCpus(), false)
    {}

    SamplePhase
    phaseFor(CpuId cpu) override
    {
        SamplingCursor *cursor = src.cursorFor(cpu);
        const SamplePhase phase = cursor->phase();
        const bool now = phase == SamplePhase::Measure;
        if (now != bool(measuring[cpu])) {
            measuring[cpu] = now;
            if (now) {
                if (measuringCount++ == 0)
                    openWindow(cursor->window());
            } else {
                if (--measuringCount == 0)
                    closeWindow();
            }
        }
        return phase;
    }

    Cycles spinBreakCycles() const override { return plan.spinBreak; }

    /** No window is open (safe instant for a live point). */
    bool idle() const { return measuringCount == 0; }

    /** Close a window left open by a trace that ends mid-measure. */
    void
    finish()
    {
        if (measuringCount > 0) {
            measuringCount = 0;
            closeWindow();
        }
        std::fill(measuring.begin(), measuring.end(), false);
    }

    const std::vector<WindowSample> &collected() const { return windows; }

    std::vector<WindowSample> takeWindows() { return std::move(windows); }

  private:
    std::uint64_t
    measuredRecords() const
    {
        std::uint64_t total = 0;
        for (CpuId cpu = 0; cpu < CpuId(src.numCpus()); ++cpu)
            total += src.cursorFor(cpu)->measuredRecords();
        return total;
    }

    void
    openWindow(std::uint64_t index)
    {
        currentWindow = index;
        windowStart = metricsOf(measured);
        windowStartRecords = measuredRecords();
        if (hub)
            hub->setEnabled(true);
    }

    void
    closeWindow()
    {
        WindowSample w;
        w.window = currentWindow;
        w.records = measuredRecords() - windowStartRecords;
        const MetricVector now = metricsOf(measured);
        for (std::size_t m = 0; m < numSampleMetrics; ++m)
            w.values[m] = now[m] - windowStart[m];
        if (w.records > 0)
            windows.push_back(w);
        if (hub)
            hub->setEnabled(false);
    }

    SampledTraceSource &src;
    SamplingPlan plan;
    const SimStats &measured;
    ObsHub *hub;
    std::vector<WindowSample> windows;

    /** Per-cpu "currently in a measured stretch" flags. */
    std::vector<std::uint8_t> measuring;
    unsigned measuringCount = 0;

    std::uint64_t currentWindow = 0;
    MetricVector windowStart{};
    std::uint64_t windowStartRecords = 0;
};

/** True once every processor's cursor has passed @p threshold. */
bool
allCursorsPast(SampledTraceSource &src, std::uint64_t threshold)
{
    for (CpuId cpu = 0; cpu < CpuId(src.numCpus()); ++cpu) {
        if (src.cursorFor(cpu)->position() < threshold)
            return false;
    }
    return true;
}

/** Collect every cursor's progress for a checkpoint. */
std::vector<CursorProgress>
cursorProgress(SampledTraceSource &src)
{
    std::vector<CursorProgress> progress(src.numCpus());
    for (CpuId cpu = 0; cpu < CpuId(src.numCpus()); ++cpu) {
        SamplingCursor *cursor = src.cursorFor(cpu);
        progress[cpu] = {cursor->position(), cursor->measuredRecords(),
                         cursor->skippedRecords()};
    }
    return progress;
}

/**
 * One sampled pass under @p plan.  @p resume, when non-null, has a
 * successfully read header; its state sections are consumed here.
 * Returns false with outcome.error set on a checkpoint failure.
 */
bool
runRound(const TraceSourceFactory &open, const MachineConfig &machine,
         const SimOptions &options, BlockScheme scheme,
         const SamplingPlan &plan, CheckpointReader *resume,
         const std::string &save_path, std::uint64_t checkpoint_after,
         SampleRunOutcome &outcome, SampleReport &report)
{
    const auto fail = [&outcome](const std::string &why) {
        outcome.ok = false;
        outcome.error = why;
        return false;
    };

    auto inner = open();
    SampledTraceSource sampled(*inner, plan);

    // Skipped records never touch the memory system, so the
    // checker's shadow stays consistent across the whole sampled run.
    RunAssembly run(sampled, machine, options, scheme);
    MemorySystem &mem = run.memory();
    System &system = run.engine();
    // Observation is gated to measured windows; the controller
    // enables the hub whenever one opens.
    if (ObsHub *hub = run.hub())
        hub->setEnabled(false);

    SimStats warm;
    std::vector<WindowSample> prior;
    if (resume != nullptr) {
        for (CpuId cpu = 0; cpu < CpuId(sampled.numCpus()); ++cpu) {
            const CursorProgress &at = resume->cursors()[cpu];
            SamplingCursor *cursor = sampled.cursorFor(cpu);
            if (cursor->skip(at.position) != at.position)
                return fail("trace shorter than checkpoint position");
            cursor->restoreProgress(at.measured, at.skipped);
        }
        std::string why;
        if (!resume->readState(mem, system, run.stats(), warm, prior,
                               &why))
            return fail("checkpoint: " + why);
        // The warm image was restored, not observed.
        if (CoherenceChecker *checker = run.checker())
            checker->seed(mem);
    }

    WindowController controller(sampled, plan, run.stats(), run.hub(),
                                std::move(prior));
    system.setSampling(&controller, &warm);

    // A mid-run live point is taken between steps, so step until it
    // is; the batched loop replays the rest.
    bool saved = save_path.empty() || checkpoint_after == 0;
    while (!saved && system.tick()) {
        if (controller.idle() &&
            allCursorsPast(sampled, checkpoint_after)) {
            std::ofstream os(save_path, std::ios::binary);
            if (!os)
                return fail("cannot write checkpoint '" + save_path + "'");
            writeCheckpoint(os, machine, plan, cursorProgress(sampled),
                            mem, system, run.stats(), warm,
                            controller.collected());
            if (!os)
                return fail("error writing checkpoint '" + save_path + "'");
            saved = true;
        }
    }
    if (!saved) {
        std::uint64_t shortest = ~std::uint64_t{0};
        for (CpuId cpu = 0; cpu < CpuId(sampled.numCpus()); ++cpu)
            shortest = std::min(shortest,
                                sampled.cursorFor(cpu)->position());
        const std::string why =
            shortest < checkpoint_after
                ? "the stream ends after " + std::to_string(shortest) +
                      " records on its shortest processor"
                : "no step after every processor passed it had all "
                  "measured windows closed (the stream ends after " +
                      std::to_string(shortest) +
                      " records on its shortest processor)";
        return fail("live point after record " +
                    std::to_string(checkpoint_after) +
                    " was never taken: " + why);
    }
    system.run();
    controller.finish();

    if (!save_path.empty() && checkpoint_after == 0) {
        std::ofstream os(save_path, std::ios::binary);
        if (!os)
            return fail("cannot write checkpoint '" + save_path + "'");
        writeCheckpoint(os, machine, plan, cursorProgress(sampled), mem,
                        system, run.stats(), warm, controller.collected());
        if (!os)
            return fail("error writing checkpoint '" + save_path + "'");
    }

    RunResult result = run.finish();

    report = SampleReport{};
    report.plan = plan;
    report.windows = controller.takeWindows();
    report.syncBreaks = system.syncBreaks();
    for (CpuId cpu = 0; cpu < CpuId(sampled.numCpus()); ++cpu) {
        SamplingCursor *cursor = sampled.cursorFor(cpu);
        const std::uint64_t pos = cursor->position();
        const std::uint64_t skipped = cursor->skippedRecords();
        report.skippedRecords += skipped;
        report.replayedRecords += pos - skipped;
        report.totalRecords +=
            sampled.knownRecords(cpu).value_or(std::size_t(pos));
    }
    report.finalize();

    outcome.result = std::move(result);
    outcome.warmStats = std::move(warm);
    return true;
}

} // namespace

SampleRunOutcome
runSampled(const TraceSourceFactory &open, const MachineConfig &machine,
           const SimOptions &options, BlockScheme scheme,
           const SampleRunOptions &sample_options)
{
    SampleRunOutcome outcome;
    SampleReport report;

    if (!sample_options.resumeCheckpoint.empty()) {
        std::ifstream is(sample_options.resumeCheckpoint,
                         std::ios::binary);
        if (!is) {
            outcome.ok = false;
            outcome.error = "cannot open checkpoint '" +
                            sample_options.resumeCheckpoint + "'";
            return outcome;
        }
        CheckpointReader reader(is);
        std::string why;
        if (!reader.readHeader(machine, &why)) {
            outcome.ok = false;
            outcome.error = "checkpoint: " + why;
            return outcome;
        }
        if (!runRound(open, machine, options, scheme, reader.plan(),
                      &reader, sample_options.saveCheckpoint,
                      sample_options.checkpointAfter, outcome, report))
            return outcome;
        outcome.result.sample =
            std::make_shared<SampleReport>(std::move(report));
        return outcome;
    }

    SamplingPlan plan = sample_options.plan;
    if (!plan.valid())
        fatal("runSampled: invalid sampling plan (", plan.describe(), ")");

    for (unsigned round = 1;; ++round) {
        if (!runRound(open, machine, options, scheme, plan, nullptr,
                      sample_options.saveCheckpoint,
                      sample_options.checkpointAfter, outcome, report))
            return outcome;
        report.rounds = round;
        if (plan.targetError <= 0 ||
            report.maxRelError() <= plan.targetError ||
            round >= plan.maxRounds)
            break;
        // Confidence not reached: halve the period (doubling the
        // number of windows) and run the denser plan from scratch.
        plan = plan.escalated();
    }

    outcome.result.sample = std::make_shared<SampleReport>(std::move(report));
    return outcome;
}

} // namespace sample
} // namespace oscache
