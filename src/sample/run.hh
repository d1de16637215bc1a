/**
 * @file
 * Sampled-replay driver: builds the machine through the run assembly
 * (core/runner), but replays through SamplingCursors under a
 * window-collecting controller, escalates the plan until the
 * requested confidence is met, and can take or resume live-points
 * checkpoints between measured windows.
 *
 * The result's SimStats contain ONLY measured-window activity; the
 * warm-up traffic lands in a separate sink that exists so the caches
 * are warm, not so its numbers are read.  Extrapolated totals with
 * confidence intervals are in the attached SampleReport.
 *
 * Registry cells replay here when their RunContext carries a plan:
 * runWorkload() (report/experiment.hh) passes the plan down.
 */

#ifndef OSCACHE_SAMPLE_RUN_HH
#define OSCACHE_SAMPLE_RUN_HH

#include <string>

#include "core/runner.hh"
#include "core/system_config.hh"
#include "mem/config.hh"
#include "sample/plan.hh"
#include "sample/stats.hh"
#include "sim/options.hh"

namespace oscache
{
namespace sample
{

/** Everything runSampled() needs beyond the full-run inputs. */
struct SampleRunOptions
{
    SamplingPlan plan;

    /** Write a live point here; empty = no checkpoint. */
    std::string saveCheckpoint;

    /**
     * Take the live point once every processor has passed this
     * record index (between measured windows, so it can be resumed
     * cleanly); 0 = take it at end of run.
     */
    std::uint64_t checkpointAfter = 0;

    /**
     * Resume from this live point instead of starting fresh; the
     * plan then comes from the checkpoint and no escalation is
     * attempted.  The trace opened by the source factory must be
     * the one the checkpoint was taken from.
     */
    std::string resumeCheckpoint;
};

/** Result of a sampled run. */
struct SampleRunOutcome
{
    /** stats = measured windows only; sample report attached. */
    RunResult result;

    /** Warm-up window traffic (checkpoint identity checks). */
    SimStats warmStats;

    bool ok = true;
    std::string error; ///< Set when a checkpoint operation failed.
};

/**
 * Sampled analogue of runOnSource() for plain (non-hot-spot-rewrite)
 * systems.  @p open is invoked once per escalation round.
 */
SampleRunOutcome runSampled(const TraceSourceFactory &open,
                            const MachineConfig &machine,
                            const SimOptions &options, BlockScheme scheme,
                            const SampleRunOptions &sample_options);

} // namespace sample
} // namespace oscache

#endif // OSCACHE_SAMPLE_RUN_HH
