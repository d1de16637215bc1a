/**
 * @file
 * The experiment registry: every paper figure and table, ablation,
 * extension study and diagnostic, expressed as data the scheduler can
 * consume.  It is the only experiment front end: oscache-bench and
 * the golden cells run its cells.
 * An Experiment is split into:
 *
 *  - cells: the independent (workload × system × machine) simulation
 *    units, each a function of the run's RunContext returning a
 *    CellOutcome; runCell() runs one.  Most are plain runWorkload()
 *    calls described declaratively; a few (Table 3's census, the
 *    update-set ablation, ...) carry custom bodies, which open their
 *    passes' traces through the context (RunContext::open) and run
 *    them through the same run assembly (core/runner) with the
 *    context's observers.  Cells with equal `sharedKey` are identical
 *    work — the driver runs one and shares the outcome, so e.g. the
 *    Base runs that five different figures need happen once per sweep.
 *  - render: turns the completed cells into the experiment's text
 *    output (tables and bar charts).  The driver renders every
 *    experiment on its calling thread once all cells have finished.
 */

#ifndef OSCACHE_EXP_REGISTRY_HH
#define OSCACHE_EXP_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/runner.hh"
#include "core/system_config.hh"
#include "mem/config.hh"
#include "report/experiment.hh"
#include "synth/profile.hh"

namespace oscache
{

/** Everything one experiment cell produces. */
struct CellOutcome
{
    /** The simulation result (primary cell product). */
    RunResult run;
    /** Named scalar side-products of custom cells. */
    std::map<std::string, double> extra;
};

/** Read-only view of an experiment's completed cells, for render. */
class CellLookup
{
  public:
    explicit CellLookup(const std::map<std::string, CellOutcome> &outcomes)
        : cells(outcomes)
    {}

    /** The outcome of cell @p id; panics if absent (a registry bug). */
    const CellOutcome &at(const std::string &id) const;

    /** Shorthand for at(id).run.stats. */
    const SimStats &stats(const std::string &id) const;

  private:
    const std::map<std::string, CellOutcome> &cells;
};

/** A custom cell body: the cell's outcome under a run's context. */
struct CellBody : std::function<CellOutcome(const RunContext &)>
{
    using std::function<CellOutcome(const RunContext &)>::function;

    /**
     * A body that ignores the context.  Exists only for perfbench,
     * whose traced registry copy assigns no-argument lambdas; the
     * registry's own bodies all take the context.
     */
    template <typename F>
        requires std::is_invocable_r_v<CellOutcome, const F &>
    CellBody(F body)
        : function([body = std::move(body)](const RunContext &) {
              return body();
          })
    {}
};

/** One schedulable simulation unit. */
struct CellSpec
{
    /** Unique id within the experiment (e.g. "base/trfd4"). */
    std::string id;
    /** Metadata for the results sink. */
    WorkloadKind workload = WorkloadKind::Trfd4;
    SystemKind system = SystemKind::Base;
    MachineConfig machine = MachineConfig::base();
    /**
     * The cell body.  Empty means the standard cell:
     * runWorkload(workload, system, machine, ctx).
     */
    CellBody body;
    /**
     * Cells with the same non-empty key compute the same thing; the
     * driver runs one representative and shares the outcome.  Empty
     * for custom cells, which always run.
     */
    std::string sharedKey;
};

/** A registered figure/table/ablation. */
struct Experiment
{
    std::string name;  ///< CLI name, e.g. "figure3".
    std::string title; ///< One-line description for --list.
    std::vector<CellSpec> cells;
    /** Produce the experiment's report from its completed cells. */
    std::function<void(const CellLookup &, std::ostream &)> render;
    /** Cell to run under --smoke (one small cell per experiment). */
    std::string smokeCell;
};

/**
 * Run @p spec under @p ctx: its body, or the standard cell.  The one
 * dispatch the driver and the golden cells share.
 */
CellOutcome runCell(const CellSpec &spec, const RunContext &ctx);

/** All registered experiments, in presentation order. */
const std::vector<Experiment> &experimentRegistry();

/**
 * Expand user-supplied names into registry entries.  Accepts
 * experiment names plus the groups "figures", "tables", "ablations",
 * "numa", and "all"; preserves registry order and drops duplicates.
 * fatal()s on an unknown name.
 */
std::vector<const Experiment *>
resolveExperiments(const std::vector<std::string> &names);

} // namespace oscache

#endif // OSCACHE_EXP_REGISTRY_HH
