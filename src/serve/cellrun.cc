#include "serve/cellrun.hh"

#include "exp/hash.hh"
#include "exp/results.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"
#include "sample/run.hh"
#include "trace/io.hh"

namespace oscache::serve
{

std::optional<CellRef>
findCell(const std::string &experiment, const std::string &cell)
{
    const Experiment *exp = findExperiment(experiment);
    if (exp == nullptr)
        return std::nullopt;
    for (const CellSpec &spec : exp->cells)
        if (spec.id == cell)
            return CellRef{exp, &spec};
    return std::nullopt;
}

std::string
workKeyFor(const CellRef &ref, const std::string &sample_plan)
{
    ContentHash h;
    h.mix(traceFormatVersion);
    if (!ref.spec->sharedKey.empty()) {
        h.mix(std::string("shared"));
        h.mix(ref.spec->sharedKey);
    } else {
        h.mix(std::string("cell"));
        h.mix(ref.experiment->name);
        h.mix(ref.spec->id);
    }
    mixMachine(h, ref.spec->machine);
    h.mix(sample_plan);
    return h.hex();
}

std::string
identityJsonFor(const CellRef &ref)
{
    ContentHash mh;
    mixMachine(mh, ref.spec->machine);
    ResultRow row;
    row.experiment = ref.experiment->name;
    row.cell = ref.spec->id;
    row.workload = toString(ref.spec->workload);
    row.system = toString(ref.spec->system);
    row.machineHash = mh.hex();
    return resultRowIdentityJson(row);
}

std::string
runCellCanonical(const CellRef &ref, const std::string &sample_plan)
{
    // The sampling plan is per-assignment: install it for this cell
    // only, and always restore, even when the body throws.
    struct PlanGuard
    {
        bool active = false;
        ~PlanGuard()
        {
            if (active)
                sample::setGlobalSamplingPlan(std::nullopt);
        }
    } guard;
    if (!sample_plan.empty()) {
        sample::setGlobalSamplingPlan(
            sample::SamplingPlan::parse(sample_plan));
        guard.active = true;
    }

    CellOutcome outcome;
    if (ref.spec->body)
        outcome = ref.spec->body();
    else
        outcome.run = runWorkload(ref.spec->workload, ref.spec->system,
                                  ref.spec->machine);

    ResultRow row;
    row.canonical = true;
    row.outcome = &outcome;
    return resultRowOutcomeJson(row);
}

} // namespace oscache::serve
