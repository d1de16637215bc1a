#include "serve/cellrun.hh"

#include "exp/hash.hh"
#include "exp/results.hh"
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
runCellCanonical(const CellRef &ref, const RunContext &ctx)
{
    const CellOutcome outcome = runCell(*ref.spec, ctx);
    ResultRow row;
    row.canonical = true;
    row.outcome = &outcome;
    return resultRowOutcomeJson(row);
}

} // namespace oscache::serve
