/**
 * @file
 * Single-cell execution for worker processes.
 *
 * The coordinator ships a cell as (experiment name, cell id): every
 * process links the same registry, so identity is enough — custom
 * cell bodies travel as code, not data.  A worker resolves the
 * reference, computes the cell's *work key* (the claim-file /
 * result-cache key: sharedKey when the registry marked the cell as
 * shared work, else its own identity, mixed with the machine hash,
 * the trace-format version, and the sampling plan), runs it through
 * runCell() under the RunContext the worker built for the
 * assignment, and renders the canonical outcome fragment that
 * composes into byte-identical JSONL rows on the coordinator side.
 */

#ifndef OSCACHE_SERVE_CELLRUN_HH
#define OSCACHE_SERVE_CELLRUN_HH

#include <optional>
#include <string>

#include "exp/registry.hh"

namespace oscache::serve
{

/** A resolved registry cell. */
struct CellRef
{
    const Experiment *experiment = nullptr;
    const CellSpec *spec = nullptr;
};

/** Resolve (@p experiment, @p cell); nullopt when either is unknown. */
std::optional<CellRef> findCell(const std::string &experiment,
                                const std::string &cell);

/**
 * The cross-process dedup key for @p ref under @p sample_plan (empty
 * = full replay).  Cells sharing a registry sharedKey map to one
 * work key; custom cells key on their own identity, so double-
 * submits still coalesce.
 */
std::string workKeyFor(const CellRef &ref, const std::string &sample_plan);

/** '{"experiment":...' identity prefix for one subscriber alias. */
std::string identityJsonFor(const CellRef &ref);

/**
 * Run the cell under @p ctx and return the canonical outcome fragment
 * (resultRowOutcomeJson with canonical=true).  Throws whatever the
 * cell body throws.
 */
std::string runCellCanonical(const CellRef &ref, const RunContext &ctx);

} // namespace oscache::serve

#endif // OSCACHE_SERVE_CELLRUN_HH
