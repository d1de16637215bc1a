/**
 * @file
 * Shared helpers for the registry experiments' figure renders.
 */

#ifndef OSCACHE_REPORT_FIGURES_HH
#define OSCACHE_REPORT_FIGURES_HH

#include <string>
#include <vector>

#include "sim/stats.hh"
#include "report/table.hh"

namespace oscache
{

/**
 * Misses remaining visible after a run: total OS primary-cache read
 * misses minus those whose latency a prefetch hid (the paper's
 * "eliminate or hide" accounting).
 */
inline double
remainingOsMisses(const SimStats &stats)
{
    return double(stats.osMissTotal() - stats.osMissPartiallyHidden);
}

/** "measured | paper" cell. */
inline std::string
cellVsPaper(double measured, double paper_value, int decimals = 2)
{
    return formatValue(measured, decimals) + " | " +
           formatValue(paper_value, decimals);
}

/** The standard four workload column headers. */
inline std::vector<std::string>
workloadColumns()
{
    return {"TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"};
}

} // namespace oscache

#endif // OSCACHE_REPORT_FIGURES_HH
