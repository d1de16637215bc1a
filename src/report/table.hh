/**
 * @file
 * Fixed-width ASCII table and bar-chart rendering for the experiment
 * registry: every render prints the rows/series of the paper's table
 * or figure it regenerates, alongside the paper's numbers.
 */

#ifndef OSCACHE_REPORT_TABLE_HH
#define OSCACHE_REPORT_TABLE_HH

#include <string>
#include <vector>

namespace oscache
{

/**
 * A simple left-column-labelled table with fixed-width data columns.
 */
class TextTable
{
  public:
    /**
     * @param title   Printed above the table.
     * @param columns Data-column headers (e.g., workload names).
     */
    TextTable(std::string title, std::vector<std::string> columns);

    /** Append a row of preformatted cells. */
    void addRow(const std::string &label, std::vector<std::string> cells);

    /** Append a row of values formatted with @p decimals places. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int decimals = 1);

    /** Append a visual separator row. */
    void addSeparator();

    /** Render to a string. */
    std::string str() const;

    /** Render to stdout. */
    void print() const;

  private:
    struct Row
    {
        bool separator = false;
        std::string label;
        std::vector<std::string> cells;
    };

    std::string title;
    std::vector<std::string> columns;
    std::vector<Row> rows;
};

/** Format @p value with @p decimals decimal places. */
std::string formatValue(double value, int decimals = 1);

/**
 * Render one horizontal bar (for figure-style output), scaled so
 * @p full maps to @p width characters.
 */
std::string bar(double value, double full, unsigned width = 40);

} // namespace oscache

#endif // OSCACHE_REPORT_TABLE_HH
