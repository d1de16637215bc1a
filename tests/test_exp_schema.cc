/**
 * @file
 * Result-row schema across replay modes (`ctest -L Exp`).  Every
 * registered experiment's smoke cell runs in full, streamed and
 * sampled mode with per-cell metrics on.  Each row must carry the
 * same keys in every mode (the sampled row adds its "sample" object
 * where a sampling CI applies), real bus traffic, and a metrics
 * object; a streamed row must come from a streamed source; a custom
 * cell must report the bus of the pass whose statistics it reports.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/json.hh"
#include "exp/driver.hh"
#include "exp/registry.hh"
#include "exp/results.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"

namespace oscache
{
namespace
{

enum class Mode
{
    Full,
    Stream,
    Sample
};

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Full:   return "full";
      case Mode::Stream: return "stream";
      case Mode::Sample: return "sample";
    }
    return "?";
}

/** One smoke row: its outcome and the key paths of its JSON line. */
struct SmokeRow
{
    const Experiment *experiment = nullptr;
    std::string cell;
    CellOutcome outcome;
    std::set<std::string> keys;
};

void
collectKeys(const Json &json, const std::string &prefix,
            std::set<std::string> &out)
{
    if (!json.isObject())
        return;
    for (const auto &[key, value] : json.members()) {
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        out.insert(path);
        collectKeys(value, path, out);
    }
}

/**
 * Every experiment's smoke row under @p mode with per-cell metrics on,
 * by experiment name.
 */
std::map<std::string, SmokeRow>
runSmoke(Mode mode)
{
    DriverOptions options;
    options.jobs = 4;
    options.smoke = true;
    options.obs.metrics = true;
    options.stream = mode == Mode::Stream;
    if (mode == Mode::Sample)
        options.samplePlan = sample::SamplingPlan::parse(
            "period=40k,measure=2k,warmup=12k");
    const DriverReport report =
        runExperiments(resolveExperiments({"all"}), options);
    clearTraceCache();

    std::map<std::string, SmokeRow> rows;
    for (const ExperimentReport &er : report.experiments) {
        const auto it = er.outcomes.find(er.experiment->smokeCell);
        if (it == er.outcomes.end()) {
            ADD_FAILURE() << er.experiment->name << " ran no smoke cell";
            continue;
        }
        SmokeRow &row = rows[er.experiment->name];
        row.experiment = er.experiment;
        row.cell = it->first;
        row.outcome = it->second;

        ResultRow result;
        result.experiment = er.experiment->name;
        result.cell = row.cell;
        result.canonical = true;
        result.outcome = &row.outcome;
        Json json;
        std::string error;
        EXPECT_TRUE(Json::parse(resultRowJsonl(result), json, &error))
            << error;
        collectKeys(json, "", row.keys);
    }
    return rows;
}

class RowSchema : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        for (Mode mode : {Mode::Full, Mode::Stream, Mode::Sample})
            modes[mode] = runSmoke(mode);
    }

    static void TearDownTestSuite() { modes.clear(); }

    static const SmokeRow &
    row(Mode mode, const std::string &experiment)
    {
        return modes.at(mode).at(experiment);
    }

    static inline std::map<Mode, std::map<std::string, SmokeRow>> modes;
};

TEST_F(RowSchema, EveryExperimentHasASmokeRowInEveryMode)
{
    for (const auto &[mode, rows] : modes)
        EXPECT_EQ(rows.size(), experimentRegistry().size())
            << modeName(mode);
}

TEST_F(RowSchema, KeysMatchAcrossModes)
{
    for (const Experiment &e : experimentRegistry()) {
        const SmokeRow &full = row(Mode::Full, e.name);
        EXPECT_EQ(row(Mode::Stream, e.name).keys, full.keys) << e.name;

        // The sampled row adds its "sample" object, and only where a
        // sampling CI applies.
        const SmokeRow &sampled = row(Mode::Sample, e.name);
        std::set<std::string> keys = sampled.keys;
        const bool has_ci = sampled.outcome.run.sample != nullptr;
        EXPECT_EQ(keys.count("sample") == 1, has_ci) << e.name;
        std::erase_if(keys, [](const std::string &k) {
            return k.rfind("sample", 0) == 0;
        });
        EXPECT_EQ(keys, full.keys) << e.name;
    }
}

TEST_F(RowSchema, StreamedRowsAreSynthesized)
{
    // Under stream no pass materializes a trace, custom passes
    // included, and the streamed run has no store to read from.
    for (const auto &[name, r] : modes.at(Mode::Stream))
        EXPECT_EQ(r.outcome.run.traceMode, "synth") << name << " " << r.cell;
    for (const auto &[name, r] : modes.at(Mode::Full))
        EXPECT_EQ(r.outcome.run.traceMode, "materialized")
            << name << " " << r.cell;
}

TEST_F(RowSchema, PlainCellsCarryASamplingCi)
{
    // Standard cells replay under the plan unless their system's
    // hot-spot profile pass needs complete per-block miss counts:
    // those replay in full and carry no sample.
    unsigned hotspot_cells = 0;
    for (const Experiment &e : experimentRegistry()) {
        for (const CellSpec &spec : e.cells) {
            if (spec.id != e.smokeCell || spec.body)
                continue;
            const bool hotspot =
                SystemSetup::forKind(spec.system).hotspotPrefetch;
            hotspot_cells += hotspot;
            EXPECT_EQ(row(Mode::Sample, e.name).outcome.run.sample !=
                          nullptr,
                      !hotspot)
                << e.name;
        }
    }
    EXPECT_GT(hotspot_cells, 0u) << "no hot-spot smoke cell checked";
}

TEST_F(RowSchema, NoSilentZeros)
{
    for (const auto &[mode, rows] : modes) {
        for (const auto &[name, r] : rows) {
            EXPECT_GT(r.outcome.run.bus.totalTransactions, 0u)
                << modeName(mode) << " " << name << " " << r.cell;
            EXPECT_GT(r.outcome.run.bus.totalBytes, 0u)
                << modeName(mode) << " " << name << " " << r.cell;
            EXPECT_EQ(r.keys.count("metrics"), 1u)
                << modeName(mode) << " " << name << " " << r.cell;
        }
    }
}

/** @p custom's stats and bus equal the standard row @p standard's. */
void
expectSamePass(const SmokeRow &custom, const SmokeRow &standard)
{
    const RunResult &a = custom.outcome.run;
    const RunResult &b = standard.outcome.run;
    EXPECT_EQ(a.stats.osTime(), b.stats.osTime()) << custom.cell;
    EXPECT_EQ(a.stats.osMissTotal(), b.stats.osMissTotal()) << custom.cell;
    EXPECT_EQ(a.bus.totalBytes, b.bus.totalBytes) << custom.cell;
    EXPECT_EQ(a.bus.totalTransactions, b.bus.totalTransactions)
        << custom.cell;
}

TEST_F(RowSchema, CustomRowsReportTheBusOfTheirPass)
{
    // figure1's smoke row is Base/TRFD_4; figure5's is
    // BCoh_RelUp/TRFD_4.
    const SmokeRow &base = row(Mode::Full, "figure1");
    const SmokeRow &relup = row(Mode::Full, "figure5");
    ASSERT_EQ(base.cell, "Base/TRFD_4");
    ASSERT_EQ(relup.cell, "BCoh_RelUp/TRFD_4");

    for (const char *name : {"table3", "table4", "ablation_icache"})
        expectSamePass(row(Mode::Full, name), base);
    for (const char *name :
         {"ablation_update_set", "ablation_prefetch_distance"})
        expectSamePass(row(Mode::Full, name), relup);

    // The update-set ablation's own selective-run total agrees.
    const SmokeRow &updset = row(Mode::Full, "ablation_update_set");
    EXPECT_EQ(updset.outcome.extra.at("sel_total_bytes"),
              double(updset.outcome.run.bus.totalBytes));
}

} // namespace
} // namespace oscache
