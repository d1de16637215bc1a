/**
 * @file
 * Registry definitions: the evaluation grid and report of every paper
 * figure and table, ablation, extension study and diagnostic, as
 * schedulable cells plus a render.  Every cell, standard or custom,
 * simulates through the run assembly in core/runner.
 */

#include "exp/registry.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/log.hh"
#include "core/blockop/analyzer.hh"
#include "core/blockop/schemes.hh"
#include "core/hotspot/hotspot.hh"
#include "exp/hash.hh"
#include "report/experiment.hh"
#include "report/figures.hh"
#include "report/numa.hh"
#include "report/paper.hh"
#include "report/table.hh"
#include "synth/kernel_layout.hh"

namespace oscache
{

namespace
{

/** printf into an ostream; keeps the ported renders byte-faithful. */
void
appendf(std::ostream &os, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    os << buf;
}

std::string
cellId(SystemKind sys, WorkloadKind w)
{
    return std::string(toString(sys)) + "/" + toString(w);
}

/** A plain runWorkload() cell, dedupable on (workload, system, machine). */
CellSpec
stdCell(std::string id, WorkloadKind w, SystemKind sys,
        const MachineConfig &machine = MachineConfig::base())
{
    CellSpec cell;
    cell.id = std::move(id);
    cell.workload = w;
    cell.system = sys;
    cell.machine = machine;
    ContentHash h;
    h.mix(w).mix(sys);
    mixMachine(h, machine);
    cell.sharedKey = h.hex();
    return cell;
}

void
addStdGrid(Experiment &e, const SystemKind *systems, unsigned count)
{
    for (unsigned s = 0; s < count; ++s)
        for (WorkloadKind kind : allWorkloads)
            e.cells.push_back(
                stdCell(cellId(systems[s], kind), kind, systems[s]));
}

double
extraOf(const CellOutcome &outcome, const std::string &key)
{
    const auto it = outcome.extra.find(key);
    if (it == outcome.extra.end())
        panic("cell outcome lacks extra '", key, "'");
    return it->second;
}

/**
 * Forwards to a source it shares, so a cell that wraps ctx.open() can
 * keep the sources its passes read or replace part of them.
 */
class ForwardingSource : public TraceSource
{
  public:
    explicit ForwardingSource(std::shared_ptr<TraceSource> source)
        : inner(std::move(source))
    {}

    unsigned numCpus() const override { return inner->numCpus(); }
    const BlockOpTable &blockOps() const override
    {
        return inner->blockOps();
    }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return inner->updatePages();
    }
    std::unique_ptr<RecordCursor>
    cursor(CpuId cpu) override
    {
        return inner->cursor(cpu);
    }
    std::optional<std::size_t>
    knownRecords(CpuId cpu) const override
    {
        return inner->knownRecords(cpu);
    }
    const char *mode() const override { return inner->mode(); }

  private:
    std::shared_ptr<TraceSource> inner;
};

// ---------------------------------------------------------------- figures

Experiment
makeFigure1()
{
    Experiment e;
    e.name = "figure1";
    e.title = "Components of block-operation overhead on Base";
    const SystemKind systems[] = {SystemKind::Base};
    addStdGrid(e, systems, 1);
    e.smokeCell = cellId(SystemKind::Base, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        TextTable table("Figure 1: Components of block-operation overhead "
                        "(fraction of block overhead; paper ~0.30/0.30/0.10/"
                        "0.30)",
                        workloadColumns());
        std::vector<std::string> read_row, write_row, displ_row, instr_row;
        for (WorkloadKind kind : allWorkloads) {
            const SimStats &s = lk.stats(cellId(SystemKind::Base, kind));
            const double total =
                double(s.blockReadStall + s.blockWriteStall +
                       s.blockDisplStall + s.blockInstrExec);
            read_row.push_back(formatValue(s.blockReadStall / total, 2));
            write_row.push_back(formatValue(s.blockWriteStall / total, 2));
            displ_row.push_back(formatValue(s.blockDisplStall / total, 2));
            instr_row.push_back(formatValue(s.blockInstrExec / total, 2));
        }
        table.addRow("Read Stall", read_row);
        table.addRow("Write Stall", write_row);
        table.addRow("Displ. Stall", displ_row);
        table.addRow("Instr. Exec.", instr_row);
        os << table.str();

        appendf(os, "\nBars (normalized block-operation overhead):\n");
        for (WorkloadKind kind : allWorkloads) {
            const SimStats &s = lk.stats(cellId(SystemKind::Base, kind));
            const double total =
                double(s.blockReadStall + s.blockWriteStall +
                       s.blockDisplStall + s.blockInstrExec);
            appendf(os, "%-11s R[%s]\n", toString(kind),
                    bar(double(s.blockReadStall), total, 30).c_str());
            appendf(os, "%-11s W[%s]\n", "",
                    bar(double(s.blockWriteStall), total, 30).c_str());
            appendf(os, "%-11s D[%s]\n", "",
                    bar(double(s.blockDisplStall), total, 30).c_str());
            appendf(os, "%-11s I[%s]\n", "",
                    bar(double(s.blockInstrExec), total, 30).c_str());
        }
    };
    return e;
}

Experiment
makeFigure2()
{
    Experiment e;
    e.name = "figure2";
    e.title = "Normalized OS data misses under block-operation schemes";
    static const SystemKind systems[] = {
        SystemKind::Base, SystemKind::BlkPref, SystemKind::BlkBypass,
        SystemKind::BlkByPref, SystemKind::BlkDma};
    addStdGrid(e, systems, 5);
    e.smokeCell = cellId(SystemKind::BlkDma, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        const paper::Row *paper_rows[] = {nullptr, &paper::fig2BlkPref,
                                          &paper::fig2BlkBypass,
                                          &paper::fig2BlkByPref,
                                          &paper::fig2BlkDma};
        TextTable table("Figure 2: Normalized OS data misses under block-"
                        "operation schemes (measured | paper)",
                        workloadColumns());
        std::vector<double> base_misses;
        for (WorkloadKind kind : allWorkloads)
            base_misses.push_back(remainingOsMisses(
                lk.stats(cellId(SystemKind::Base, kind))));

        for (unsigned s = 0; s < 5; ++s) {
            std::vector<std::string> row;
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(systems[s], kind));
                const double norm =
                    remainingOsMisses(st) / base_misses[col];
                row.push_back(paper_rows[s]
                                  ? cellVsPaper(norm, (*paper_rows[s])[col])
                                  : formatValue(norm, 2) + " | 1.00");
                ++col;
            }
            table.addRow(toString(systems[s]), row);
        }
        os << table.str();

        appendf(os, "\nBlock-miss vs other-miss split (measured, "
                    "fraction of Base):\n");
        for (unsigned s = 0; s < 5; ++s) {
            appendf(os, "%-10s", toString(systems[s]));
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(systems[s], kind));
                const double hidden = double(st.osMissPartiallyHidden);
                // Hidden misses belong to the block component (the
                // prefetch schemes only prefetch block data here).
                const double block =
                    std::max(0.0, double(st.osMissBlock) - hidden) /
                    base_misses[col];
                const double other =
                    double(st.osMissCoherenceTotal() + st.osMissOther) /
                    base_misses[col];
                appendf(os, "  %s:%0.2f+%0.2f", toString(kind), block,
                        other);
                ++col;
            }
            appendf(os, "\n");
        }
    };
    return e;
}

Experiment
makeFigure3()
{
    Experiment e;
    e.name = "figure3";
    e.title = "Normalized OS execution time under all eight systems";
    addStdGrid(e, allSystems, std::size(allSystems));
    e.smokeCell = cellId(SystemKind::BCPref, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        const paper::Row *paper_rows[] = {
            nullptr,
            &paper::fig3BlkPref,
            &paper::fig3BlkBypass,
            &paper::fig3BlkByPref,
            &paper::fig3BlkDma,
            &paper::fig3BCohReloc,
            &paper::fig3BCohRelUp,
            &paper::fig3BCPref};
        TextTable table("Figure 3: Normalized OS execution time "
                        "(measured | paper)",
                        workloadColumns());
        std::vector<double> base_time;
        for (WorkloadKind kind : allWorkloads)
            base_time.push_back(double(
                lk.stats(cellId(SystemKind::Base, kind)).osTime()));

        double avg_speedup = 0.0;
        for (unsigned s = 0; s < std::size(allSystems); ++s) {
            std::vector<std::string> row;
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(allSystems[s], kind));
                const double norm = double(st.osTime()) / base_time[col];
                row.push_back(paper_rows[s]
                                  ? cellVsPaper(norm, (*paper_rows[s])[col])
                                  : formatValue(norm, 2) + " | 1.00");
                if (allSystems[s] == SystemKind::BCPref)
                    avg_speedup += 100.0 * (1.0 / norm - 1.0) / 4.0;
                ++col;
            }
            table.addRow(toString(allSystems[s]), row);
        }
        os << table.str();

        appendf(os, "\nAverage OS speedup of BCPref over Base: %.1f%% "
                    "(paper: %.0f%%)\n",
                avg_speedup, paper::headlineSpeedup);

        appendf(os, "\nOS-time decomposition (cycles normalized to Base "
                    "total): Exec / I-Miss / D-Write / D-Read / Pref / "
                    "Sync\n");
        for (unsigned s = 0; s < std::size(allSystems); ++s) {
            appendf(os, "%-10s", toString(allSystems[s]));
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(allSystems[s], kind));
                const double b = base_time[col];
                appendf(os, "  [%0.2f %0.2f %0.2f %0.2f %0.2f %0.2f]",
                        double(st.osExec) / b, double(st.osImiss) / b,
                        double(st.osWriteStall) / b,
                        double(st.osReadStall) / b,
                        double(st.osPrefStall) / b, double(st.osSpin) / b);
                (void)kind;
                ++col;
            }
            appendf(os, "\n");
        }
    };
    return e;
}

Experiment
makeFigure4()
{
    Experiment e;
    e.name = "figure4";
    e.title = "Normalized OS data misses under coherence optimizations";
    static const SystemKind systems[] = {SystemKind::Base, SystemKind::BlkDma,
                                         SystemKind::BCohReloc,
                                         SystemKind::BCohRelUp};
    addStdGrid(e, systems, 4);
    e.smokeCell = cellId(SystemKind::BCohReloc, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        const paper::Row *paper_rows[] = {nullptr, &paper::fig4BlkDma,
                                          &paper::fig4BCohReloc,
                                          &paper::fig4BCohRelUp};
        TextTable table("Figure 4: Normalized OS data misses under "
                        "coherence optimizations (measured | paper)",
                        workloadColumns());
        std::vector<double> base_misses;
        for (WorkloadKind kind : allWorkloads)
            base_misses.push_back(remainingOsMisses(
                lk.stats(cellId(SystemKind::Base, kind))));

        for (unsigned s = 0; s < 4; ++s) {
            std::vector<std::string> row;
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(systems[s], kind));
                const double norm =
                    remainingOsMisses(st) / base_misses[col];
                row.push_back(paper_rows[s]
                                  ? cellVsPaper(norm, (*paper_rows[s])[col])
                                  : formatValue(norm, 2) + " | 1.00");
                ++col;
            }
            table.addRow(toString(systems[s]), row);
        }
        os << table.str();

        appendf(os, "\nCoherence-miss vs other-miss split (fraction of "
                    "Base misses):\n");
        for (unsigned s = 0; s < 4; ++s) {
            appendf(os, "%-10s", toString(systems[s]));
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(systems[s], kind));
                appendf(os, "  %s:%0.2f+%0.2f", toString(kind),
                        double(st.osMissCoherenceTotal()) /
                            base_misses[col],
                        double(st.osMissBlock + st.osMissOther -
                               st.osMissPartiallyHidden) /
                            base_misses[col]);
                ++col;
            }
            appendf(os, "\n");
        }

        appendf(os, "\nBus traffic of BCoh_RelUp over BCoh_Reloc (paper: "
                    "+3-6%%):\n");
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &reloc =
                lk.at(cellId(SystemKind::BCohReloc, kind));
            const CellOutcome &relup =
                lk.at(cellId(SystemKind::BCohRelUp, kind));
            appendf(os, "  %-11s %+0.1f%% (update txns: %llu)\n",
                    toString(kind),
                    100.0 * (double(relup.run.bus.totalBytes) /
                                 double(reloc.run.bus.totalBytes) -
                             1.0),
                    (unsigned long long)relup.run.bus.updateTransactions);
        }
    };
    return e;
}

Experiment
makeFigure5()
{
    Experiment e;
    e.name = "figure5";
    e.title = "Normalized OS data misses with hot-spot prefetching";
    static const SystemKind systems[] = {SystemKind::Base, SystemKind::BlkDma,
                                         SystemKind::BCohRelUp,
                                         SystemKind::BCPref};
    addStdGrid(e, systems, 4);
    e.smokeCell = cellId(SystemKind::BCohRelUp, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        const paper::Row *paper_rows[] = {nullptr, &paper::fig2BlkDma,
                                          &paper::fig5BCohRelUp,
                                          &paper::fig5BCPref};
        TextTable table("Figure 5: Normalized OS data misses with hot-spot "
                        "prefetching (measured | paper)",
                        workloadColumns());
        std::vector<double> base_misses;
        for (WorkloadKind kind : allWorkloads)
            base_misses.push_back(remainingOsMisses(
                lk.stats(cellId(SystemKind::Base, kind))));

        for (unsigned s = 0; s < 4; ++s) {
            std::vector<std::string> row;
            unsigned col = 0;
            for (WorkloadKind kind : allWorkloads) {
                const SimStats &st = lk.stats(cellId(systems[s], kind));
                const double norm =
                    remainingOsMisses(st) / base_misses[col];
                row.push_back(paper_rows[s]
                                  ? cellVsPaper(norm, (*paper_rows[s])[col])
                                  : formatValue(norm, 2) + " | 1.00");
                ++col;
            }
            table.addRow(toString(systems[s]), row);
        }
        os << table.str();

        appendf(os, "\nHot-spot coverage of remaining OS misses in "
                    "BCoh_RelUp (paper: 29/44/22/51%%):\n");
        unsigned col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &bcpref =
                lk.at(cellId(SystemKind::BCPref, kind));
            appendf(os, "  %-11s %0.0f%% of other misses in top-12 blocks "
                        "(paper %0.0f%%)\n",
                    toString(kind), 100.0 * bcpref.run.hotspotCoverage,
                    paper::hotspotShare[col]);
            ++col;
        }

        appendf(os, "\nBus traffic of BCPref over BCoh_RelUp (paper: "
                    "<1%% difference):\n");
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &relup =
                lk.at(cellId(SystemKind::BCohRelUp, kind));
            const CellOutcome &bcpref =
                lk.at(cellId(SystemKind::BCPref, kind));
            appendf(os, "  %-11s %+0.2f%%\n", toString(kind),
                    100.0 * (double(bcpref.run.bus.totalBytes) /
                                 double(relup.run.bus.totalBytes) -
                             1.0));
        }

        double avg = 0.0;
        col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const SimStats &st = lk.stats(cellId(SystemKind::BCPref, kind));
            avg += 100.0 *
                (1.0 - remainingOsMisses(st) / base_misses[col]) / 4.0;
            (void)kind;
            ++col;
        }
        appendf(os, "\nAverage OS misses eliminated or hidden by all "
                    "optimizations: %.0f%% (paper: %.0f%%)\n",
                avg, paper::headlineMissReduction);
    };
    return e;
}

constexpr unsigned fig6SizesKb[] = {16, 32, 64};
constexpr unsigned fig7LineSizes[] = {16, 32, 64};
constexpr SystemKind sweepSystems[] = {SystemKind::Base, SystemKind::BlkDma,
                                       SystemKind::BCPref};

std::string
fig6Id(unsigned kb, SystemKind sys, WorkloadKind kind)
{
    return std::to_string(kb) + "KB/" + cellId(sys, kind);
}

Experiment
makeFigure6()
{
    Experiment e;
    e.name = "figure6";
    e.title = "Normalized OS time across primary-cache sizes";
    for (WorkloadKind kind : allWorkloads)
        for (unsigned kb : fig6SizesKb)
            for (SystemKind sys : sweepSystems) {
                MachineConfig machine = MachineConfig::base();
                machine.l1Size = kb * 1024;
                e.cells.push_back(
                    stdCell(fig6Id(kb, sys, kind), kind, sys, machine));
            }
    e.smokeCell = fig6Id(16, SystemKind::BlkDma, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        for (WorkloadKind kind : allWorkloads) {
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "%-10s %8s %8s %8s\n", "L1 size", "Base",
                    "Blk_Dma", "BCPref");
            for (unsigned kb : fig6SizesKb) {
                const double base_time = double(
                    lk.stats(fig6Id(kb, SystemKind::Base, kind)).osTime());
                appendf(os, "%6u KB ", kb);
                for (SystemKind sys : sweepSystems) {
                    const double t =
                        double(lk.stats(fig6Id(kb, sys, kind)).osTime());
                    appendf(os, " %8.3f", t / base_time);
                }
                appendf(os, "\n");
            }
            appendf(os, "\n");
        }
        appendf(os, "Expected shape: each column <= the one to its left; "
                    "all ratios < 1 except Base = 1.\n");
    };
    return e;
}

std::string
fig7Id(unsigned line, SystemKind sys, WorkloadKind kind)
{
    return "line" + std::to_string(line) + "/" + cellId(sys, kind);
}

Experiment
makeFigure7()
{
    Experiment e;
    e.name = "figure7";
    e.title = "Normalized OS time across primary-cache line sizes";
    for (WorkloadKind kind : allWorkloads)
        for (unsigned line : fig7LineSizes)
            for (SystemKind sys : sweepSystems) {
                MachineConfig machine = MachineConfig::base();
                machine.l1LineSize = line;
                machine.l2LineSize = 64;
                // A 64-byte line moves more data per transfer.
                machine.lineTransferOccupancy = 40;
                e.cells.push_back(
                    stdCell(fig7Id(line, sys, kind), kind, sys, machine));
            }
    e.smokeCell = fig7Id(64, SystemKind::BlkDma, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        for (WorkloadKind kind : allWorkloads) {
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "%-10s %8s %8s %8s\n", "L1 line", "Base",
                    "Blk_Dma", "BCPref");
            for (unsigned line : fig7LineSizes) {
                const double base_time = double(
                    lk.stats(fig7Id(line, SystemKind::Base, kind))
                        .osTime());
                appendf(os, "%6u B  ", line);
                for (SystemKind sys : sweepSystems) {
                    const double t = double(
                        lk.stats(fig7Id(line, sys, kind)).osTime());
                    appendf(os, " %8.3f", t / base_time);
                }
                appendf(os, "\n");
            }
            appendf(os, "\n");
        }
        appendf(os, "Expected shape: Blk_Dma < Base and BCPref < Blk_Dma "
                    "at every line size.\n");
    };
    return e;
}

// ----------------------------------------------------------------- tables

Experiment
makeTable1()
{
    Experiment e;
    e.name = "table1";
    e.title = "Characteristics of the workloads studied";
    const SystemKind systems[] = {SystemKind::Base};
    addStdGrid(e, systems, 1);
    e.smokeCell = cellId(SystemKind::Base, WorkloadKind::TrfdMake);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        TextTable table("Table 1: Characteristics of the workloads studied "
                        "(measured | paper)",
                        {"TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"});
        std::vector<double> user, idle, osv, stall, miss_rate, os_reads,
            os_misses;
        for (WorkloadKind kind : allWorkloads) {
            const SimStats &s = lk.stats(cellId(SystemKind::Base, kind));
            const double total = double(s.totalTime());
            user.push_back(100.0 * double(s.userTime()) / total);
            idle.push_back(100.0 * double(s.idle) / total);
            osv.push_back(100.0 * double(s.osTime()) / total);
            stall.push_back(100.0 * double(s.osDataStall()) / total);
            miss_rate.push_back(100.0 * double(s.totalMisses()) /
                                double(s.totalReads()));
            os_reads.push_back(100.0 * double(s.osReads) /
                               double(s.totalReads()));
            os_misses.push_back(100.0 * double(s.osMissTotal()) /
                                double(s.totalMisses()));
        }

        auto add = [&table](const char *label,
                            const std::vector<double> &got,
                            const paper::Row &want) {
            std::vector<std::string> cells;
            for (int i = 0; i < 4; ++i)
                cells.push_back(formatValue(got[i], 1) + " | " +
                                formatValue(want[i], 1));
            table.addRow(label, std::move(cells));
        };

        add("User Time (%)", user, paper::table1UserTime);
        add("Idle Time (%)", idle, paper::table1IdleTime);
        add("OS Time (%)", osv, paper::table1OsTime);
        table.addSeparator();
        add("OS D-Stall (% total)", stall, paper::table1OsDataStall);
        add("D-Miss Rate L1 (%)", miss_rate, paper::table1MissRate);
        add("OS D-Reads/Total (%)", os_reads, paper::table1OsReadShare);
        add("OS D-Miss/Total (%)", os_misses, paper::table1OsMissShare);
        os << table.str();
    };
    return e;
}

Experiment
makeTable2()
{
    Experiment e;
    e.name = "table2";
    e.title = "Breakdown of OS data misses on Base";
    const SystemKind systems[] = {SystemKind::Base};
    addStdGrid(e, systems, 1);
    e.smokeCell = cellId(SystemKind::Base, WorkloadKind::Arc2dFsck);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        TextTable table("Table 2: Breakdown of OS data misses, % "
                        "(measured | paper)",
                        workloadColumns());
        std::vector<std::string> block, coherence, other;
        unsigned col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const SimStats &s = lk.stats(cellId(SystemKind::Base, kind));
            const double total = double(s.osMissTotal());
            block.push_back(cellVsPaper(100.0 * s.osMissBlock / total,
                                        paper::table2BlockOp[col], 1));
            coherence.push_back(
                cellVsPaper(100.0 * s.osMissCoherenceTotal() / total,
                            paper::table2Coherence[col], 1));
            other.push_back(cellVsPaper(100.0 * s.osMissOther / total,
                                        paper::table2Other[col], 1));
            ++col;
        }
        table.addRow("Block Op. (%)", block);
        table.addRow("Coherence (%)", coherence);
        table.addRow("Other (%)", other);
        os << table.str();
    };
    return e;
}

std::string
censusId(WorkloadKind kind)
{
    return std::string("census/") + toString(kind);
}

Experiment
makeTable3()
{
    Experiment e;
    e.name = "table3";
    e.title = "Characteristics of the block operations";
    for (WorkloadKind kind : allWorkloads) {
        CellSpec cell;
        cell.id = censusId(kind);
        cell.workload = kind;
        cell.system = SystemKind::Base;
        cell.body = [kind](const RunContext &ctx) {
            const WorkloadProfile profile = WorkloadProfile::forKind(kind);
            const SimOptions opts = ctx.simOptions(profile);
            const MachineConfig machine = MachineConfig::base();
            const TraceSourceFactory open =
                ctx.open(profile, CoherenceOptions::none(), machine.numCpus);

            BlockOpCensus census;
            CellOutcome out;
            out.run = runOnce(
                *open(), machine, opts, BlockScheme::Base,
                [&census](std::unique_ptr<BlockOpExecutor> exec,
                          MemorySystem &mem, SimStats &) {
                    return std::make_unique<AnalyzingExecutor>(
                        std::move(exec), mem, census);
                });
            const SimStats &base = out.run.stats;
            const SimStats bypass =
                runOnce(*open(), machine, opts, BlockScheme::Bypass).stats;

            const double base_misses = double(base.totalMisses());
            out.extra = {
                {"src_cached_pct", census.srcCachedPct()},
                {"dst_dirty_excl_pct", census.dstDirtyExclPct()},
                {"dst_shared_pct", census.dstSharedPct()},
                {"size_page_pct", census.sizePct(census.sizePage)},
                {"size_medium_pct", census.sizePct(census.sizeMedium)},
                {"size_small_pct", census.sizePct(census.sizeSmall)},
                {"displ_inside_pct",
                 100.0 * double(base.displacementInside) / base_misses},
                {"displ_outside_pct",
                 100.0 * double(base.displacementOutside) / base_misses},
                {"reuse_inside_pct",
                 100.0 * double(bypass.reuseInside) / base_misses},
                {"reuse_outside_pct",
                 100.0 * double(bypass.reuseOutside) / base_misses},
            };
            return out;
        };
        e.cells.push_back(std::move(cell));
    }
    e.smokeCell = censusId(WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        TextTable table("Table 3: Characteristics of the block operations "
                        "(measured | paper)",
                        workloadColumns());
        std::vector<std::string> rows[10];
        unsigned col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &n = lk.at(censusId(kind));
            rows[0].push_back(cellVsPaper(extraOf(n, "src_cached_pct"),
                                          paper::table3SrcCached[col], 1));
            rows[1].push_back(
                cellVsPaper(extraOf(n, "dst_dirty_excl_pct"),
                            paper::table3DstDirtyExcl[col], 1));
            rows[2].push_back(cellVsPaper(extraOf(n, "dst_shared_pct"),
                                          paper::table3DstShared[col], 1));
            rows[3].push_back(cellVsPaper(extraOf(n, "size_page_pct"),
                                          paper::table3Page[col], 1));
            rows[4].push_back(cellVsPaper(extraOf(n, "size_medium_pct"),
                                          paper::table3Medium[col], 1));
            rows[5].push_back(cellVsPaper(extraOf(n, "size_small_pct"),
                                          paper::table3Small[col], 1));
            rows[6].push_back(cellVsPaper(extraOf(n, "displ_inside_pct"),
                                          paper::table3DisplInside[col],
                                          1));
            rows[7].push_back(cellVsPaper(extraOf(n, "displ_outside_pct"),
                                          paper::table3DisplOutside[col],
                                          1));
            rows[8].push_back(cellVsPaper(extraOf(n, "reuse_inside_pct"),
                                          paper::table3ReuseInside[col],
                                          1));
            rows[9].push_back(cellVsPaper(extraOf(n, "reuse_outside_pct"),
                                          paper::table3ReuseOutside[col],
                                          1));
            ++col;
        }
        table.addRow("Src lines cached (%)", rows[0]);
        table.addRow("Dst in L2 Dirty/Excl (%)", rows[1]);
        table.addRow("Dst in L2 Shared (%)", rows[2]);
        table.addSeparator();
        table.addRow("Blocks = 4KB (%)", rows[3]);
        table.addRow("Blocks 1-4KB (%)", rows[4]);
        table.addRow("Blocks < 1KB (%)", rows[5]);
        table.addSeparator();
        table.addRow("Inside displ/total (%)", rows[6]);
        table.addRow("Outside displ/total (%)", rows[7]);
        table.addRow("Inside reuse/total (%)", rows[8]);
        table.addRow("Outside reuse/total (%)", rows[9]);
        os << table.str();
    };
    return e;
}

std::string
deferId(WorkloadKind kind)
{
    return std::string("defer/") + toString(kind);
}

Experiment
makeTable4()
{
    Experiment e;
    e.name = "table4";
    e.title = "Deferred-copy (sub-page copy-on-write) evaluation";
    for (WorkloadKind kind : allWorkloads) {
        CellSpec cell;
        cell.id = deferId(kind);
        cell.workload = kind;
        cell.system = SystemKind::Base;
        cell.body = [kind](const RunContext &ctx) {
            const WorkloadProfile profile = WorkloadProfile::forKind(kind);
            const SimOptions opts = ctx.simOptions(profile);
            const MachineConfig machine = MachineConfig::base();
            const TraceSourceFactory open =
                ctx.open(profile, CoherenceOptions::none(), machine.numCpus);

            CellOutcome out;
            const std::unique_ptr<TraceSource> source = open();
            out.run = runOnce(*source, machine, opts, BlockScheme::Base);
            const SimStats &base = out.run.stats;
            const SimStats deferred =
                runOnce(*open(), machine, opts, BlockScheme::Base,
                        [&opts](std::unique_ptr<BlockOpExecutor> exec,
                                MemorySystem &mem, SimStats &stats) {
                            return std::make_unique<DeferredCopyExecutor>(
                                std::move(exec), mem, stats, opts);
                        })
                    .stats;

            // The Base pass read its source to the end, so the
            // source's block-operation table is complete.
            std::uint64_t copies = 0;
            std::uint64_t small_copies = 0;
            std::uint64_t readonly_small = 0;
            for (const BlockOp &op : source->blockOps()) {
                if (!op.isCopy())
                    continue;
                ++copies;
                if (op.size < 4096) {
                    ++small_copies;
                    if (op.readOnlyAfter)
                        ++readonly_small;
                }
            }

            const double saved = double(base.totalMisses()) -
                double(deferred.totalMisses());
            out.extra = {
                {"small_copies_pct",
                 copies ? 100.0 * double(small_copies) / double(copies)
                        : 0.0},
                {"readonly_small_pct",
                 small_copies ? 100.0 * double(readonly_small) /
                                    double(small_copies)
                              : 0.0},
                {"misses_eliminated_pct",
                 100.0 * saved / double(base.totalMisses())},
            };
            return out;
        };
        e.cells.push_back(std::move(cell));
    }
    e.smokeCell = deferId(WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        TextTable table("Table 4: Copies of blocks smaller than a page "
                        "(measured | paper)",
                        workloadColumns());
        std::vector<std::string> small_row, readonly_row, eliminated_row;
        unsigned col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &n = lk.at(deferId(kind));
            small_row.push_back(cellVsPaper(extraOf(n, "small_copies_pct"),
                                            paper::table4SmallCopies[col],
                                            1));
            readonly_row.push_back(
                cellVsPaper(extraOf(n, "readonly_small_pct"),
                            paper::table4ReadOnly[col], 1));
            eliminated_row.push_back(
                cellVsPaper(extraOf(n, "misses_eliminated_pct"),
                            paper::table4MissesEliminated[col], 2));
            ++col;
        }
        table.addRow("Small copies/copies (%)", small_row);
        table.addRow("Read-only small/small (%)", readonly_row);
        table.addRow("Misses elim. by defer (%)", eliminated_row);
        os << table.str();
    };
    return e;
}

Experiment
makeTable5()
{
    Experiment e;
    e.name = "table5";
    e.title = "Breakdown of OS coherence misses on Base";
    const SystemKind systems[] = {SystemKind::Base};
    addStdGrid(e, systems, 1);
    e.smokeCell = cellId(SystemKind::Base, WorkloadKind::Shell);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        TextTable table("Table 5: Breakdown of OS coherence misses, % "
                        "(measured | paper)",
                        workloadColumns());
        std::vector<std::string> rows[5];
        unsigned col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const SimStats &s = lk.stats(cellId(SystemKind::Base, kind));
            const double coh = double(s.osMissCoherenceTotal());
            auto pct = [&](DataCategory cat) {
                return coh == 0.0
                    ? 0.0
                    : 100.0 *
                        double(s.osMissCoherence[static_cast<std::size_t>(
                            cat)]) /
                        coh;
            };
            const double barrier = pct(DataCategory::Barrier);
            const double infreq = pct(DataCategory::InfreqComm);
            const double freqsh = pct(DataCategory::FreqShared);
            const double lock = pct(DataCategory::Lock);
            const double other =
                100.0 - barrier - infreq - freqsh - lock;

            rows[0].push_back(
                cellVsPaper(barrier, paper::table5Barriers[col], 1));
            rows[1].push_back(
                cellVsPaper(infreq, paper::table5InfreqComm[col], 1));
            rows[2].push_back(
                cellVsPaper(freqsh, paper::table5FreqShared[col], 1));
            rows[3].push_back(
                cellVsPaper(lock, paper::table5Locks[col], 1));
            rows[4].push_back(
                cellVsPaper(other, paper::table5Other[col], 1));
            ++col;
        }
        table.addRow("Barriers (%)", rows[0]);
        table.addRow("Infreq. Com. (%)", rows[1]);
        table.addRow("Freq. Shared (%)", rows[2]);
        table.addRow("Locks (%)", rows[3]);
        table.addRow("Other (%)", rows[4]);
        os << table.str();
    };
    return e;
}

// -------------------------------------------------------------- ablations

constexpr Cycles dmaStartups[] = {19, 100, 400};
constexpr Cycles dmaRates[] = {5, 10, 20, 40}; // CPU cycles per 8 bytes.
constexpr WorkloadKind dmaWorkloads[] = {WorkloadKind::Trfd4,
                                         WorkloadKind::Shell};

std::string
dmaId(Cycles s, Cycles r, SystemKind sys, WorkloadKind kind)
{
    return "s" + std::to_string(s) + "/r" + std::to_string(r) + "/" +
        cellId(sys, kind);
}

Experiment
makeAblationDmaCost()
{
    Experiment e;
    e.name = "ablation_dma_cost";
    e.title = "Blk_Dma sensitivity to the transfer engine's costs";
    for (WorkloadKind kind : dmaWorkloads)
        for (Cycles s : dmaStartups)
            for (Cycles r : dmaRates) {
                MachineConfig machine = MachineConfig::base();
                machine.dmaStartup = s;
                machine.dmaPer8Bytes = r;
                for (SystemKind sys :
                     {SystemKind::Base, SystemKind::BlkDma})
                    e.cells.push_back(stdCell(dmaId(s, r, sys, kind),
                                              kind, sys, machine));
            }
    e.smokeCell =
        dmaId(19, 5, SystemKind::BlkDma, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Ablation: Blk_Dma cost sweep (normalized OS time vs "
                    "Base; <1 means DMA wins)\n\n");
        for (WorkloadKind kind : dmaWorkloads) {
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "%-14s", "startup\\rate");
            for (Cycles r : dmaRates)
                appendf(os, " %6llu", (unsigned long long)r);
            appendf(os, "\n");
            for (Cycles s : dmaStartups) {
                appendf(os, "%-14llu", (unsigned long long)s);
                for (Cycles r : dmaRates) {
                    const double base = double(
                        lk.stats(dmaId(s, r, SystemKind::Base, kind))
                            .osTime());
                    const double dma = double(
                        lk.stats(dmaId(s, r, SystemKind::BlkDma, kind))
                            .osTime());
                    appendf(os, " %6.3f", dma / base);
                }
                appendf(os, "\n");
            }
            appendf(os, "\n");
        }
        appendf(os, "Expected shape: the paper's point (19, 10) wins; DMA "
                    "degrades monotonically with either cost, and high\n"
                    "startup hurts the small-block-heavy Shell workload "
                    "first.\n");
    };
    return e;
}

using Pages = std::unordered_set<Addr>;

/**
 * @p inner's records under another update-page set: how the
 * update-set ablation varies the selective-update pages of one trace.
 */
class UpdateSetSource final : public ForwardingSource
{
  public:
    UpdateSetSource(std::unique_ptr<TraceSource> source, Pages update_pages)
        : ForwardingSource(std::move(source)), pages(std::move(update_pages))
    {}

    const Pages &updatePages() const override { return pages; }

  private:
    Pages pages;
};

std::string
updsetId(WorkloadKind kind)
{
    return std::string("updset/") + toString(kind);
}

Experiment
makeAblationUpdateSet()
{
    Experiment e;
    e.name = "ablation_update_set";
    e.title = "Size of the selective-update set";
    for (WorkloadKind kind : allWorkloads) {
        CellSpec cell;
        cell.id = updsetId(kind);
        cell.workload = kind;
        cell.system = SystemKind::BCohRelUp;
        cell.body = [kind](const RunContext &ctx) {
            const WorkloadProfile profile = WorkloadProfile::forKind(kind);
            const SimOptions opts = ctx.simOptions(profile);
            const CoherenceOptions options =
                CoherenceOptions::relocUpdate();
            const KernelLayout layout(4, options);
            const TraceSourceFactory open = ctx.open(profile, options, 4);
            auto run_source = [&opts](std::unique_ptr<TraceSource> source) {
                return runOnce(*source, MachineConfig::base(), opts,
                               BlockScheme::Dma);
            };

            // Invalidate-only: same layout, no update pages.
            const RunResult inv =
                run_source(std::make_unique<UpdateSetSource>(open(), Pages{}));

            // Pure update: every shared kernel variable's page updates.
            std::unique_ptr<TraceSource> pure_source = open();
            Pages pure = pure_source->updatePages();
            auto add_page = [&pure](Addr a) {
                pure.insert(alignDown(a, Addr{4096}));
            };
            for (unsigned i = 0; i < KernelLayout::numCounters; ++i)
                for (CpuId c = 0; c < 4; ++c)
                    add_page(layout.counterAddr(i, c));
            for (unsigned i = 0; i < KernelLayout::numFreqShared; ++i)
                add_page(layout.freqSharedAddr(i));
            for (unsigned i = 0; i < KernelLayout::numLocks; ++i)
                add_page(layout.lockAddr(i));
            for (unsigned i = 0; i < KernelLayout::numBarriers; ++i)
                add_page(layout.barrierAddr(i));
            for (unsigned i = 0; i < KernelLayout::numRunQueues; ++i)
                add_page(layout.runQueue(i));
            for (unsigned i = 0; i < KernelLayout::numFreePages; ++i)
                add_page(layout.freePageNode(i));
            const RunResult pur = run_source(std::make_unique<UpdateSetSource>(
                std::move(pure_source), std::move(pure)));

            // Selective set (the paper's 384-byte core).
            CellOutcome out;
            out.run = run_source(open());
            const RunResult &sel = out.run;
            out.extra = {
                {"inv_misses", remainingOsMisses(inv.stats)},
                {"sel_misses", remainingOsMisses(sel.stats)},
                {"pure_misses", remainingOsMisses(pur.stats)},
                {"sel_update_bytes", double(sel.bus.updateBytes)},
                {"pure_update_bytes", double(pur.bus.updateBytes)},
                {"inv_total_bytes", double(inv.bus.totalBytes)},
                {"sel_total_bytes", double(sel.bus.totalBytes)},
                {"pure_total_bytes", double(pur.bus.totalBytes)},
            };
            return out;
        };
        e.cells.push_back(std::move(cell));
    }
    e.smokeCell = updsetId(WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Ablation: update-set size (Blk_Dma block scheme "
                    "throughout)\n\n");
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &n = lk.at(updsetId(kind));
            const double inv_misses = extraOf(n, "inv_misses");
            const double sel_misses = extraOf(n, "sel_misses");
            const double pure_misses = extraOf(n, "pure_misses");
            const double sel_update = extraOf(n, "sel_update_bytes");
            const double pure_update = extraOf(n, "pure_update_bytes");
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "  misses: invalidate %.0f | selective %.0f | "
                        "pure %.0f\n",
                    inv_misses, sel_misses, pure_misses);
            appendf(os, "  selective misses vs pure: %+.1f%% (paper: "
                        "+1-3%%)\n",
                    100.0 * (sel_misses / pure_misses - 1.0));
            appendf(os, "  update traffic saved by selective: %.0f%% "
                        "(paper: 31-52%%)\n",
                    pure_update == 0.0
                        ? 0.0
                        : 100.0 * (1.0 - sel_update / pure_update));
            appendf(os, "  total bus bytes: inv %llu | sel %llu | pure "
                        "%llu\n\n",
                    (unsigned long long)extraOf(n, "inv_total_bytes"),
                    (unsigned long long)extraOf(n, "sel_total_bytes"),
                    (unsigned long long)extraOf(n, "pure_total_bytes"));
        }
    };
    return e;
}

constexpr unsigned prefetchLookaheads[] = {1, 4, 12, 32, 96};
constexpr WorkloadKind prefetchWorkloads[] = {WorkloadKind::Trfd4,
                                              WorkloadKind::Shell};

std::string
lookaheadId(WorkloadKind kind)
{
    return std::string("lookahead/") + toString(kind);
}

Experiment
makeAblationPrefetchDistance()
{
    Experiment e;
    e.name = "ablation_prefetch_distance";
    e.title = "Hot-spot prefetch lookahead sweep";
    for (WorkloadKind kind : prefetchWorkloads) {
        CellSpec cell;
        cell.id = lookaheadId(kind);
        cell.workload = kind;
        cell.system = SystemKind::BCPref;
        cell.body = [kind](const RunContext &ctx) {
            const WorkloadProfile profile = WorkloadProfile::forKind(kind);
            const SimOptions opts = ctx.simOptions(profile);
            const TraceSourceFactory open =
                ctx.open(profile, CoherenceOptions::relocUpdate(), 4);

            CellOutcome out;
            out.run = runOnce(*open(), MachineConfig::base(), opts,
                              BlockScheme::Dma);
            const SimStats &base = out.run.stats;
            const HotspotPlan top = selectHotspots(base, paperHotspotCount);

            out.extra["base_remaining"] = remainingOsMisses(base);
            out.extra["base_stall"] =
                double(base.osReadStall + base.osPrefStall);
            for (unsigned lookahead : prefetchLookaheads) {
                HotspotPlan plan = top;
                plan.lookahead = lookahead;
                PrefetchStreamSource rewritten(open(), plan);
                const SimStats s = runOnce(rewritten, MachineConfig::base(),
                                           opts, BlockScheme::Dma)
                                       .stats;
                const std::string prefix =
                    "la" + std::to_string(lookahead) + "_";
                out.extra[prefix + "remaining"] = remainingOsMisses(s);
                out.extra[prefix + "hidden"] =
                    double(s.osMissPartiallyHidden);
                out.extra[prefix + "stall"] =
                    double(s.osReadStall + s.osPrefStall);
            }
            return out;
        };
        e.cells.push_back(std::move(cell));
    }
    e.smokeCell = lookaheadId(WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Ablation: hot-spot prefetch lookahead (records ahead "
                    "of the consuming read)\n\n");
        for (WorkloadKind kind : prefetchWorkloads) {
            const CellOutcome &n = lk.at(lookaheadId(kind));
            appendf(os, "==== %s ====  (base remaining OS misses: "
                        "%.0f)\n",
                    toString(kind), extraOf(n, "base_remaining"));
            const double base_stall = extraOf(n, "base_stall");
            appendf(os, "%-10s %12s %12s %12s %10s\n", "lookahead",
                    "remaining", "part-hidden", "read+pref", "stall/base");
            for (unsigned lookahead : prefetchLookaheads) {
                const std::string prefix =
                    "la" + std::to_string(lookahead) + "_";
                const double stall = extraOf(n, prefix + "stall");
                appendf(os, "%-10u %12.0f %12llu %12.0f %9.3f\n",
                        lookahead, extraOf(n, prefix + "remaining"),
                        (unsigned long long)extraOf(n, prefix + "hidden"),
                        stall, stall / base_stall);
            }
            appendf(os, "\n");
        }
        appendf(os,
                "Expected shape: the stall ratio falls as the lookahead "
                "grows toward the memory latency, then climbs again as\n"
                "too-early prefetches are evicted before use — the "
                "operand-availability bound the paper describes is also\n"
                "close to the sweet spot.\n");
    };
    return e;
}

constexpr std::pair<unsigned, unsigned> wbDepths[] = {
    {2, 4}, {4, 8}, {8, 16}, {16, 32}};
constexpr WorkloadKind wbWorkloads[] = {WorkloadKind::Trfd4,
                                        WorkloadKind::Arc2dFsck};

std::string
wbId(unsigned d1, unsigned d2, SystemKind sys, WorkloadKind kind)
{
    return "wb" + std::to_string(d1) + "-" + std::to_string(d2) + "/" +
        cellId(sys, kind);
}

Experiment
makeAblationWriteBuffer()
{
    Experiment e;
    e.name = "ablation_write_buffer";
    e.title = "Write-buffer depth vs the DMA engine";
    for (WorkloadKind kind : wbWorkloads)
        for (const auto &[d1, d2] : wbDepths) {
            MachineConfig machine = MachineConfig::base();
            machine.l1WriteBufferDepth = d1;
            machine.l2WriteBufferDepth = d2;
            for (SystemKind sys : {SystemKind::Base, SystemKind::BlkDma})
                e.cells.push_back(
                    stdCell(wbId(d1, d2, sys, kind), kind, sys, machine));
        }
    e.smokeCell = wbId(2, 4, SystemKind::Base, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Ablation: write-buffer depth (Base system; OS write "
                    "stall and OS time vs the paper's 4/8-deep "
                    "buffers)\n\n");
        for (WorkloadKind kind : wbWorkloads) {
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "%-12s %14s %12s %12s\n", "l1wb/l2wb",
                    "os wr stall", "os time", "dma os time");
            double ref_time = 0.0;
            for (const auto &[d1, d2] : wbDepths) {
                const SimStats &base =
                    lk.stats(wbId(d1, d2, SystemKind::Base, kind));
                const SimStats &dma =
                    lk.stats(wbId(d1, d2, SystemKind::BlkDma, kind));
                if (ref_time == 0.0)
                    ref_time = double(base.osTime());
                appendf(os, "%3u/%-8u %14llu %12.3f %12.3f\n", d1, d2,
                        (unsigned long long)base.osWriteStall,
                        double(base.osTime()) / ref_time,
                        double(dma.osTime()) / ref_time);
            }
            appendf(os, "\n");
        }
        appendf(os,
                "Expected shape: deeper buffers cut the write stall "
                "with diminishing returns, but Blk_Dma still beats the\n"
                "deepest configuration because it also removes the read "
                "misses and the loop instructions.\n");
    };
    return e;
}

std::string
icacheId(bool detailed, WorkloadKind kind)
{
    return std::string(detailed ? "icache-det/" : "icache-stat/") +
        toString(kind);
}

Experiment
makeAblationICache()
{
    Experiment e;
    e.name = "ablation_icache";
    e.title = "Statistical vs detailed instruction-cache model";
    for (WorkloadKind kind : allWorkloads)
        for (int detailed = 0; detailed < 2; ++detailed) {
            CellSpec cell;
            cell.id = icacheId(detailed != 0, kind);
            cell.workload = kind;
            cell.system = SystemKind::Base;
            cell.body = [kind, detailed](const RunContext &ctx) {
                const WorkloadProfile profile = WorkloadProfile::forKind(kind);
                SimOptions opts = ctx.simOptions(profile);
                opts.modelICache = detailed != 0;
                const TraceSourceFactory open =
                    ctx.open(profile, CoherenceOptions::none(), 4);

                CellOutcome out;
                out.run = runOnce(*open(), MachineConfig::base(), opts,
                                  BlockScheme::Base);
                const SimStats &base = out.run.stats;
                const SimStats dma = runOnce(*open(), MachineConfig::base(),
                                             opts, BlockScheme::Dma)
                                         .stats;
                out.extra = {
                    {"imiss_pct",
                     100.0 * double(base.osImiss) / double(base.osTime())},
                    {"dma_ratio",
                     double(dma.osTime()) / double(base.osTime())},
                    {"os_misses", double(base.osMissTotal())},
                };
                return out;
            };
            e.cells.push_back(std::move(cell));
        }
    e.smokeCell = icacheId(false, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Ablation: statistical vs detailed instruction-cache "
                    "model\n\n");
        appendf(os, "%-12s %28s %28s\n", "", "statistical I-side",
                "detailed 16KB I-cache");
        appendf(os, "%-12s %9s %9s %8s %9s %9s %8s\n", "workload",
                "imiss%", "Dma/Base", "osMiss", "imiss%", "Dma/Base",
                "osMiss");
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &stat = lk.at(icacheId(false, kind));
            const CellOutcome &det = lk.at(icacheId(true, kind));
            appendf(os, "%-12s %8.1f%% %9.3f %8llu %8.1f%% %9.3f %8llu\n",
                    toString(kind), extraOf(stat, "imiss_pct"),
                    extraOf(stat, "dma_ratio"),
                    (unsigned long long)extraOf(stat, "os_misses"),
                    extraOf(det, "imiss_pct"), extraOf(det, "dma_ratio"),
                    (unsigned long long)extraOf(det, "os_misses"));
        }
        appendf(os,
                "\nExpected shape: the data-side miss counts barely "
                "move (the L2 code-capacity effect is present in both\n"
                "models), the I-miss share shifts, and Blk_Dma keeps "
                "beating Base under either model.\n");
    };
    return e;
}

constexpr std::uint32_t assocWays[] = {1, 2, 4};

std::string
assocId(std::uint32_t ways, SystemKind sys, WorkloadKind kind)
{
    return "ways" + std::to_string(ways) + "/" + cellId(sys, kind);
}

Experiment
makeAblationAssociativity()
{
    Experiment e;
    e.name = "ablation_associativity";
    e.title = "Primary-cache associativity sweep";
    for (WorkloadKind kind : allWorkloads)
        for (std::uint32_t ways : assocWays) {
            MachineConfig machine = MachineConfig::base();
            machine.l1Ways = ways;
            for (SystemKind sys : {SystemKind::Base, SystemKind::BCPref})
                e.cells.push_back(
                    stdCell(assocId(ways, sys, kind), kind, sys, machine));
        }
    e.smokeCell = assocId(2, SystemKind::Base, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Ablation: primary-cache associativity (LRU)\n\n");
        for (WorkloadKind kind : allWorkloads) {
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "%-6s %12s %12s %12s %12s\n", "ways", "os misses",
                    "other", "os time", "bcpref time");
            double ref = 0.0;
            for (std::uint32_t ways : assocWays) {
                const SimStats &base =
                    lk.stats(assocId(ways, SystemKind::Base, kind));
                const SimStats &best =
                    lk.stats(assocId(ways, SystemKind::BCPref, kind));
                if (ref == 0.0)
                    ref = double(base.osTime());
                appendf(os, "%-6u %12llu %12llu %12.3f %12.3f\n", ways,
                        (unsigned long long)base.osMissTotal(),
                        (unsigned long long)base.osMissOther,
                        double(base.osTime()) / ref,
                        double(best.osTime()) / ref);
            }
            appendf(os, "\n");
        }
        appendf(os,
                "Expected shape: associativity trims the conflict "
                "(other) misses but leaves block operations and\n"
                "coherence untouched, so the optimization stack keeps "
                "its margin at every associativity.\n");
    };
    return e;
}

// ------------------------------------------------------------- numa suite

/** (sockets, cpus-per-socket) geometries of the NUMA sweep. */
constexpr std::pair<unsigned, unsigned> numaGeometries[] = {
    {2, 4}, {2, 8}, {4, 8}};

/** Paper verdict systems: baseline, the loser, the winner, the stack. */
constexpr SystemKind numaSystems[] = {
    SystemKind::Base, SystemKind::BlkBypass, SystemKind::BlkDma,
    SystemKind::BCPref};

std::string
numaId(unsigned sockets, unsigned per, SystemKind sys, WorkloadKind kind)
{
    return std::to_string(sockets) + "x" + std::to_string(per) + "/" +
        cellId(sys, kind);
}

Experiment
makeNumaServer()
{
    Experiment e;
    e.name = "numa_server";
    e.title = "Server-class mixes on the two-level NUMA machine";
    for (const auto &[sockets, per] : numaGeometries) {
        const MachineConfig machine = MachineConfig::numa(sockets, per);
        for (SystemKind sys : numaSystems)
            for (WorkloadKind kind : serverWorkloads)
                e.cells.push_back(stdCell(
                    numaId(sockets, per, sys, kind), kind, sys, machine));
    }
    e.smokeCell =
        numaId(2, 4, SystemKind::Base, WorkloadKind::SyscallStorm);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "NUMA suite: server-class mixes, two-level "
                    "interconnect (sockets x cpus/socket)\n\n");
        for (const auto &[sockets, per] : numaGeometries) {
            appendf(os, "==== %ux%u ====\n", sockets, per);
            appendf(os, "%-15s %10s %10s %10s %10s %8s\n", "workload",
                    "base", "Bypass/B", "Dma/B", "BCPref/B", "miss-red");
            for (WorkloadKind kind : serverWorkloads) {
                const SimStats &base = lk.stats(
                    numaId(sockets, per, SystemKind::Base, kind));
                const SimStats &byp = lk.stats(
                    numaId(sockets, per, SystemKind::BlkBypass, kind));
                const SimStats &dma = lk.stats(
                    numaId(sockets, per, SystemKind::BlkDma, kind));
                const SimStats &best = lk.stats(
                    numaId(sockets, per, SystemKind::BCPref, kind));
                const double base_time = double(base.osTime());
                appendf(os, "%-15s %10llu %10.3f %10.3f %10.3f %7.0f%%\n",
                        toString(kind),
                        (unsigned long long)base.osTime(),
                        double(byp.osTime()) / base_time,
                        double(dma.osTime()) / base_time,
                        double(best.osTime()) / base_time,
                        100.0 *
                            (1.0 - double(best.osMissTotal()) /
                                       double(base.osMissTotal())));
            }
            appendf(os, "\n");

            // The NUMA table proper: interconnect behaviour of the
            // Base system at this geometry.
            std::vector<NumaColumn> columns;
            std::vector<const CellOutcome *> rows;
            for (WorkloadKind kind : serverWorkloads)
                rows.push_back(&lk.at(
                    numaId(sockets, per, SystemKind::Base, kind)));
            for (std::size_t w = 0; w < rows.size(); ++w) {
                NumaColumn c;
                c.label = toString(serverWorkloads[w]);
                c.stats = &rows[w]->run.stats;
                c.bus = &rows[w]->run.bus;
                columns.push_back(c);
            }
            renderNumaTable(os,
                            "NUMA split on Base, " +
                                std::to_string(sockets) + "x" +
                                std::to_string(per),
                            columns);
            appendf(os, "\n");
        }
        appendf(os,
                "Expected shape: Blk_Dma still wins and Blk_Bypass "
                "still loses at every geometry; the full stack keeps\n"
                "a large miss reduction, while the remote-read share "
                "and link occupancy grow with the socket count.\n");
    };
    return e;
}

// -------------------------------------------------------- extensions

/**
 * Cells of the extension studies that vary the workload itself: the
 * calibrated profile for @p kind, cut to 24 quanta (8-cpu runs and
 * seed sweeps stay affordable) and, when @p seed is non-zero,
 * regenerated from another seed, on @p cpus processors.  The Base
 * pass is the cell's run; the BCPref pass rides along as extras.
 */
CellSpec
variantCell(std::string id, WorkloadKind kind, unsigned cpus,
            std::uint64_t seed)
{
    CellSpec cell;
    cell.id = std::move(id);
    cell.workload = kind;
    cell.system = SystemKind::Base;
    cell.machine.numCpus = cpus;
    cell.body = [kind, machine = cell.machine,
                 seed](const RunContext &ctx) {
        WorkloadProfile profile = WorkloadProfile::forKind(kind);
        profile.quanta = 24;
        if (seed != 0)
            profile.seed = seed;
        const auto run = [&](SystemKind sys) {
            const SystemSetup setup = SystemSetup::forKind(sys);
            return runOnSource(
                ctx.open(profile, setup.coherence, machine.numCpus), machine,
                ctx.simOptions(profile), setup);
        };
        CellOutcome out;
        out.run = run(SystemKind::Base);
        const RunResult best = run(SystemKind::BCPref);
        out.extra = {
            {"bcpref_os_time", double(best.stats.osTime())},
            {"bcpref_remaining", remainingOsMisses(best.stats)},
        };
        return out;
    };
    return cell;
}

constexpr unsigned scalingCpus[] = {2, 4, 8};
constexpr WorkloadKind scalingWorkloads[] = {WorkloadKind::Trfd4,
                                             WorkloadKind::Shell};

std::string
scalingId(unsigned cpus, WorkloadKind kind)
{
    return "cpus" + std::to_string(cpus) + "/" + toString(kind);
}

Experiment
makeExtensionCpuScaling()
{
    Experiment e;
    e.name = "extension_cpu_scaling";
    e.title = "Processor-count scaling of the full optimization stack";
    for (WorkloadKind kind : scalingWorkloads)
        for (unsigned cpus : scalingCpus)
            e.cells.push_back(
                variantCell(scalingId(cpus, kind), kind, cpus, 0));
    e.smokeCell = scalingId(2, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Extension: processor-count scaling of the full "
                    "optimization stack\n\n");
        for (WorkloadKind kind : scalingWorkloads) {
            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "%-6s %12s %12s %10s %12s\n", "cpus", "base os",
                    "bcpref os", "speedup", "bus busy %");
            for (unsigned cpus : scalingCpus) {
                const CellOutcome &n = lk.at(scalingId(cpus, kind));
                const RunResult &base = n.run;
                const double best_os = extraOf(n, "bcpref_os_time");
                const double busy = 100.0 * double(base.bus.busyCycles) /
                    (double(base.stats.totalTime()) / cpus);
                appendf(os, "%-6u %12llu %12llu %9.1f%% %11.1f%%\n", cpus,
                        (unsigned long long)base.stats.osTime(),
                        (unsigned long long)best_os,
                        100.0 * (double(base.stats.osTime()) / best_os -
                                 1.0),
                        busy);
            }
            appendf(os, "\n");
        }
        appendf(os, "Expected shape: bus utilization climbs with "
                    "processor count and the optimization stack's "
                    "speedup grows with\nit — the paper's techniques "
                    "matter more as the shared bus becomes the "
                    "bottleneck.\n");
    };
    return e;
}

std::string
protocolId(CoherenceProtocol protocol, WorkloadKind kind)
{
    return std::string(protocol == CoherenceProtocol::Msi ? "msi/"
                                                          : "illinois/") +
        toString(kind);
}

Experiment
makeExtensionProtocol()
{
    Experiment e;
    e.name = "extension_protocol";
    e.title = "Illinois (MESI) vs MSI invalidation protocol on Base";
    for (WorkloadKind kind : allWorkloads)
        for (CoherenceProtocol protocol :
             {CoherenceProtocol::Illinois, CoherenceProtocol::Msi}) {
            MachineConfig machine = MachineConfig::base();
            machine.protocol = protocol;
            e.cells.push_back(stdCell(protocolId(protocol, kind), kind,
                                      SystemKind::Base, machine));
        }
    e.smokeCell = protocolId(CoherenceProtocol::Msi, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Extension: Illinois (MESI) vs MSI invalidation "
                    "protocol, Base system\n\n");
        appendf(os, "%-12s %14s %14s %12s %12s\n", "workload",
                "inval txns", "inval txns", "os time", "os time");
        appendf(os, "%-12s %14s %14s %12s %12s\n", "", "(Illinois)",
                "(MSI)", "(Illinois)", "(MSI ratio)");
        for (WorkloadKind kind : allWorkloads) {
            const RunResult &a =
                lk.at(protocolId(CoherenceProtocol::Illinois, kind)).run;
            const RunResult &b =
                lk.at(protocolId(CoherenceProtocol::Msi, kind)).run;
            appendf(os, "%-12s %14llu %14llu %12llu %12.3f\n",
                    toString(kind),
                    (unsigned long long)a.bus.invalidateTransactions,
                    (unsigned long long)b.bus.invalidateTransactions,
                    (unsigned long long)a.stats.osTime(),
                    double(b.stats.osTime()) / double(a.stats.osTime()));
        }
        appendf(os, "\nExpected shape: MSI multiplies invalidation "
                    "transactions (every private first write upgrades); "
                    "the time cost\nstays small while the bus has "
                    "headroom, but the wasted address-bus slots are why "
                    "the paper's machine\nclass standardized on "
                    "Illinois.\n");
    };
    return e;
}

constexpr unsigned hotspotCounts[] = {4, 12, 24, 48, 96};

std::string
hotspotsId(WorkloadKind kind)
{
    return std::string("hotspots/") + toString(kind);
}

Experiment
makeExtensionMorePrefetches()
{
    Experiment e;
    e.name = "extension_more_prefetches";
    e.title = "Hot-spot count grown past the paper's 12";
    for (WorkloadKind kind : prefetchWorkloads) {
        CellSpec cell;
        cell.id = hotspotsId(kind);
        cell.workload = kind;
        cell.system = SystemKind::BCohRelUp;
        cell.body = [kind](const RunContext &ctx) {
            const WorkloadProfile profile = WorkloadProfile::forKind(kind);
            const SimOptions opts = ctx.simOptions(profile);
            const TraceSourceFactory open =
                ctx.open(profile, CoherenceOptions::relocUpdate(), 4);

            CellOutcome out;
            out.run = runOnce(*open(), MachineConfig::base(), opts,
                              BlockScheme::Dma);
            const SimStats &base = out.run.stats;
            out.extra["base_remaining"] = remainingOsMisses(base);
            for (unsigned count : hotspotCounts) {
                const HotspotPlan plan = selectHotspots(base, count);
                PrefetchStreamSource rewritten(open(), plan);
                const SimStats s = runOnce(rewritten, MachineConfig::base(),
                                           opts, BlockScheme::Dma)
                                       .stats;
                const double prefetches =
                    double(rewritten.insertedPrefetches());
                const std::string prefix =
                    "top" + std::to_string(count) + "_";
                out.extra[prefix + "coverage"] = hotspotCoverage(base, plan);
                out.extra[prefix + "remaining"] = remainingOsMisses(s);
                out.extra[prefix + "prefetches"] = prefetches;
                out.extra[prefix + "overhead_pct"] =
                    100.0 * prefetches / double(s.osInstrs);
            }
            return out;
        };
        e.cells.push_back(std::move(cell));
    }
    e.smokeCell = hotspotsId(WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Extension: growing the hot-spot count past the "
                    "paper's 12\n\n");
        for (WorkloadKind kind : prefetchWorkloads) {
            const CellOutcome &n = lk.at(hotspotsId(kind));
            appendf(os, "==== %s ====  (BCoh_RelUp remaining misses: "
                        "%.0f)\n",
                    toString(kind), extraOf(n, "base_remaining"));
            appendf(os, "%-10s %10s %12s %12s %14s\n", "hotspots",
                    "coverage", "remaining", "prefetches", "instr overhead");
            for (unsigned count : hotspotCounts) {
                const std::string prefix =
                    "top" + std::to_string(count) + "_";
                appendf(os, "%-10u %9.0f%% %12.0f %12llu %13.2f%%\n", count,
                        100.0 * extraOf(n, prefix + "coverage"),
                        extraOf(n, prefix + "remaining"),
                        (unsigned long long)extraOf(n, prefix + "prefetches"),
                        extraOf(n, prefix + "overhead_pct"));
            }
            appendf(os, "\n");
        }
        appendf(os, "Expected shape: coverage and miss reduction flatten "
                    "quickly past ~12-24 spots while the prefetch\n"
                    "instruction overhead keeps growing — the paper's "
                    "\"further optimizations are likely to have a low\n"
                    "impact\" in one table.\n");
    };
    return e;
}

constexpr std::uint64_t robustnessSeeds[] = {1, 2, 3, 4, 5};

std::string
seedId(std::uint64_t seed, WorkloadKind kind)
{
    return "seed" + std::to_string(seed) + "/" + toString(kind);
}

Experiment
makeRobustnessSeeds()
{
    Experiment e;
    e.name = "robustness_seeds";
    e.title = "BCPref/Base ratios across five workload seeds";
    for (WorkloadKind kind : allWorkloads)
        for (std::uint64_t seed : robustnessSeeds)
            e.cells.push_back(variantCell(seedId(seed, kind), kind, 4, seed));
    e.smokeCell = seedId(1, WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        appendf(os, "Robustness: BCPref/Base ratios across five seeds\n\n");
        appendf(os, "%-12s %28s %28s\n", "workload", "OS time ratio",
                "remaining-miss ratio");
        appendf(os, "%-12s %9s %9s %8s %9s %9s %8s\n", "", "min", "max",
                "spread", "min", "max", "spread");
        for (WorkloadKind kind : allWorkloads) {
            double tmin = 1e9, tmax = 0, mmin = 1e9, mmax = 0;
            for (std::uint64_t seed : robustnessSeeds) {
                const CellOutcome &n = lk.at(seedId(seed, kind));
                const SimStats &base = n.run.stats;
                const double t = extraOf(n, "bcpref_os_time") /
                    double(base.osTime());
                const double m = extraOf(n, "bcpref_remaining") /
                    remainingOsMisses(base);
                tmin = std::min(tmin, t);
                tmax = std::max(tmax, t);
                mmin = std::min(mmin, m);
                mmax = std::max(mmax, m);
            }
            appendf(os, "%-12s %9.3f %9.3f %7.3f %9.3f %9.3f %7.3f\n",
                    toString(kind), tmin, tmax, tmax - tmin, mmin, mmax,
                    mmax - mmin);
        }
        appendf(os, "\nExpected shape: narrow spreads — the optimization "
                    "effects dwarf seed-to-seed noise.\n");
    };
    return e;
}

// ------------------------------------------------------------ diagnostics

std::string
calibrateId(WorkloadKind kind)
{
    return std::string("calibrate/") + toString(kind);
}

/** The six basic blocks with the most misses, as "bbID:count ". */
std::string
topBlocks(const std::unordered_map<BasicBlockId, std::uint64_t> &misses)
{
    std::vector<std::pair<std::uint64_t, BasicBlockId>> v;
    for (const auto &[bb, n] : misses)
        v.emplace_back(n, bb);
    std::sort(v.rbegin(), v.rend());
    std::string out;
    for (std::size_t i = 0; i < v.size() && i < 6; ++i)
        out += "bb" + std::to_string(v[i].second) + ":" +
            std::to_string(v[i].first) + " ";
    return out;
}

/** Size classes of the block-operation census: <1K, 1-4K, 4K. */
constexpr const char *sizeClasses[] = {"small", "medium", "page"};

Experiment
makeCalibrate()
{
    Experiment e;
    e.name = "calibrate";
    e.title = "Per-workload cycle and miss decomposition on Base";
    for (WorkloadKind kind : allWorkloads) {
        CellSpec cell;
        cell.id = calibrateId(kind);
        cell.workload = kind;
        cell.system = SystemKind::Base;
        cell.body = [kind](const RunContext &ctx) {
            const MachineConfig machine = MachineConfig::base();
            const TraceSourceFactory open =
                ctx.open(WorkloadProfile::forKind(kind),
                         CoherenceOptions::none(), machine.numCpus);
            // The run reads every cursor of every source it opens to
            // the end, sampled or not, so the last one's block-op
            // table is complete afterwards.
            std::shared_ptr<TraceSource> last;
            CellOutcome out;
            out.run = runWorkload(
                [&]() -> std::unique_ptr<TraceSource> {
                    last = open();
                    return std::make_unique<ForwardingSource>(last);
                },
                kind, SystemSetup::forKind(SystemKind::Base), machine, ctx);
            // Block-operation census of the same trace.
            for (const char *op_kind : {"copies_", "zeros_"})
                for (const char *size : sizeClasses)
                    out.extra[std::string(op_kind) + size] = 0;
            for (const BlockOp &op : last->blockOps()) {
                const int cls =
                    op.size < 1024 ? 0 : (op.size < 4096 ? 1 : 2);
                out.extra[std::string(op.isCopy() ? "copies_" : "zeros_") +
                          sizeClasses[cls]] += 1;
            }
            return out;
        };
        e.cells.push_back(std::move(cell));
    }
    e.smokeCell = calibrateId(WorkloadKind::Trfd4);
    e.render = [](const CellLookup &lk, std::ostream &os) {
        for (WorkloadKind kind : allWorkloads) {
            const CellOutcome &n = lk.at(calibrateId(kind));
            const SimStats &s = n.run.stats;
            const double total = double(s.totalTime());

            appendf(os, "==== %s ====\n", toString(kind));
            appendf(os, "cycles: user exec %5.1f%%  imiss %4.1f%%  rd "
                        "%4.1f%%  wr %4.1f%%  pref %4.1f%%\n",
                    100.0 * s.userExec / total, 100.0 * s.userImiss / total,
                    100.0 * s.userReadStall / total,
                    100.0 * s.userWriteStall / total,
                    100.0 * s.userPrefStall / total);
            appendf(os, "        os   exec %5.1f%%  imiss %4.1f%%  rd "
                        "%4.1f%%  wr %4.1f%%  pref %4.1f%%  spin %4.1f%%  "
                        "idle %4.1f%%\n",
                    100.0 * s.osExec / total, 100.0 * s.osImiss / total,
                    100.0 * s.osReadStall / total,
                    100.0 * s.osWriteStall / total,
                    100.0 * s.osPrefStall / total, 100.0 * s.osSpin / total,
                    100.0 * s.idle / total);
            appendf(os, "reads:  user %llu os %llu (os %4.1f%%)\n",
                    (unsigned long long)s.userReads,
                    (unsigned long long)s.osReads,
                    100.0 * s.osReads / double(s.totalReads()));
            const double osm = double(s.osMissTotal());
            appendf(os, "misses: user %llu os %llu (os %4.1f%%)  rate "
                        "%4.2f%%\n",
                    (unsigned long long)s.userMisses,
                    (unsigned long long)s.osMissTotal(),
                    100.0 * osm / double(s.totalMisses()),
                    100.0 * s.totalMisses() / double(s.totalReads()));
            const double coh = double(s.osMissCoherenceTotal());
            appendf(os, "os miss: block %4.1f%%  coh %4.1f%%  other "
                        "%4.1f%%\n",
                    100.0 * s.osMissBlock / osm, 100.0 * coh / osm,
                    100.0 * s.osMissOther / osm);
            if (coh > 0) {
                auto cohcat = [&](DataCategory c) {
                    return 100.0 *
                        s.osMissCoherence[static_cast<std::size_t>(c)] /
                        coh;
                };
                const double named = cohcat(DataCategory::Barrier) +
                    cohcat(DataCategory::InfreqComm) +
                    cohcat(DataCategory::FreqShared) +
                    cohcat(DataCategory::Lock);
                appendf(os, "coh:    barrier %4.1f%%  infreq %4.1f%%  "
                            "freqsh %4.1f%%  lock %4.1f%%  other %4.1f%%\n",
                        cohcat(DataCategory::Barrier),
                        cohcat(DataCategory::InfreqComm),
                        cohcat(DataCategory::FreqShared),
                        cohcat(DataCategory::Lock), 100.0 - named);
            }
            appendf(os, "blk by size: <1K %llu  1-4K %llu  4K %llu\n",
                    (unsigned long long)s.osMissBlockBySize[0],
                    (unsigned long long)s.osMissBlockBySize[1],
                    (unsigned long long)s.osMissBlockBySize[2]);
            appendf(os, "displ:  inside %llu outside %llu (of %llu total "
                        "misses)\n",
                    (unsigned long long)s.displacementInside,
                    (unsigned long long)s.displacementOutside,
                    (unsigned long long)s.totalMisses());
            appendf(os, "bus:    busy %llu cyc, %llu txns, %llu bytes\n",
                    (unsigned long long)n.run.bus.busyCycles,
                    (unsigned long long)n.run.bus.totalTransactions,
                    (unsigned long long)n.run.bus.totalBytes);
            appendf(os, "user miss bbs: %s\n",
                    topBlocks(s.userMissByBb).c_str());
            appendf(os, "os other bbs:  %s\n",
                    topBlocks(s.osOtherMissByBb).c_str());
            const auto ops = [&n](const char *op_kind, int c) {
                return unsigned(
                    extraOf(n, std::string(op_kind) + sizeClasses[c]));
            };
            appendf(os, "ops:    copies <1K %u 1-4K %u 4K %u | zeros <1K "
                        "%u 1-4K %u 4K %u\n\n",
                    ops("copies_", 0), ops("copies_", 1), ops("copies_", 2),
                    ops("zeros_", 0), ops("zeros_", 1), ops("zeros_", 2));
        }
    };
    return e;
}

} // namespace

CellOutcome
runCell(const CellSpec &spec, const RunContext &ctx)
{
    if (spec.body)
        return spec.body(ctx);
    CellOutcome outcome;
    outcome.run = runWorkload(spec.workload, spec.system, spec.machine, ctx);
    return outcome;
}

const std::vector<Experiment> &
experimentRegistry()
{
    static const std::vector<Experiment> registry = [] {
        std::vector<Experiment> r;
        r.push_back(makeFigure1());
        r.push_back(makeFigure2());
        r.push_back(makeFigure3());
        r.push_back(makeFigure4());
        r.push_back(makeFigure5());
        r.push_back(makeFigure6());
        r.push_back(makeFigure7());
        r.push_back(makeTable1());
        r.push_back(makeTable2());
        r.push_back(makeTable3());
        r.push_back(makeTable4());
        r.push_back(makeTable5());
        r.push_back(makeAblationDmaCost());
        r.push_back(makeAblationUpdateSet());
        r.push_back(makeAblationPrefetchDistance());
        r.push_back(makeAblationWriteBuffer());
        r.push_back(makeAblationICache());
        r.push_back(makeAblationAssociativity());
        r.push_back(makeNumaServer());
        r.push_back(makeExtensionCpuScaling());
        r.push_back(makeExtensionProtocol());
        r.push_back(makeExtensionMorePrefetches());
        r.push_back(makeRobustnessSeeds());
        r.push_back(makeCalibrate());
        return r;
    }();
    return registry;
}

std::vector<const Experiment *>
resolveExperiments(const std::vector<std::string> &names)
{
    const auto &registry = experimentRegistry();
    std::vector<bool> selected(registry.size(), false);
    for (const std::string &name : names) {
        bool matched = false;
        for (std::size_t i = 0; i < registry.size(); ++i) {
            const std::string &entry = registry[i].name;
            const bool group = name == "all" ||
                (name == "figures" && entry.starts_with("figure")) ||
                (name == "tables" && entry.starts_with("table")) ||
                (name == "ablations" && entry.starts_with("ablation")) ||
                (name == "numa" && entry.starts_with("numa"));
            if (group || entry == name) {
                selected[i] = true;
                matched = true;
            }
        }
        if (!matched)
            fatal("unknown experiment '", name,
                  "' (try --list for the registry)");
    }
    std::vector<const Experiment *> out;
    for (std::size_t i = 0; i < registry.size(); ++i)
        if (selected[i])
            out.push_back(&registry[i]);
    return out;
}

} // namespace oscache
