/**
 * @file
 * trace_inspect: generate (or load) a trace and print what is inside
 * — the record mix, the kernel/user balance, the block-operation
 * census, and the busiest basic blocks.  The same first look one
 * would take at a freshly captured monitor trace.
 *
 * Saved traces are walked through streaming cursors, so inspecting
 * (or re-encoding) a file never materializes it: memory stays at
 * O(cpus x read-ahead buffer) however large the trace.
 *
 * Usage:
 *   trace_inspect                 # inspect the TRFD_4 synthetic trace
 *   trace_inspect file.trace      # inspect a saved trace (any format)
 *   trace_inspect file.trace --convert out.otb --chunked
 *                                 # stream-re-encode as chunked v3
 *   trace_inspect file.otb --convert out.trace --text
 *                                 # back to the greppable text format
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "synth/generator.hh"
#include "trace/io.hh"
#include "trace/source.hh"

using namespace oscache;

namespace
{

/**
 * Stream-re-encode @p source as chunked v3: each cursor is drained in
 * read-ahead-sized batches straight into the writer, so conversion
 * memory is one batch regardless of trace length.
 */
std::size_t
convertChunked(TraceSource &source, const std::string &out)
{
    std::ofstream os(out, std::ios::out | std::ios::binary |
                              std::ios::trunc);
    if (!os)
        fatal("cannot open '", out, "' for writing");
    ChunkedTraceWriter writer(os, source.numCpus(), source.updatePages());
    std::size_t total = 0;
    RecordStream batch;
    batch.reserve(defaultStreamReadAhead);
    for (CpuId c = 0; c < source.numCpus(); ++c) {
        auto cursor = source.cursor(c);
        while (const TraceRecord *rec = cursor->peek()) {
            batch.push_back(*rec);
            cursor->advance();
            if (batch.size() >= defaultStreamReadAhead) {
                writer.writeChunk(c, batch);
                total += batch.size();
                batch.clear();
            }
        }
        writer.writeChunk(c, batch);
        total += batch.size();
        batch.clear();
    }
    writer.finish(source.blockOps());
    if (!os)
        fatal("error writing '", out, "'");
    return total;
}

/** Rebuild a materialized Trace by draining @p source's cursors. */
Trace
materialize(TraceSource &source)
{
    Trace trace(source.numCpus());
    for (CpuId c = 0; c < source.numCpus(); ++c) {
        auto cursor = source.cursor(c);
        while (const TraceRecord *rec = cursor->peek()) {
            trace.stream(c).push_back(*rec);
            cursor->advance();
        }
    }
    for (const BlockOp &op : source.blockOps())
        trace.blockOps().add(op);
    trace.updatePages() = source.updatePages();
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input;
    std::string convert_out;
    TraceFormat convert_format = TraceFormat::Text;
    FlagReader flags(argc, argv);
    while (flags.next()) {
        const std::string &flag = flags.flag();
        if (flag == "--convert") {
            convert_out = flags.value();
        } else if (flag == "--chunked") {
            convert_format = TraceFormat::Chunked;
        } else if (flag == "--text") {
            convert_format = TraceFormat::Text;
        } else if (flag == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        } else if (!flag.empty() && flag[0] == '-') {
            fatal("unknown flag '", flag, "'");
        } else {
            input = flag;
        }
    }

    // A file input streams through bounded cursors; the demo trace is
    // synthesized in memory and wrapped in the same interface.
    std::unique_ptr<Trace> generated;
    std::unique_ptr<TraceSource> source;
    if (!input.empty()) {
        source = std::make_unique<FileTraceSource>(input);
        std::printf("source: %s, read-ahead %zu records/cpu\n",
                    source->mode(), defaultStreamReadAhead);
    } else {
        generated = std::make_unique<Trace>(generateTrace(
            WorkloadKind::Trfd4, CoherenceOptions::none()));
        source = std::make_unique<MaterializedTraceSource>(*generated);
    }

    if (!convert_out.empty()) {
        if (convert_format == TraceFormat::Chunked) {
            const std::size_t total = convertChunked(*source, convert_out);
            std::printf("streamed %zu records to %s (chunked format, "
                        "%zu-record batches)\n",
                        total, convert_out.c_str(), defaultStreamReadAhead);
            return 0;
        }
        // The text writer takes a whole Trace, so the output (not
        // the input) must materialize.
        const Trace trace = materialize(*source);
        writeTraceFile(convert_out, trace, TraceFormat::Text);
        std::printf("wrote %zu records to %s (text format)\n",
                    trace.totalRecords(), convert_out.c_str());
        return 0;
    }

    // Record mix, streamed one cursor at a time.
    std::map<RecordType, std::uint64_t> by_type;
    std::uint64_t total_records = 0;
    std::uint64_t os_refs = 0;
    std::uint64_t user_refs = 0;
    std::uint64_t os_instr = 0;
    std::uint64_t user_instr = 0;
    std::map<BasicBlockId, std::uint64_t> refs_by_bb;
    for (CpuId c = 0; c < source->numCpus(); ++c) {
        auto cursor = source->cursor(c);
        for (const TraceRecord *recp = cursor->peek(); recp != nullptr;
             cursor->advance(), recp = cursor->peek()) {
            const TraceRecord &rec = *recp;
            total_records += 1;
            by_type[rec.type] += 1;
            if (rec.isData()) {
                (rec.isOs() ? os_refs : user_refs) += 1;
                refs_by_bb[rec.bb] += 1;
            } else if (rec.type == RecordType::Exec) {
                (rec.isOs() ? os_instr : user_instr) += rec.aux;
            }
        }
    }

    std::printf("trace: %u cpus, %llu records, %zu block ops, %zu update "
                "pages\n\n",
                source->numCpus(), (unsigned long long)total_records,
                source->blockOps().size(), source->updatePages().size());

    std::printf("record mix:\n");
    for (const auto &[type, count] : by_type)
        std::printf("  %-14s %10llu\n", std::string(toString(type)).c_str(),
                    (unsigned long long)count);

    std::printf("\ninstructions: os %llu, user %llu\n",
                (unsigned long long)os_instr,
                (unsigned long long)user_instr);
    std::printf("data refs:    os %llu (%.1f%%), user %llu\n",
                (unsigned long long)os_refs,
                100.0 * double(os_refs) / double(os_refs + user_refs),
                (unsigned long long)user_refs);

    // Block-operation census.
    std::uint64_t copies = 0;
    std::uint64_t zeros = 0;
    std::uint64_t bytes = 0;
    for (const BlockOp &op : source->blockOps()) {
        (op.isCopy() ? copies : zeros) += 1;
        bytes += op.size;
    }
    std::printf("\nblock ops:    %llu copies, %llu zeros, %.1f MB "
                "moved\n",
                (unsigned long long)copies, (unsigned long long)zeros,
                double(bytes) / (1024.0 * 1024.0));

    // Busiest basic blocks by reference count.
    std::vector<std::pair<std::uint64_t, BasicBlockId>> busiest;
    for (const auto &[bb, n] : refs_by_bb)
        busiest.emplace_back(n, bb);
    std::sort(busiest.rbegin(), busiest.rend());
    std::printf("\nbusiest basic blocks (by data references):\n");
    for (std::size_t i = 0; i < busiest.size() && i < 8; ++i)
        std::printf("  bb%-8u %10llu\n", busiest[i].second,
                    (unsigned long long)busiest[i].first);
    return 0;
}
