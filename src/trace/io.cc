#include "trace/io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "trace/io_detail.hh"

namespace oscache
{

namespace iodetail
{

const char *
categoryCode(DataCategory cat)
{
    switch (cat) {
      case DataCategory::User:          return "user";
      case DataCategory::KernelPrivate: return "kpriv";
      case DataCategory::BlockSrc:      return "bsrc";
      case DataCategory::BlockDst:      return "bdst";
      case DataCategory::Barrier:       return "barrier";
      case DataCategory::InfreqComm:    return "infreq";
      case DataCategory::FreqShared:    return "freqsh";
      case DataCategory::Lock:          return "lock";
      case DataCategory::OtherShared:   return "oshared";
      case DataCategory::PageTable:     return "pte";
      case DataCategory::KernelOther:   return "kother";
      case DataCategory::NumCategories: break;
    }
    panic("bad DataCategory");
}

bool
tryParseCategory(const std::string &code, DataCategory &out)
{
    if (code == "user")         out = DataCategory::User;
    else if (code == "kpriv")   out = DataCategory::KernelPrivate;
    else if (code == "bsrc")    out = DataCategory::BlockSrc;
    else if (code == "bdst")    out = DataCategory::BlockDst;
    else if (code == "barrier") out = DataCategory::Barrier;
    else if (code == "infreq")  out = DataCategory::InfreqComm;
    else if (code == "freqsh")  out = DataCategory::FreqShared;
    else if (code == "lock")    out = DataCategory::Lock;
    else if (code == "oshared") out = DataCategory::OtherShared;
    else if (code == "pte")     out = DataCategory::PageTable;
    else if (code == "kother")  out = DataCategory::KernelOther;
    else return false;
    return true;
}

DataCategory
parseCategory(const std::string &code)
{
    DataCategory cat;
    if (!tryParseCategory(code, cat))
        fatal("trace: unknown data category '", code, "'");
    return cat;
}

void
putRecordText(std::ostream &os, const TraceRecord &rec)
{
    switch (rec.type) {
      case RecordType::Exec:
        os << "x " << rec.aux << " " << rec.bb << " "
           << (rec.isOs() ? 1 : 0) << "\n";
        break;
      case RecordType::Idle:
        os << "i " << rec.aux << "\n";
        break;
      case RecordType::Read:
      case RecordType::Write:
        os << (rec.type == RecordType::Read ? "r " : "w ") << std::hex
           << rec.addr << std::dec << " " << categoryCode(rec.category)
           << " " << rec.bb << " " << (rec.isOs() ? 1 : 0) << " "
           << unsigned(rec.size) << "\n";
        break;
      case RecordType::Prefetch:
        os << "p " << std::hex << rec.addr << std::dec << " "
           << categoryCode(rec.category) << " " << rec.bb << " "
           << (rec.isOs() ? 1 : 0) << "\n";
        break;
      case RecordType::BlockOpBegin:
        os << "B " << rec.aux << "\n";
        break;
      case RecordType::BlockOpEnd:
        os << "E " << rec.aux << "\n";
        break;
      case RecordType::LockAcquire:
        os << "L " << std::hex << rec.addr << std::dec << "\n";
        break;
      case RecordType::LockRelease:
        os << "U " << std::hex << rec.addr << std::dec << "\n";
        break;
      case RecordType::BarrierArrive:
        os << "A " << std::hex << rec.addr << std::dec << " " << rec.aux
           << "\n";
        break;
    }
}

bool
tryParseRecordLine(const std::string &line, TraceRecord &rec,
                   const char **why)
{
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;

    rec = TraceRecord();
    if (kw == "x") {
        unsigned os_flag;
        ls >> rec.aux >> rec.bb >> os_flag;
        rec.type = RecordType::Exec;
        rec.flags = os_flag ? flagOs : 0;
    } else if (kw == "i") {
        ls >> rec.aux;
        rec.type = RecordType::Idle;
    } else if (kw == "r" || kw == "w" || kw == "p") {
        std::string cat;
        unsigned os_flag;
        ls >> std::hex >> rec.addr >> std::dec >> cat >> rec.bb >> os_flag;
        if (!tryParseCategory(cat, rec.category)) {
            *why = "unknown data category";
            return false;
        }
        rec.flags = os_flag ? flagOs : 0;
        if (kw == "p") {
            rec.type = RecordType::Prefetch;
        } else {
            unsigned size;
            ls >> size;
            rec.size = std::uint8_t(size);
            rec.type = kw == "r" ? RecordType::Read : RecordType::Write;
        }
    } else if (kw == "B" || kw == "E") {
        ls >> rec.aux;
        rec.type = kw == "B" ? RecordType::BlockOpBegin
                             : RecordType::BlockOpEnd;
        rec.flags = flagOs;
    } else if (kw == "L" || kw == "U") {
        ls >> std::hex >> rec.addr >> std::dec;
        rec.type = kw == "L" ? RecordType::LockAcquire
                             : RecordType::LockRelease;
        rec.category = DataCategory::Lock;
        rec.flags = flagOs;
    } else if (kw == "A") {
        ls >> std::hex >> rec.addr >> std::dec >> rec.aux;
        rec.type = RecordType::BarrierArrive;
        rec.category = DataCategory::Barrier;
        rec.flags = flagOs;
    } else {
        *why = "unknown directive";
        return false;
    }
    if (ls.fail()) {
        *why = "malformed record";
        return false;
    }
    return true;
}

TraceRecord
parseRecordLine(const std::string &line)
{
    TraceRecord rec;
    const char *why = nullptr;
    if (!tryParseRecordLine(line, rec, &why))
        fatal("trace: ", why, " '", line, "'");
    return rec;
}

bool
getBlockOps(BinaryReader &r, BlockOpTable &ops, const char **why)
{
    std::uint64_t op_count = 0;
    if (!r.get(op_count) || op_count > (1ull << 32)) {
        *why = "bad block-op count";
        return false;
    }
    for (std::uint64_t i = 0; i < op_count; ++i) {
        BlockOp op;
        std::uint8_t kind = 0;
        std::uint8_t ro = 0;
        if (!r.get(op.src) || !r.get(op.dst) || !r.get(op.size) ||
            !r.get(kind) || !r.get(ro)) {
            *why = "truncated block-op table";
            return false;
        }
        if (kind > std::uint8_t(BlockOpKind::Zero) || ro > 1) {
            *why = "bad block-op encoding";
            return false;
        }
        op.kind = BlockOpKind(kind);
        op.readOnlyAfter = ro != 0;
        ops.add(op);
    }
    return true;
}

bool
getHeader(BinaryReader &r, std::uint32_t &cpus,
          std::unordered_set<Addr> &pages, const char **why)
{
    std::uint32_t version = 0;
    if (!r.get(version) || version != traceFormatVersion) {
        *why = "unsupported version";
        return false;
    }
    if (!r.get(cpus) || cpus == 0 || cpus > 64) {
        *why = "bad cpu count";
        return false;
    }
    std::uint64_t page_count = 0;
    if (!r.get(page_count) || page_count > (1u << 20)) {
        *why = "bad update-page count";
        return false;
    }
    for (std::uint64_t i = 0; i < page_count; ++i) {
        Addr page = 0;
        if (!r.get(page)) {
            *why = "truncated update pages";
            return false;
        }
        pages.insert(page);
    }
    return true;
}

} // namespace iodetail

using iodetail::BinaryReader;
using iodetail::BinaryWriter;
using iodetail::binaryMagic;
using iodetail::chunkEndMarker;
using iodetail::getBlockOps;

void
writeTrace(std::ostream &os, const Trace &trace)
{
    os << "oscache-trace 1\n";
    os << "cpus " << trace.numCpus() << "\n";
    for (const Addr page : trace.updatePages())
        os << "updatepage " << std::hex << page << std::dec << "\n";
    for (std::size_t i = 0; i < trace.blockOps().size(); ++i) {
        const BlockOp &op = trace.blockOps().get(BlockOpId(i));
        os << "blockop " << i << " "
           << (op.isCopy() ? "copy" : "zero") << " " << std::hex << op.src
           << " " << op.dst << std::dec << " " << op.size << " "
           << (op.readOnlyAfter ? "ro" : "rw") << "\n";
    }
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
        os << "stream " << unsigned(cpu) << "\n";
        for (const TraceRecord &rec : trace.stream(cpu))
            iodetail::putRecordText(os, rec);
    }
}

Trace
readTrace(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != "oscache-trace 1")
        fatal("trace: missing or unsupported header");

    unsigned cpus = 0;
    {
        std::getline(is, line);
        std::istringstream ls(line);
        std::string kw;
        ls >> kw >> cpus;
        if (kw != "cpus" || cpus == 0 || cpus > 64)
            fatal("trace: bad cpus line '", line, "'");
    }
    Trace trace(cpus);
    RecordStream *stream = nullptr;

    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;

        if (kw == "updatepage") {
            Addr page = 0;
            ls >> std::hex >> page;
            trace.updatePages().insert(page);
        } else if (kw == "blockop") {
            std::size_t id;
            std::string kind, ro;
            BlockOp op;
            ls >> id >> kind >> std::hex >> op.src >> op.dst >> std::dec >>
                op.size >> ro;
            if (ls.fail() || (kind != "copy" && kind != "zero"))
                fatal("trace: bad blockop line '", line, "'");
            op.kind =
                kind == "copy" ? BlockOpKind::Copy : BlockOpKind::Zero;
            op.readOnlyAfter = (ro == "ro");
            const BlockOpId got = trace.blockOps().add(op);
            if (got != id)
                fatal("trace: blockop ids must be dense and in order");
        } else if (kw == "stream") {
            unsigned cpu;
            ls >> cpu;
            if (ls.fail() || cpu >= cpus)
                fatal("trace: bad stream line '", line, "'");
            stream = &trace.stream(CpuId(cpu));
        } else {
            if (stream == nullptr)
                fatal("trace: record before any stream directive");
            stream->push_back(iodetail::parseRecordLine(line));
        }
    }

    // Validate block-op references.
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu)
        for (const TraceRecord &rec : trace.stream(cpu))
            if ((rec.type == RecordType::BlockOpBegin ||
                 rec.type == RecordType::BlockOpEnd) &&
                rec.aux >= trace.blockOps().size())
                fatal("trace: record references unknown block op ",
                      rec.aux);
    return trace;
}

namespace
{

/** Serialize the update pages sorted: equal traces, equal bytes. */
void
putUpdatePages(BinaryWriter &w, const std::unordered_set<Addr> &set)
{
    std::vector<Addr> pages(set.begin(), set.end());
    std::sort(pages.begin(), pages.end());
    w.put(std::uint64_t(pages.size()));
    for (const Addr page : pages)
        w.put(page);
}

void
putBlockOps(BinaryWriter &w, const BlockOpTable &ops)
{
    w.put(std::uint64_t(ops.size()));
    for (const BlockOp &op : ops) {
        w.put(op.src);
        w.put(op.dst);
        w.put(op.size);
        w.put(std::uint8_t(op.kind));
        w.put(std::uint8_t(op.readOnlyAfter ? 1 : 0));
    }
}

/** Write the raw (not-yet-checksummed) trailing checksum word. */
void
putChecksum(std::ostream &os, std::uint64_t sum)
{
    char buf[sizeof(sum)];
    std::memcpy(buf, &sum, sizeof(sum));
    os.write(buf, sizeof(sum));
}

} // namespace

bool
tryReadTraceBinary(std::istream &is, Trace &out, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    char magic[sizeof(binaryMagic)];
    is.read(magic, sizeof(magic));
    if (is.gcount() != std::streamsize(sizeof(magic)) ||
        std::memcmp(magic, binaryMagic, sizeof(magic)) != 0)
        return fail("bad magic");

    BinaryReader r(is);
    std::uint32_t cpus = 0;
    std::unordered_set<Addr> pages;
    const char *why = nullptr;
    if (!iodetail::getHeader(r, cpus, pages, &why))
        return fail(why);
    Trace trace(cpus);
    trace.updatePages() = std::move(pages);

    // Record chunks first; the table only arrives afterwards, so
    // block-op references are bounds-checked at the end via the
    // largest id seen.
    std::uint64_t max_op_ref = 0;
    bool any_op_ref = false;
    while (true) {
        std::uint32_t cpu = 0;
        if (!r.get(cpu))
            return fail("truncated chunk header");
        if (cpu == chunkEndMarker)
            break;
        std::uint32_t count = 0;
        if (cpu >= cpus || !r.get(count))
            return fail("bad chunk header");
        RecordStream &stream = trace.stream(CpuId(cpu));
        for (std::uint32_t i = 0; i < count; ++i) {
            TraceRecord rec;
            if (!iodetail::getRecord(r, rec, &why))
                return fail(why);
            if (rec.type == RecordType::BlockOpBegin ||
                rec.type == RecordType::BlockOpEnd) {
                any_op_ref = true;
                max_op_ref = std::max<std::uint64_t>(max_op_ref, rec.aux);
            }
            stream.push_back(rec);
        }
    }

    if (!getBlockOps(r, trace.blockOps(), &why))
        return fail(why);
    if (any_op_ref && max_op_ref >= trace.blockOps().size())
        return fail("record references unknown block op");

    const std::uint64_t expected = r.checksum();
    std::uint64_t stored = 0;
    {
        char buf[sizeof(stored)];
        is.read(buf, sizeof(buf));
        if (is.gcount() != std::streamsize(sizeof(buf)))
            return fail("missing checksum");
        std::memcpy(&stored, buf, sizeof(stored));
    }
    if (stored != expected)
        return fail("checksum mismatch");
    if (is.peek() != std::istream::traits_type::eof())
        return fail("trailing garbage");

    out = std::move(trace);
    return true;
}

Trace
readTraceBinary(std::istream &is)
{
    Trace trace(1);
    std::string why;
    if (!tryReadTraceBinary(is, trace, &why))
        fatal("trace: malformed binary trace (", why, ")");
    return trace;
}

struct ChunkedTraceWriter::Impl
{
    Impl(std::ostream &out) : os(out), w(out) {}

    std::ostream &os;
    BinaryWriter w;
    unsigned cpus = 0;
    bool finished = false;
};

ChunkedTraceWriter::ChunkedTraceWriter(
    std::ostream &os, unsigned num_cpus,
    const std::unordered_set<Addr> &update_pages)
    : impl(std::make_unique<Impl>(os))
{
    if (num_cpus == 0 || num_cpus > 64)
        fatal("chunked trace: bad cpu count ", num_cpus);
    impl->cpus = num_cpus;
    os.write(binaryMagic, sizeof(binaryMagic));
    impl->w.put(traceFormatVersion);
    impl->w.put(std::uint32_t(num_cpus));
    putUpdatePages(impl->w, update_pages);
}

ChunkedTraceWriter::~ChunkedTraceWriter() = default;

void
ChunkedTraceWriter::writeChunk(CpuId cpu, const TraceRecord *records,
                               std::size_t count)
{
    if (impl->finished)
        panic("chunked trace: writeChunk after finish");
    if (cpu >= impl->cpus)
        panic("chunked trace: bad cpu ", int(cpu));
    while (count > 0) {
        // Chunks carry a u32 count; split absurdly large ones.
        const std::size_t n =
            std::min<std::size_t>(count, chunkEndMarker - 1);
        impl->w.put(std::uint32_t(cpu));
        impl->w.put(std::uint32_t(n));
        for (std::size_t i = 0; i < n; ++i)
            iodetail::putRecord(impl->w, records[i]);
        records += n;
        count -= n;
    }
}

void
ChunkedTraceWriter::finish(const BlockOpTable &block_ops)
{
    if (impl->finished)
        panic("chunked trace: finish called twice");
    impl->finished = true;
    impl->w.put(chunkEndMarker);
    putBlockOps(impl->w, block_ops);
    putChecksum(impl->os, impl->w.checksum());
}

void
writeTraceChunked(std::ostream &os, const Trace &trace,
                  std::size_t chunk_records)
{
    if (chunk_records == 0)
        chunk_records = 1;
    ChunkedTraceWriter writer(os, trace.numCpus(), trace.updatePages());
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
        const RecordStream &stream = trace.stream(cpu);
        for (std::size_t i = 0; i < stream.size(); i += chunk_records)
            writer.writeChunk(
                cpu, stream.data() + i,
                std::min(chunk_records, stream.size() - i));
    }
    writer.finish(trace.blockOps());
}

void
writeTraceFile(const std::string &path, const Trace &trace,
               TraceFormat format)
{
    const bool text = format == TraceFormat::Text;
    std::ofstream os(path, text ? std::ios::out
                                : std::ios::out | std::ios::binary);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    if (text)
        writeTrace(os, trace);
    else
        writeTraceChunked(os, trace);
    if (!os)
        fatal("error writing trace to '", path, "'");
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is)
        fatal("cannot open '", path, "' for reading");
    char magic[sizeof(binaryMagic)];
    is.read(magic, sizeof(magic));
    const bool binary =
        is.gcount() == std::streamsize(sizeof(magic)) &&
        std::memcmp(magic, binaryMagic, sizeof(magic)) == 0;
    is.clear();
    is.seekg(0);
    return binary ? readTraceBinary(is) : readTrace(is);
}

} // namespace oscache
