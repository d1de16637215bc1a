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

namespace
{

/** Text-format category code ("user", "kpriv", ...). */
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

/** Inverse of categoryCode(); false on an unknown code. */
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

/** Append @p rec to @p os as one text-format record line. */
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

} // namespace

bool
tryParseRecordLine(const std::string &line, TraceRecord &rec,
                   const char **why)
{
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;

    rec = TraceRecord();
    if (kw == "x") {
        unsigned os_flag = 0;
        ls >> rec.aux >> rec.bb >> os_flag;
        rec.type = RecordType::Exec;
        rec.flags = os_flag ? flagOs : 0;
    } else if (kw == "i") {
        ls >> rec.aux;
        rec.type = RecordType::Idle;
    } else if (kw == "r" || kw == "w" || kw == "p") {
        std::string cat;
        unsigned os_flag = 0;
        ls >> std::hex >> rec.addr >> std::dec >> cat >> rec.bb >> os_flag;
        if (!tryParseCategory(cat, rec.category)) {
            *why = "unknown data category";
            return false;
        }
        rec.flags = os_flag ? flagOs : 0;
        if (kw == "p") {
            rec.type = RecordType::Prefetch;
        } else {
            unsigned size = 0;
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

bool
walkText(std::istream &is, TraceSink &sink, std::string *error)
{
    std::string line;
    std::uint64_t line_no = 0; // Of the line last read, or tried.
    std::uint64_t next_at = 0; // File offset of the next line.
    const auto read_line = [&] {
        ++line_no;
        if (!std::getline(is, line))
            return false;
        next_at += line.size() + (is.eof() ? 0 : 1);
        return true;
    };
    const auto fail = [&](const char *why) {
        if (error != nullptr)
            *error = line_no == 0
                ? std::string(why)
                : std::string(why) + " at line " + std::to_string(line_no);
        return false;
    };

    if (!read_line() || line != "oscache-trace 1")
        return fail("missing or unsupported header");
    if (!read_line())
        return fail("missing cpus line");
    unsigned cpus = 0;
    {
        std::istringstream ls(line);
        std::string kw;
        ls >> kw >> cpus;
        if (ls.fail() || kw != "cpus" || cpus == 0 || cpus > maxTraceCpus)
            return fail("bad cpus line");
    }
    sink.begin(cpus, true);

    // The open run: consecutive record lines of the current cpu, up
    // to the next directive.
    int cpu = -1;
    RecordStream *dst = nullptr;
    std::uint64_t run_start = 0;
    std::uint64_t run_end = 0;
    std::uint64_t run_records = 0;
    const auto close_run = [&] {
        if (run_records > 0)
            sink.segment(CpuId(cpu), run_start, run_end, run_records);
        run_records = 0;
    };
    std::uint64_t op_bound = 0; // One past the largest op id named.

    while (true) {
        const std::uint64_t start = next_at;
        if (!read_line())
            break;
        if (line.empty() || line[0] == '#')
            continue;

        std::istringstream ls(line);
        std::string kw;
        ls >> kw;

        if (kw == "updatepage") {
            close_run();
            Addr page = 0;
            ls >> std::hex >> page;
            if (ls.fail())
                return fail("bad updatepage line");
            sink.updatePages().insert(page);
        } else if (kw == "blockop") {
            close_run();
            std::size_t id = 0;
            std::string kind, ro;
            BlockOp op;
            ls >> id >> kind >> std::hex >> op.src >> op.dst >> std::dec >>
                op.size >> ro;
            if (ls.fail() || (kind != "copy" && kind != "zero"))
                return fail("bad blockop line");
            op.kind =
                kind == "copy" ? BlockOpKind::Copy : BlockOpKind::Zero;
            op.readOnlyAfter = (ro == "ro");
            if (sink.blockOps().add(op) != id)
                return fail("blockop ids must be dense and in order");
        } else if (kw == "stream") {
            close_run();
            unsigned n = 0;
            ls >> n;
            if (ls.fail() || n >= cpus)
                return fail("bad stream line");
            cpu = int(n);
            dst = sink.records(CpuId(n));
        } else {
            if (cpu < 0)
                return fail("record before any stream directive");
            TraceRecord rec;
            const char *why = nullptr;
            if (!tryParseRecordLine(line, rec, &why))
                return fail(why);
            if (namesBlockOp(rec))
                op_bound = std::max<std::uint64_t>(op_bound, rec.aux + 1ull);
            if (dst != nullptr)
                dst->push_back(rec);
            if (run_records == 0)
                run_start = start;
            run_end = next_at;
            ++run_records;
        }
    }
    close_run();

    line_no = 0;
    if (op_bound > sink.blockOps().size())
        return fail("record references unknown block op");
    return true;
}

bool
walkBinary(std::istream &is, TraceSink &sink, bool payloads,
           std::string *error)
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
    std::uint32_t version = 0;
    if (!r.get(version) || version != traceFormatVersion)
        return fail("unsupported version");
    std::uint32_t cpus = 0;
    if (!r.get(cpus) || cpus == 0 || cpus > maxTraceCpus)
        return fail("bad cpu count");
    sink.begin(cpus, false);
    std::uint64_t page_count = 0;
    if (!r.get(page_count) || page_count > (1u << 20))
        return fail("bad update-page count");
    for (std::uint64_t i = 0; i < page_count; ++i) {
        Addr page = 0;
        if (!r.get(page))
            return fail("truncated update pages");
        sink.updatePages().insert(page);
    }

    // Record chunks first; the table only arrives afterwards, so
    // block-op references are bounded at the end by the largest seen.
    std::uint64_t op_bound = 0; // One past the largest op id named.
    std::vector<char> raw;
    while (true) {
        std::uint32_t cpu = 0;
        if (!r.get(cpu))
            return fail("truncated chunk header");
        if (cpu == chunkEndMarker)
            break;
        std::uint32_t count = 0;
        if (cpu >= cpus || !r.get(count))
            return fail("bad chunk header");
        const std::uint64_t offset = std::uint64_t(is.tellg());
        const std::uint64_t bytes = std::uint64_t(count) * recordWireBytes;
        if (!payloads) {
            is.seekg(std::streamoff(bytes), std::ios::cur);
            if (!is || is.peek() == std::istream::traits_type::eof())
                return fail("truncated record stream");
        } else {
            RecordStream *dst = sink.records(CpuId(cpu));
            // Bounded pieces, so a corrupt count fails as truncation
            // instead of allocating for it.
            for (std::uint32_t done = 0; done < count;) {
                const std::uint32_t n =
                    std::min<std::uint32_t>(count - done, 4096);
                raw.resize(n * recordWireBytes);
                if (!r.getBytes(raw.data(), raw.size()))
                    return fail("truncated record stream");
                for (std::uint32_t i = 0; i < n; ++i) {
                    TraceRecord rec;
                    const char *why = nullptr;
                    if (!decodeWireRecord(raw.data() + i * recordWireBytes,
                                          rec, &why))
                        return fail(why);
                    if (namesBlockOp(rec))
                        op_bound =
                            std::max<std::uint64_t>(op_bound, rec.aux + 1ull);
                    if (dst != nullptr)
                        dst->push_back(rec);
                }
                done += n;
            }
        }
        if (count > 0)
            sink.segment(CpuId(cpu), offset, offset + bytes, count);
    }

    std::uint64_t op_count = 0;
    if (!r.get(op_count) || op_count > (1ull << 32))
        return fail("bad block-op count");
    for (std::uint64_t i = 0; i < op_count; ++i) {
        BlockOp op;
        std::uint8_t kind = 0;
        std::uint8_t ro = 0;
        if (!r.get(op.src) || !r.get(op.dst) || !r.get(op.size) ||
            !r.get(kind) || !r.get(ro))
            return fail("truncated block-op table");
        if (kind > std::uint8_t(BlockOpKind::Zero) || ro > 1)
            return fail("bad block-op encoding");
        op.kind = BlockOpKind(kind);
        op.readOnlyAfter = ro != 0;
        sink.blockOps().add(op);
    }
    if (op_bound > sink.blockOps().size())
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
    // Without the payloads the running sum is not the file's; the
    // trailing word must still be there.
    if (payloads && stored != expected)
        return fail("checksum mismatch");
    if (is.peek() != std::istream::traits_type::eof())
        return fail("trailing garbage");
    return true;
}

bool
walkTrace(std::istream &is, TraceSink &sink, bool payloads,
          std::string *error)
{
    char magic[sizeof(binaryMagic)];
    is.read(magic, sizeof(magic));
    const bool binary =
        is.gcount() == std::streamsize(sizeof(magic)) &&
        std::memcmp(magic, binaryMagic, sizeof(magic)) == 0;
    is.clear();
    is.seekg(0);
    return binary ? walkBinary(is, sink, payloads, error)
                  : walkText(is, sink, error);
}

} // namespace iodetail

using iodetail::BinaryReader;
using iodetail::BinaryWriter;
using iodetail::binaryMagic;
using iodetail::chunkEndMarker;
using iodetail::recordWireBytes;

namespace
{

/** The whole-trace readers' sink: every record, into one Trace. */
class TraceBuilder final : public iodetail::TraceSink
{
  public:
    void begin(unsigned cpus, bool) override { trace = Trace(cpus); }
    std::unordered_set<Addr> &
    updatePages() override
    {
        return trace.updatePages();
    }
    BlockOpTable &blockOps() override { return trace.blockOps(); }
    RecordStream *records(CpuId cpu) override { return &trace.stream(cpu); }
    void segment(CpuId, std::uint64_t, std::uint64_t, std::uint64_t) override
    {}

    Trace trace{1};
};

} // namespace

void
writeTrace(std::ostream &os, const Trace &trace)
{
    if (trace.numCpus() == 0 || trace.numCpus() > maxTraceCpus)
        fatal("trace: cannot write ", trace.numCpus(), " cpus (1 to ",
              maxTraceCpus, ")");
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
    TraceBuilder sink;
    std::string why;
    if (!iodetail::walkText(is, sink, &why))
        fatal("trace: ", why);
    return std::move(sink.trace);
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
    TraceBuilder sink;
    if (!iodetail::walkBinary(is, sink, true, error))
        return false;
    out = std::move(sink.trace);
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
    if (num_cpus == 0 || num_cpus > maxTraceCpus)
        fatal("trace: cannot write ", num_cpus, " cpus (1 to ",
              maxTraceCpus, ")");
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
    TraceBuilder sink;
    std::string why;
    if (!iodetail::walkTrace(is, sink, true, &why))
        fatal("trace: malformed trace '", path, "' (", why, ")");
    return std::move(sink.trace);
}

} // namespace oscache
