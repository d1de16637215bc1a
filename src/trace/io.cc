#include "trace/io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/binio.hh"
#include "common/log.hh"
#include "trace/io_detail.hh"
#include "trace/packed.hh"
#include "trace/source.hh"

namespace oscache
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
putTextRecord(std::ostream &os, const TraceRecord &rec)
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

/**
 * Parse one text-format record line ('x', 'i', 'r', 'w', 'p', 'B',
 * 'E', 'L', 'U', 'A') into @p rec.  On failure returns false with
 * the reason in @p why.
 */
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
            if (size > 0xff) {
                *why = "access size above 255";
                return false;
            }
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

/**
 * The one walker of the text format: the header, the `cpus` line,
 * the `updatepage`, `blockop` and `stream` directives, every record
 * line, and block-op references against the table, into @p out.
 * False with the reason in @p error on malformed input.
 */
bool
walkText(std::istream &is, Trace &out, std::string *error)
{
    std::string line;
    std::uint64_t line_no = 0; // Of the line last read, or tried.
    const auto read_line = [&] {
        ++line_no;
        return bool(std::getline(is, line));
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
    out = Trace(cpus);

    RecordStream *dst = nullptr; // The current stream directive's.
    std::uint64_t op_bound = 0;  // One past the largest op id named.
    while (read_line()) {
        if (line.empty() || line[0] == '#')
            continue;

        std::istringstream ls(line);
        std::string kw;
        ls >> kw;

        if (kw == "updatepage") {
            Addr page = 0;
            ls >> std::hex >> page;
            if (ls.fail())
                return fail("bad updatepage line");
            out.updatePages().insert(page);
        } else if (kw == "blockop") {
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
            if (out.blockOps().add(op) != id)
                return fail("blockop ids must be dense and in order");
        } else if (kw == "stream") {
            unsigned n = 0;
            ls >> n;
            if (ls.fail() || n >= cpus)
                return fail("bad stream line");
            dst = &out.stream(CpuId(n));
        } else {
            if (dst == nullptr)
                return fail("record before any stream directive");
            TraceRecord rec;
            const char *why = nullptr;
            if (!tryParseRecordLine(line, rec, &why))
                return fail(why);
            if (rec.type == RecordType::BlockOpBegin ||
                rec.type == RecordType::BlockOpEnd)
                op_bound = std::max<std::uint64_t>(op_bound, rec.aux + 1ull);
            dst->push_back(rec);
        }
    }

    line_no = 0;
    if (op_bound > out.blockOps().size())
        return fail("record references unknown block op");
    return true;
}

} // namespace

namespace iodetail
{

bool
walkChunked(std::istream &is, ChunkIndex &index, bool payloads,
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

    binio::BinaryReader r(is);
    std::uint32_t version = 0;
    if (!r.get(version) || version != traceFormatVersion)
        return fail("unsupported version");
    std::uint32_t cpus = 0;
    if (!r.get(cpus) || cpus == 0 || cpus > maxTraceCpus)
        return fail("bad cpu count");
    index.blocks.assign(cpus, {});
    index.records.assign(cpus, 0);
    std::uint64_t page_count = 0;
    if (!r.get(page_count) || page_count > (1u << 20))
        return fail("bad update-page count");
    for (std::uint64_t i = 0; i < page_count; ++i) {
        Addr page = 0;
        if (!r.get(page))
            return fail("truncated update pages");
        index.pages.insert(page);
    }

    // Record chunks first; the table only arrives afterwards, so
    // block-op references are bounded at the end by the largest seen.
    constexpr std::size_t blockRecords = PackedTrace::blockRecords;
    std::uint64_t op_bound = 0; // One past the largest op id named.
    std::vector<std::uint8_t> block(
        blockRecords * PackedTrace::maxRecordBytes + PackedTrace::loadPadding);
    std::vector<TraceRecord> records(blockRecords);
    while (true) {
        std::uint32_t cpu = 0;
        if (!r.get(cpu))
            return fail("truncated chunk header");
        if (cpu == chunkEndMarker)
            break;
        // Only a stream's last block may be partial, so a chunk that
        // ends in one is its stream's last.
        std::uint32_t count = 0;
        if (cpu >= cpus || !r.get(count) || count == 0 ||
            index.records[cpu] % blockRecords != 0)
            return fail("bad chunk header");
        std::vector<ChunkIndex::Block> &blocks = index.blocks[cpu];
        const std::size_t first = blocks.size();
        std::uint64_t payload = 0;
        // The block lengths, read in bounded pieces, so a corrupt
        // count fails as truncation instead of allocating for it.
        std::uint32_t lengths[1024];
        for (std::uint64_t done = 0; done < count;) {
            const std::size_t piece = std::min<std::uint64_t>(
                std::size(lengths),
                (count - done + blockRecords - 1) / blockRecords);
            if (!r.getBytes(reinterpret_cast<char *>(lengths),
                            piece * sizeof(lengths[0])))
                return fail("truncated chunk header");
            for (std::size_t i = 0; i < piece; ++i, done += blockRecords) {
                const std::uint64_t n =
                    std::min<std::uint64_t>(blockRecords, count - done);
                if (lengths[i] < n ||
                    lengths[i] > n * PackedTrace::maxRecordBytes)
                    return fail("bad block length");
                blocks.push_back({payload, lengths[i]});
                payload += lengths[i];
            }
        }
        const auto at = std::uint64_t(is.tellg());
        for (std::size_t b = first; b < blocks.size(); ++b)
            blocks[b].offset += at;
        index.records[cpu] += count;
        if (!payloads) {
            is.seekg(std::streamoff(payload), std::ios::cur);
            if (!is || is.peek() == std::istream::traits_type::eof())
                return fail("truncated record stream");
            continue;
        }
        for (std::size_t b = first; b < blocks.size(); ++b) {
            const std::size_t n =
                std::min(blockRecords, index.records[cpu] - b * blockRecords);
            if (!r.getBytes(reinterpret_cast<char *>(block.data()),
                            blocks[b].bytes))
                return fail("truncated record stream");
            const char *why = PackedTrace::decode(
                block.data(), blocks[b].bytes, n, records.data());
            if (why == nullptr)
                why = checkRecords(records.data(), n, op_bound);
            if (why != nullptr)
                return fail(why);
        }
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
        index.ops.add(op);
    }
    if (op_bound > index.ops.size())
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
startsBinary(std::istream &is)
{
    char magic[sizeof(binaryMagic)];
    is.read(magic, sizeof(magic));
    const bool binary =
        is.gcount() == std::streamsize(sizeof(magic)) &&
        std::memcmp(magic, binaryMagic, sizeof(magic)) == 0;
    is.clear();
    is.seekg(0);
    return binary;
}

} // namespace iodetail

namespace
{

using binio::BinaryWriter;

/**
 * Emit the magic, the version word, the cpu count and the update
 * pages, sorted so equal traces serialize to equal bytes; fatal()
 * unless 1 <= @p cpus <= maxTraceCpus.
 */
void
putHeader(std::ostream &os, BinaryWriter &w, unsigned cpus,
          const std::unordered_set<Addr> &update_pages)
{
    if (cpus == 0 || cpus > maxTraceCpus)
        fatal("trace: cannot write ", cpus, " cpus (1 to ", maxTraceCpus,
              ")");
    os.write(iodetail::binaryMagic, sizeof(iodetail::binaryMagic));
    w.put(traceFormatVersion);
    w.put(std::uint32_t(cpus));
    std::vector<Addr> pages(update_pages.begin(), update_pages.end());
    std::sort(pages.begin(), pages.end());
    w.put(std::uint64_t(pages.size()));
    for (const Addr page : pages)
        w.put(page);
}

/** Blocks per chunk, so a chunk header stays small. */
constexpr std::size_t chunkBlocks = 4096;

/**
 * Emit @p run, a run of @p cpu's blocks, as chunks: [u32 cpu]
 * [u32 records][u32 byte length per block], then the blocks as they
 * are.
 */
void
putChunks(BinaryWriter &w, CpuId cpu, const PackedTrace::Blocks &run)
{
    for (std::size_t b = 0; b < run.count(); b += chunkBlocks) {
        const std::size_t end = std::min(run.count(), b + chunkBlocks);
        const std::size_t first = b * PackedTrace::blockRecords;
        w.put(std::uint32_t(cpu));
        w.put(std::uint32_t(std::min(run.records - first,
                                     (end - b) * PackedTrace::blockRecords)));
        for (std::size_t i = b; i < end; ++i)
            w.put(std::uint32_t(run.starts[i + 1] - run.starts[i]));
        w.putBytes(run.bytes + run.starts[b], run.starts[end] - run.starts[b]);
    }
}

/**
 * Terminate the chunk sequence, then emit the block-op table and the
 * checksum of everything after the magic.
 */
void
putTrailer(std::ostream &os, BinaryWriter &w, const BlockOpTable &ops)
{
    w.put(iodetail::chunkEndMarker);
    w.put(std::uint64_t(ops.size()));
    for (const BlockOp &op : ops) {
        w.put(op.src);
        w.put(op.dst);
        w.put(op.size);
        w.put(std::uint8_t(op.kind));
        w.put(std::uint8_t(op.readOnlyAfter ? 1 : 0));
    }
    const std::uint64_t sum = w.checksum();
    char buf[sizeof(sum)];
    std::memcpy(buf, &sum, sizeof(sum));
    os.write(buf, sizeof(sum));
}

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
            putTextRecord(os, rec);
    }
}

Trace
readTrace(std::istream &is)
{
    Trace trace(1);
    std::string why;
    if (!walkText(is, trace, &why))
        fatal("trace: ", why);
    return trace;
}

struct ChunkedTraceWriter::Impl
{
    Impl(std::ostream &out, unsigned num_cpus)
        : os(out), w(out), builder(num_cpus), cpus(num_cpus)
    {}

    std::ostream &os;
    BinaryWriter w;
    PackedTrace::Builder builder;
    unsigned cpus;
    bool finished = false;
};

ChunkedTraceWriter::ChunkedTraceWriter(
    std::ostream &os, unsigned num_cpus,
    const std::unordered_set<Addr> &update_pages)
{
    // Checked before the builder sizes a lane per cpu.
    if (num_cpus == 0 || num_cpus > maxTraceCpus)
        fatal("trace: cannot write ", num_cpus, " cpus (1 to ",
              maxTraceCpus, ")");
    impl = std::make_unique<Impl>(os, num_cpus);
    putHeader(os, impl->w, num_cpus, update_pages);
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
    impl->builder.append(cpu, records, count);
    impl->builder.take(cpu, [this, cpu](const PackedTrace::Blocks &run) {
        putChunks(impl->w, cpu, run);
    });
}

void
ChunkedTraceWriter::finish(const BlockOpTable &block_ops)
{
    if (impl->finished)
        panic("chunked trace: finish called twice");
    impl->finished = true;
    // What is left: each stream's partial last block.
    const PackedTrace rest = std::move(impl->builder).finish({}, {});
    for (CpuId cpu = 0; cpu < impl->cpus; ++cpu)
        putChunks(impl->w, cpu, rest.blocks(cpu));
    putTrailer(impl->os, impl->w, block_ops);
}

void
writeTraceChunked(std::ostream &os, const Trace &trace)
{
    ChunkedTraceWriter writer(os, trace.numCpus(), trace.updatePages());
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu)
        writer.writeChunk(cpu, trace.stream(cpu));
    writer.finish(trace.blockOps());
}

void
writeTraceChunked(std::ostream &os, const PackedTrace &trace)
{
    BinaryWriter w(os);
    putHeader(os, w, trace.numCpus(), trace.updatePages());
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu)
        putChunks(w, cpu, trace.blocks(cpu));
    putTrailer(os, w, trace.blockOps());
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
    std::string why;
    if (!iodetail::startsBinary(is)) {
        Trace trace(1);
        if (!walkText(is, trace, &why))
            fatal("trace: malformed trace '", path, "' (", why, ")");
        return trace;
    }
    const auto source = FileTraceSource::tryOpen(path, &why);
    if (source == nullptr)
        fatal("trace: malformed trace '", path, "' (", why, ")");
    return PackedTrace::pack(*source).unpack();
}

} // namespace oscache
