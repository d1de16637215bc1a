#include "trace/source.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "trace/io_detail.hh"

namespace oscache
{

using iodetail::BinaryReader;
using iodetail::binaryMagic;
using iodetail::chunkEndMarker;
using iodetail::recordWireBytes;

namespace
{

/** Decode one packed wire record (already validated by the scan). */
TraceRecord
decodeRecord(const char *p)
{
    TraceRecord rec;
    std::memcpy(&rec.addr, p, sizeof(rec.addr));
    p += sizeof(rec.addr);
    std::memcpy(&rec.aux, p, sizeof(rec.aux));
    p += sizeof(rec.aux);
    std::memcpy(&rec.bb, p, sizeof(rec.bb));
    p += sizeof(rec.bb);
    rec.type = RecordType(std::uint8_t(p[0]));
    rec.category = DataCategory(std::uint8_t(p[1]));
    rec.size = std::uint8_t(p[2]);
    rec.flags = std::uint8_t(p[3]);
    return rec;
}

} // namespace

/**
 * Cursor over the record byte ranges of one cpu in a binary-format
 * file.  Each refill seeks to the next unread record and bulk-reads
 * up to readAhead() packed records through a private ifstream.
 */
class FileTraceSource::BinaryCursor final : public RecordCursor
{
  public:
    BinaryCursor(const FileTraceSource &source, CpuId cpu)
        : src(&source), segs(&source.segments[cpu]),
          is(source.path, std::ios::in | std::ios::binary)
    {
        if (!is)
            fatal("cannot reopen '", source.path, "' for streaming");
    }

    const TraceRecord *
    peek() override
    {
        if (bufPos >= buf.size())
            refill();
        return bufPos < buf.size() ? &buf[bufPos] : nullptr;
    }

    void advance() override { ++bufPos; }

    /** The unread tail of the read-ahead buffer is one span. */
    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        if (bufPos >= buf.size())
            refill();
        if (bufPos >= buf.size()) {
            first = nullptr;
            return 0;
        }
        first = &buf[bufPos];
        return buf.size() - bufPos;
    }

    void advanceRun(std::size_t n) override { bufPos += n; }

    /**
     * Chunk-skipping fast-forward: drain whatever is buffered, then
     * walk the segment index arithmetically — no record is read,
     * decoded, or even touched on disk until the next peek() seeks
     * straight to the first record past the skipped span.
     */
    std::size_t
    skip(std::size_t n) override
    {
        std::size_t done = std::min(n, buf.size() - bufPos);
        bufPos += done;
        while (done < n && segIdx < segs->size()) {
            const Segment &seg = (*segs)[segIdx];
            if (recIdx >= seg.records) {
                ++segIdx;
                recIdx = 0;
                continue;
            }
            const std::uint64_t step = std::min<std::uint64_t>(
                n - done, seg.records - recIdx);
            recIdx += step;
            done += std::size_t(step);
        }
        return done;
    }

  private:
    void
    refill()
    {
        buf.clear();
        bufPos = 0;
        while (buf.size() < src->bufferRecords && segIdx < segs->size()) {
            const Segment &seg = (*segs)[segIdx];
            if (recIdx >= seg.records) {
                ++segIdx;
                recIdx = 0;
                continue;
            }
            const std::size_t n =
                std::min<std::size_t>(src->bufferRecords - buf.size(),
                                      seg.records - recIdx);
            raw.resize(n * recordWireBytes);
            is.clear();
            is.seekg(std::streamoff(seg.offset +
                                    recIdx * recordWireBytes));
            is.read(raw.data(), std::streamsize(raw.size()));
            if (is.gcount() != std::streamsize(raw.size()))
                fatal("trace: '", src->path,
                      "' truncated while streaming");
            for (std::size_t i = 0; i < n; ++i)
                buf.push_back(
                    decodeRecord(raw.data() + i * recordWireBytes));
            recIdx += n;
        }
    }

    const FileTraceSource *src;
    const std::vector<Segment> *segs;
    std::ifstream is;
    std::vector<char> raw;
    std::vector<TraceRecord> buf;
    std::size_t bufPos = 0;
    std::size_t segIdx = 0;
    std::uint64_t recIdx = 0;
};

/**
 * Cursor over the record line ranges of one cpu in a text-format
 * file.  Parses forward within each segment, buffering up to
 * readAhead() records; comment and blank lines inside a segment are
 * skipped on the fly.
 */
class FileTraceSource::TextCursor final : public RecordCursor
{
  public:
    TextCursor(const FileTraceSource &source, CpuId cpu)
        : src(&source), segs(&source.segments[cpu]),
          is(source.path, std::ios::in | std::ios::binary)
    {
        if (!is)
            fatal("cannot reopen '", source.path, "' for streaming");
    }

    const TraceRecord *
    peek() override
    {
        if (bufPos >= buf.size())
            refill();
        return bufPos < buf.size() ? &buf[bufPos] : nullptr;
    }

    void advance() override { ++bufPos; }

    /** The unread tail of the read-ahead buffer is one span. */
    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        if (bufPos >= buf.size())
            refill();
        if (bufPos >= buf.size()) {
            first = nullptr;
            return 0;
        }
        first = &buf[bufPos];
        return buf.size() - bufPos;
    }

    void advanceRun(std::size_t n) override { bufPos += n; }

    /**
     * Text has no record index to seek by, but skipping still skips
     * the parse: record lines are counted and discarded unparsed.
     */
    std::size_t
    skip(std::size_t n) override
    {
        std::size_t done = std::min(n, buf.size() - bufPos);
        bufPos += done;
        std::string line;
        while (done < n && segIdx < segs->size()) {
            const Segment &seg = (*segs)[segIdx];
            if (!inSeg) {
                is.clear();
                is.seekg(std::streamoff(seg.offset));
                pos = seg.offset;
                inSeg = true;
            }
            if (pos >= seg.end) {
                ++segIdx;
                inSeg = false;
                continue;
            }
            if (!std::getline(is, line))
                fatal("trace: '", src->path,
                      "' truncated while streaming");
            pos = is.eof() ? seg.end : std::uint64_t(is.tellg());
            if (line.empty() || line[0] == '#')
                continue;
            ++done;
        }
        return done;
    }

  private:
    void
    refill()
    {
        buf.clear();
        bufPos = 0;
        std::string line;
        while (buf.size() < src->bufferRecords && segIdx < segs->size()) {
            const Segment &seg = (*segs)[segIdx];
            if (!inSeg) {
                is.clear();
                is.seekg(std::streamoff(seg.offset));
                pos = seg.offset;
                inSeg = true;
            }
            if (pos >= seg.end) {
                ++segIdx;
                inSeg = false;
                continue;
            }
            if (!std::getline(is, line))
                fatal("trace: '", src->path,
                      "' truncated while streaming");
            pos = is.eof() ? seg.end : std::uint64_t(is.tellg());
            if (line.empty() || line[0] == '#')
                continue;
            buf.push_back(iodetail::parseRecordLine(line));
        }
    }

    const FileTraceSource *src;
    const std::vector<Segment> *segs;
    std::ifstream is;
    std::vector<TraceRecord> buf;
    std::size_t bufPos = 0;
    std::size_t segIdx = 0;
    std::uint64_t pos = 0;
    bool inSeg = false;
};

FileTraceSource::FileTraceSource(const std::string &file_path,
                                 std::size_t read_ahead, ScanDepth scan_depth)
{
    path = file_path;
    bufferRecords = std::max<std::size_t>(1, read_ahead);
    depth = scan_depth;
    std::string why;
    if (!scan(&why))
        fatal("trace: cannot stream '", path, "' (", why, ")");
}

std::unique_ptr<FileTraceSource>
FileTraceSource::tryOpen(const std::string &path, std::size_t read_ahead,
                         std::string *error, ScanDepth depth)
{
    std::unique_ptr<FileTraceSource> src(new FileTraceSource());
    src->path = path;
    src->bufferRecords = std::max<std::size_t>(1, read_ahead);
    src->depth = depth;
    if (!src->scan(error))
        return nullptr;
    return src;
}

unsigned
FileTraceSource::numCpus() const
{
    return unsigned(segments.size());
}

std::unique_ptr<RecordCursor>
FileTraceSource::cursor(CpuId cpu)
{
    if (cpu >= numCpus())
        panic("FileTraceSource::cursor: bad cpu ", int(cpu));
    if (text)
        return std::make_unique<TextCursor>(*this, cpu);
    return std::make_unique<BinaryCursor>(*this, cpu);
}

std::optional<std::size_t>
FileTraceSource::knownRecords(CpuId cpu) const
{
    if (cpu >= recordCounts.size())
        return std::nullopt;
    return recordCounts[cpu];
}

bool
FileTraceSource::scan(std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is)
        return fail("cannot open file");

    char magic[sizeof(binaryMagic)];
    is.read(magic, sizeof(magic));
    const bool binary =
        is.gcount() == std::streamsize(sizeof(magic)) &&
        std::memcmp(magic, binaryMagic, sizeof(magic)) == 0;
    is.clear();
    is.seekg(0);
    return binary ? scanBinary(is, error) : scanText(is, error);
}

bool
FileTraceSource::scanBinary(std::istream &is, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    is.seekg(std::streamoff(sizeof(binaryMagic)));
    BinaryReader r(is);

    std::uint32_t cpus = 0;
    const char *why = nullptr;
    if (!iodetail::getHeader(r, cpus, pages, &why))
        return fail(why);
    segments.assign(cpus, {});
    recordCounts.assign(cpus, 0);

    // The table trails the records, so block-op references are
    // bounds-checked afterwards via the largest id seen.
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
        Segment seg;
        seg.offset = std::uint64_t(is.tellg());
        seg.records = count;
        if (depth == ScanDepth::Index) {
            is.seekg(std::streamoff(std::uint64_t(count) * recordWireBytes),
                     std::ios::cur);
            if (!is || is.peek() == std::istream::traits_type::eof())
                return fail("truncated record stream");
        } else {
            for (std::uint32_t i = 0; i < count; ++i) {
                TraceRecord rec;
                if (!iodetail::getRecord(r, rec, &why))
                    return fail(why);
                if (rec.type == RecordType::BlockOpBegin ||
                    rec.type == RecordType::BlockOpEnd) {
                    any_op_ref = true;
                    max_op_ref =
                        std::max<std::uint64_t>(max_op_ref, rec.aux);
                }
            }
        }
        recordCounts[cpu] += count;
        if (count > 0)
            segments[cpu].push_back(seg);
    }
    if (!iodetail::getBlockOps(r, table, &why))
        return fail(why);
    if (any_op_ref && max_op_ref >= table.size())
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
    // An Index scan never read the record payloads, so the running
    // checksum is not the file's; the trailing word's presence is
    // still required above.
    if (depth == ScanDepth::Full && stored != expected)
        return fail("checksum mismatch");
    if (is.peek() != std::istream::traits_type::eof())
        return fail("trailing garbage");
    return true;
}

bool
FileTraceSource::scanText(std::istream &is, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    text = true;

    std::string line;
    if (!std::getline(is, line) || line != "oscache-trace 1")
        return fail("missing or unsupported header");

    unsigned cpus = 0;
    {
        if (!std::getline(is, line))
            return fail("missing cpus line");
        std::istringstream ls(line);
        std::string kw;
        ls >> kw >> cpus;
        if (kw != "cpus" || cpus == 0 || cpus > 64)
            return fail("bad cpus line");
    }
    segments.assign(cpus, {});
    recordCounts.assign(cpus, 0);

    int cur_cpu = -1;
    bool seg_open = false;
    std::uint64_t max_op_ref = 0;
    bool any_op_ref = false;

    while (true) {
        const std::uint64_t line_start = std::uint64_t(is.tellg());
        if (!std::getline(is, line))
            break;
        const std::uint64_t line_end =
            is.eof() ? line_start + line.size()
                     : std::uint64_t(is.tellg());
        if (line.empty() || line[0] == '#')
            continue;

        std::istringstream ls(line);
        std::string kw;
        ls >> kw;

        if (kw == "updatepage") {
            seg_open = false;
            Addr page = 0;
            ls >> std::hex >> page;
            if (ls.fail())
                return fail("bad updatepage line");
            pages.insert(page);
        } else if (kw == "blockop") {
            seg_open = false;
            std::size_t id;
            std::string kind, ro;
            BlockOp op;
            ls >> id >> kind >> std::hex >> op.src >> op.dst >>
                std::dec >> op.size >> ro;
            if (ls.fail() || (kind != "copy" && kind != "zero"))
                return fail("bad blockop line");
            op.kind =
                kind == "copy" ? BlockOpKind::Copy : BlockOpKind::Zero;
            op.readOnlyAfter = (ro == "ro");
            if (table.add(op) != id)
                return fail("blockop ids must be dense and in order");
        } else if (kw == "stream") {
            seg_open = false;
            unsigned cpu;
            ls >> cpu;
            if (ls.fail() || cpu >= cpus)
                return fail("bad stream line");
            cur_cpu = int(cpu);
        } else {
            if (cur_cpu < 0)
                return fail("record before any stream directive");
            TraceRecord rec;
            const char *why = nullptr;
            if (!iodetail::tryParseRecordLine(line, rec, &why))
                return fail(why);
            if (rec.type == RecordType::BlockOpBegin ||
                rec.type == RecordType::BlockOpEnd) {
                any_op_ref = true;
                max_op_ref = std::max<std::uint64_t>(max_op_ref, rec.aux);
            }
            if (!seg_open) {
                Segment seg;
                seg.offset = line_start;
                segments[cur_cpu].push_back(seg);
                seg_open = true;
            }
            Segment &seg = segments[cur_cpu].back();
            seg.end = line_end;
            seg.records += 1;
            recordCounts[cur_cpu] += 1;
        }
    }

    if (any_op_ref && max_op_ref >= table.size())
        return fail("record references unknown block op");
    return true;
}

} // namespace oscache
