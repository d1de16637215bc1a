#include "trace/source.hh"

#include <algorithm>
#include <fstream>

#include "common/log.hh"
#include "trace/io.hh"
#include "trace/io_detail.hh"

namespace oscache
{

using iodetail::recordWireBytes;

/**
 * What both file cursors share: a private ifstream over the file, the
 * cpu's segment index, and a read-ahead buffer of up to the source's
 * bufferRecords records whose unread tail peek() and peekRun() hand
 * out.
 */
class FileTraceSource::FileCursor : public RecordCursor
{
  public:
    FileCursor(const FileTraceSource &source, CpuId cpu_id)
        : src(&source), cpu(cpu_id), segs(&source.segments[cpu_id]),
          is(source.path, std::ios::in | std::ios::binary)
    {
        if (!is)
            fatal("cannot reopen '", source.path, "' for streaming");
    }

    const TraceRecord *
    peek() override
    {
        if (bufPos >= buf.size()) {
            buf.clear();
            bufPos = 0;
            refill();
        }
        return bufPos < buf.size() ? &buf[bufPos] : nullptr;
    }

    void advance() override { ++bufPos; }

    std::size_t
    peekRun(const TraceRecord *&first) override
    {
        first = peek();
        return first != nullptr ? buf.size() - bufPos : 0;
    }

    void advanceRun(std::size_t n) override { bufPos += n; }

  protected:
    /** Append the next records, up to bufferRecords, to the empty buf. */
    virtual void refill() = 0;

    /** Consume up to @p n buffered records; returns how many. */
    std::size_t
    skipBuffered(std::size_t n)
    {
        const std::size_t done = std::min(n, buf.size() - bufPos);
        bufPos += done;
        return done;
    }

    const FileTraceSource *src;
    CpuId cpu;
    const std::vector<Segment> *segs;
    std::ifstream is;
    std::vector<TraceRecord> buf;
    std::size_t bufPos = 0;
    std::size_t segIdx = 0;
};

/**
 * Cursor over the record byte ranges of one cpu in a binary-format
 * file.  Each refill seeks to the next unread record, bulk-reads the
 * packed records, and decodes them through the format's validating
 * decoder, bounding block-op ids by the table: an Index-depth open
 * never read them.
 */
class FileTraceSource::BinaryCursor final : public FileCursor
{
  public:
    using FileCursor::FileCursor;

    /**
     * Chunk-skipping fast-forward: drain whatever is buffered, then
     * walk the segment index arithmetically — no record is read,
     * decoded, or even touched on disk until the next peek() seeks
     * straight to the first record past the skipped span.
     */
    std::size_t
    skip(std::size_t n) override
    {
        std::size_t done = skipBuffered(n);
        while (done < n) {
            const std::uint64_t left = segmentLeft();
            if (left == 0)
                break;
            const std::uint64_t step =
                std::min<std::uint64_t>(n - done, left);
            recIdx += step;
            done += std::size_t(step);
        }
        return done;
    }

  private:
    /** Unread records of the current segment, past spent ones. */
    std::uint64_t
    segmentLeft()
    {
        while (segIdx < segs->size() && recIdx >= (*segs)[segIdx].records) {
            ++segIdx;
            recIdx = 0;
        }
        return segIdx < segs->size() ? (*segs)[segIdx].records - recIdx : 0;
    }

    void
    refill() override
    {
        while (buf.size() < src->bufferRecords) {
            const std::uint64_t left = segmentLeft();
            if (left == 0)
                break;
            const std::size_t n = std::min<std::uint64_t>(
                src->bufferRecords - buf.size(), left);
            raw.resize(n * recordWireBytes);
            is.clear();
            is.seekg(std::streamoff((*segs)[segIdx].offset +
                                    recIdx * recordWireBytes));
            is.read(raw.data(), std::streamsize(raw.size()));
            if (is.gcount() != std::streamsize(raw.size()))
                fatal("trace: '", src->path,
                      "' truncated while streaming");
            for (std::size_t i = 0; i < n; ++i) {
                TraceRecord rec;
                const char *why = nullptr;
                if (!iodetail::decodeWireRecord(
                        raw.data() + i * recordWireBytes, rec, &why))
                    fatal("trace: '", src->path, "' cpu ", int(cpu), ": ",
                          why);
                if (iodetail::namesBlockOp(rec) &&
                    rec.aux >= src->table.size())
                    fatal("trace: '", src->path, "' cpu ", int(cpu),
                          ": record references unknown block op");
                buf.push_back(rec);
            }
            recIdx += n;
        }
    }

    std::vector<char> raw;
    std::uint64_t recIdx = 0; ///< Records consumed of segment segIdx.
};

/**
 * Cursor over the record line ranges of one cpu in a text-format
 * file.  Parses forward within each segment; comment and blank lines
 * inside a segment are skipped on the fly.
 */
class FileTraceSource::TextCursor final : public FileCursor
{
  public:
    using FileCursor::FileCursor;

    /**
     * Text has no record index to seek by, but skipping still skips
     * the parse: record lines are counted and discarded unparsed.
     */
    std::size_t
    skip(std::size_t n) override
    {
        std::size_t done = skipBuffered(n);
        std::string line;
        while (done < n && nextLine(line))
            ++done;
        return done;
    }

  private:
    void
    refill() override
    {
        std::string line;
        TraceRecord rec;
        const char *why = nullptr;
        while (buf.size() < src->bufferRecords && nextLine(line)) {
            if (!iodetail::tryParseRecordLine(line, rec, &why))
                fatal("trace: '", src->path, "' cpu ", int(cpu), ": ", why);
            buf.push_back(rec);
        }
    }

    /** Read this cpu's next record line; false past its last one. */
    bool
    nextLine(std::string &line)
    {
        while (segIdx < segs->size()) {
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
            pos = is.eof() ? seg.end : pos + line.size() + 1;
            if (!line.empty() && line[0] != '#')
                return true;
        }
        return false;
    }

    std::uint64_t pos = 0; ///< File offset of the next line.
    bool inSeg = false;    ///< Positioned inside segment segIdx.
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

/** Indexes where each cpu's records lie; keeps no record. */
class FileTraceSource::Indexer final : public iodetail::TraceSink
{
  public:
    explicit Indexer(FileTraceSource &source) : src(source) {}

    void
    begin(unsigned cpus, bool text) override
    {
        src.text = text;
        src.segments.assign(cpus, {});
        src.recordCounts.assign(cpus, 0);
    }
    std::unordered_set<Addr> &updatePages() override { return src.pages; }
    BlockOpTable &blockOps() override { return src.table; }
    RecordStream *records(CpuId) override { return nullptr; }

    void
    segment(CpuId cpu, std::uint64_t offset, std::uint64_t end,
            std::uint64_t count) override
    {
        src.segments[cpu].push_back({offset, count, end});
        src.recordCounts[cpu] += count;
    }

  private:
    FileTraceSource &src;
};

bool
FileTraceSource::scan(std::string *error)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is) {
        if (error != nullptr)
            *error = "cannot open file";
        return false;
    }
    Indexer sink(*this);
    return iodetail::walkTrace(is, sink, depth == ScanDepth::Full, error);
}

TraceSourceFactory
openTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is)
        fatal("cannot open '", path, "' for reading");
    if (iodetail::startsBinary(is)) {
        auto file = std::make_shared<const FileTraceSource>(path);
        return [file] { return std::make_unique<FileTraceSource>(*file); };
    }
    auto trace = std::make_shared<const Trace>(readTraceFile(path));
    return [trace] { return std::make_unique<MaterializedTraceSource>(trace); };
}

} // namespace oscache
