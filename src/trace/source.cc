#include "trace/source.hh"

#include <fstream>

#include "common/log.hh"
#include "trace/io.hh"
#include "trace/io_detail.hh"
#include "trace/packed.hh"

namespace oscache
{

/**
 * A cursor over one cpu's blocks in a chunked file: each block is
 * read through a private ifstream into a buffer big enough for any
 * block, and decoded and checked as outside bytes.  Consecutive
 * blocks of a chunk are read without a seek.  It shares the index,
 * so it may outlive its source.
 */
class FileTraceSource::Cursor final : public PackedBlockCursor
{
  public:
    Cursor(const FileTraceSource &source, CpuId cpu_id)
        : PackedBlockCursor(source.index->records[cpu_id],
                            &source.index->ops),
          index(source.index), path(source.path),
          blocks(&index->blocks[cpu_id]), cpu(cpu_id),
          is(source.path, std::ios::in | std::ios::binary)
    {
        if (!is)
            fatal("cannot reopen '", source.path, "' for streaming");
    }

  private:
    const std::uint8_t *
    blockBytes(std::size_t block, std::size_t &size) override
    {
        const iodetail::ChunkIndex::Block &where = (*blocks)[block];
        if (where.offset != at) {
            is.clear();
            is.seekg(std::streamoff(where.offset));
        }
        is.read(reinterpret_cast<char *>(buf.data()), where.bytes);
        if (is.gcount() != std::streamsize(where.bytes))
            fatal("trace: '", path, "' truncated while streaming");
        at = where.offset + where.bytes;
        size = where.bytes;
        return buf.data();
    }

    [[noreturn]] void
    reject(const char *why) override
    {
        fatal("trace: '", path, "' cpu ", int(cpu), ": ", why);
    }

    std::shared_ptr<const iodetail::ChunkIndex> index;
    std::string path;
    const std::vector<iodetail::ChunkIndex::Block> *blocks;
    CpuId cpu;
    std::ifstream is;
    /** The file offset the stream is at. */
    std::uint64_t at = 0;
    std::array<std::uint8_t, PackedTrace::blockRecords *
                                     PackedTrace::maxRecordBytes +
                                 PackedTrace::loadPadding>
        buf{};
};

FileTraceSource::FileTraceSource(const std::string &file_path,
                                 ScanDepth depth)
    : path(file_path)
{
    std::string why;
    if (!scan(depth, &why))
        fatal("trace: cannot stream '", path, "' (", why, ")");
}

std::unique_ptr<FileTraceSource>
FileTraceSource::tryOpen(const std::string &path, std::string *error,
                         ScanDepth depth)
{
    std::unique_ptr<FileTraceSource> src(new FileTraceSource());
    src->path = path;
    if (!src->scan(depth, error))
        return nullptr;
    return src;
}

unsigned
FileTraceSource::numCpus() const
{
    return unsigned(index->records.size());
}

const BlockOpTable &
FileTraceSource::blockOps() const
{
    return index->ops;
}

const std::unordered_set<Addr> &
FileTraceSource::updatePages() const
{
    return index->pages;
}

std::unique_ptr<RecordCursor>
FileTraceSource::cursor(CpuId cpu)
{
    if (cpu >= numCpus())
        panic("FileTraceSource::cursor: bad cpu ", int(cpu));
    return std::make_unique<Cursor>(*this, cpu);
}

std::optional<std::size_t>
FileTraceSource::knownRecords(CpuId cpu) const
{
    if (cpu >= numCpus())
        return std::nullopt;
    return index->records[cpu];
}

bool
FileTraceSource::scan(ScanDepth depth, std::string *error)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is) {
        if (error != nullptr)
            *error = "cannot open file";
        return false;
    }
    auto scanned = std::make_shared<iodetail::ChunkIndex>();
    if (!iodetail::walkChunked(is, *scanned, depth == ScanDepth::Full,
                               error))
        return false;
    index = std::move(scanned);
    return true;
}

TraceSourceFactory
openTraceFile(const std::string &path, FileTraceSource::ScanDepth depth)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is)
        fatal("cannot open '", path, "' for reading");
    if (iodetail::startsBinary(is)) {
        auto file = std::make_shared<const FileTraceSource>(path, depth);
        return [file] { return std::make_unique<FileTraceSource>(*file); };
    }
    auto trace = std::make_shared<const Trace>(readTraceFile(path));
    return [trace] { return std::make_unique<MaterializedTraceSource>(trace); };
}

} // namespace oscache
