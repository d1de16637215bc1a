/**
 * @file
 * Tests for trace serialization: round trips, format details, and
 * rejection of malformed input.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/binio.hh"
#include "synth/generator.hh"
#include "trace/io.hh"
#include "trace/packed.hh"
#include "trace/source.hh"

namespace oscache
{
namespace
{

Trace
sampleTrace()
{
    Trace trace(2);
    trace.updatePages().insert(0x8000'0000);

    BlockOp op;
    op.src = 0x1000;
    op.dst = 0x2000;
    op.size = 4096;
    op.kind = BlockOpKind::Copy;
    op.readOnlyAfter = true;
    const BlockOpId id = trace.blockOps().add(op);
    BlockOp zero;
    zero.dst = 0x3000;
    zero.size = 512;
    zero.kind = BlockOpKind::Zero;
    trace.blockOps().add(zero);

    auto &s0 = trace.stream(0);
    s0.push_back(TraceRecord::exec(100, 7, true));
    s0.push_back(TraceRecord::read(0xdeadbeef, DataCategory::PageTable, 7,
                                   true));
    s0.push_back(TraceRecord::write(0x1234, DataCategory::User, 8, false,
                                    8));
    s0.push_back(
        TraceRecord::prefetch(0x4000, DataCategory::KernelOther, 9, true));
    TraceRecord begin;
    begin.type = RecordType::BlockOpBegin;
    begin.aux = id;
    begin.flags = flagOs;
    s0.push_back(begin);
    TraceRecord end = begin;
    end.type = RecordType::BlockOpEnd;
    s0.push_back(end);

    auto &s1 = trace.stream(1);
    s1.push_back(TraceRecord::idle(900));
    TraceRecord lock;
    lock.type = RecordType::LockAcquire;
    lock.addr = 0x5000;
    lock.category = DataCategory::Lock;
    lock.flags = flagOs;
    s1.push_back(lock);
    TraceRecord unlock = lock;
    unlock.type = RecordType::LockRelease;
    s1.push_back(unlock);
    TraceRecord arrive;
    arrive.type = RecordType::BarrierArrive;
    arrive.addr = 0x6000;
    arrive.aux = 2;
    arrive.category = DataCategory::Barrier;
    arrive.flags = flagOs;
    s1.push_back(arrive);
    return trace;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.numCpus(), b.numCpus());
    EXPECT_EQ(a.updatePages(), b.updatePages());
    ASSERT_EQ(a.blockOps().size(), b.blockOps().size());
    for (std::size_t i = 0; i < a.blockOps().size(); ++i) {
        const BlockOp &x = a.blockOps().get(BlockOpId(i));
        const BlockOp &y = b.blockOps().get(BlockOpId(i));
        EXPECT_EQ(x.src, y.src);
        EXPECT_EQ(x.dst, y.dst);
        EXPECT_EQ(x.size, y.size);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.readOnlyAfter, y.readOnlyAfter);
    }
    for (CpuId c = 0; c < a.numCpus(); ++c) {
        const auto &sa = a.stream(c);
        const auto &sb = b.stream(c);
        ASSERT_EQ(sa.size(), sb.size()) << "cpu " << int(c);
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].type, sb[i].type) << i;
            EXPECT_EQ(sa[i].addr, sb[i].addr) << i;
            EXPECT_EQ(sa[i].aux, sb[i].aux) << i;
            EXPECT_EQ(sa[i].bb, sb[i].bb) << i;
            EXPECT_EQ(sa[i].category, sb[i].category) << i;
            EXPECT_EQ(sa[i].isOs(), sb[i].isOs()) << i;
        }
    }
}

TEST(TraceIoTest, RoundTripsSampleTrace)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, original);
    const Trace restored = readTrace(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoTest, RoundTripsSyntheticWorkload)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace original =
        generateTrace(p, CoherenceOptions::relocUpdate());
    std::stringstream buffer;
    writeTrace(buffer, original);
    const Trace restored = readTrace(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoTest, HeaderPresent)
{
    std::stringstream buffer;
    writeTrace(buffer, Trace(1));
    std::string first;
    std::getline(buffer, first);
    EXPECT_EQ(first, "oscache-trace 1");
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored)
{
    std::stringstream in(
        "oscache-trace 1\n"
        "cpus 1\n"
        "# a comment\n"
        "\n"
        "stream 0\n"
        "x 10 5 1\n");
    const Trace t = readTrace(in);
    ASSERT_EQ(t.stream(0).size(), 1u);
    EXPECT_EQ(t.stream(0)[0].aux, 10u);
}

TEST(TraceIoTest, RejectsBadHeader)
{
    std::stringstream in("not-a-trace\n");
    EXPECT_DEATH(readTrace(in), "header");
}

TEST(TraceIoTest, RejectsUnknownDirective)
{
    std::stringstream in("oscache-trace 1\ncpus 1\nstream 0\nz 1 2 3\n");
    EXPECT_DEATH(readTrace(in), "unknown directive");
}

TEST(TraceIoTest, RejectsRecordBeforeStream)
{
    std::stringstream in("oscache-trace 1\ncpus 1\nx 1 2 1\n");
    EXPECT_DEATH(readTrace(in), "before any stream");
}

TEST(TraceIoTest, RejectsDanglingBlockOpReference)
{
    std::stringstream in("oscache-trace 1\ncpus 1\nstream 0\nB 3\n");
    EXPECT_DEATH(readTrace(in), "unknown block op");
}

TEST(TraceIoTest, RejectsBadCategory)
{
    std::stringstream in(
        "oscache-trace 1\ncpus 1\nstream 0\nr ff wat 1 1 4\n");
    EXPECT_DEATH(readTrace(in), "unknown data category");
}

/**
 * Write @p bytes to a scratch file named @p name, private to this
 * process (ctest runs tests in parallel); returns its path.
 */
std::string
writeBytesFile(const std::string &name, const std::string &bytes)
{
    const std::string path = "/tmp/oscache_trace_io_" +
                             std::to_string(::getpid()) + "_" + name;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
    return path;
}

/** The chunked v4 encoding of @p trace. */
std::string
chunkedBytes(const Trace &trace)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, trace);
    return buffer.str();
}

/** Read chunked @p bytes back through a scratch file. */
Trace
readChunked(const std::string &bytes)
{
    return readTraceFile(writeBytesFile("roundtrip.otb", bytes));
}

/**
 * Why a Full open rejects chunked @p bytes, or "" when it accepts
 * them.
 */
std::string
rejection(const std::string &bytes)
{
    const std::string path = writeBytesFile("rejected.otb", bytes);
    std::string why;
    if (FileTraceSource::tryOpen(path, &why) != nullptr)
        return "";
    EXPECT_FALSE(why.empty());
    return why;
}

TEST(TraceIoTest, MaxCpusRoundTripAndWritersRefuseMore)
{
    Trace wide(maxTraceCpus);
    wide.stream(0).push_back(TraceRecord::exec(5, 1, true));
    wide.stream(maxTraceCpus - 1).push_back(TraceRecord::idle(7));
    std::stringstream text;
    writeTrace(text, wide);
    expectTracesEqual(wide, readTrace(text));
    expectTracesEqual(wide, readChunked(chunkedBytes(wide)));

    const Trace too_wide(maxTraceCpus + 1);
    std::stringstream out;
    EXPECT_DEATH(writeTrace(out, too_wide), "cannot write 65 cpus");
    EXPECT_DEATH(writeTraceChunked(out, too_wide), "cannot write 65 cpus");
}

TEST(TraceIoTest, FileRoundTrip)
{
    const Trace original = sampleTrace();
    const std::string path = "/tmp/oscache_trace_io_test.trace";
    writeTraceFile(path, original);
    const Trace restored = readTraceFile(path);
    expectTracesEqual(original, restored);
}

// ----------------------------------------- binary format (chunked v4)

TEST(TraceIoBinaryTest, RoundTripsSampleTrace)
{
    const Trace original = sampleTrace();
    expectTracesEqual(original, readChunked(chunkedBytes(original)));
}

TEST(TraceIoBinaryTest, RoundTripsSyntheticWorkload)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace original =
        generateTrace(p, CoherenceOptions::relocUpdate());
    expectTracesEqual(original, readChunked(chunkedBytes(original)));
}

TEST(TraceIoBinaryTest, WritersAgreeOnRecords)
{
    // The streaming writer, fed any interleaving of batch sizes, and
    // a packed trace's blocks written as they are, both read back as
    // the trace; only full blocks precede a stream's last chunk.
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = 2;
    const Trace original = generateTrace(p, CoherenceOptions::none());

    std::stringstream streamed;
    {
        ChunkedTraceWriter writer(streamed, original.numCpus(),
                                  original.updatePages());
        std::vector<std::size_t> at(original.numCpus(), 0);
        const std::size_t batches[] = {1, 7, 300, 256, 1000};
        for (std::size_t round = 0, left = 1; left > 0; ++round) {
            left = 0;
            for (CpuId cpu = 0; cpu < original.numCpus(); ++cpu) {
                const RecordStream &s = original.stream(cpu);
                const std::size_t n = std::min(
                    batches[(round + cpu) % std::size(batches)],
                    s.size() - at[cpu]);
                writer.writeChunk(cpu, s.data() + at[cpu], n);
                at[cpu] += n;
                left += s.size() - at[cpu];
            }
        }
        writer.finish(original.blockOps());
    }
    expectTracesEqual(original, readChunked(streamed.str()));

    MaterializedTraceSource source(original);
    std::stringstream stored;
    writeTraceChunked(stored, PackedTrace::pack(source));
    expectTracesEqual(original, readChunked(stored.str()));
}

TEST(TraceIoBinaryTest, MatchesTextSemantics)
{
    const Trace original = sampleTrace();
    std::stringstream text;
    writeTrace(text, original);
    expectTracesEqual(readTrace(text), readChunked(chunkedBytes(original)));
}

TEST(TraceIoBinaryTest, StartsWithMagicAndVersion)
{
    const std::string bytes = chunkedBytes(Trace(1));
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes.substr(0, 4), "OSTR");
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    EXPECT_EQ(version, traceFormatVersion);
    EXPECT_EQ(version, 4u);
}

TEST(TraceIoBinaryTest, TryReadRejectsBadMagic)
{
    EXPECT_EQ(rejection("NOPE....garbage"), "bad magic");
}

TEST(TraceIoBinaryTest, TryReadRejectsTruncation)
{
    const std::string bytes = chunkedBytes(sampleTrace());
    EXPECT_NE(rejection(bytes.substr(0, bytes.size() / 2)), "");
}

TEST(TraceIoBinaryTest, TryReadRejectsBitFlip)
{
    std::string bytes = chunkedBytes(sampleTrace());
    // Flip a payload byte past the header; the checksum (or the
    // structure it lands in) must notice.
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_NE(rejection(bytes), "");
}

TEST(TraceIoBinaryTest, TryReadRejectsTrailingGarbage)
{
    EXPECT_EQ(rejection(chunkedBytes(sampleTrace()) + "x"),
              "trailing garbage");
}

TEST(TraceIoBinaryTest, DeterministicBytes)
{
    // The same trace must serialize to the same bytes (the artifact
    // cache hashes rely on it), including the unordered update pages.
    Trace trace = sampleTrace();
    trace.updatePages().insert(0x1000);
    trace.updatePages().insert(0x7000);
    EXPECT_EQ(chunkedBytes(trace), chunkedBytes(trace));
}

TEST(TraceIoBinaryTest, FileRoundTripAutodetects)
{
    const Trace original = sampleTrace();
    const std::string bin_path = "/tmp/oscache_trace_io_test.otb";
    const std::string txt_path = "/tmp/oscache_trace_io_test2.trace";
    writeTraceFile(bin_path, original, TraceFormat::Chunked);
    writeTraceFile(txt_path, original, TraceFormat::Text);
    expectTracesEqual(readTraceFile(bin_path), readTraceFile(txt_path));
}

// ------------------------------------------------------- error paths

/** A malformed text trace and the reason every reader must give. */
struct MalformedText
{
    const char *text;
    const char *reason;
};

const MalformedText malformedTexts[] = {
    {"not-a-trace\n", "missing or unsupported header"},
    {"oscache-trace 1\n", "missing cpus line"},
    {"oscache-trace 1\nprocs 1\n", "bad cpus line"},
    {"oscache-trace 1\ncpus zz\n", "bad cpus line"},
    {"oscache-trace 1\ncpus 65\n", "bad cpus line"},
    {"oscache-trace 1\ncpus 1\nupdatepage zz\n", "bad updatepage line"},
    {"oscache-trace 1\ncpus 1\nblockop 0 move 10 20 64 rw\n",
     "bad blockop line"},
    {"oscache-trace 1\ncpus 1\nblockop 0 zero 0 20\n", "bad blockop line"},
    {"oscache-trace 1\ncpus 1\nblockop 1 zero 0 20 64 rw\n",
     "blockop ids must be dense and in order"},
    {"oscache-trace 1\ncpus 1\nstream 1\n", "bad stream line"},
    {"oscache-trace 1\ncpus 1\nstream x\n", "bad stream line"},
    {"oscache-trace 1\ncpus 1\nx 1 2 1\n",
     "record before any stream directive"},
    {"oscache-trace 1\ncpus 1\nstream 0\nz 1 2 3\n", "unknown directive"},
    {"oscache-trace 1\ncpus 1\nstream 0\nr ff wat 1 1 4\n",
     "unknown data category"},
    {"oscache-trace 1\ncpus 1\nstream 0\nr ff user 1\n",
     "malformed record"},
    {"oscache-trace 1\ncpus 1\nstream 0\nr ff00 kother 7 1 999\n",
     "access size above 255"},
    {"oscache-trace 1\ncpus 1\nstream 0\nB 3\n",
     "record references unknown block op"},
};

TEST(TraceIoErrorTest, TextReadersRejectMalformedInputAlike)
{
    // readTrace(), readTraceFile() and openTraceFile() walk text with
    // the same walker, so one file gets one verdict and one reason
    // from all three; FileTraceSource reads only chunked files.
    for (const MalformedText &row : malformedTexts) {
        SCOPED_TRACE(row.text);
        const std::string path = writeBytesFile("malformed.trace", row.text);
        const std::string reason = std::string("\\(") + row.reason;
        EXPECT_DEATH(readTraceFile(path), "malformed trace '.*' " + reason);
        EXPECT_DEATH(openTraceFile(path), "malformed trace '.*' " + reason);
        std::stringstream in(row.text);
        EXPECT_DEATH(readTrace(in), std::string("trace: ") + row.reason);
        std::string why;
        EXPECT_EQ(FileTraceSource::tryOpen(path, &why), nullptr);
        EXPECT_EQ(why, "bad magic");
    }
}

/** Rewrite the trailing checksum of chunked @p bytes to match them. */
void
resum(std::string &bytes)
{
    binio::ChecksumStream sum;
    sum.mix(bytes.data() + 4, bytes.size() - 4 - 8);
    const std::uint64_t value = sum.value();
    std::memcpy(bytes.data() + bytes.size() - 8, &value, sizeof(value));
}

TEST(TraceIoErrorTest, IndexOpenCursorRejectsCorruptRecords)
{
    // One cpu, one block: an escaped write (its size is not 4), a
    // PageTable read (a category byte, since the block starts at
    // User), and the begin of block op 0 (a one-byte aux).  The file
    // is magic(4) + version(4) + cpus(4) + page count(8), then the
    // chunk header cpu(4) + records(4) + block length(4), so the
    // block's three header bytes start at 32 and its payload at 35:
    // the escape's 20 bytes (type at +16), then the read's category
    // byte; the op id is the block's last byte.  Each case corrupts
    // one byte and rewrites the checksum, so only the decoder and
    // the record checks can tell.
    Trace trace(1);
    trace.blockOps().add(BlockOp{});
    RecordStream &s = trace.stream(0);
    s.push_back(TraceRecord::write(0x1234, DataCategory::User, 8, false, 8));
    s.push_back(TraceRecord::read(0x1240, DataCategory::PageTable, 8, true));
    TraceRecord begin;
    begin.type = RecordType::BlockOpBegin;
    begin.flags = flagOs;
    s.push_back(begin);
    const std::string bytes = chunkedBytes(trace);
    std::uint32_t block_bytes = 0;
    std::memcpy(&block_bytes, bytes.data() + 28, sizeof(block_bytes));
    const std::size_t block = 32;
    const std::size_t op_at = block + block_bytes - 1;
    ASSERT_EQ(bytes[block + 3 + 16], char(RecordType::Write));
    ASSERT_EQ(bytes[block + 3 + 20], char(DataCategory::PageTable));
    ASSERT_EQ(bytes[op_at], 0);

    const struct
    {
        std::size_t at;
        char value;
        const char *reason;
    } cases[] = {
        {block + 3 + 16, char(200), "bad record type"},
        {block + 3 + 20, char(200), "bad data category"},
        {block + 2, char(200), "bad record header"},
        // Another block-op form, with a two-byte aux.
        {block + 2, char(bytes[block + 2] + 1),
         "block length disagrees with its headers"},
        {op_at, char(1), "record references unknown block op"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.reason);
        std::string corrupt = bytes;
        corrupt[c.at] = c.value;
        resum(corrupt);
        EXPECT_EQ(rejection(corrupt), c.reason);

        const std::string path = writeBytesFile("index.otb", corrupt);
        std::string why;
        const auto source = FileTraceSource::tryOpen(
            path, &why, FileTraceSource::ScanDepth::Index);
        ASSERT_NE(source, nullptr) << why;
        const auto drain = [&source] {
            auto cursor = source->cursor(0);
            while (cursor->peek() != nullptr)
                cursor->advance();
        };
        EXPECT_DEATH(drain(), std::string("index.otb' cpu 0: ") + c.reason);
    }
}

TEST(TraceIoErrorTest, RejectsCorruptVersionWord)
{
    std::string bytes = chunkedBytes(sampleTrace());
    bytes[4] = char(0x7f); // Version word follows the 4-byte magic.
    EXPECT_EQ(rejection(bytes), "unsupported version");
}

TEST(TraceIoErrorTest, RejectsRetiredVersion2)
{
    // Files of the retired encodings carry version word 2 (unchunked)
    // or 3 (fixed 20-byte records); every reader refuses them before
    // looking past the header.
    for (const std::uint32_t retired : {2u, 3u}) {
        SCOPED_TRACE(retired);
        std::string bytes = chunkedBytes(sampleTrace());
        std::memcpy(bytes.data() + 4, &retired, sizeof(retired));
        EXPECT_EQ(rejection(bytes), "unsupported version");
        const std::string path = writeBytesFile("retired.otb", bytes);
        std::string why;
        EXPECT_EQ(FileTraceSource::tryOpen(path, &why,
                                           FileTraceSource::ScanDepth::Index),
                  nullptr);
        EXPECT_EQ(why, "unsupported version");
        EXPECT_DEATH(readTraceFile(path), "unsupported version");
    }
}

TEST(TraceIoErrorTest, RejectsBadChecksum)
{
    std::string bytes = chunkedBytes(sampleTrace());
    // The trailing 8 bytes are the FNV-1a checksum; corrupt only them
    // so every payload byte is intact and the mismatch is
    // unambiguously the checksum's.
    bytes[bytes.size() - 1] ^= 0x01;
    EXPECT_EQ(rejection(bytes), "checksum mismatch");
}

TEST(TraceIoErrorTest, RejectsChunkTruncatedMidRecord)
{
    const std::string bytes = chunkedBytes(sampleTrace());
    // Cut inside cpu 0's block: magic(4) + version(4) + cpus(4) +
    // page count(8) + one page(8) + chunk header(12), then 9 bytes
    // into the block.
    const std::size_t cut = (4 + 4 + 4) + (8 + 8) + (4 + 4 + 4) + 9;
    ASSERT_LT(cut, bytes.size());
    EXPECT_EQ(rejection(bytes.substr(0, cut)), "truncated record stream");
    const std::string path =
        writeBytesFile("midrec.otb", bytes.substr(0, cut));
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, &why,
                                       FileTraceSource::ScanDepth::Index),
              nullptr);
    EXPECT_EQ(why, "truncated record stream");
}

TEST(TraceIoErrorTest, RejectsZeroLengthFile)
{
    EXPECT_EQ(rejection(""), "bad magic");
    const std::string path = writeBytesFile("empty.otb", "");
    EXPECT_DEATH(readTraceFile(path), "missing or unsupported header");
}

} // namespace
} // namespace oscache
