/**
 * @file
 * Tests for trace serialization: round trips, format details, and
 * rejection of malformed input.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "synth/generator.hh"
#include "trace/io.hh"
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

TEST(TraceIoTest, MaxCpusRoundTripAndWritersRefuseMore)
{
    Trace wide(maxTraceCpus);
    wide.stream(0).push_back(TraceRecord::exec(5, 1, true));
    wide.stream(maxTraceCpus - 1).push_back(TraceRecord::idle(7));
    std::stringstream text, binary;
    writeTrace(text, wide);
    writeTraceChunked(binary, wide);
    expectTracesEqual(wide, readTrace(text));
    expectTracesEqual(wide, readTraceBinary(binary));

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

// ----------------------------------------- binary format (chunked v3)

std::string
chunkedBytes(const Trace &trace)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, trace, 3);
    return buffer.str();
}

TEST(TraceIoBinaryTest, RoundTripsSampleTrace)
{
    const Trace original = sampleTrace();
    std::stringstream buffer(chunkedBytes(original));
    const Trace restored = readTraceBinary(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoBinaryTest, RoundTripsSyntheticWorkload)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace original =
        generateTrace(p, CoherenceOptions::relocUpdate());
    std::stringstream buffer;
    writeTraceChunked(buffer, original);
    const Trace restored = readTraceBinary(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoBinaryTest, MatchesTextSemantics)
{
    const Trace original = sampleTrace();
    std::stringstream text, binary(chunkedBytes(original));
    writeTrace(text, original);
    expectTracesEqual(readTrace(text), readTraceBinary(binary));
}

TEST(TraceIoBinaryTest, StartsWithMagicAndVersion)
{
    const std::string bytes = chunkedBytes(Trace(1));
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes.substr(0, 4), "OSTR");
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    EXPECT_EQ(version, traceFormatVersion);
    EXPECT_EQ(version, 3u);
}

TEST(TraceIoBinaryTest, TryReadRejectsBadMagic)
{
    std::stringstream in("NOPE....garbage");
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why));
    EXPECT_NE(why.find("magic"), std::string::npos);
}

TEST(TraceIoBinaryTest, TryReadRejectsTruncation)
{
    const std::string bytes = chunkedBytes(sampleTrace());
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(truncated, trace, &why));
}

TEST(TraceIoBinaryTest, TryReadRejectsBitFlip)
{
    std::string bytes = chunkedBytes(sampleTrace());
    // Flip a payload byte past the header; the checksum (or the
    // structure it lands in) must notice.
    bytes[bytes.size() / 2] ^= 0x40;
    std::stringstream corrupt(bytes);
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(corrupt, trace, &why));
}

TEST(TraceIoBinaryTest, TryReadRejectsTrailingGarbage)
{
    std::stringstream in(chunkedBytes(sampleTrace()) + "x");
    Trace trace(1);
    EXPECT_FALSE(tryReadTraceBinary(in, trace, nullptr));
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

std::string
writeCorruptFile(const std::string &name, const std::string &bytes)
{
    const std::string path = "/tmp/oscache_trace_io_" + name;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
    return path;
}

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
    // readTrace() and FileTraceSource walk text with the same walker,
    // so one file gets one verdict and one reason from both.
    for (const MalformedText &row : malformedTexts) {
        SCOPED_TRACE(row.text);
        const std::string path = writeCorruptFile("malformed.trace", row.text);
        std::string why;
        EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
        EXPECT_EQ(why.rfind(row.reason, 0), 0u) << why;
        std::string index_why;
        EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &index_why,
                                           FileTraceSource::ScanDepth::Index),
                  nullptr);
        EXPECT_EQ(index_why, why);
        std::stringstream in(row.text);
        EXPECT_DEATH(readTrace(in), "trace: " + why);
    }
}

TEST(TraceIoErrorTest, IndexOpenCursorRejectsCorruptRecords)
{
    // An Index-depth open seeks over record payloads, so the cursor
    // must decode through the validating decoder and bound block-op
    // ids itself.  sampleTrace() in chunks of 3: the header is
    // magic(4) + version(4) + cpus(4) + page count(8) + one page(8),
    // and each 20-byte record follows an 8-byte chunk header.  cpu
    // 0's record 1 is a PageTable read; its record 4, in the second
    // chunk, begins block op 0.
    const std::string bytes = chunkedBytes(sampleTrace());
    const std::size_t read_at = 28 + 8 + 20;
    const std::size_t begin_at = 28 + 8 + 3 * 20 + 8 + 20;
    ASSERT_EQ(bytes[read_at + 16], char(RecordType::Read));
    ASSERT_EQ(bytes[read_at + 17], char(DataCategory::PageTable));
    ASSERT_EQ(bytes[begin_at + 16], char(RecordType::BlockOpBegin));
    ASSERT_EQ(bytes[begin_at + 8], 0);

    const struct
    {
        std::size_t at;
        const char *reason;
    } cases[] = {
        {read_at + 17, "bad data category"},
        {read_at + 16, "bad record type"},
        {begin_at + 8, "record references unknown block op"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.reason);
        std::string corrupt = bytes;
        corrupt[c.at] = char(200);
        const std::string path = writeCorruptFile("index.otb", corrupt);
        std::string why;
        EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
        EXPECT_EQ(why, c.reason);

        const auto source = FileTraceSource::tryOpen(
            path, 16, &why, FileTraceSource::ScanDepth::Index);
        ASSERT_NE(source, nullptr) << why;
        const auto drain = [&source] {
            auto cursor = source->cursor(0);
            while (cursor->peek() != nullptr)
                cursor->advance();
        };
        EXPECT_DEATH(drain(), std::string("index.otb' cpu 0: ") + c.reason);
    }
}

TEST(TraceIoErrorTest, RejectsCorruptV3VersionWord)
{
    std::string bytes = chunkedBytes(sampleTrace());
    bytes[4] = char(0x7f); // Version word follows the 4-byte magic.
    const std::string path = writeCorruptFile("v3_badver.otb", bytes);
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_NE(why.find("version"), std::string::npos) << why;

    std::stringstream in(bytes);
    Trace trace(1);
    why.clear();
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why));
    EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST(TraceIoErrorTest, RejectsRetiredVersion2)
{
    // Files of the retired unchunked encoding carry version word 2;
    // every reader refuses them before looking past the header.
    std::string bytes = chunkedBytes(sampleTrace());
    const std::uint32_t retired = 2;
    std::memcpy(bytes.data() + 4, &retired, sizeof(retired));
    const std::string path = writeCorruptFile("v2.otb", bytes);

    std::stringstream in(bytes);
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why));
    EXPECT_EQ(why, "unsupported version");

    why.clear();
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_EQ(why, "unsupported version");

    EXPECT_DEATH(readTraceFile(path), "unsupported version");
}

TEST(TraceIoErrorTest, RejectsBadChecksumV3)
{
    std::string bytes = chunkedBytes(sampleTrace());
    // The trailing 8 bytes are the FNV-1a checksum; corrupt only them
    // so every payload byte is intact and the mismatch is
    // unambiguously the checksum's.
    bytes[bytes.size() - 1] ^= 0x01;
    const std::string path = writeCorruptFile("v3_badsum.otb", bytes);
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_NE(why.find("checksum"), std::string::npos) << why;

    std::stringstream in(bytes);
    Trace trace(1);
    why.clear();
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why));
    EXPECT_NE(why.find("checksum"), std::string::npos) << why;
}

TEST(TraceIoErrorTest, RejectsChunkTruncatedMidRecord)
{
    const std::string bytes = chunkedBytes(sampleTrace());
    // Cut inside the first chunk's record payload: magic(4) +
    // version(4) + cpus(4) + page count(8) + one page(8) + chunk
    // header(8), then 9 bytes into the first packed record.
    const std::size_t cut = (4 + 4 + 4) + (8 + 8) + (4 + 4) + 9;
    ASSERT_LT(cut, bytes.size());
    const std::string path =
        writeCorruptFile("v3_midrec.otb", bytes.substr(0, cut));
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_FALSE(why.empty());

    std::stringstream in(bytes.substr(0, cut));
    Trace trace(1);
    EXPECT_FALSE(tryReadTraceBinary(in, trace, nullptr));
}

TEST(TraceIoErrorTest, RejectsZeroLengthFile)
{
    const std::string path = writeCorruptFile("empty.otb", "");
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_FALSE(why.empty());

    std::stringstream in("");
    Trace trace(1);
    std::string why2;
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why2));
    EXPECT_FALSE(why2.empty());
}

} // namespace
} // namespace oscache
