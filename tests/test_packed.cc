/**
 * @file
 * PackedTrace: the block codec is lossless for every TraceRecord, its
 * cursor reads like a cursor over the 24-byte records, packing as the
 * generator runs gives the generated trace, and the decoder turns
 * corrupt blocks into reasons without reading past its bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "synth/generator.hh"
#include "testutil.hh"
#include "trace/packed.hh"

namespace oscache
{
namespace
{

/** An address a small, a medium, a ~2^31 or a ~2^63 step from @p prev. */
Addr
pickAddr(Rng &rng, Addr prev)
{
    // Each width's edges, both sides of the 64-bit wrap included.
    constexpr std::int64_t edges[] = {
        -129, -128, 127, 128, -32769, -32768, 32767, 32768,
        std::int64_t{INT32_MIN} - 1, INT32_MIN, INT32_MAX,
        std::int64_t{INT32_MAX} + 1, INT64_MAX, INT64_MIN,
        INT64_MIN + 1, INT64_MAX - 1};
    switch (rng.below(6)) {
      case 0:
        return prev + rng.below(256) - 128;
      case 1:
        return prev + rng.below(1 << 17) - (1 << 16);
      case 2:
        return prev + (rng.next() & 0xffff'ffff) - 0x8000'0000;
      case 3:
        return prev + Addr(edges[rng.below(std::size(edges))]);
      case 4:
        return prev + (Addr{1} << 63) + rng.below(5) - 2;
      default:
        return rng.next();
    }
}

BasicBlockId
pickBb(Rng &rng, BasicBlockId prev)
{
    switch (rng.below(6)) {
      case 0:
      case 1:
        return prev;
      case 2:
        return prev + BasicBlockId(rng.below(64)) - 32;
      case 3:
        return prev + BasicBlockId(rng.below(1 << 17)) - (1 << 16);
      case 4:
        return prev + (BasicBlockId{1} << 31) + BasicBlockId(rng.below(3));
      default:
        return BasicBlockId(rng.next());
    }
}

std::uint32_t
pickAux(Rng &rng)
{
    constexpr std::uint32_t edges[] = {0, 1, 255, 256, 65535, 65536,
                                       0xff'ffff, UINT32_MAX};
    return rng.chance(0.5) ? edges[rng.below(std::size(edges))]
                           : std::uint32_t(rng.next());
}

/**
 * A record of a random type as the synthesizer writes it (every field
 * its type does not use at its usual value), its address and basic
 * block stepped from @p addr and @p bb; then, one time in four, with
 * one field set to anything: an address on an Exec, an aux on a Read,
 * an undefined flag bit, size 0 or 255, a category or type byte past
 * the enums.
 */
TraceRecord
randomRecord(Rng &rng, Addr &addr, BasicBlockId &bb)
{
    TraceRecord r;
    r.type = RecordType(rng.below(10));
    const bool os = rng.chance(0.5);
    addr = pickAddr(rng, addr);
    bb = pickBb(rng, bb);
    switch (r.type) {
      case RecordType::Exec:
        r = TraceRecord::exec(pickAux(rng), bb, os);
        break;
      case RecordType::Idle:
        r = TraceRecord::idle(pickAux(rng));
        break;
      case RecordType::Read:
      case RecordType::Write:
      case RecordType::Prefetch:
        r.addr = addr;
        r.bb = bb;
        r.category = DataCategory(rng.below(
            unsigned(DataCategory::NumCategories)));
        r.flags = os ? flagOs : 0;
        break;
      case RecordType::BlockOpBegin:
      case RecordType::BlockOpEnd:
        r.aux = pickAux(rng);
        r.flags = flagOs;
        break;
      case RecordType::LockAcquire:
      case RecordType::LockRelease:
        r.addr = addr;
        r.category = DataCategory::Lock;
        r.flags = flagOs;
        break;
      case RecordType::BarrierArrive:
        r.addr = addr;
        r.aux = pickAux(rng);
        r.category = DataCategory::Barrier;
        r.flags = flagOs;
        break;
    }
    if (rng.chance(0.25)) {
        switch (rng.below(7)) {
          case 0:
            r.addr = pickAddr(rng, r.addr);
            break;
          case 1:
            r.aux = pickAux(rng);
            break;
          case 2:
            r.bb = pickBb(rng, r.bb);
            break;
          case 3:
            r.category = DataCategory(rng.below(256));
            break;
          case 4:
            r.size = rng.chance(0.5) ? 0 : 255;
            break;
          case 5:
            r.flags = std::uint8_t(rng.below(256));
            break;
          default:
            r.type = RecordType(10 + rng.below(246));
            break;
        }
    }
    return r;
}

/** A trace of @p cpus random streams, some empty, some block-sized. */
Trace
randomTrace(Rng &rng, unsigned cpus)
{
    constexpr std::size_t lengths[] = {0, 1, 255, 256, 257, 511, 512, 513};
    Trace trace(cpus);
    for (CpuId cpu = 0; cpu < cpus; ++cpu) {
        const std::size_t n = rng.chance(0.5)
                                  ? lengths[rng.below(std::size(lengths))]
                                  : rng.below(2000);
        Addr addr = 0;
        BasicBlockId bb = 0;
        for (std::size_t i = 0; i < n; ++i)
            trace.stream(cpu).push_back(randomRecord(rng, addr, bb));
    }
    BlockOp op;
    op.src = 0x1000;
    op.dst = 0x2000;
    op.size = 4096;
    trace.blockOps().add(op);
    trace.updatePages().insert(0x8000'0000);
    return trace;
}

/**
 * Pack @p trace through a Builder, appending each cpu's records in
 * random pieces with the cpus interleaved, as a generator hands them
 * over.
 */
PackedTrace
packInPieces(Rng &rng, const Trace &trace)
{
    PackedTrace::Builder builder(trace.numCpus());
    std::vector<std::size_t> at(trace.numCpus(), 0);
    bool more = true;
    while (more) {
        more = false;
        for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
            const RecordStream &s = trace.stream(cpu);
            const std::size_t n =
                std::min<std::size_t>(s.size() - at[cpu], rng.below(600));
            builder.append(cpu, s.data() + at[cpu], n);
            at[cpu] += n;
            more |= at[cpu] < s.size();
        }
    }
    return std::move(builder).finish(trace.blockOps(), trace.updatePages());
}

TEST(PackedTrace, RandomRecordsRoundTripExactly)
{
    Rng rng = testutil::testRng(29);
    const int iters = testutil::propIters(40);
    for (int iter = 0; iter < iters; ++iter) {
        SCOPED_TRACE(iter);
        const Trace trace = randomTrace(rng, 1 + unsigned(rng.below(5)));
        const PackedTrace packed = packInPieces(rng, trace);
        ASSERT_EQ(packed.numCpus(), trace.numCpus());
        EXPECT_EQ(packed.totalRecords(), trace.totalRecords());
        const Trace back = packed.unpack();
        for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
            EXPECT_EQ(packed.records(cpu), trace.stream(cpu).size());
            ASSERT_EQ(back.stream(cpu).size(), trace.stream(cpu).size());
            for (std::size_t i = 0; i < trace.stream(cpu).size(); ++i)
                ASSERT_EQ(back.stream(cpu)[i], trace.stream(cpu)[i])
                    << "cpu " << int(cpu) << " record " << i;
        }
        EXPECT_EQ(back.updatePages(), trace.updatePages());
        ASSERT_EQ(back.blockOps().size(), trace.blockOps().size());
        EXPECT_EQ(back.blockOps().get(0).dst, trace.blockOps().get(0).dst);
    }
}

TEST(PackedTrace, GeneratedPackedEqualsGenerated)
{
    WorkloadProfile profile = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    profile.quanta = 3;
    for (const CoherenceOptions &options :
         {CoherenceOptions::none(), CoherenceOptions::relocUpdate()}) {
        const Trace trace = generateTrace(profile, options);
        const PackedTrace held = generatePacked(profile, options);
        // Every record the synthesizer writes fits a short form.
        EXPECT_LT(double(held.bytes()) / double(held.totalRecords()), 3.0);
        const Trace packed = held.unpack();
        for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu)
            EXPECT_EQ(packed.stream(cpu), trace.stream(cpu));
        EXPECT_EQ(packed.updatePages(), trace.updatePages());
        ASSERT_EQ(packed.blockOps().size(), trace.blockOps().size());
        for (std::size_t i = 0; i < trace.blockOps().size(); ++i) {
            const BlockOp &a = packed.blockOps().get(BlockOpId(i));
            const BlockOp &b = trace.blockOps().get(BlockOpId(i));
            EXPECT_EQ(a.src, b.src);
            EXPECT_EQ(a.dst, b.dst);
            EXPECT_EQ(a.size, b.size);
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_EQ(a.readOnlyAfter, b.readOnlyAfter);
        }
    }
}

/**
 * Drive a packed cursor and a VectorRecordCursor over the same stream
 * with one random mix of peek/advance, peekRun/advanceRun and skip,
 * and require the same records, spans and skip counts.
 */
void
expectSameCursor(Rng &rng, RecordCursor &packed, const RecordStream &stream)
{
    VectorRecordCursor vec(stream);
    std::size_t pos = 0;
    while (true) {
        const TraceRecord *want = vec.peek();
        const TraceRecord *got = packed.peek();
        ASSERT_EQ(got == nullptr, want == nullptr) << "at " << pos;
        if (want == nullptr)
            break;
        ASSERT_EQ(*got, *want) << "at " << pos;
        switch (rng.below(3)) {
          case 0:
            packed.advance();
            vec.advance();
            ++pos;
            break;
          case 1: {
            const TraceRecord *span = nullptr;
            const TraceRecord *whole = nullptr;
            const std::size_t n = packed.peekRun(span);
            const std::size_t left = vec.peekRun(whole);
            // A span ends at a block edge, never past the stream.
            ASSERT_GE(n, 1u);
            ASSERT_LE(n, left);
            ASSERT_LE(n, PackedTrace::blockRecords);
            ASSERT_EQ((pos + n) % PackedTrace::blockRecords == 0 || n == left,
                      true);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(span[i], whole[i]) << "at " << pos + i;
            const std::size_t take = 1 + rng.below(n);
            packed.advanceRun(take);
            vec.advanceRun(take);
            pos += take;
            break;
          }
          default: {
            constexpr std::size_t steps[] = {0, 1, 255, 256, 257, 600};
            const std::size_t n = rng.chance(0.1)
                                      ? std::numeric_limits<std::size_t>::max()
                                      : steps[rng.below(std::size(steps))];
            const std::size_t done = packed.skip(n);
            ASSERT_EQ(done, vec.skip(n)) << "skip " << n << " at " << pos;
            pos += done;
            break;
          }
        }
    }
    const TraceRecord *span = nullptr;
    EXPECT_EQ(packed.peekRun(span), 0u);
    EXPECT_EQ(span, nullptr);
    EXPECT_EQ(packed.skip(5), 0u);
}

TEST(PackedTrace, CursorMatchesVectorCursor)
{
    Rng rng = testutil::testRng(2900);
    const int iters = testutil::propIters(30);
    for (int iter = 0; iter < iters; ++iter) {
        SCOPED_TRACE(iter);
        const Trace trace = randomTrace(rng, 3);
        PackedTraceSource source(
            std::make_shared<const PackedTrace>(PackedTrace::pack(trace)));
        EXPECT_STREQ(source.mode(), "materialized");
        for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu) {
            SCOPED_TRACE(int(cpu));
            EXPECT_EQ(source.knownRecords(cpu), trace.stream(cpu).size());
            // Cursors may be opened again; each reads the whole stream.
            for (int pass = 0; pass < 2; ++pass) {
                const auto cursor = source.cursor(cpu);
                expectSameCursor(rng, *cursor, trace.stream(cpu));
            }
        }
    }
}

TEST(PackedTrace, DecoderRejectsCorruptBlocksWithinItsBounds)
{
    // Trace files bring outside bytes to the decoder.  Every single
    // byte flip, truncation or rewrite of header bytes of an encoded
    // block must decode to records or come back with a reason, and
    // read only the bytes decode() documents: each case gets a buffer
    // of exactly that size, so the sanitizer build sees any read past
    // it.
    Rng rng = testutil::testRng(2901);
    const Trace trace = randomTrace(rng, 4);
    const PackedTrace packed = PackedTrace::pack(trace);
    std::array<TraceRecord, PackedTrace::blockRecords> out;
    const auto decode = [&out](const std::vector<std::uint8_t> &bytes,
                               std::size_t n) {
        const std::size_t bound =
            std::max(bytes.size() + PackedTrace::loadPadding,
                     n * PackedTrace::maxRecordBytes);
        const auto buf = std::make_unique<std::uint8_t[]>(bound);
        std::copy(bytes.begin(), bytes.end(), buf.get());
        return PackedTrace::decode(buf.get(), bytes.size(), n, out.data());
    };
    std::vector<std::vector<std::uint8_t>> blocks;
    std::vector<std::size_t> counts;
    for (CpuId cpu = 0; cpu < packed.numCpus(); ++cpu) {
        const PackedTrace::Blocks run = packed.blocks(cpu);
        for (std::size_t b = 0; b < run.count(); ++b) {
            blocks.emplace_back(run.bytes + run.starts[b],
                                run.bytes + run.starts[b + 1]);
            counts.push_back(std::min(PackedTrace::blockRecords,
                                      run.records -
                                          b * PackedTrace::blockRecords));
            ASSERT_EQ(decode(blocks.back(), counts.back()), nullptr);
        }
    }
    ASSERT_FALSE(blocks.empty());

    std::size_t rejected = 0;
    const int iters = testutil::propIters(3000);
    for (int iter = 0; iter < iters; ++iter) {
        const std::size_t pick = rng.below(blocks.size());
        const std::size_t n = counts[pick];
        std::vector<std::uint8_t> bytes = blocks[pick];
        switch (rng.below(3)) {
          case 0:
            bytes[rng.below(bytes.size())] ^=
                std::uint8_t(1 + rng.below(255));
            break;
          case 1:
            bytes.resize(rng.below(bytes.size()));
            break;
          default:
            for (std::size_t k = 1 + rng.below(4); k > 0; --k)
                bytes[rng.below(n)] = std::uint8_t(rng.below(256));
            break;
        }
        const char *why = decode(bytes, n);
        if (why == nullptr)
            continue;
        ++rejected;
        EXPECT_TRUE(std::string(why) == "bad record header" ||
                    std::string(why) ==
                        "block length disagrees with its headers")
            << why;
    }
    EXPECT_GT(rejected, std::size_t(iters) / 4);
}

TEST(PackedTrace, AdoptedBlocksAreKeptAsTheyAre)
{
    // A trace file's blocks reach the cache through adopt(): the
    // built trace holds the very bytes it was handed.
    Rng rng = testutil::testRng(2902);
    const Trace trace = randomTrace(rng, 4);
    const PackedTrace packed = PackedTrace::pack(trace);
    PackedTrace::Builder builder(packed.numCpus());
    for (CpuId cpu = 0; cpu < packed.numCpus(); ++cpu) {
        const PackedTrace::Blocks run = packed.blocks(cpu);
        for (std::size_t b = 0; b < run.count(); ++b)
            builder.adopt(cpu, run.bytes + run.starts[b],
                          run.starts[b + 1] - run.starts[b],
                          std::min(PackedTrace::blockRecords,
                                   run.records -
                                       b * PackedTrace::blockRecords));
    }
    const PackedTrace adopted =
        std::move(builder).finish(trace.blockOps(), trace.updatePages());
    EXPECT_EQ(adopted.bytes(), packed.bytes());
    for (CpuId cpu = 0; cpu < packed.numCpus(); ++cpu) {
        const PackedTrace::Blocks want = packed.blocks(cpu);
        const PackedTrace::Blocks got = adopted.blocks(cpu);
        EXPECT_EQ(got.records, want.records);
        ASSERT_TRUE(std::ranges::equal(got.starts, want.starts));
        EXPECT_TRUE(std::equal(want.bytes, want.bytes + want.starts.back(),
                               got.bytes));
    }
    EXPECT_EQ(adopted.unpack().stream(0), trace.stream(0));
}

TEST(PackedTraceDeathTest, AdoptAfterPartialBlockPanics)
{
    // Only a stream's last block may be partial, so a block after a
    // partial one, adopted or appended, is a caller's error.
    Trace trace(1);
    for (unsigned i = 0; i < PackedTrace::blockRecords + 3; ++i)
        trace.stream(0).push_back(TraceRecord::idle(i));
    const PackedTrace packed = PackedTrace::pack(trace);
    const PackedTrace::Blocks run = packed.blocks(0);
    ASSERT_EQ(run.count(), 2u);
    const std::uint8_t *full = run.bytes;
    const std::size_t full_size = run.starts[1];
    const std::uint8_t *partial = run.bytes + run.starts[1];
    const std::size_t partial_size = run.starts[2] - run.starts[1];

    PackedTrace::Builder adopted(1);
    adopted.adopt(0, full, full_size, PackedTrace::blockRecords);
    adopted.adopt(0, partial, partial_size, 3);
    EXPECT_DEATH(adopted.adopt(0, full, full_size, PackedTrace::blockRecords),
                 "cannot adopt");

    PackedTrace::Builder appended(1);
    appended.append(0, trace.stream(0).data(), 3);
    EXPECT_DEATH(appended.adopt(0, full, full_size, PackedTrace::blockRecords),
                 "cannot adopt");
}

} // namespace
} // namespace oscache
