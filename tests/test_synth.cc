/**
 * @file
 * Tests of the synthetic workload generator: the kernel layout under
 * every coherence-option combination, trace determinism, logical
 * equivalence across layouts, and the structural invariants the
 * simulator depends on (paired locks, matching barrier episodes).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exp/hash.hh"
#include "synth/activities.hh"
#include "synth/generator.hh"
#include "synth/kernel_layout.hh"
#include "synth/profile.hh"

namespace oscache
{
namespace
{

WorkloadProfile
tinyProfile(WorkloadKind kind = WorkloadKind::Trfd4)
{
    WorkloadProfile p = WorkloadProfile::forKind(kind);
    p.quanta = 3; // Keep unit tests fast.
    return p;
}

// ---------------------------------------------------------------
// KernelLayout
// ---------------------------------------------------------------

TEST(KernelLayoutTest, SharedCountersPackTogether)
{
    KernelLayout layout(4, CoherenceOptions::none());
    // Unprivatized counters are packed words: several share a line
    // (the false sharing the paper complains about).
    EXPECT_EQ(layout.counterAddr(1, 0) - layout.counterAddr(0, 0), 4u);
    // Every processor hits the same word.
    EXPECT_EQ(layout.counterAddr(3, 0), layout.counterAddr(3, 3));
}

TEST(KernelLayoutTest, PrivatizedCountersPerCpuLines)
{
    KernelLayout layout(4, CoherenceOptions::reloc());
    std::set<Addr> lines;
    for (CpuId c = 0; c < 4; ++c)
        lines.insert(alignDown(layout.counterAddr(0, c), Addr{32}));
    EXPECT_EQ(lines.size(), 4u); // One line per processor.
}

TEST(KernelLayoutTest, RelocationSeparatesLocks)
{
    KernelLayout packed(4, CoherenceOptions::none());
    KernelLayout reloc(4, CoherenceOptions::reloc());
    // Packed: locks 0 and 1 share a 32-byte line.
    EXPECT_EQ(alignDown(packed.lockAddr(0), Addr{32}),
              alignDown(packed.lockAddr(1), Addr{32}));
    // Relocated: every lock gets its own line.
    EXPECT_NE(alignDown(reloc.lockAddr(0), Addr{32}),
              alignDown(reloc.lockAddr(1), Addr{32}));
}

TEST(KernelLayoutTest, UpdatePageEmptyWithoutSelectiveUpdate)
{
    KernelLayout layout(4, CoherenceOptions::reloc());
    EXPECT_TRUE(layout.updatePages().empty());
}

TEST(KernelLayoutTest, UpdatePageCoversCoreVariables)
{
    KernelLayout layout(4, CoherenceOptions::relocUpdate());
    const auto pages = layout.updatePages();
    ASSERT_EQ(pages.size(), 1u);
    const Addr page = *pages.begin();
    auto in_page = [&](Addr a) {
        return alignDown(a, Addr{4096}) == page;
    };
    // Barriers, the ten most active locks, and the small
    // producer-consumer core live in the update page...
    for (unsigned b = 0; b < KernelLayout::numBarriers; ++b)
        EXPECT_TRUE(in_page(layout.barrierAddr(b))) << b;
    for (unsigned l = 0; l < KernelLayout::numUpdateLocks; ++l)
        EXPECT_TRUE(in_page(layout.lockAddr(l))) << l;
    EXPECT_TRUE(in_page(layout.freqSharedAddr(0)));
    // ...but the cold locks and page tables do not.
    EXPECT_FALSE(in_page(layout.lockAddr(KernelLayout::numLocks - 1)));
    EXPECT_FALSE(in_page(layout.pageTableEntry(0, 0)));
}

TEST(KernelLayoutTest, RegionsDisjoint)
{
    KernelLayout layout(4, CoherenceOptions::relocUpdate());
    // Sample one address per region; all must be distinct pages.
    std::set<Addr> pages;
    auto page_of = [](Addr a) { return alignDown(a, Addr{4096}); };
    pages.insert(page_of(layout.counterAddr(0, 0)));
    pages.insert(page_of(layout.procEntry(0)));
    pages.insert(page_of(layout.pageTableEntry(0, 0)));
    pages.insert(page_of(layout.runQueue(0)));
    pages.insert(page_of(layout.calloutEntry(0)));
    pages.insert(page_of(layout.syscallTableEntry(0)));
    pages.insert(page_of(layout.bufferHeader(0)));
    pages.insert(page_of(layout.inodeEntry(0)));
    pages.insert(page_of(layout.freePageNode(0)));
    pages.insert(page_of(layout.timerStruct()));
    pages.insert(page_of(layout.perCpuPrivate(0)));
    pages.insert(page_of(layout.kernelPage(0)));
    EXPECT_EQ(pages.size(), 12u);
}

TEST(KernelLayoutTest, UserRegionsStaggerColors)
{
    KernelLayout layout(4, CoherenceOptions::none());
    // Consecutive processes' regions must not be congruent mod the
    // 32-KB primary cache.
    const Addr a = layout.userRegion(0) % (32 * 1024);
    const Addr b = layout.userRegion(1) % (32 * 1024);
    EXPECT_NE(a, b);
}

TEST(KernelLayoutTest, BadIndicesPanic)
{
    KernelLayout layout(4, CoherenceOptions::none());
    EXPECT_DEATH(layout.counterAddr(KernelLayout::numCounters, 0), "bad");
    EXPECT_DEATH(layout.lockAddr(KernelLayout::numLocks), "bad");
    EXPECT_DEATH(layout.procEntry(KernelLayout::numProcs), "bad");
}

TEST(KernelLayoutTest, RejectsMoreCpusThanCrossInterruptSlots)
{
    // Every processor owns a cpievents slot; the layout refuses a
    // machine it cannot hold before any record is generated.
    EXPECT_EQ(KernelLayout::maxCpus, 39u);
    EXPECT_DEATH(KernelLayout(40, CoherenceOptions::none()), "at most 39");
    EXPECT_DEATH(KernelLayout(45, CoherenceOptions::relocUpdate()),
                 "at most 39");
    EXPECT_DEATH(generateTrace(tinyProfile(), CoherenceOptions::none(), 40),
                 "at most 39");
    EXPECT_DEATH(generateTrace(tinyProfile(), CoherenceOptions::none(), 45),
                 "at most 39");
}

// ---------------------------------------------------------------
// Generator
// ---------------------------------------------------------------

TEST(GeneratorTest, Deterministic)
{
    const auto p = tinyProfile();
    const Trace a = generateTrace(p, CoherenceOptions::none());
    const Trace b = generateTrace(p, CoherenceOptions::none());
    ASSERT_EQ(a.totalRecords(), b.totalRecords());
    for (CpuId c = 0; c < a.numCpus(); ++c) {
        const auto &sa = a.stream(c);
        const auto &sb = b.stream(c);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].addr, sb[i].addr);
            EXPECT_EQ(sa[i].type, sb[i].type);
            EXPECT_EQ(sa[i].aux, sb[i].aux);
        }
    }
}

TEST(GeneratorTest, LogicallyEquivalentAcrossLayouts)
{
    // The same activity sequence must be generated whatever the
    // coherence options: same record count, same types in the same
    // order (only addresses may differ), except the pager reads all
    // privatized sub-counters (extra reads are allowed there).
    const auto p = tinyProfile();
    const Trace base = generateTrace(p, CoherenceOptions::none());
    const Trace relup = generateTrace(p, CoherenceOptions::relocUpdate());
    for (CpuId c = 0; c < base.numCpus(); ++c) {
        const auto &sa = base.stream(c);
        const auto &sb = relup.stream(c);
        // Sub-counter reads only add records.
        EXPECT_GE(sb.size(), sa.size());
        // Block operations must be identical in number and size.
    }
    ASSERT_EQ(base.blockOps().size(), relup.blockOps().size());
    for (std::size_t i = 0; i < base.blockOps().size(); ++i) {
        EXPECT_EQ(base.blockOps().get(BlockOpId(i)).size,
                  relup.blockOps().get(BlockOpId(i)).size);
        EXPECT_EQ(base.blockOps().get(BlockOpId(i)).kind,
                  relup.blockOps().get(BlockOpId(i)).kind);
    }
}

TEST(GeneratorTest, UpdatePagesOnlyWithSelectiveUpdate)
{
    const auto p = tinyProfile();
    EXPECT_TRUE(
        generateTrace(p, CoherenceOptions::none()).updatePages().empty());
    EXPECT_TRUE(
        generateTrace(p, CoherenceOptions::reloc()).updatePages().empty());
    EXPECT_EQ(
        generateTrace(p, CoherenceOptions::relocUpdate()).updatePages()
            .size(),
        1u);
}

TEST(GeneratorTest, LocksArePairedPerCpu)
{
    const auto p = tinyProfile(WorkloadKind::Arc2dFsck);
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    for (CpuId c = 0; c < trace.numCpus(); ++c) {
        std::map<Addr, int> depth;
        for (const auto &rec : trace.stream(c)) {
            if (rec.type == RecordType::LockAcquire) {
                EXPECT_EQ(depth[rec.addr], 0)
                    << "nested acquire of " << rec.addr;
                depth[rec.addr] += 1;
            } else if (rec.type == RecordType::LockRelease) {
                EXPECT_EQ(depth[rec.addr], 1)
                    << "release without acquire of " << rec.addr;
                depth[rec.addr] -= 1;
            }
        }
        for (const auto &[addr, d] : depth)
            EXPECT_EQ(d, 0) << "unreleased lock " << addr;
    }
}

TEST(GeneratorTest, BarrierEpisodesMatchAcrossCpus)
{
    const auto p = tinyProfile();
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    // Every CPU must emit the same sequence of barrier addresses.
    std::vector<std::vector<Addr>> arrivals(trace.numCpus());
    for (CpuId c = 0; c < trace.numCpus(); ++c)
        for (const auto &rec : trace.stream(c))
            if (rec.type == RecordType::BarrierArrive) {
                arrivals[c].push_back(rec.addr);
                EXPECT_EQ(rec.aux, trace.numCpus());
            }
    for (CpuId c = 1; c < trace.numCpus(); ++c)
        EXPECT_EQ(arrivals[c], arrivals[0]);
    EXPECT_FALSE(arrivals[0].empty());
}

TEST(GeneratorTest, BlockOpsReferencedOnce)
{
    const auto p = tinyProfile(WorkloadKind::Shell);
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    std::set<BlockOpId> seen;
    for (CpuId c = 0; c < trace.numCpus(); ++c)
        for (const auto &rec : trace.stream(c))
            if (rec.type == RecordType::BlockOpBegin) {
                EXPECT_TRUE(seen.insert(rec.aux).second)
                    << "op " << rec.aux << " referenced twice";
            }
    EXPECT_EQ(seen.size(), trace.blockOps().size());
}

TEST(GeneratorTest, BlockOpSizesAreSane)
{
    const auto p = tinyProfile(WorkloadKind::Arc2dFsck);
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    for (const BlockOp &op : trace.blockOps()) {
        EXPECT_GT(op.size, 0u);
        EXPECT_LE(op.size, 4096u);
        EXPECT_EQ(op.size % 16, 0u) << "ops are line-aligned";
        if (op.isCopy()) {
            EXPECT_NE(op.src, invalidAddr);
        }
        EXPECT_NE(op.dst, invalidAddr);
    }
}

TEST(GeneratorTest, OsAndUserRecordsBothPresent)
{
    const auto p = tinyProfile();
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    std::uint64_t os_reads = 0;
    std::uint64_t user_reads = 0;
    for (const auto &rec : trace.stream(0)) {
        if (rec.type != RecordType::Read)
            continue;
        (rec.isOs() ? os_reads : user_reads) += 1;
    }
    EXPECT_GT(os_reads, 0u);
    EXPECT_GT(user_reads, 0u);
}

TEST(GeneratorTest, KernelAddressesAreHigh)
{
    const auto p = tinyProfile();
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    for (const auto &rec : trace.stream(0)) {
        if (!rec.isData())
            continue;
        if (rec.isOs() && rec.category != DataCategory::User &&
            rec.category != DataCategory::BlockSrc &&
            rec.category != DataCategory::BlockDst) {
            EXPECT_GE(rec.addr, 0x8000'0000u)
                << toString(rec.category) << " at " << rec.addr;
        }
    }
}

TEST(GeneratorTest, AllWorkloadProfilesGenerate)
{
    for (WorkloadKind kind : allWorkloads) {
        const auto p = tinyProfile(kind);
        const Trace trace = generateTrace(p, CoherenceOptions::none());
        EXPECT_GT(trace.totalRecords(), 1000u) << toString(kind);
    }
}

TEST(GeneratorTest, ThirtyNineCpusGenerate)
{
    // The largest machine the layout holds: the last processor's
    // cross-interrupt slot is the region's last id.
    KernelLayout layout(KernelLayout::maxCpus, CoherenceOptions::reloc());
    EXPECT_NE(layout.freqSharedAddr(fsid::cpievents0 +
                                    KernelLayout::maxCpus - 1),
              invalidAddr);
    const Trace trace = generateTrace(tinyProfile(), CoherenceOptions::none(),
                                      KernelLayout::maxCpus);
    ASSERT_EQ(trace.numCpus(), KernelLayout::maxCpus);
    for (CpuId c = 0; c < trace.numCpus(); ++c)
        EXPECT_FALSE(trace.stream(c).empty()) << "cpu " << int(c);
}

/**
 * Field-wise FNV-1a digest of a whole trace: every record of every
 * stream, then the block-op table.  Fields only, never raw bytes:
 * TraceRecord's padding is not initialized on every path.
 */
std::uint64_t
traceDigest(const Trace &trace)
{
    ContentHash h;
    h.mix(trace.numCpus());
    for (CpuId c = 0; c < trace.numCpus(); ++c) {
        const RecordStream &s = trace.stream(c);
        h.mix(std::uint64_t(s.size()));
        for (const TraceRecord &r : s)
            h.mix(r.addr).mix(r.aux).mix(r.bb).mix(r.type).mix(r.category)
                .mix(r.size).mix(r.flags);
    }
    h.mix(std::uint64_t(trace.blockOps().size()));
    for (const BlockOp &op : trace.blockOps())
        h.mix(op.src).mix(op.dst).mix(op.size).mix(op.kind)
            .mix(op.readOnlyAfter);
    return h.value();
}

TEST(GeneratorTest, PinnedRecordSequence)
{
    // The generator's exact output.  A change here changes every
    // golden cell and perfbench digest, so it must be deliberate and
    // re-record them together.
    struct Pin
    {
        WorkloadKind kind;
        bool relocUpdate;
        unsigned cpus;
        std::uint64_t digest;
    };
    static constexpr Pin pins[] = {
        {WorkloadKind::Trfd4, false, 4, 0x325a3e0ca889d586ull},
        {WorkloadKind::Trfd4, false, 8, 0xca70f8000f5ed545ull},
        {WorkloadKind::Trfd4, true, 4, 0xc9068eea7e45bb6bull},
        {WorkloadKind::Trfd4, true, 8, 0xa694267e72eb1045ull},
        {WorkloadKind::TrfdMake, false, 4, 0xc8efaefe8ac5bcd2ull},
        {WorkloadKind::TrfdMake, false, 8, 0xf895c128f5526282ull},
        {WorkloadKind::TrfdMake, true, 4, 0x6c52c200ef18c67bull},
        {WorkloadKind::TrfdMake, true, 8, 0x3dcec78fbf056bc7ull},
        {WorkloadKind::Arc2dFsck, false, 4, 0xda20294931f525ddull},
        {WorkloadKind::Arc2dFsck, false, 8, 0x0988b75fe50cb450ull},
        {WorkloadKind::Arc2dFsck, true, 4, 0xe8def05dc88bcf8eull},
        {WorkloadKind::Arc2dFsck, true, 8, 0x48445ff9ba4e2c86ull},
        {WorkloadKind::Shell, false, 4, 0x3573da5005c66a68ull},
        {WorkloadKind::Shell, false, 8, 0xa9a96fa618423442ull},
        {WorkloadKind::Shell, true, 4, 0xa7aeba919392620eull},
        {WorkloadKind::Shell, true, 8, 0xdb687cec9e294cfaull},
    };
    for (const Pin &pin : pins) {
        const Trace trace = generateTrace(
            tinyProfile(pin.kind),
            pin.relocUpdate ? CoherenceOptions::relocUpdate()
                            : CoherenceOptions::none(),
            pin.cpus);
        const std::uint64_t digest = traceDigest(trace);
        EXPECT_EQ(digest, pin.digest)
            << std::hex << "0x" << digest << std::dec << " "
            << toString(pin.kind)
            << (pin.relocUpdate ? " BCoh_RelUp" : " Base") << " at "
            << pin.cpus << " cpus";
    }
}

TEST(ProfileTest, NamesMatchPaper)
{
    EXPECT_STREQ(toString(WorkloadKind::Trfd4), "TRFD_4");
    EXPECT_STREQ(toString(WorkloadKind::TrfdMake), "TRFD+Make");
    EXPECT_STREQ(toString(WorkloadKind::Arc2dFsck), "ARC2D+Fsck");
    EXPECT_STREQ(toString(WorkloadKind::Shell), "Shell");
}

TEST(ProfileTest, ShellIsSerial)
{
    const auto shell = WorkloadProfile::forKind(WorkloadKind::Shell);
    const auto trfd = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    EXPECT_LT(shell.barrierEpisodes, 1.0);
    EXPECT_GT(trfd.barrierEpisodes, 5.0);
    EXPECT_GT(shell.idleFraction, trfd.idleFraction);
}

TEST(ProfileTest, SizeMixesMatchTable3Direction)
{
    const auto trfd = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    const auto shell = WorkloadProfile::forKind(WorkloadKind::Shell);
    EXPECT_LT(trfd.smallBlockFrac, shell.smallBlockFrac);
}

TEST(ProfileTest, SimOptionsDerived)
{
    const auto p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    const SimOptions opts = p.simOptions();
    EXPECT_DOUBLE_EQ(opts.osImissCpi, p.osImissCpi);
    EXPECT_DOUBLE_EQ(opts.userImissCpi, p.userImissCpi);
}

/** Parameterized over all workloads x coherence options. */
class GeneratorMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GeneratorMatrix, GeneratesAndBalances)
{
    const WorkloadKind kind =
        static_cast<WorkloadKind>(std::get<0>(GetParam()));
    CoherenceOptions options;
    switch (std::get<1>(GetParam())) {
      case 0: options = CoherenceOptions::none(); break;
      case 1: options = CoherenceOptions::reloc(); break;
      default: options = CoherenceOptions::relocUpdate(); break;
    }
    auto p = tinyProfile(kind);
    const Trace trace = generateTrace(p, options);
    EXPECT_EQ(trace.numCpus(), 4u);
    EXPECT_GT(trace.totalRecords(), 0u);
    // Lock balance on every stream.
    for (CpuId c = 0; c < trace.numCpus(); ++c) {
        int depth = 0;
        for (const auto &rec : trace.stream(c)) {
            if (rec.type == RecordType::LockAcquire)
                ++depth;
            else if (rec.type == RecordType::LockRelease)
                --depth;
            EXPECT_GE(depth, 0);
        }
        EXPECT_EQ(depth, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GeneratorMatrix,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 3)));

} // namespace
} // namespace oscache
