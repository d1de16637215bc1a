/**
 * @file
 * Tests of the verification subsystem (src/check): the coherence
 * invariant checker must catch seeded protocol defects at the next
 * operation end, stay silent on real traffic, and reach the same
 * verdicts as a reference that re-probes the real caches; the trace
 * linter must catch each corrupted stream, and its lockset
 * discipline must flag unlocked multi-writer data and nothing else;
 * and every seed workload must come out clean under both passes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>

#include "check/invariants.hh"
#include "check/tracelint.hh"
#include "core/runner.hh"
#include "mem/memsys.hh"
#include "synth/generator.hh"
#include "trace/io.hh"
#include "trace/source.hh"
#include "testutil.hh"

namespace oscache
{
namespace
{

bool
hasCode(const std::vector<CheckFinding> &findings, CheckCode code)
{
    for (const auto &f : findings)
        if (f.code == code)
            return true;
    return false;
}

AccessContext
osCtx(DataCategory cat = DataCategory::KernelOther)
{
    AccessContext ctx;
    ctx.os = true;
    ctx.category = cat;
    return ctx;
}

// ---------------------------------------------------------------------
// Coherence invariant checker.
// ---------------------------------------------------------------------

class CoherenceCheckerTest : public ::testing::Test
{
  protected:
    CoherenceCheckerTest()
        : machine(MachineConfig::base()), mem(machine), checker(machine)
    {
        mem.setObserver(&checker);
    }

    MachineConfig machine;
    MemorySystem mem;
    CoherenceChecker checker;
};

TEST_F(CoherenceCheckerTest, CleanOnSimpleSharing)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    mem.write(0, 0x1000, 200, osCtx());
    mem.read(1, 0x1000, 300, osCtx());
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean())
        << format(checker.findings().front());
    EXPECT_GT(checker.transitions(), 0u);
}

TEST_F(CoherenceCheckerTest, CleanOnMixedTraffic)
{
    // Reads, writes, prefetches, and code pressure from all four
    // processors over a working set that forces evictions.
    Cycles now = 0;
    for (int round = 0; round < 64; ++round) {
        for (CpuId c = 0; c < machine.numCpus; ++c) {
            const Addr a = 0x1000 + Addr(round % 16) * 32;
            now += 40;
            mem.read(c, a, now, osCtx());
            if (round % 3 == 0)
                mem.write(c, a, now + 10, osCtx());
            if (round % 5 == 0)
                mem.prefetch(c, a + 0x4000, now + 15, osCtx());
            if (round % 7 == 0)
                mem.codeFill(c, codeSpaceBase + Addr(round) * 64, 128);
        }
    }
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean())
        << format(checker.findings().front());
}

TEST_F(CoherenceCheckerTest, IllegalTransitionCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    ASSERT_EQ(mem.l2State(0, 0x1000), LineState::Shared);
    // Silent S->E: exclusivity gained without a bus transaction.
    mem.debugSetL2State(0, 0x1000, LineState::Exclusive);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::IllegalTransition));
}

TEST_F(CoherenceCheckerTest, SwmrViolationCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    mem.debugSetL2State(0, 0x1000, LineState::Modified);
    mem.debugSetL2State(1, 0x1000, LineState::Modified);
    checker.auditFull(mem);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::SwmrViolation));
}

TEST_F(CoherenceCheckerTest, InclusionViolationCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    ASSERT_TRUE(mem.l1Contains(0, 0x1000));
    // Kill the secondary copy behind the primary cache's back.
    mem.debugSetL2State(0, 0x1000, LineState::Invalid);
    checker.auditFull(mem);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::InclusionViolation));
}

TEST_F(CoherenceCheckerTest, WritesPastCpu31AuditClean)
{
    // Ownership passing between cpu 0 and cpu 32 must not alias.
    MachineConfig wide = MachineConfig::base();
    wide.numCpus = 33;
    MemorySystem wide_mem(wide);
    CoherenceChecker wide_checker(wide);
    wide_mem.setObserver(&wide_checker);
    wide_mem.write(0, 0x1000, 0, osCtx());
    wide_mem.write(32, 0x1000, 100, osCtx());
    wide_mem.write(32, 0x2000, 200, osCtx());
    wide_mem.write(32, 0x2000, 300, osCtx());
    wide_checker.auditFull(wide_mem);
    EXPECT_TRUE(wide_checker.clean())
        << format(wide_checker.findings().front());
}

TEST_F(CoherenceCheckerTest, CodeLinesNeverDoublyExclusive)
{
    // Both processors execute the same basic block; neither may end
    // up with a duplicate Exclusive copy of the code lines.
    mem.codeFill(0, codeSpaceBase, 256);
    mem.codeFill(1, codeSpaceBase, 256);
    for (Addr a = codeSpaceBase; a < codeSpaceBase + 256; a += 32) {
        const bool e0 = mem.l2State(0, a) == LineState::Exclusive ||
                        mem.l2State(0, a) == LineState::Modified;
        const bool e1 = mem.l2State(1, a) == LineState::Exclusive ||
                        mem.l2State(1, a) == LineState::Modified;
        EXPECT_FALSE(e0 && e1) << "line 0x" << std::hex << a;
    }
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean())
        << format(checker.findings().front());
}

// The checks between auditFull() calls run from the shadow at each
// operation end; a seeded defect must surface there, before any audit.

/** A write to an unrelated line: an operation that always ends. */
void
unrelatedOperation(MemorySystem &mem)
{
    mem.write(3, 0x9000, 1000, osCtx());
}

TEST_F(CoherenceCheckerTest, SwmrViolationReportedAtNextOperationEnd)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    mem.debugSetL2State(0, 0x1000, LineState::Modified);
    EXPECT_TRUE(checker.clean());
    unrelatedOperation(mem);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::SwmrViolation));
}

TEST_F(CoherenceCheckerTest, InclusionViolationReportedAtNextOperationEnd)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.debugSetL2State(0, 0x1000, LineState::Invalid);
    EXPECT_TRUE(checker.clean());
    unrelatedOperation(mem);
    ASSERT_TRUE(hasCode(checker.findings(), CheckCode::InclusionViolation));
    EXPECT_EQ(checker.findings().front().cpu, 0);
    EXPECT_EQ(checker.findings().front().addr, 0x1000u);
}

TEST_F(CoherenceCheckerTest, IllegalTransitionReportedBeforeOperationEnd)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    mem.debugSetL2State(0, 0x1000, LineState::Exclusive);
    ASSERT_FALSE(checker.clean());
    EXPECT_EQ(checker.findings().front().code, CheckCode::IllegalTransition);
    // The E copy beside a Shared one also breaks SWMR at the boundary.
    unrelatedOperation(mem);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::SwmrViolation));
}

/** Demotes the writer's line to Shared as a write ends, once. */
class OwnershipSaboteur : public MemEventObserver
{
  public:
    explicit OwnershipSaboteur(MemorySystem &m) : mem(m) {}

    void
    onOperationEnd(const MemorySystem &, MemOpKind op, CpuId cpu,
                   Addr addr) override
    {
        if (op == MemOpKind::Write && armed) {
            armed = false;
            mem.debugSetL2State(cpu, addr, LineState::Shared);
        }
    }

    bool armed = false;

  private:
    MemorySystem &mem;
};

TEST_F(CoherenceCheckerTest, OwnershipViolationReportedAtWriteEnd)
{
    OwnershipSaboteur saboteur(mem);
    mem.setObservers({&saboteur, &checker});
    // A clean write first, so the second one hits a line the checker
    // last saw owned.
    mem.write(0, 0x1000, 0, osCtx());
    ASSERT_TRUE(checker.clean());
    saboteur.armed = true;
    mem.write(0, 0x1004, 100, osCtx());
    ASSERT_FALSE(saboteur.armed);
    ASSERT_FALSE(checker.clean());
    EXPECT_EQ(checker.findings().front().code,
              CheckCode::OwnershipViolation);
    EXPECT_EQ(checker.findings().front().cpu, 0);
}

// ---------------------------------------------------------------------
// Incremental checker vs a re-probing reference.
// ---------------------------------------------------------------------

using FindingKey = std::tuple<CheckCode, CpuId, Addr>;

/**
 * The checker's former algorithm, kept here as a test oracle: no
 * shadow at all, a hand-written edge rule, and at every operation end
 * a re-probe of every cpu's real secondary and primary cache for each
 * line the operation touched.
 */
class ReprobeReference : public MemEventObserver
{
  public:
    ReprobeReference(const MachineConfig &config, const MemorySystem &m)
        : cfg(config), mem(m), lastL1Wb(config.numCpus, 0),
          lastL2Wb(config.numCpus, 0)
    {}

    void
    onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                   LineState to) override
    {
        if (!legalEdge(from, to))
            found.emplace_back(CheckCode::IllegalTransition, cpu, l2_line);
        touched.insert(l2_line);
    }

    void
    onL1Fill(CpuId cpu, Addr l1_line) override
    {
        // A covered primary fill changes no secondary state.
        if (mem.l2State(cpu, l1_line) == LineState::Invalid)
            touched.insert(alignDown(l1_line, Addr{cfg.l2LineSize}));
    }

    void
    onOperationEnd(const MemorySystem &, MemOpKind op, CpuId cpu,
                   Addr addr) override
    {
        for (const Addr line : touched)
            checkLine(line);
        touched.clear();
        if (op == MemOpKind::Write) {
            const LineState st = mem.l2State(cpu, addr);
            if (st != LineState::Modified &&
                !(st == LineState::Shared && mem.isUpdateAddr(addr)))
                found.emplace_back(CheckCode::OwnershipViolation, cpu, addr);
        }
        const WriteBuffer &wb1 = mem.l1WriteBuffer(cpu);
        const WriteBuffer &wb2 = mem.l2WriteBuffer(cpu);
        for (const bool bad :
             {!wb1.drainOrderConsistent(), !wb2.drainOrderConsistent(),
              wb1.lastCompletion() < lastL1Wb[cpu],
              wb2.lastCompletion() < lastL2Wb[cpu]})
            if (bad)
                found.emplace_back(CheckCode::WriteBufferInconsistency, cpu,
                                   addr);
        lastL1Wb[cpu] = wb1.lastCompletion();
        lastL2Wb[cpu] = wb2.lastCompletion();
    }

    std::vector<FindingKey> found;

  private:
    bool
    legalEdge(LineState from, LineState to) const
    {
        const bool msi = cfg.protocol != CoherenceProtocol::Illinois;
        if (msi && (from == LineState::Exclusive ||
                    to == LineState::Exclusive))
            return false; // MSI has no Exclusive state to enter or leave.
        if (from == to || to == LineState::Invalid)
            return true;
        switch (from) {
          case LineState::Invalid:
            return true;
          case LineState::Shared:
            return to == LineState::Modified;
          case LineState::Exclusive:
            return to == LineState::Modified || to == LineState::Shared;
          case LineState::Modified:
            return to == LineState::Shared;
        }
        return false;
    }

    void
    checkLine(Addr line)
    {
        unsigned owners = 0;
        unsigned sharers = 0;
        for (unsigned c = 0; c < cfg.numCpus; ++c) {
            const LineState st = mem.l2State(CpuId(c), line);
            owners += st == LineState::Modified ||
                      st == LineState::Exclusive;
            sharers += st == LineState::Shared;
            if (st != LineState::Invalid)
                continue;
            for (Addr off = 0; off < cfg.l2LineSize; off += cfg.l1LineSize)
                if (mem.l1Contains(CpuId(c), line + off))
                    found.emplace_back(CheckCode::InclusionViolation,
                                       CpuId(c), line + off);
        }
        if (owners > 1 || (owners == 1 && sharers > 0))
            found.emplace_back(CheckCode::SwmrViolation, 0, line);
    }

    MachineConfig cfg;
    const MemorySystem &mem;
    std::unordered_set<Addr> touched;
    std::vector<Cycles> lastL1Wb;
    std::vector<Cycles> lastL2Wb;
};

/** A machine with caches small enough that every op conflicts. */
MachineConfig
tinyMachine(MachineConfig m)
{
    m.l1Size = 128;
    m.l1LineSize = 16;
    m.l2Size = 512;
    m.l2LineSize = 32;
    m.l2Ways = 2;
    m.check();
    return m;
}

/** Stats of one differential run (so the test can prove it bit). */
struct DifferentialTally
{
    std::uint64_t steps = 0;
    std::uint64_t findings = 0;
};

/**
 * Drive random traffic and random fault injections through @p machine
 * with both checkers attached; after every step, the findings each
 * one raised during that step must agree as multisets.
 */
void
runDifferential(const MachineConfig &machine, bool update_pages, Rng &rng,
                DifferentialTally &tally)
{
    constexpr Addr updatePage = 0x10000;
    constexpr Addr plainPage = 0x11000;
    const std::unordered_set<Addr> pages{updatePage};

    MemorySystem mem(machine);
    if (update_pages)
        mem.setUpdatePages(&pages);
    CoherenceChecker checker(machine);
    ReprobeReference reference(machine, mem);
    mem.setObservers({&checker, &reference});

    const auto pick_addr = [&] {
        const Addr page = rng.chance(0.5) ? updatePage : plainPage;
        return page + rng.below(48) * 16 + rng.below(4) * 4;
    };
    const auto pick_state = [&] { return LineState(rng.below(4)); };

    std::size_t seen_new = 0;
    std::size_t seen_ref = 0;
    Cycles now = 0;
    for (int step = 0; step < 400; ++step) {
        const CpuId cpu = CpuId(rng.below(machine.numCpus));
        const Addr addr = pick_addr();
        now += rng.range(1, 60);
        const std::uint64_t dice = rng.below(100);
        if (dice < 40) {
            mem.read(cpu, addr, now, osCtx());
        } else if (dice < 75) {
            mem.write(cpu, addr, now, osCtx());
        } else if (dice < 85) {
            mem.prefetch(cpu, addr, now, osCtx());
        } else if (dice < 90) {
            if (mem.l2State(cpu, addr) == LineState::Invalid)
                mem.writeBypassLine(cpu, alignDown(addr, 32), now, osCtx());
        } else if (dice < 93) {
            BlockOp op;
            op.kind = rng.chance(0.5) ? BlockOpKind::Copy : BlockOpKind::Zero;
            op.src = alignDown(pick_addr(), 32);
            op.dst = alignDown(pick_addr(), 32);
            op.size = 64;
            mem.dmaBlockOp(cpu, op, now);
        } else {
            mem.debugSetL2State(cpu, addr, pick_state());
        }
        if (checker.suppressedFindings() != 0)
            return; // Past the reporting cap: verdicts are truncated.

        std::vector<FindingKey> got;
        for (std::size_t i = seen_new; i < checker.findings().size(); ++i) {
            const CheckFinding &f = checker.findings()[i];
            got.emplace_back(f.code, f.cpu, f.addr);
        }
        std::vector<FindingKey> want(reference.found.begin() + seen_ref,
                                     reference.found.end());
        seen_new = checker.findings().size();
        seen_ref = reference.found.size();
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "step " << step;
        ++tally.steps;
        tally.findings += got.size();
    }
    checker.auditFull(mem);
    for (const CheckFinding &f : checker.findings())
        ASSERT_NE(f.code, CheckCode::ShadowMismatch) << format(f);
}

TEST(CoherenceCheckerDifferential, MatchesReprobeReferenceUnderFaults)
{
    Rng rng = testutil::testRng(1311);
    MachineConfig msi = tinyMachine(MachineConfig::base());
    msi.protocol = CoherenceProtocol::Msi;
    const struct
    {
        const char *name;
        MachineConfig machine;
        bool updatePages;
    } variants[] = {
        {"2-way L2", tinyMachine(MachineConfig::base()), false},
        {"numa(2,2)", tinyMachine(MachineConfig::numa(2, 2)), false},
        {"MSI", msi, false},
        {"update pages", tinyMachine(MachineConfig::base()), true},
    };
    for (const auto &v : variants) {
        SCOPED_TRACE(v.name);
        DifferentialTally tally;
        for (int trial = 0; trial < testutil::propIters(30); ++trial) {
            SCOPED_TRACE("trial " + std::to_string(trial));
            runDifferential(v.machine, v.updatePages, rng, tally);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        std::printf("[differential] %s: %llu steps, %llu findings\n", v.name,
                    (unsigned long long)tally.steps,
                    (unsigned long long)tally.findings);
        EXPECT_GT(tally.steps, 1000u);
        EXPECT_GT(tally.findings, 0u);
    }
}

// ---------------------------------------------------------------------
// Trace linter.
// ---------------------------------------------------------------------

TraceRecord
lockRecord(RecordType type, Addr addr)
{
    TraceRecord r;
    r.type = type;
    r.addr = addr;
    r.category = DataCategory::Lock;
    return r;
}

TraceRecord
barrierRecord(Addr addr, std::uint32_t parties)
{
    TraceRecord r;
    r.type = RecordType::BarrierArrive;
    r.addr = addr;
    r.aux = parties;
    r.category = DataCategory::Barrier;
    return r;
}

TraceRecord
blockOpRecord(RecordType type, BlockOpId id)
{
    TraceRecord r;
    r.type = type;
    r.aux = id;
    return r;
}

BlockOpId
addZeroOp(Trace &t)
{
    BlockOp op;
    op.dst = kernelSpaceBase + 0x10000;
    op.size = 4096;
    op.kind = BlockOpKind::Zero;
    return t.blockOps().add(op);
}

TEST(TraceLintTest, CleanMinimalTrace)
{
    Trace t(2);
    const Addr lock = kernelSpaceBase + 0x100;
    const BlockOpId id = addZeroOp(t);
    for (CpuId c = 0; c < 2; ++c) {
        auto &s = t.stream(c);
        s.push_back(TraceRecord::exec(10, 0, true));
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(kernelSpaceBase + 0x200,
                                       DataCategory::OtherShared, 0, true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
        s.push_back(barrierRecord(kernelSpaceBase + 0x300, 2));
    }
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, id));
    EXPECT_TRUE(lintTrace(t).empty());
}

TEST(TraceLintTest, UnbalancedBlockOpCaught)
{
    Trace t(1);
    const BlockOpId id = addZeroOp(t);
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
    EXPECT_TRUE(hasCode(lintTrace(t), CheckCode::UnbalancedBlockOp));

    Trace u(1);
    const BlockOpId uid = addZeroOp(u);
    u.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, uid));
    EXPECT_TRUE(hasCode(lintTrace(u), CheckCode::UnbalancedBlockOp));
}

TEST(TraceLintTest, MismatchedBlockOpEndCaught)
{
    Trace t(1);
    const BlockOpId a = addZeroOp(t);
    const BlockOpId b = addZeroOp(t);
    auto &s = t.stream(0);
    s.push_back(blockOpRecord(RecordType::BlockOpBegin, a));
    s.push_back(blockOpRecord(RecordType::BlockOpBegin, b));
    s.push_back(blockOpRecord(RecordType::BlockOpEnd, a));
    s.push_back(blockOpRecord(RecordType::BlockOpEnd, b));
    EXPECT_TRUE(hasCode(lintTrace(t), CheckCode::MismatchedBlockOpEnd));
}

TEST(TraceLintTest, UnknownBlockOpCaught)
{
    Trace t(1);
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, 7));
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, 7));
    EXPECT_TRUE(hasCode(lintTrace(t), CheckCode::UnknownBlockOp));
}

TEST(TraceLintTest, LockPairingDefectsCaught)
{
    const Addr lock = kernelSpaceBase + 0x100;

    Trace recursive(1);
    recursive.stream(0).push_back(lockRecord(RecordType::LockAcquire, lock));
    recursive.stream(0).push_back(lockRecord(RecordType::LockAcquire, lock));
    recursive.stream(0).push_back(lockRecord(RecordType::LockRelease, lock));
    EXPECT_TRUE(
        hasCode(lintTrace(recursive), CheckCode::RecursiveLockAcquire));

    Trace unpaired(1);
    unpaired.stream(0).push_back(lockRecord(RecordType::LockRelease, lock));
    EXPECT_TRUE(
        hasCode(lintTrace(unpaired), CheckCode::UnpairedLockRelease));

    Trace unreleased(1);
    unreleased.stream(0).push_back(
        lockRecord(RecordType::LockAcquire, lock));
    EXPECT_TRUE(hasCode(lintTrace(unreleased), CheckCode::UnreleasedLock));
}

TEST(TraceLintTest, BarrierDefectsCaught)
{
    const Addr bar = kernelSpaceBase + 0x300;

    // A 2-party barrier only one processor ever reaches.
    Trace missing(2);
    missing.stream(0).push_back(barrierRecord(bar, 2));
    EXPECT_TRUE(
        hasCode(lintTrace(missing), CheckCode::BarrierCountMismatch));

    // Unequal arrival counts deadlock the second episode.
    Trace unequal(2);
    unequal.stream(0).push_back(barrierRecord(bar, 2));
    unequal.stream(0).push_back(barrierRecord(bar, 2));
    unequal.stream(1).push_back(barrierRecord(bar, 2));
    EXPECT_TRUE(
        hasCode(lintTrace(unequal), CheckCode::BarrierCountMismatch));

    // More participants than the machine has processors.
    Trace oversub(2);
    oversub.stream(0).push_back(barrierRecord(bar, 3));
    oversub.stream(1).push_back(barrierRecord(bar, 3));
    EXPECT_TRUE(
        hasCode(lintTrace(oversub), CheckCode::BarrierCountMismatch));

    // The same barrier used with two different participant counts.
    Trace changed(2);
    changed.stream(0).push_back(barrierRecord(bar, 2));
    changed.stream(1).push_back(barrierRecord(bar, 1));
    EXPECT_TRUE(
        hasCode(lintTrace(changed), CheckCode::BarrierPartiesChanged));
}

TEST(TraceLintTest, CategoryRegionMismatchCaught)
{
    Trace t(1);
    // Shared kernel data cannot live at a user address.
    t.stream(0).push_back(TraceRecord::write(
        0x1000, DataCategory::OtherShared, 0, true));
    const auto findings = lintTrace(t);
    EXPECT_TRUE(hasCode(findings, CheckCode::CategoryRegionMismatch));
    EXPECT_EQ(countErrors(findings), 1u);

    Trace ok(1);
    // User data at a user address is fine.
    ok.stream(0).push_back(
        TraceRecord::write(0x1000, DataCategory::User, 0, false));
    EXPECT_TRUE(lintTrace(ok).empty());
}

TEST(TraceLintTest, NoProgressIsWarningOnly)
{
    Trace t(1);
    t.stream(0).push_back(TraceRecord::exec(0, 0, true));
    const auto findings = lintTrace(t);
    EXPECT_TRUE(hasCode(findings, CheckCode::NoProgress));
    EXPECT_EQ(countErrors(findings), 0u);
}

// ---------------------------------------------------------------------
// Table-driven defect matrix: one row per lint defect class, each
// producing exactly its own finding code, plus known-clean traces
// that must produce no findings at all.
// ---------------------------------------------------------------------

struct LintMatrixRow
{
    const char *name;
    Trace (*build)();
    /** Expected finding; nullopt for a known-clean trace. */
    std::optional<CheckCode> expected;
};

Trace
cleanHandBuilt()
{
    Trace t(2);
    const Addr lock = kernelSpaceBase + 0x100;
    const BlockOpId id = addZeroOp(t);
    for (CpuId c = 0; c < 2; ++c) {
        auto &s = t.stream(c);
        s.push_back(TraceRecord::exec(10, 0, true));
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(kernelSpaceBase + 0x200,
                                       DataCategory::OtherShared, 0,
                                       true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
        s.push_back(barrierRecord(kernelSpaceBase + 0x300, 2));
    }
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, id));
    return t;
}

Trace
cleanSynthetic()
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 1;
    return generateTrace(p, CoherenceOptions::none());
}

const LintMatrixRow lintMatrix[] = {
    {"unbalanced_block_op",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             blockOpRecord(RecordType::BlockOpBegin, addZeroOp(t)));
         return t;
     },
     CheckCode::UnbalancedBlockOp},
    {"mismatched_block_op_end",
     [] {
         Trace t(1);
         const BlockOpId a = addZeroOp(t);
         const BlockOpId b = addZeroOp(t);
         auto &s = t.stream(0);
         s.push_back(blockOpRecord(RecordType::BlockOpBegin, a));
         s.push_back(blockOpRecord(RecordType::BlockOpBegin, b));
         s.push_back(blockOpRecord(RecordType::BlockOpEnd, a));
         s.push_back(blockOpRecord(RecordType::BlockOpEnd, b));
         return t;
     },
     CheckCode::MismatchedBlockOpEnd},
    {"unknown_block_op",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             blockOpRecord(RecordType::BlockOpBegin, 42));
         t.stream(0).push_back(
             blockOpRecord(RecordType::BlockOpEnd, 42));
         return t;
     },
     CheckCode::UnknownBlockOp},
    {"unpaired_lock_release",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             lockRecord(RecordType::LockRelease, kernelSpaceBase + 0x100));
         return t;
     },
     CheckCode::UnpairedLockRelease},
    {"recursive_lock_acquire",
     [] {
         Trace t(1);
         const Addr lock = kernelSpaceBase + 0x100;
         auto &s = t.stream(0);
         s.push_back(lockRecord(RecordType::LockAcquire, lock));
         s.push_back(lockRecord(RecordType::LockAcquire, lock));
         s.push_back(lockRecord(RecordType::LockRelease, lock));
         return t;
     },
     CheckCode::RecursiveLockAcquire},
    {"unreleased_lock",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             lockRecord(RecordType::LockAcquire, kernelSpaceBase + 0x100));
         return t;
     },
     CheckCode::UnreleasedLock},
    {"barrier_count_mismatch",
     [] {
         Trace t(2);
         t.stream(0).push_back(
             barrierRecord(kernelSpaceBase + 0x300, 2));
         return t;
     },
     CheckCode::BarrierCountMismatch},
    {"barrier_parties_changed",
     [] {
         Trace t(2);
         t.stream(0).push_back(
             barrierRecord(kernelSpaceBase + 0x300, 2));
         t.stream(1).push_back(
             barrierRecord(kernelSpaceBase + 0x300, 1));
         return t;
     },
     CheckCode::BarrierPartiesChanged},
    {"category_region_mismatch",
     [] {
         Trace t(1);
         t.stream(0).push_back(TraceRecord::write(
             0x1000, DataCategory::OtherShared, 0, true));
         return t;
     },
     CheckCode::CategoryRegionMismatch},
    {"no_progress",
     [] {
         Trace t(1);
         t.stream(0).push_back(TraceRecord::exec(0, 0, true));
         return t;
     },
     CheckCode::NoProgress},
    {"clean_hand_built", cleanHandBuilt, std::nullopt},
    {"clean_synthetic_shell", cleanSynthetic, std::nullopt},
};

TEST(TraceLintMatrixTest, EveryDefectClassCaughtAndCleanTracesPass)
{
    for (const LintMatrixRow &row : lintMatrix) {
        SCOPED_TRACE(row.name);
        const Trace trace = row.build();
        const auto findings = lintTrace(trace);
        if (!row.expected) {
            // The workload model's unlocked producer-consumer writes
            // to FreqShared data are lockset Warnings by design;
            // nothing else may be reported.
            for (const CheckFinding &f : findings)
                EXPECT_TRUE(f.code == CheckCode::UnlockedSharedWrite &&
                            f.severity == Severity::Warning)
                    << "clean trace produced " << format(f);
            continue;
        }
        EXPECT_TRUE(hasCode(findings, *row.expected))
            << "expected " << toString(*row.expected);
        // A defect trace must not trip unrelated checks: every
        // finding it produces carries the expected code.
        for (const CheckFinding &f : findings)
            EXPECT_EQ(f.code, *row.expected) << format(f);
    }
}

TEST(TraceLintMatrixTest, MatrixAgreesWithStreamingLinter)
{
    // Linting a matrix row's chunked file through FileTraceSource (what
    // `oscache-lint trace` runs) must report what lintTrace() reports
    // on the trace itself.  The file readers refuse a record naming a
    // block op the table lacks, so that row must be refused instead.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "oscache_lint_matrix.otc")
            .string();
    for (const LintMatrixRow &row : lintMatrix) {
        SCOPED_TRACE(row.name);
        const Trace trace = row.build();
        writeTraceFile(path, trace, TraceFormat::Chunked);
        std::string why;
        const auto source =
            FileTraceSource::tryOpen(path, defaultStreamReadAhead, &why);
        if (row.expected == CheckCode::UnknownBlockOp) {
            EXPECT_EQ(source, nullptr);
            EXPECT_NE(why.find("record references unknown block op"),
                      std::string::npos)
                << why;
            continue;
        }
        ASSERT_NE(source, nullptr) << why;
        const auto direct = lintTrace(trace);
        const auto fromFile = lintSource(*source);
        ASSERT_EQ(direct.size(), fromFile.size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(fromFile[i].code, direct[i].code) << i;
            EXPECT_EQ(fromFile[i].cpu, direct[i].cpu) << i;
            EXPECT_EQ(fromFile[i].index, direct[i].index) << i;
            EXPECT_EQ(fromFile[i].message, direct[i].message) << i;
        }
    }
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// The linter's lockset discipline.
// ---------------------------------------------------------------------

/** lintTrace()'s UnlockedSharedWrite findings. */
std::vector<CheckFinding>
races(const Trace &trace)
{
    std::vector<CheckFinding> found = lintTrace(trace);
    std::erase_if(found, [](const CheckFinding &f) {
        return f.code != CheckCode::UnlockedSharedWrite;
    });
    return found;
}

TEST(RaceDetectTest, UnlockedSharedWriteFlagged)
{
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c)
        t.stream(c).push_back(TraceRecord::write(
            shared, DataCategory::OtherShared, 0, true));
    const auto findings = races(t);
    ASSERT_TRUE(hasCode(findings, CheckCode::UnlockedSharedWrite));
    EXPECT_EQ(countErrors(findings), 1u);
}

TEST(RaceDetectTest, ConsistentLockNotFlagged)
{
    Trace t(2);
    const Addr lock = kernelSpaceBase + 0x100;
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c) {
        auto &s = t.stream(c);
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(shared, DataCategory::OtherShared,
                                       0, true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
    }
    EXPECT_TRUE(races(t).empty());
}

TEST(RaceDetectTest, InconsistentLocksetsFlagged)
{
    // Each writer holds *a* lock, just never the same one.
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c) {
        const Addr lock = kernelSpaceBase + 0x100 + Addr(c) * 64;
        auto &s = t.stream(c);
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(shared, DataCategory::OtherShared,
                                       0, true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
    }
    EXPECT_TRUE(hasCode(races(t), CheckCode::UnlockedSharedWrite));
}

TEST(RaceDetectTest, SingleWriterNotFlagged)
{
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    t.stream(0).push_back(TraceRecord::write(
        shared, DataCategory::OtherShared, 0, true));
    t.stream(0).push_back(TraceRecord::write(
        shared, DataCategory::OtherShared, 0, true));
    EXPECT_TRUE(races(t).empty());
}

TEST(RaceDetectTest, FreqSharedIsWarningOnly)
{
    // Unlocked producer-consumer traffic on FreqShared data is part
    // of the workload model; it must be reported but not fail a run.
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c)
        t.stream(c).push_back(TraceRecord::write(
            shared, DataCategory::FreqShared, 0, true));
    const auto findings = races(t);
    ASSERT_TRUE(hasCode(findings, CheckCode::UnlockedSharedWrite));
    EXPECT_EQ(countErrors(findings), 0u);
}

TEST(RaceDetectTest, WritersPastCpu31StayDistinct)
{
    // cpu 32 must not alias cpu 0 in the writer set.
    Trace t(33);
    const Addr shared = kernelSpaceBase + 0x400;
    for (const CpuId c : {CpuId(0), CpuId(32)})
        t.stream(c).push_back(TraceRecord::write(
            shared, DataCategory::OtherShared, 0, true));
    const auto findings = races(t);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings.front().code, CheckCode::UnlockedSharedWrite);
    EXPECT_NE(findings.front().message.find("written by 2 processors"),
              std::string::npos)
        << findings.front().message;
}

// ---------------------------------------------------------------------
// Seed workloads: every profile must come out clean.
// ---------------------------------------------------------------------

TEST(SeedWorkloadTest, AllProfilesLintCleanAndRaceFree)
{
    for (WorkloadKind kind : allWorkloads) {
        WorkloadProfile p = WorkloadProfile::forKind(kind);
        p.quanta = 4;
        const SystemSetup setup = SystemSetup::forKind(SystemKind::Base);
        const Trace trace = generateTrace(p, setup.coherence);

        // One walk: structure and the lockset discipline.
        const auto lint = lintTrace(trace);
        EXPECT_EQ(countErrors(lint), 0u)
            << toString(kind) << ": " << format(lint.front());
    }
}

TEST(SeedWorkloadTest, InvariantCheckerCleanEndToEnd)
{
    // runOnTrace attaches the coherence checker by default
    // (SimOptions::checkCoherence) and panics on any violation, so
    // completing these runs is the assertion.
    for (SystemKind system : {SystemKind::Base, SystemKind::BCohRelUp,
                              SystemKind::BlkDma}) {
        WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
        p.quanta = 4;
        const SystemSetup setup = SystemSetup::forKind(system);
        const Trace trace = generateTrace(p, setup.coherence);
        SimOptions opts = p.simOptions();
        ASSERT_TRUE(opts.checkCoherence);
        const RunResult r = runOnTrace(trace, MachineConfig::base(), opts,
                                       setup);
        EXPECT_GT(r.stats.osTime(), 0u) << toString(system);
    }
}

} // namespace
} // namespace oscache
