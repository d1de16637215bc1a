/**
 * @file
 * Tests of the trace emission helper: annotations, counters, the
 * OS-instruction scale, the cycle estimate the generator sizes idle
 * periods with, and the staging that publishes records in batches
 * (a test flushes before it reads the stream).
 */

#include <gtest/gtest.h>

#include "synth/emitter.hh"

namespace oscache
{
namespace
{

struct EmitterFixture : ::testing::Test
{
    Trace trace{1};
    Emitter em{trace.stream(0), trace.blockOps()};
};

TEST_F(EmitterFixture, ExecRecordsAnnotated)
{
    em.exec(10, 42);
    em.userExec(20, 7);
    em.flush();
    const auto &s = trace.stream(0);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_TRUE(s[0].isOs());
    EXPECT_EQ(s[0].aux, 10u);
    EXPECT_EQ(s[0].bb, 42u);
    EXPECT_FALSE(s[1].isOs());
}

TEST_F(EmitterFixture, DataRecordsAnnotated)
{
    em.read(0x1000, DataCategory::PageTable, 3);
    em.write(0x2000, DataCategory::InfreqComm, 4);
    em.userRead(0x3000, 5);
    em.userWrite(0x4000, 6);
    em.flush();
    const auto &s = trace.stream(0);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].category, DataCategory::PageTable);
    EXPECT_TRUE(s[0].isOs());
    EXPECT_EQ(s[1].type, RecordType::Write);
    EXPECT_EQ(s[2].category, DataCategory::User);
    EXPECT_FALSE(s[3].isOs());
}

TEST_F(EmitterFixture, BlockOpEmitsBracket)
{
    const BlockOpId id =
        em.blockOp(0x1000, 0x2000, 4096, BlockOpKind::Copy);
    em.flush();
    const auto &s = trace.stream(0);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].type, RecordType::BlockOpBegin);
    EXPECT_EQ(s[0].aux, id);
    EXPECT_EQ(s[1].type, RecordType::BlockOpEnd);
    EXPECT_EQ(trace.blockOps().get(id).size, 4096u);
}

TEST_F(EmitterFixture, SyncRecords)
{
    em.lockAcquire(0x5000);
    em.lockRelease(0x5000);
    em.barrierArrive(0x6000, 4);
    em.flush();
    const auto &s = trace.stream(0);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].type, RecordType::LockAcquire);
    EXPECT_EQ(s[1].type, RecordType::LockRelease);
    EXPECT_EQ(s[2].type, RecordType::BarrierArrive);
    EXPECT_EQ(s[2].aux, 4u);
}

TEST_F(EmitterFixture, CycleEstimateGrows)
{
    const auto start = em.cycleEstimate();
    em.exec(100, 1);
    const auto after_exec = em.cycleEstimate();
    EXPECT_GT(after_exec, start);
    em.blockOp(0x1000, 0x2000, 4096, BlockOpKind::Copy);
    EXPECT_GT(em.cycleEstimate(), after_exec);
}

TEST_F(EmitterFixture, StagedRecordsPublishInBatches)
{
    // A full staging batch publishes by itself; the rest waits for
    // flush() or retarget(), and the order never changes.
    const std::size_t batch = Emitter::stagingRecords;
    for (std::size_t i = 0; i < batch + 3; ++i)
        em.idle(std::uint32_t(i));
    const auto &s = trace.stream(0);
    ASSERT_EQ(s.size(), batch);
    RecordStream next;
    em.retarget(next);
    ASSERT_EQ(s.size(), batch + 3);
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(s[i], TraceRecord::idle(std::uint32_t(i))) << i;
    em.exec(5, 9);
    EXPECT_TRUE(next.empty());
    em.flush();
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0], TraceRecord::exec(5, 9, true));
    EXPECT_EQ(s.size(), batch + 3);
}

TEST(EmitterScaleTest, OsExecScaled)
{
    Trace trace(1);
    Emitter em(trace.stream(0), trace.blockOps(), 3.0);
    em.exec(10, 1);
    em.userExec(10, 2);
    em.flush();
    ASSERT_EQ(trace.stream(0).size(), 2u);
    EXPECT_EQ(trace.stream(0)[0].aux, 30u); // OS instructions scale.
    EXPECT_EQ(trace.stream(0)[1].aux, 10u); // User instructions don't.
}

TEST(EmitterScaleTest, RoundsToNearest)
{
    Trace trace(1);
    Emitter em(trace.stream(0), trace.blockOps(), 2.5);
    em.exec(3, 1); // 7.5 -> 8.
    em.flush();
    ASSERT_EQ(trace.stream(0).size(), 1u);
    EXPECT_EQ(trace.stream(0)[0].aux, 8u);
}

} // namespace
} // namespace oscache
