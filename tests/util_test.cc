#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include <memory>

#include "diffusion/cascade.h"
#include "util/csv_writer.h"
#include "util/deadline.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace holim {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),   Status::OutOfRange("").code(),
      Status::NotFound("").code(),          Status::IOError("").code(),
      Status::AlreadyExists("").code(),     Status::Unimplemented("").code(),
      Status::Internal("").code(),          Status::DeadlineExceeded("").code(),
      Status::Cancelled("").code(),         Status::ResourceExhausted("").code()};
  EXPECT_EQ(codes.size(), 10u);
}

TEST(StatusTest, EveryCodeRendersItsName) {
  EXPECT_EQ(Status::InvalidArgument("m").ToString(), "InvalidArgument: m");
  EXPECT_EQ(Status::OutOfRange("m").ToString(), "OutOfRange: m");
  EXPECT_EQ(Status::NotFound("m").ToString(), "NotFound: m");
  EXPECT_EQ(Status::IOError("m").ToString(), "IOError: m");
  EXPECT_EQ(Status::AlreadyExists("m").ToString(), "AlreadyExists: m");
  EXPECT_EQ(Status::Unimplemented("m").ToString(), "Unimplemented: m");
  EXPECT_EQ(Status::Internal("m").ToString(), "Internal: m");
  EXPECT_EQ(Status::DeadlineExceeded("m").ToString(), "DeadlineExceeded: m");
  EXPECT_EQ(Status::Cancelled("m").ToString(), "Cancelled: m");
  EXPECT_EQ(Status::ResourceExhausted("m").ToString(),
            "ResourceExhausted: m");
}

TEST(StatusTest, RobustnessCodesCarryCodeAndMessage) {
  const Status deadline = Status::DeadlineExceeded("work budget exhausted");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.message(), "work budget exhausted");
  const Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  const Status exhausted = Status::ResourceExhausted("cache full");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(std::move(r).ValueOrDie(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  HOLIM_ASSIGN_OR_RETURN(int v, std::move(in));
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

TEST(ResultTest, HoldsMoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 5);
  std::unique_ptr<int> owned = std::move(r).ValueOrDie();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 5);
}

TEST(ResultTest, MoveConstructionTransfersValueAndStatus) {
  Result<std::unique_ptr<int>> src(std::make_unique<int>(9));
  Result<std::unique_ptr<int>> dst(std::move(src));
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(**dst, 9);

  Result<std::unique_ptr<int>> err(Status::DeadlineExceeded("late"));
  Result<std::unique_ptr<int>> err_moved(std::move(err));
  ASSERT_FALSE(err_moved.ok());
  EXPECT_EQ(err_moved.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(err_moved.status().message(), "late");
}

TEST(DeadlineTest, InactiveNeverExpires) {
  Deadline deadline;
  EXPECT_FALSE(deadline.active());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(deadline.Check().ok());
  EXPECT_FALSE(deadline.StopRequested());
  EXPECT_TRUE(deadline.status().ok());
}

TEST(DeadlineTest, WorkBudgetFailsExactlyOnBthCheck) {
  Deadline deadline = Deadline::WorkBudget(3);
  EXPECT_TRUE(deadline.active());
  EXPECT_TRUE(deadline.Check().ok());
  EXPECT_TRUE(deadline.Check().ok());
  EXPECT_FALSE(deadline.StopRequested());  // still alive before the 3rd
  const Status third = deadline.Check();
  EXPECT_EQ(third.code(), StatusCode::kDeadlineExceeded);
  // Sticky: every later poll reports expired.
  EXPECT_TRUE(deadline.StopRequested());
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, CheckNChargesBlockCounts) {
  // CheckN(n) must land expiry at the same cumulative tick as n Check()
  // calls — that equivalence is what makes wave-dispatch tick charging
  // invariant to thread count.
  Deadline a = Deadline::WorkBudget(10);
  EXPECT_TRUE(a.CheckN(4).ok());
  EXPECT_TRUE(a.CheckN(5).ok());
  EXPECT_FALSE(a.CheckN(1).ok());  // cumulative 10th tick
  Deadline b = Deadline::WorkBudget(10);
  EXPECT_FALSE(b.CheckN(12).ok());  // overshoot in one wave also trips
}

TEST(DeadlineTest, WallClockExpiresOnManualClock) {
  ManualClock clock;
  Deadline deadline = Deadline::AfterMillis(5.0, &clock);
  EXPECT_TRUE(deadline.Check().ok());
  clock.Advance(4'000'000);  // 4 ms: still alive
  EXPECT_TRUE(deadline.Check().ok());
  EXPECT_FALSE(deadline.StopRequested());
  clock.Advance(1'000'000);  // exactly 5 ms: expired
  EXPECT_TRUE(deadline.StopRequested());
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  // A clock jump backwards does not resurrect a tripped deadline.
  clock.Set(0);
  EXPECT_TRUE(deadline.StopRequested());
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, CancelTokenTripsEitherMode) {
  CancelToken token;
  Deadline ticks = Deadline::WorkBudget(1'000'000, &token);
  EXPECT_TRUE(ticks.Check().ok());
  token.Cancel();
  EXPECT_TRUE(ticks.StopRequested());
  EXPECT_EQ(ticks.Check().code(), StatusCode::kCancelled);

  ManualClock clock;
  CancelToken token2;
  Deadline wall = Deadline::AfterMillis(1e9, &clock, &token2);
  EXPECT_TRUE(wall.Check().ok());
  token2.Cancel();
  EXPECT_TRUE(wall.StopRequested());
  EXPECT_EQ(wall.Check().code(), StatusCode::kCancelled);
}

TEST(DeadlineTest, CancelTokenCopiesShareOneFlag) {
  CancelToken original;
  CancelToken copy = original;
  copy.Cancel();
  EXPECT_TRUE(original.cancelled());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, UniformMeanApproximatelyCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(-1.0, 1.0);
  EXPECT_NEAR(sum / n, 0.0, 0.01);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng base(17);
  Rng split = base.Split(1);
  Rng base2(17);
  Rng split2 = base2.Split(1);
  // Same lineage -> same stream.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(split.Next64(), split2.Next64());
  // Different salt -> different stream.
  Rng base3(17);
  Rng split3 = base3.Split(2);
  int same = 0;
  Rng base4(17);
  Rng split4 = base4.Split(1);
  for (int i = 0; i < 64; ++i) {
    if (split3.Next64() == split4.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(EpochSetTest, InsertAndReset) {
  EpochSet set(10);
  set.Reset(10);
  EXPECT_FALSE(set.Contains(3));
  set.Insert(3);
  EXPECT_TRUE(set.Contains(3));
  set.Reset(10);
  EXPECT_FALSE(set.Contains(3));  // O(1) clear
}

TEST(EpochSetTest, ResizeOnReset) {
  EpochSet set(4);
  set.Reset(4);
  set.Insert(1);
  set.Reset(8);
  EXPECT_FALSE(set.Contains(1));
  set.Insert(7);
  EXPECT_TRUE(set.Contains(7));
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, InlineModeWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int sum = 0;
  pool.ParallelFor(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](std::size_t) { FAIL(); });
}

TEST(StringUtilTest, SplitTokens) {
  auto tokens = SplitTokens("  a\tbb  c\n");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "c");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3ull * 1024 * 1024 * 1024), "3.0 GiB");
}

TEST(StringUtilTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.0005), "500 us");
  EXPECT_EQ(HumanSeconds(0.25), "250.0 ms");
  EXPECT_EQ(HumanSeconds(3.0), "3.00 s");
  EXPECT_EQ(HumanSeconds(600.0), "10.0 min");
}

TEST(CsvWriterTest, WritesEscapedRows) {
  const std::string path = "/tmp/holim_csv_test.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.status().ok());
    w.WriteHeader({"a", "b"});
    w.WriteRow({"1,2", "say \"hi\""});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "\"1,2\",\"say \"\"hi\"\"\"");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, BadPathReportsIoError) {
  CsvWriter w("/nonexistent_dir_zz/x.csv");
  EXPECT_EQ(w.status().code(), StatusCode::kIOError);
}

TEST(MemoryTest, RssIsPositiveAndGrowsWithAllocation) {
  const std::size_t before = CurrentRssBytes();
  EXPECT_GT(before, 0u);
  MemoryMeter meter;
  std::vector<char> block(64 * 1024 * 1024, 1);
  // Touch to force residency.
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 2;
  EXPECT_GT(meter.OverheadBytes(), 32u * 1024 * 1024);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.ElapsedMillis(), 15.0);
  t.Restart();
  EXPECT_LT(t.ElapsedMillis(), 15.0);
}

}  // namespace
}  // namespace holim
