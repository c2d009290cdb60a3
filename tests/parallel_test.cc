// The common/parallel primitives: ThreadPool and ParallelFor. The Fleet
// uses them to probe, plan and serve independent models concurrently, and
// the inference engine to split a batch's rows across a reused pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"

namespace kairos {
namespace {

TEST(ParallelismForTest, ResolvesZeroAndClampsToJobs) {
  EXPECT_GE(ParallelismFor(0, 100), 1u);
  EXPECT_EQ(ParallelismFor(8, 3), 3u);   // never more workers than jobs
  EXPECT_EQ(ParallelismFor(2, 100), 2u);
  EXPECT_EQ(ParallelismFor(0, 0), 1u);   // degenerate: still one worker
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum += i; });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { ++count; });
  pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, WaitRethrowsTheFirstTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable after an error batch.
  std::atomic<int> count{0};
  pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSmallAndEmpty) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  ParallelFor(pool, 0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  ParallelFor(pool, 2, [&](std::size_t) { ++count; });  // on two workers
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;  // a one-worker pool runs inline, in index order
  ParallelFor(pool, 5,
              [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForReusesOnePoolBackToBack) {
  // Gemm's pattern: many short calls back to back on one pool, each with
  // state on the caller's stack. A call must not return while a worker
  // still touches that state, because the next call's frame reuses the
  // stack; the sanitizer jobs run this to catch such a race.
  ThreadPool pool(4);
  constexpr long kCalls = 20000;
  long sum = 0;
  for (long call = 0; call < kCalls; ++call) {
    std::atomic<long> local{0};
    ParallelFor(pool, 4, [&](std::size_t i) {
      local += static_cast<long>(i) + 1;
    });
    sum += local.load();
  }
  EXPECT_EQ(sum, 10 * kCalls);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<int> hits(1000, 0);
  ParallelFor(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelForTest, HandlesDegenerateSizesAndSerialFallback) {
  int calls = 0;
  ParallelFor(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(5, 1, [&](std::size_t) { ++calls; });  // serial path
  EXPECT_EQ(calls, 5);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(ParallelFor(8, 4,
                           [](std::size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace kairos
