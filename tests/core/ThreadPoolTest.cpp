//===- tests/core/ThreadPoolTest.cpp - Worker pool unit tests -------------===//

#include "core/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace dc;

TEST(ThreadPoolTest, SubmittedJobsAllRun) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.workerCount(), 3u);
  std::atomic<int> Ran{0};
  std::mutex M;
  std::condition_variable Cv;
  constexpr int Jobs = 100;
  for (int I = 0; I < Jobs; ++I)
    Pool.submit([&] {
      // Count under the lock: once the waiter has seen the last count, no
      // job touches M or Cv again, so they may go out of scope.
      std::lock_guard<std::mutex> L(M);
      if (Ran.fetch_add(1) + 1 == Jobs)
        Cv.notify_all();
    });
  std::unique_lock<std::mutex> L(M);
  ASSERT_TRUE(Cv.wait_for(L, std::chrono::seconds(30),
                          [&] { return Ran.load() == Jobs; }));
}

TEST(ThreadPoolTest, DestructorDrainsPendingJobs) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 50; ++I)
      Pool.submit([&] { Ran.fetch_add(1); });
  } // ~ThreadPool joins after draining the queue
  EXPECT_EQ(Ran.load(), 50);
}

TEST(ThreadPoolTest, ResolveThreadCountMapping) {
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores == 0)
    Cores = 1;
  EXPECT_EQ(ThreadPool::resolveThreadCount(0), std::max(1u, Cores));
  EXPECT_EQ(ThreadPool::resolveThreadCount(-3), std::max(1u, Cores));
  EXPECT_EQ(ThreadPool::resolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::resolveThreadCount(5), 5u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int Threads : {1, 2, 8}) {
    constexpr size_t N = 997;
    std::vector<std::atomic<int>> Hits(N);
    for (auto &H : Hits)
      H.store(0);
    parallelFor(Threads, N, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " with " << Threads
                                   << " threads";
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndSingleCounts) {
  int Ran = 0;
  parallelFor(8, 0, [&](size_t) { ++Ran; });
  EXPECT_EQ(Ran, 0);
  parallelFor(8, 1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    ++Ran;
  });
  EXPECT_EQ(Ran, 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallelFor(8, 64,
                  [&](size_t I) {
                    if (I == 13)
                      throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, PoolUsableAfterException) {
  EXPECT_THROW(parallelFor(8, 16,
                           [&](size_t) {
                             throw std::runtime_error("first");
                           }),
               std::runtime_error);
  // The shared pool must have survived: a later region runs normally.
  std::atomic<size_t> Sum{0};
  parallelFor(8, 100, [&](size_t I) { Sum.fetch_add(I + 1); });
  EXPECT_EQ(Sum.load(), 5050u);
}

TEST(ThreadPoolTest, PreCancelledTokenRunsNoBodies) {
  CancellationToken Token;
  Token.cancel();
  std::atomic<int> Ran{0};
  parallelFor(8, 1000, [&](size_t) { Ran.fetch_add(1); }, &Token);
  EXPECT_EQ(Ran.load(), 0);
}

TEST(ThreadPoolTest, CancellationStopsFurtherIndices) {
  CancellationToken Token;
  std::atomic<int> Ran{0};
  parallelFor(1, 1000,
              [&](size_t) {
                if (Ran.fetch_add(1) + 1 == 10)
                  Token.cancel();
              },
              &Token);
  // Serial path: exactly the 10 bodies before the cancel ran.
  EXPECT_EQ(Ran.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer region saturates the pool; inner regions must still complete via
  // caller participation even when every worker is busy.
  constexpr size_t Outer = 16, Inner = 64;
  std::vector<std::atomic<size_t>> Sums(Outer);
  for (auto &S : Sums)
    S.store(0);
  parallelFor(8, Outer, [&](size_t O) {
    parallelFor(8, Inner, [&](size_t I) { Sums[O].fetch_add(I + 1); });
  });
  for (size_t O = 0; O < Outer; ++O)
    EXPECT_EQ(Sums[O].load(), Inner * (Inner + 1) / 2);
}

TEST(ThreadPoolTest, ParallelForResultMatchesSerial) {
  // The parallel sum over a deterministic per-index function equals the
  // serial sum regardless of scheduling.
  constexpr size_t N = 4096;
  auto F = [](size_t I) { return (I * 2654435761u) % 1000; };
  size_t Expected = 0;
  for (size_t I = 0; I < N; ++I)
    Expected += F(I);
  for (int Threads : {1, 2, 8}) {
    std::vector<size_t> Vals(N, 0);
    parallelFor(Threads, N, [&](size_t I) { Vals[I] = F(I); });
    EXPECT_EQ(std::accumulate(Vals.begin(), Vals.end(), size_t{0}),
              Expected);
  }
}
