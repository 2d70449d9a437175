// Tests for the persistent WorkerPool: threads are spawned once and reused
// across Runs (stable thread ids, no spawn per batch), shutdown joins
// cleanly, nested submission cannot deadlock, every index runs exactly
// once, and the worker-budget scope caps scheduler resolution.
#include "src/walker/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/walker/scheduler.h"

namespace flexi {
namespace {

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  WorkerPool pool;
  constexpr unsigned kWorkers = 64;
  std::vector<std::atomic<int>> hits(kWorkers);
  pool.Run(kWorkers, [&](unsigned w) { hits[w].fetch_add(1); });
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(hits[w].load(), 1) << w;
  }
}

TEST(WorkerPool, ThreadsAreReusedAcrossRuns) {
  // Which subset of pool threads participates in any one Run is timing-
  // dependent (the submitter may claim every index before a parked thread
  // wakes), so the race-free reuse property is the bound on the union: over
  // many Runs, every executing thread is either one of the pool's
  // once-spawned threads or the submitter — never a fresh spawn.
  WorkerPool pool;
  std::mutex mutex;
  std::set<std::thread::id> all_ids;
  pool.Run(8, [&](unsigned) {
    std::lock_guard<std::mutex> lock(mutex);
    all_ids.insert(std::this_thread::get_id());
  });
  size_t spawned_after_first = pool.thread_count();
  // The submitter participates, so at most workers - 1 threads were spawned.
  EXPECT_LE(spawned_after_first, 7u);

  for (int run = 0; run < 50; ++run) {
    pool.Run(8, [&](unsigned) {
      std::lock_guard<std::mutex> lock(mutex);
      all_ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(pool.thread_count(), spawned_after_first) << "run " << run << " spawned threads";
  }
  // 51 runs of width 8 on fresh threads would show up to 408 distinct ids.
  EXPECT_LE(all_ids.size(), spawned_after_first + 1);
}

TEST(WorkerPool, GrowsForWiderJobsButNeverPerBatch) {
  WorkerPool pool;
  pool.Run(4, [](unsigned) {});
  size_t narrow = pool.thread_count();
  pool.Run(16, [](unsigned) {});
  size_t wide = pool.thread_count();
  EXPECT_GE(wide, narrow);
  for (int run = 0; run < 20; ++run) {
    pool.Run(16, [](unsigned) {});
  }
  EXPECT_EQ(pool.thread_count(), wide);
}

TEST(WorkerPool, ShutdownJoinsCleanly) {
  std::atomic<int> total{0};
  {
    WorkerPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    pool.Run(8, [&](unsigned) { total.fetch_add(1); });
  }  // destructor joins the parked workers
  EXPECT_EQ(total.load(), 8);
}

TEST(WorkerPool, JobWiderThanPoolStillCompletes) {
  WorkerPool pool;  // empty; Run grows it as needed
  std::atomic<int> total{0};
  pool.Run(32, [&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 32);
}

TEST(WorkerPool, NestedRunCompletes) {
  WorkerPool pool;
  std::atomic<int> inner_total{0};
  pool.Run(4, [&](unsigned) {
    pool.Run(4, [&](unsigned) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 16);
}

TEST(WorkerPool, ConcurrentSubmittersAllComplete) {
  WorkerPool pool;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int run = 0; run < 10; ++run) {
        pool.Run(4, [&](unsigned) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  EXPECT_EQ(total.load(), 4 * 10 * 4);
}

TEST(ParallelForRangesPool, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10001;
  std::vector<std::atomic<int>> hits(kN);
  ParallelForRanges(8, kN, [&](unsigned, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ScopedWorkerBudgetScope, CapsAndRestoresDefaults) {
  unsigned unbudgeted = DefaultWorkerThreads();
  {
    ScopedWorkerBudget budget(2);
    EXPECT_EQ(ScopedWorkerBudget::Current(), 2u);
    EXPECT_LE(DefaultWorkerThreads(), 2u);
    {
      ScopedWorkerBudget inner(8);  // nested scopes only tighten
      EXPECT_EQ(ScopedWorkerBudget::Current(), 2u);
      ScopedWorkerBudget tighter(1);
      EXPECT_EQ(ScopedWorkerBudget::Current(), 1u);
    }
    EXPECT_EQ(ScopedWorkerBudget::Current(), 2u);
  }
  EXPECT_EQ(ScopedWorkerBudget::Current(), 0u);
  EXPECT_EQ(DefaultWorkerThreads(), unbudgeted);
}

TEST(ScopedWorkerBudgetScope, CapsSchedulerResolution) {
  ScopedWorkerBudget budget(3);
  SchedulerOptions defaulted;
  EXPECT_LE(WalkScheduler(defaulted).num_threads(), 3u);
  SchedulerOptions explicit_request;
  explicit_request.num_threads = 64;  // the budget owner still wins
  EXPECT_EQ(WalkScheduler(explicit_request).num_threads(), 3u);
}

TEST(GlobalPool, RunOnWorkersReusesGlobalThreads) {
  std::mutex mutex;
  std::set<std::thread::id> all_ids;
  for (int run = 0; run < 20; ++run) {
    RunOnWorkers(4, [&](unsigned) {
      std::lock_guard<std::mutex> lock(mutex);
      all_ids.insert(std::this_thread::get_id());
    });
  }
  // 20 runs of width 4: fresh spawns would show up to 80 distinct ids; the
  // global pool plus the submitter is at most 5 here (other tests may have
  // grown the pool, but reuse keeps the union small and fixed).
  EXPECT_LE(all_ids.size(), WorkerPool::Global().thread_count() + 1);
}

}  // namespace
}  // namespace flexi
