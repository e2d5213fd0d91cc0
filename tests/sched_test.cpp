#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/cancel.h"
#include "sched/pool.h"
#include "sched/queue.h"
#include "sched/shard.h"
#include "util/combinations.h"

namespace sani::sched {
namespace {

// ---------------------------------------------------------------------------
// Pool

TEST(Pool, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    Pool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    const std::size_t n = 237;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    const PoolStats stats = pool.run(n, [&](int worker, std::size_t task) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[task].fetch_add(1);
    });
    EXPECT_EQ(stats.tasks_run, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Pool, ReusableAcrossJobs) {
  Pool pool(2);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> sum{0};
    pool.run(10, [&](int, std::size_t task) { sum.fetch_add(task + 1); });
    EXPECT_EQ(sum.load(), 55u);
  }
}

TEST(Pool, ZeroTasksIsANoop) {
  Pool pool(2);
  const PoolStats stats =
      pool.run(0, [&](int, std::size_t) { FAIL() << "no tasks to run"; });
  EXPECT_EQ(stats.tasks_run, 0u);
  EXPECT_EQ(stats.tasks_stolen, 0u);
}

TEST(Pool, StealingMovesWorkToIdleWorkers) {
  // Worker 0 blocks on its first task until every other task is done; the
  // rest of its deque must get stolen by the other workers.
  Pool pool(4);
  const std::size_t n = 64;
  std::atomic<std::size_t> done{0};
  const PoolStats stats = pool.run(n, [&](int, std::size_t task) {
    if (task == 0) {
      // Round-robin dealing puts tasks 4, 8, 12, ... in worker 0's deque.
      while (done.load() < n - 1) std::this_thread::yield();
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(stats.tasks_run, n);
  if (Pool::hardware_threads() > 1) EXPECT_GT(stats.tasks_stolen, 0u);
}

TEST(Pool, FirstExceptionPropagatesAndJobStillDrains) {
  Pool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run(20,
               [&](int, std::size_t task) {
                 ran.fetch_add(1);
                 if (task == 3) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
  // The pool survives a throwing job.
  std::atomic<int> again{0};
  pool.run(5, [&](int, std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 5);
}

TEST(Pool, WorkerZeroRunsOnTheCallingThread) {
  // The caller of run() is worker 0; a one-worker pool runs every task
  // inline, and the other workers of a larger pool are spawned threads.
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {1, 2, 4}) {
    Pool pool(threads);
    std::mutex mu;
    std::vector<std::set<std::thread::id>> ids(
        static_cast<std::size_t>(threads));
    pool.run(64, [&](int worker, std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids[static_cast<std::size_t>(worker)].insert(
          std::this_thread::get_id());
    });
    for (int w = 0; w < threads; ++w) {
      const auto& seen = ids[static_cast<std::size_t>(w)];
      EXPECT_LE(seen.size(), 1u) << "worker " << w;
      if (seen.empty()) continue;
      EXPECT_EQ(*seen.begin() == caller, w == 0) << "worker " << w;
    }
    // Stealing may leave worker 0 idle in a larger pool; alone, it runs all.
    if (threads == 1) {
      EXPECT_EQ(ids[0].size(), 1u);
    }
  }
}

TEST(Pool, HardwareThreadsIsPositive) {
  EXPECT_GE(Pool::hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// CancelToken

TEST(Cancel, StartsClear) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.expired());
  EXPECT_FALSE(t.stop_requested());
  EXPECT_EQ(t.max_ack_latency(), 0.0);
  t.acknowledge();  // no signal active: a no-op
  EXPECT_EQ(t.max_ack_latency(), 0.0);
}

TEST(Cancel, ExplicitCancelIsStickyAndIdempotent) {
  CancelToken t;
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.stop_requested());
  t.cancel();
  EXPECT_TRUE(t.cancelled());
}

TEST(Cancel, DeadlineExpires) {
  CancelToken t;
  t.set_deadline_after(0.02);
  EXPECT_FALSE(t.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(t.expired());
  EXPECT_TRUE(t.stop_requested());
  EXPECT_FALSE(t.cancelled());  // independent signals
}

TEST(Cancel, NonPositiveDeadlineDisarms) {
  CancelToken t;
  t.set_deadline_after(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(t.expired());
  t.set_deadline_after(0.0);
  EXPECT_FALSE(t.expired());
}

TEST(Cancel, AcknowledgeRecordsLatency) {
  CancelToken t;
  t.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.acknowledge();
  const double lat = t.max_ack_latency();
  EXPECT_GE(lat, 0.005);
  EXPECT_LT(lat, 5.0);
  // High-water mark: an immediate second acknowledge cannot lower it.
  t.acknowledge();
  EXPECT_GE(t.max_ack_latency(), lat);
}

TEST(Cancel, ConcurrentCancelAndAcknowledge) {
  CancelToken t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&t] {
      t.cancel();
      while (!t.stop_requested()) {}
      t.acknowledge();
    });
  for (auto& th : threads) th.join();
  EXPECT_TRUE(t.cancelled());
  EXPECT_GE(t.max_ack_latency(), 0.0);
}

// ---------------------------------------------------------------------------
// Shard planning

void expect_exact_cover(const std::vector<Shard>& shards, int n, int d) {
  // Per size class, the ranges must tile [0, C(n, k)) without gaps/overlap.
  for (int k = 1; k <= d && k <= n; ++k) {
    std::uint64_t next = 0;
    for (const Shard& s : shards) {
      if (s.k != k) continue;
      EXPECT_EQ(s.begin, next) << "gap/overlap at k=" << k;
      EXPECT_LT(s.begin, s.end);
      next = s.end;
    }
    EXPECT_EQ(next, binomial(n, k)) << "k=" << k;
  }
  for (const Shard& s : shards) {
    EXPECT_GE(s.k, 1);
    EXPECT_LE(s.k, d);
  }
}

TEST(Shards, CoverEverySizeClassExactly) {
  for (int n : {5, 21, 40})
    for (int d : {1, 2, 3})
      for (int workers : {1, 2, 8})
        expect_exact_cover(plan_shards(n, d, workers, false), n, d);
}

TEST(Shards, SizeOrderMatchesSearchOrder) {
  const auto dfs = plan_shards(30, 3, 4, false);
  for (std::size_t i = 1; i < dfs.size(); ++i)
    EXPECT_LE(dfs[i - 1].k, dfs[i].k);  // ascending for DFS

  const auto lf = plan_shards(30, 3, 4, true);
  for (std::size_t i = 1; i < lf.size(); ++i)
    EXPECT_GE(lf[i - 1].k, lf[i].k);  // descending for largest-first
  expect_exact_cover(lf, 30, 3);
}

TEST(Shards, FixedSizeIsHonored) {
  ShardPlanOptions opt;
  opt.fixed_size = 7;
  const auto shards = plan_shards(12, 2, 3, false, opt);
  expect_exact_cover(shards, 12, 2);
  for (const Shard& s : shards) {
    EXPECT_LE(s.size(), 7u);
    // Only the last shard of a size class may be short.
    if (s.end != binomial(12, s.k)) EXPECT_EQ(s.size(), 7u);
  }
}

TEST(Shards, AutoSizeRespectsBounds) {
  ShardPlanOptions opt;  // defaults: min 8, max 4096
  const auto shards = plan_shards(40, 3, 4, false, opt);
  expect_exact_cover(shards, 40, 3);
  for (const Shard& s : shards)
    if (s.end != binomial(40, s.k)) {
      EXPECT_GE(s.size(), opt.min_size);
      EXPECT_LE(s.size(), opt.max_size);
    }
}

TEST(Shards, DegenerateSpaces) {
  EXPECT_TRUE(plan_shards(0, 2, 4, false).empty());
  const auto one = plan_shards(1, 3, 4, false);
  expect_exact_cover(one, 1, 1);  // only k=1 exists
}

// ---------------------------------------------------------------------------
// Rank / unrank (the sharding substrate in util/combinations)

TEST(Ranking, RoundTripMatchesIterationOrder) {
  for (int n : {1, 5, 9})
    for (int k = 1; k <= n; ++k) {
      CombinationIter it(n, k);
      std::uint64_t rank = 0;
      do {
        EXPECT_EQ(combination_rank(n, it.indices()), rank);
        EXPECT_EQ(unrank_combination(n, k, rank), it.indices());
        ++rank;
      } while (it.next());
      EXPECT_EQ(rank, binomial(n, k));
    }
}

TEST(Ranking, CountLexBeforeMatchesDepthFirstOrder) {
  // count_lex_before(n, k, F) is the number of size-k combinations that
  // precede F in lexicographic vector order over sizes 1..d, where a proper
  // prefix precedes its extensions: the depth-first search order.
  for (int n : {1, 4, 7}) {
    const int d = std::min(n, 4);
    std::vector<std::vector<int>> order;
    for (int k = 1; k <= d; ++k) {
      CombinationIter it(n, k);
      do {
        order.push_back(it.indices());
      } while (it.next());
    }
    std::sort(order.begin(), order.end());
    for (const auto& f : order)
      for (int k = 1; k <= d; ++k) {
        std::uint64_t want = 0;
        for (const auto& c : order)
          if (static_cast<int>(c.size()) == k && c < f) ++want;
        EXPECT_EQ(count_lex_before(n, k, f), want)
            << "n=" << n << " k=" << k << " |F|=" << f.size();
      }
  }
}

TEST(Ranking, IterResumesMidStream) {
  const int n = 10, k = 3;
  const std::uint64_t start = 57;
  CombinationIter it(n, k, unrank_combination(n, k, start));
  std::uint64_t rank = start;
  do {
    EXPECT_EQ(combination_rank(n, it.indices()), rank);
    ++rank;
  } while (it.next());
  EXPECT_EQ(rank, binomial(n, k));
}

// ---------------------------------------------------------------------------
// AdmissionQueue (the daemon's bounded priority queue)

TEST(AdmissionQueue, PopsByPriorityThenFifoWithinPriority) {
  AdmissionQueue<int> q(0);
  EXPECT_TRUE(q.try_push(1, /*priority=*/0));
  EXPECT_TRUE(q.try_push(2, /*priority=*/5));
  EXPECT_TRUE(q.try_push(3, /*priority=*/0));
  EXPECT_TRUE(q.try_push(4, /*priority=*/5));
  EXPECT_TRUE(q.try_push(5, /*priority=*/-1));
  EXPECT_EQ(q.size(), 5u);

  std::vector<int> order;
  for (int i = 0; i < 5; ++i) order.push_back(*q.pop());
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3, 5}));
}

TEST(AdmissionQueue, CapacityBoundsAdmittedNotPoppedJobs) {
  AdmissionQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1, 0));
  EXPECT_TRUE(q.try_push(2, 0));
  EXPECT_FALSE(q.try_push(3, 100));  // full rejects even high priority
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_TRUE(q.try_push(3, 0));  // popping frees the slot
}

TEST(AdmissionQueue, CloseWakesBlockedPopAndRejectsFurtherPushes) {
  AdmissionQueue<int> q(0);
  std::thread popper([&q] { EXPECT_EQ(q.pop(), std::nullopt); });
  // Give the popper a moment to block before closing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  popper.join();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(1, 0));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(AdmissionQueue, DrainReturnsQueuedJobsInPriorityOrder) {
  AdmissionQueue<int> q(0);
  q.try_push(1, 0);
  q.try_push(2, 9);
  q.try_push(3, 0);
  q.close();
  EXPECT_EQ(q.drain(), (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueue, ConcurrentProducersAndConsumersLoseNothing) {
  AdmissionQueue<int> q(0);
  constexpr int kProducers = 4, kPerProducer = 500;
  std::mutex mu;
  std::vector<int> popped;
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c)
    threads.emplace_back([&] {
      while (auto job = q.pop()) {
        std::lock_guard<std::mutex> lock(mu);
        popped.push_back(*job);
      }
    });
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(q.try_push(p * kPerProducer + i, i % 3));
    });
  for (int p = 0; p < kProducers; ++p) threads[3 + p].join();
  while (q.size() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  q.close();
  for (int c = 0; c < 3; ++c) threads[c].join();

  std::set<int> seen(popped.begin(), popped.end());
  EXPECT_EQ(popped.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(seen.size(), popped.size());  // no duplicates, nothing lost
}

}  // namespace
}  // namespace sani::sched
