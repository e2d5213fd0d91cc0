#pragma once
// Bounded, priority-ordered admission queue for the sanid daemon.
//
// The shard executor (verify/parallel.h) is a batch/barrier executor: it
// returns once a whole shard plan drains, so it cannot also be the
// structure that *admits* work from many concurrent clients.
// AdmissionQueue fills that gap: connection handlers push jobs (rejecting
// when full, so a flooding client gets backpressure instead of unbounded
// daemon memory), a small set of executor threads block in pop() and run
// each job through the shard executor.
//
// Ordering: higher priority first; within a priority, FIFO by admission
// sequence — two equal-priority jobs never reorder, which keeps daemon
// behavior reproducible.
//
// Shutdown: close() wakes every blocked pop(), which then returns false.
// Jobs still queued at close() are dropped (the daemon reports them as
// rejected); jobs already popped run to completion.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

namespace sani::sched {

template <typename Job>
class AdmissionQueue {
 public:
  /// `capacity` bounds the number of queued (admitted, not yet popped)
  /// jobs; 0 means unbounded.
  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits a job.  Returns false — without blocking — when the queue is
  /// full or closed.
  bool try_push(Job job, int priority) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    if (capacity_ != 0 && heap_.size() >= capacity_) return false;
    heap_.push(Entry{priority, next_seq_++, std::move(job)});
    cv_.notify_one();
    return true;
  }

  /// Blocks until a job is available or the queue is closed.  Returns
  /// nullopt on close (remaining jobs are NOT drained — callers that must
  /// fail them take them out with drain() first).
  std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !heap_.empty(); });
    if (closed_) return std::nullopt;
    Job job = std::move(const_cast<Entry&>(heap_.top()).job);
    heap_.pop();
    return job;
  }

  /// Closes the queue: pending and future pop() calls return nullopt,
  /// future try_push() calls return false.  Idempotent.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  /// Removes and returns every queued job (priority order).  Used on
  /// shutdown to fail still-queued requests explicitly.
  std::vector<Job> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Job> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(std::move(const_cast<Entry&>(heap_.top()).job));
      heap_.pop();
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heap_.size();
  }

  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  struct Entry {
    int priority;
    std::uint64_t seq;
    Job job;
  };
  struct Later {
    // std::priority_queue surfaces the *greatest* element: an entry is
    // "later" (ranked below) when its priority is lower, or equal with a
    // larger admission sequence.
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace sani::sched
