#pragma once
// Live progress heartbeat for the enumeration loops.
//
// A Progress object carries one relaxed-atomic "combinations checked"
// counter that every worker ticks (the in-process shard executor and the
// scan worker alike — a relaxed fetch_add is safe and cheap from any number
// of threads), and an optional sampling thread that prints
//
//     checked/total (pct%) rate=N/s eta=Ss
//
// to stderr every interval_ms during enumeration.  The engines start/stop
// the meter around the enumeration once the probe-space size is known; the
// CLI only creates the object (and only when --progress was passed and
// stderr is a TTY — redirected runs stay clean).  The same counter feeds
// the tracer ("verify.checked" counter samples, one per heartbeat) and the
// cancellation diagnostics: the final line shows how far the enumeration
// got when a deadline or counterexample stopped it.

#include <atomic>
#include <cstdint>
#include <thread>

namespace sani::obs {

class Progress {
 public:
  struct Options {
    std::int64_t interval_ms = 500;  // heartbeat period
    bool use_stderr = true;          // false: heartbeat stays silent
                                     // (counters still tick; tests)
  };

  Progress() = default;
  explicit Progress(const Options& options) : options_(options) {}
  ~Progress() { stop(); }

  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  /// Starts a heartbeat over `total` combinations (0 = unknown).  Resets
  /// the counter; idempotent while running (restarts with the new total).
  void start(std::uint64_t total);

  /// Joins the sampling thread and prints the final "…done" line (TTY
  /// mode).  Safe to call twice; the destructor calls it.
  void stop();

  /// The hot-path hook: one relaxed increment.
  void tick(std::uint64_t n = 1) {
    checked_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t checked() const {
    return checked_.load(std::memory_order_relaxed);
  }
  std::uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// True when stderr is an interactive terminal (the --progress gate).
  static bool stderr_is_tty();

 private:
  void sampler_loop();
  void print_line(bool final_line);

  Options options_;
  std::atomic<std::uint64_t> checked_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<bool> running_{false};
  std::int64_t start_ns_ = 0;
  bool printed_ = false;  // sampler-thread / stop()-owner state
  std::thread sampler_;
};

}  // namespace sani::obs
