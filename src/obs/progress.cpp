#include "obs/progress.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/clock.h"
#include "obs/trace.h"

namespace sani::obs {

Heartbeat::Heartbeat(double interval_seconds, std::function<void()> beat)
    : interval_(interval_seconds), beat_(std::move(beat)), thread_([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, interval_, [&] { return stopped_; })) {
          lock.unlock();
          beat_();
          lock.lock();
        }
      }) {}

Heartbeat::~Heartbeat() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

bool Progress::stderr_is_tty() { return ::isatty(2) == 1; }

void Progress::start(std::uint64_t total) {
  stop();
  checked_.store(0, std::memory_order_relaxed);
  total_.store(total, std::memory_order_relaxed);
  start_ns_ = Clock::now_ns();
  printed_ = false;
  heartbeat_.emplace(static_cast<double>(options_.interval_ms) * 1e-3, [this] {
    print_line(/*final_line=*/false);
    // The heartbeat doubles as the tracer's progress sampler.
    Tracer::instance().counter("verify.checked",
                               static_cast<double>(checked()));
  });
}

void Progress::stop() {
  if (!heartbeat_) return;
  heartbeat_.reset();
  print_line(/*final_line=*/true);
}

void Progress::print_line(bool final_line) {
  if (!options_.use_stderr) return;
  const std::uint64_t done = checked();
  const std::uint64_t all = total();
  const double elapsed =
      Clock::to_seconds(Clock::now_ns() - start_ns_);
  const double rate = elapsed > 0 ? static_cast<double>(done) / elapsed : 0;
  char line[160];
  if (all > 0) {
    const double pct = 100.0 * static_cast<double>(done) /
                       static_cast<double>(all);
    const double eta =
        rate > 0 ? static_cast<double>(all - done) / rate : 0.0;
    std::snprintf(line, sizeof line,
                  "\r%llu/%llu (%.1f%%) rate=%.0f/s eta=%.1fs   ",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(all), pct, rate, eta);
  } else {
    std::snprintf(line, sizeof line, "\r%llu checked rate=%.0f/s   ",
                  static_cast<unsigned long long>(done), rate);
  }
  std::fputs(line, stderr);
  printed_ = true;
  if (final_line && printed_) std::fputc('\n', stderr);
  std::fflush(stderr);
}

}  // namespace sani::obs
