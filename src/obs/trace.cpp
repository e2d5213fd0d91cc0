#include "obs/trace.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/metrics.h"

namespace sani::obs {

namespace {

/// Events per thread; at 40 bytes each a full ring is ~2.6 MB.  The hot
/// spans are per-shard and per-combination, so even keccak-scale runs sit
/// well below this; a wrap drops the oldest events and is reported.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

struct Event {
  const char* name;      // static string (phase taxonomy)
  std::int64_t ts_ns;    // Clock::now_ns() at event start
  std::int64_t dur_ns;   // 'X' spans only
  double value;          // 'C' counter value; 'X' aggregate count (0: none)
  char ph;               // 'X' complete, 'C' counter, 'i' instant
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::string label;                 // thread-name metadata; owner-written
  std::vector<Event> events;         // fixed ring of kRingCapacity slots
  std::atomic<std::uint64_t> count{0};  // events ever written this capture

  explicit ThreadBuf(std::uint32_t id) : tid(id), events(kRingCapacity) {}

  void push(const Event& e) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    events[static_cast<std::size_t>(n % kRingCapacity)] = e;
    count.store(n + 1, std::memory_order_release);
  }
};

}  // namespace

struct Tracer::Impl {
  std::mutex mu;  // guards the registry vector (cold: thread birth, flush)
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::string process_label;  // process_name metadata row, "" = none
  std::string trace_id;       // fleet job id, "" = standalone run

  static Impl& get() {
    static Impl impl;
    return impl;
  }

  ThreadBuf& local_buf() {
    thread_local ThreadBuf* tl = nullptr;
    if (!tl) {
      std::lock_guard<std::mutex> lk(mu);
      bufs.push_back(
          std::make_unique<ThreadBuf>(static_cast<std::uint32_t>(bufs.size())));
      tl = bufs.back().get();
    }
    return *tl;
  }
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start() {
  Impl& impl = Impl::get();
  {
    std::lock_guard<std::mutex> lk(impl.mu);
    for (auto& b : impl.bufs) {
      b->count.store(0, std::memory_order_relaxed);
      b->label.clear();
    }
  }
  t0_ns_.store(Clock::now_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::complete(const char* name, std::int64_t start_ns,
                      std::int64_t dur_ns, std::uint64_t count) {
  if (!enabled()) return;
  Impl::get().local_buf().push(
      Event{name, start_ns, dur_ns, static_cast<double>(count), 'X'});
}

void Tracer::counter(const char* name, double value) {
  if (!enabled()) return;
  Impl::get().local_buf().push(Event{name, Clock::now_ns(), 0, value, 'C'});
}

void Tracer::instant(const char* name) {
  if (!enabled()) return;
  Impl::get().local_buf().push(Event{name, Clock::now_ns(), 0, 0.0, 'i'});
}

void Tracer::label_thread(const char* prefix, int index) {
  if (!enabled()) return;
  ThreadBuf& buf = Impl::get().local_buf();
  if (!buf.label.empty()) return;
  buf.label = std::string(prefix) + " " + std::to_string(index);
}

void Tracer::set_process_label(const std::string& label) {
  Impl& impl = Impl::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  impl.process_label = label;
}

void Tracer::set_trace_id(const std::string& id) {
  Impl& impl = Impl::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  impl.trace_id = id;
}

std::string Tracer::trace_id() const {
  Impl& impl = Impl::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  return impl.trace_id;
}

std::uint64_t Tracer::dropped() const {
  Impl& impl = Impl::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  std::uint64_t dropped = 0;
  for (const auto& b : impl.bufs) {
    const std::uint64_t n = b->count.load(std::memory_order_acquire);
    if (n > kRingCapacity) dropped += n - kRingCapacity;
  }
  return dropped;
}

std::string Tracer::to_json() {
  // Flushing is a cold, quiescent-point operation: the caller stops tracing
  // (or at least stops the traced workload) before serializing.  Events
  // recorded concurrently with the flush may or may not appear.
  Impl& impl = Impl::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  const std::int64_t t0 = t0_ns_.load(std::memory_order_relaxed);
  const long pid = static_cast<long>(::getpid());

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  auto us = [&](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
    return std::string(buf);
  };
  if (!impl.process_label.empty()) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
       << json_escape(impl.process_label) << "\"}}";
  }
  for (const auto& b : impl.bufs) {
    if (!b->label.empty()) {
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << b->tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << b->label
         << "\"}}";
    }
    const std::uint64_t n = b->count.load(std::memory_order_acquire);
    const std::uint64_t begin = n > kRingCapacity ? n - kRingCapacity : 0;
    for (std::uint64_t i = begin; i < n; ++i) {
      const Event& e = b->events[static_cast<std::size_t>(i % kRingCapacity)];
      sep();
      os << "{\"ph\":\"" << e.ph << "\",\"pid\":" << pid
         << ",\"tid\":" << b->tid << ",\"name\":\"" << e.name
         << "\",\"cat\":\"sani\",\"ts\":" << us(e.ts_ns - t0);
      if (e.ph == 'X') os << ",\"dur\":" << us(e.dur_ns);
      if (e.ph == 'X' && e.value > 0)
        os << ",\"args\":{\"count\":" << static_cast<std::uint64_t>(e.value)
           << "}";
      if (e.ph == 'C') os << ",\"args\":{\"value\":" << e.value << "}";
      if (e.ph == 'i') os << ",\"s\":\"t\"";
      os << "}";
    }
  }
  os << "\n]";
  if (!impl.trace_id.empty())
    os << ",\"otherData\":{\"trace_id\":\"" << json_escape(impl.trace_id)
       << "\"}";
  os << "}";
  return os.str();
}

bool Tracer::write_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json() << "\n";
  return static_cast<bool>(out.flush());
}

}  // namespace sani::obs
