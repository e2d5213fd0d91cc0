#pragma once
// The one monotonic time source of the project.
//
// Every timing mechanism — the verification phase timers, the cancellation
// deadline, the tracer's span timestamps, the bench harness stopwatches —
// reads obs::Clock, so all reported durations are mutually comparable and
// none of them can drift against each other (previously util/timer, the
// scheduler and the benches each called std::chrono on their own).
//
// The paper's Fig. 6 breaks verification time into "convolution" and
// "verification" phases; PhaseTimers accumulates phase durations under
// interned ids so the engines can report the same breakout.

#include <chrono>
#include <cstdint>
#include <string_view>

namespace sani::obs {

/// Monotonic wall-clock access.  Nanoseconds since an arbitrary (but fixed
/// per process) epoch; differences are meaningful, absolute values are not.
struct Clock {
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  static double to_seconds(std::int64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  }
};

/// Simple monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(Clock::now_ns()) {}

  void reset() { start_ns_ = Clock::now_ns(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return Clock::to_seconds(Clock::now_ns() - start_ns_);
  }

 private:
  std::int64_t start_ns_;
};

/// A phase id.  The report's phases are builtin; any other name gets an id
/// from PhaseTimers::intern on first use (process-wide, up to 256 names).
enum class Phase : std::uint8_t {
  kThaw,
  kBase,
  kConvolution,
  kVerification,
  kUnion,
};

/// Accumulates elapsed seconds per phase, in first-use order.  Fixed inline
/// storage and integer ids: adding to a phase builds, searches and
/// allocates no string, and a copy is a memcpy.  Not thread-safe; one
/// instance per result.
class PhaseTimers {
 public:
  /// Most distinct phases one instance holds: the report's five plus one
  /// spare, which keeps an instance at 56 bytes (a VerifyStats member
  /// that every retained result carries).
  static constexpr std::size_t kCapacity = 6;

  /// The id of `name`, interned on first use.  Thread-safe.
  static Phase intern(std::string_view name);
  /// The name `id` was interned under.
  static std::string_view name_of(Phase id);

  /// Adds `seconds` to phase `id`, appending it on first use.  Throws
  /// std::length_error past kCapacity distinct phases.
  void add(Phase id, double seconds);
  void add(std::string_view name, double seconds) {
    add(intern(name), seconds);
  }

  /// Accumulated seconds (0.0 if the phase never ran).
  double get(Phase id) const;
  double get(std::string_view name) const;

  /// Sum over all phases.
  double total() const;

  /// The phases in first-use order: the i-th id, name and seconds.
  std::size_t size() const { return count_; }
  Phase id(std::size_t i) const { return ids_[i]; }
  std::string_view name(std::size_t i) const { return name_of(ids_[i]); }
  double seconds(std::size_t i) const { return seconds_[i]; }

 private:
  double seconds_[kCapacity] = {};
  std::uint8_t count_ = 0;
  Phase ids_[kCapacity] = {};
};

/// RAII phase scope: adds the elapsed time to `timers` on destruction.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimers& timers, Phase id) : timers_(timers), id_(id) {}
  ~ScopedPhase() { timers_.add(id_, watch_.seconds()); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimers& timers_;
  Phase id_;
  Stopwatch watch_;
};

}  // namespace sani::obs

namespace sani {
// The stopwatch and phase timers predate src/obs and are used throughout
// the engines, benches and examples under their unqualified names.
using obs::Phase;
using obs::PhaseTimers;
using obs::ScopedPhase;
using obs::Stopwatch;
}  // namespace sani
