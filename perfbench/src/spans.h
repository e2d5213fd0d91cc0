#pragma once
// In-memory spans recorded by the benchmark around its calls into the
// library's layers (the program's own obs::Tracer stays off).
//
// A span has a name, a start and an end on the steady clock, the request it
// belongs to and the span that caused it.  Spans open and close in stack
// order, so a child always nests inside its parent.  Every request is one
// root span named "request"; its self time (the part no child covers) is the
// explicit `other` residual of the layer table.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  std::string_view name;  // a string literal
  std::uint32_t request = 0;
  std::int32_t parent = -1;  // index into SpanLog::spans(); -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(std::string_view name, std::uint32_t request);
  void close(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of span `id`: its duration minus its children's.
  double self_ms(std::int32_t id) const;

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null log records nothing, which is the untraced run.
class Scope {
 public:
  Scope(SpanLog* log, std::string_view name, std::uint32_t request)
      : log_(log), id_(log ? log->open(name, request) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

}  // namespace perfbench
