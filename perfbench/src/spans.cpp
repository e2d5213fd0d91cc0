#include "spans.h"

#include <chrono>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(std::string_view name, std::uint32_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = current_;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return current_;
}

void SpanLog::close(std::int32_t id) {
  spans_[id].end_ns = now_ns();
  current_ = spans_[id].parent;
}

double SpanLog::self_ms(std::int32_t id) const {
  double self = spans_[id].ms();
  // Children were opened after their parent and before it closed.
  for (std::size_t i = id + 1; i < spans_.size(); ++i) {
    if (spans_[i].start_ns > spans_[id].end_ns) break;
    if (spans_[i].parent == id) self -= spans_[i].ms();
  }
  return self;
}

}  // namespace perfbench
