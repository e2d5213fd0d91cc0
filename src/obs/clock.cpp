#include "obs/clock.h"

#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

namespace sani::obs {

namespace {

constexpr std::string_view kBuiltin[] = {"thaw", "base", "convolution",
                                         "verification", "union"};
constexpr std::size_t kMaxPhases = 256;

/// Names interned beyond the builtins; a deque keeps each name's address
/// stable, so name_of can hand out views.
struct Interned {
  std::mutex mu;
  std::deque<std::string> names;

  static Interned& get() {
    static Interned table;
    return table;
  }
};

/// The id of `name`; with `insert`, interning it when it is new.
std::optional<Phase> lookup(std::string_view name, bool insert) {
  for (std::size_t i = 0; i < std::size(kBuiltin); ++i)
    if (kBuiltin[i] == name) return static_cast<Phase>(i);
  Interned& t = Interned::get();
  std::lock_guard<std::mutex> lk(t.mu);
  for (std::size_t i = 0; i < t.names.size(); ++i)
    if (t.names[i] == name)
      return static_cast<Phase>(std::size(kBuiltin) + i);
  if (!insert) return std::nullopt;
  if (std::size(kBuiltin) + t.names.size() >= kMaxPhases)
    throw std::length_error("PhaseTimers: too many distinct phase names");
  t.names.emplace_back(name);
  return static_cast<Phase>(std::size(kBuiltin) + t.names.size() - 1);
}

}  // namespace

Phase PhaseTimers::intern(std::string_view name) {
  return *lookup(name, /*insert=*/true);
}

std::string_view PhaseTimers::name_of(Phase id) {
  const auto i = static_cast<std::size_t>(id);
  if (i < std::size(kBuiltin)) return kBuiltin[i];
  Interned& t = Interned::get();
  std::lock_guard<std::mutex> lk(t.mu);
  return t.names.at(i - std::size(kBuiltin));
}

void PhaseTimers::add(Phase id, double seconds) {
  for (std::size_t i = 0; i < count_; ++i)
    if (ids_[i] == id) {
      seconds_[i] += seconds;
      return;
    }
  if (count_ == kCapacity)
    throw std::length_error("PhaseTimers: more than kCapacity phases");
  ids_[count_] = id;
  seconds_[count_] = seconds;
  ++count_;
}

double PhaseTimers::get(Phase id) const {
  for (std::size_t i = 0; i < count_; ++i)
    if (ids_[i] == id) return seconds_[i];
  return 0.0;
}

double PhaseTimers::get(std::string_view name) const {
  const std::optional<Phase> id = lookup(name, /*insert=*/false);
  return id ? get(*id) : 0.0;
}

double PhaseTimers::total() const {
  double t = 0;
  for (std::size_t i = 0; i < count_; ++i) t += seconds_[i];
  return t;
}

}  // namespace sani::obs
