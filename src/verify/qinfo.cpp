#include "verify/qinfo.h"

#include <algorithm>

#include "util/combinations.h"

namespace sani::verify {

std::uint64_t QInfoStore::key_of(const std::vector<int>& combo) const {
  return (combination_rank(n_, combo) << 6) | combo.size();
}

void QInfoStore::account(const QInfo& info) {
  bytes_ += sizeof(QInfo) + sizeof(std::uint64_t) +
            info.V.capacity() * sizeof(Mask) +
            sizeof(std::pair<std::uint64_t, std::uint32_t>) + sizeof(void*);
  if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
}

void QInfoStore::insert(int k, std::uint64_t rank, QInfo info) {
  const std::uint64_t key = (rank << 6) | static_cast<std::uint64_t>(k);
  account(info);
  index_.emplace(key, static_cast<std::uint32_t>(arena_.size()));
  keys_.push_back(key);
  arena_.push_back(std::move(info));
}

const QInfo* QInfoStore::find(const std::vector<int>& combo) const {
  auto it = index_.find(key_of(combo));
  if (it == index_.end()) return nullptr;
  return &arena_[it->second];
}

void QInfoStore::merge_from(const QInfoStore& other) {
  for (std::size_t i = 0; i < other.arena_.size(); ++i) {
    account(other.arena_[i]);
    index_.emplace(other.keys_[i],
                   static_cast<std::uint32_t>(arena_.size()));
    keys_.push_back(other.keys_[i]);
    arena_.push_back(other.arena_[i]);
  }
}

std::size_t QInfoStore::count_ranks_below(
    const std::vector<std::uint64_t>& bound) const {
  std::size_t n = 0;
  for (std::uint64_t key : keys_) {
    const std::size_t k = key & 63;
    if (k < bound.size() && (key >> 6) < bound[k]) ++n;
  }
  return n;
}

std::vector<std::vector<int>> QInfoStore::sorted_combos() const {
  std::vector<std::vector<int>> combos;
  combos.reserve(keys_.size());
  for (std::uint64_t key : keys_)
    combos.push_back(unrank_combination(n_, static_cast<int>(key & 63),
                                        key >> 6));
  std::sort(combos.begin(), combos.end());
  return combos;
}

}  // namespace sani::verify
