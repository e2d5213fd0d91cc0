#include "verify/incremental.h"

#include <algorithm>
#include <bit>

#include "util/combinations.h"

namespace sani::verify {

namespace {

// Bitmap cap: sizes whose rank space exceeds this are not summarized
// (2^27 ranks = 16 MiB per bitmap).  Any scan that actually enumerates
// more combinations than this is far beyond interactive resubmission
// latencies anyway, so the cap almost never binds.
constexpr std::uint64_t kMaxSummaryRanks = std::uint64_t{1} << 27;

constexpr std::uint64_t kSaturated = ~std::uint64_t{0};

std::uint64_t key_of(int k, std::uint64_t rank) {
  return (rank << 6) | static_cast<std::uint64_t>(k);
}

bool bit(const std::vector<std::uint64_t>& words, std::uint64_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

void set_bit(std::vector<std::uint64_t>& words, std::uint64_t i) {
  words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

}  // namespace

SummaryCollector::SummaryCollector(int num_observables, int order)
    : n_(num_observables), order_(order < 0 ? 0 : order) {
  tables_.resize(static_cast<std::size_t>(order_));
  for (int k = 1; k <= order_; ++k) {
    ConeSummary::Table& t = tables_[static_cast<std::size_t>(k - 1)];
    const std::uint64_t ranks = binomial(n_, k);
    if (ranks == kSaturated || ranks > kMaxSummaryRanks) continue;
    t.present = true;
    t.num_ranks = ranks;
    const std::size_t words = static_cast<std::size_t>((ranks + 63) / 64);
    t.checked.assign(words, 0);
    t.passed.assign(words, 0);
  }
}

void SummaryCollector::note(int k, std::uint64_t rank, bool passed) {
  if (k < 1 || k > order_) return;
  ConeSummary::Table& t = tables_[static_cast<std::size_t>(k - 1)];
  if (!t.present) return;
  set_bit(t.checked, rank);
  if (passed) set_bit(t.passed, rank);
}

void SummaryCollector::note_pass_run(int k, std::uint64_t rank,
                                     std::uint64_t n) {
  if (k < 1 || k > order_) return;
  ConeSummary::Table& t = tables_[static_cast<std::size_t>(k - 1)];
  if (!t.present) return;
  const std::uint64_t end = rank + n;
  while (rank < end) {
    const unsigned off = static_cast<unsigned>(rank & 63);
    const std::uint64_t span = std::min<std::uint64_t>(64 - off, end - rank);
    const std::uint64_t bits =
        (span == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << span) - 1)
        << off;
    t.checked[rank >> 6] |= bits;
    t.passed[rank >> 6] |= bits;
    rank += span;
  }
}

void SummaryCollector::note_fail(int k, std::uint64_t rank, const Mask& alpha,
                                 const std::string& reason) {
  note(k, rank, false);
  if (k < 1 || k > order_ ||
      !tables_[static_cast<std::size_t>(k - 1)].present)
    return;
  failures_.push_back(ConeSummary::Failure{k, rank, alpha, reason});
}

void SummaryCollector::merge_from(const SummaryCollector& other) {
  for (std::size_t i = 0; i < tables_.size() && i < other.tables_.size();
       ++i) {
    ConeSummary::Table& t = tables_[i];
    const ConeSummary::Table& o = other.tables_[i];
    if (!t.present || !o.present) continue;
    for (std::size_t w = 0; w < t.checked.size(); ++w) {
      t.checked[w] |= o.checked[w];
      t.passed[w] |= o.passed[w];
    }
  }
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

ConeSummary make_summary(const Basis& basis, const VerifyOptions& options,
                         SummaryCollector&& collector, DepTable&& deps,
                         const UnionVerdict& union_verdict) {
  ConeSummary s;
  s.notion = options.notion;
  s.glitch_robust = options.probes.glitch_robust;
  s.joint_share_count = options.joint_share_count;
  s.union_check = options.union_check;
  s.order = collector.order_;
  s.varmap = basis.cones.varmap;
  s.digests = basis.cones.digests;
  s.tables = std::move(collector.tables_);
  s.failures = std::move(collector.failures_);
  std::sort(s.failures.begin(), s.failures.end(),
            [](const ConeSummary::Failure& a, const ConeSummary::Failure& b) {
              return a.k != b.k ? a.k < b.k : a.rank < b.rank;
            });
  s.deps = std::move(deps);
  s.union_verdict = union_verdict;
  return s;
}

std::uint64_t summary_checked_count(const ConeSummary& summary) {
  std::uint64_t total = 0;
  for (const ConeSummary::Table& t : summary.tables) {
    if (!t.present) continue;
    for (const std::uint64_t word : t.checked)
      total += static_cast<std::uint64_t>(__builtin_popcountll(word));
  }
  return total;
}

std::optional<IncrementalPlan> IncrementalPlan::build(
    const Basis& basis, std::shared_ptr<const ConeSummary> summary,
    const VerifyOptions& options) {
  if (!summary || !basis.cones.available) return std::nullopt;
  if (summary->varmap != basis.cones.varmap) return std::nullopt;
  if (summary->notion != options.notion) return std::nullopt;
  if (summary->glitch_robust != options.probes.glitch_robust)
    return std::nullopt;
  if (summary->joint_share_count != options.joint_share_count)
    return std::nullopt;

  IncrementalPlan plan;
  plan.summary_ = std::move(summary);
  const ConeSummary& s = *plan.summary_;
  plan.old_n_ = static_cast<int>(s.digests.size());
  plan.need_deps_ =
      options.union_check && options.notion != Notion::kProbing;
  // A union-checking run can only replay passes whose dependency masks were
  // recorded; a summary from a union-free run still replays failures and
  // dirties the passes (handled per combination below).

  std::unordered_map<circuit::ConeDigest, std::int32_t,
                     circuit::ConeDigestHash>
      by_digest;
  by_digest.reserve(s.digests.size());
  for (std::size_t i = 0; i < s.digests.size(); ++i)
    by_digest.emplace(s.digests[i], static_cast<std::int32_t>(i));

  // Layout-preserving: a new combination's rank is its old rank, so
  // classify() can skip the re-ranking (the common resubmission — an edit
  // or a rename keeps the observable order).
  plan.layout_preserving_ = basis.cones.digests.size() == s.digests.size();
  plan.old_index_.reserve(basis.cones.digests.size());
  for (const circuit::ConeDigest& d : basis.cones.digests) {
    const auto it = by_digest.find(d);
    const std::int32_t old = it == by_digest.end() ? -1 : it->second;
    if (old >= 0) {
      ++plan.cones_reused_;
      if (old != static_cast<std::int32_t>(plan.old_index_.size()))
        plan.layout_preserving_ = false;
    }
    plan.old_index_.push_back(old);
  }
  plan.all_matched_ = plan.layout_preserving_ &&
                      plan.cones_reused_ == plan.old_index_.size();

  for (const ConeSummary::Failure& f : s.failures)
    plan.failures_.emplace(key_of(f.k, f.rank), &f);
  return plan;
}

IncrementalPlan::Classification IncrementalPlan::classify(
    const std::vector<int>& combo, std::uint64_t rank,
    std::vector<int>& scratch) const {
  if (layout_preserving_) {
    for (int i : combo)
      if (old_index_[static_cast<std::size_t>(i)] < 0) return {};
    return lookup(static_cast<int>(combo.size()), rank);
  }
  scratch.clear();
  for (int i : combo) {
    const std::int32_t old = old_index_[static_cast<std::size_t>(i)];
    if (old < 0) return {};
    scratch.push_back(old);
  }
  std::sort(scratch.begin(), scratch.end());
  // Distinct new observables can share a digest when dedupe is off; such a
  // combination has no old counterpart of the same size — re-check it.
  if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end())
    return {};
  return lookup(static_cast<int>(scratch.size()),
                combination_rank(old_n_, scratch));
}

std::uint64_t IncrementalPlan::clean_pass_run(const std::vector<int>& combo,
                                              std::uint64_t rank,
                                              std::uint64_t limit,
                                              const Mask** masks,
                                              std::vector<int>& scratch) const {
  *masks = nullptr;
  const int k = static_cast<int>(combo.size());
  if (!layout_preserving_ || k < 1 || k > summary_->order) return 0;
  const ConeSummary::Table& t =
      summary_->tables[static_cast<std::size_t>(k - 1)];
  if (!t.present) return 0;
  std::uint64_t end = std::min(limit, t.num_ranks);
  if (rank >= end) return 0;
  // Some cone is unmatched: the run ends at the first combination that
  // holds one — on an edit often `combo` itself, tested before anything
  // else is read.
  const auto matched = [&](int i) {
    return old_index_[static_cast<std::size_t>(i)] >= 0;
  };
  if (!all_matched_ && !std::all_of(combo.begin(), combo.end(), matched))
    return 0;
  const DepTable::Run* run = nullptr;
  if (need_deps_) {
    run = run_holding(k, rank);
    if (!run) return 0;
    end = std::min(end, run->end());
  }
  if (!all_matched_) {
    scratch.assign(combo.begin(), combo.end());
    const int N = static_cast<int>(old_index_.size());
    std::uint64_t r = rank + 1;
    while (r < end && next_combination(scratch, N) &&
           std::all_of(scratch.begin(), scratch.end(), matched))
      ++r;
    end = std::min(end, r);
  }
  // The checked-and-passed prefix from `rank`, a word at a time: the shift
  // brings zeros in above the word's last rank, so a word that is all
  // ones from `off` up lets the walk continue into the next.
  std::uint64_t r = rank;
  while (r < end) {
    const unsigned off = static_cast<unsigned>(r & 63);
    const std::size_t w = static_cast<std::size_t>(r >> 6);
    const std::uint64_t good = (t.checked[w] & t.passed[w]) >> off;
    const unsigned ones = static_cast<unsigned>(std::countr_one(good));
    r += ones;
    if (ones < 64 - off) break;
  }
  const std::uint64_t n = std::min(r, end) - rank;
  if (n > 0 && run) *masks = &run->masks[rank - run->begin];
  return n;
}

const UnionVerdict* IncrementalPlan::replayable_union_verdict(
    int order) const {
  if (!all_matched_ || summary_->order != order ||
      summary_->union_verdict.state != UnionVerdict::State::kPassed)
    return nullptr;
  return &summary_->union_verdict;
}

const DepTable::Run* IncrementalPlan::run_holding(int k,
                                                  std::uint64_t rank) const {
  // The run holding (k, rank) is the last one starting at or before it.
  const std::vector<DepTable::Run>& runs = summary_->deps.runs();
  const auto after = std::upper_bound(
      runs.begin(), runs.end(), rank,
      [k](std::uint64_t r, const DepTable::Run& run) {
        return k < run.k || (k == run.k && r < run.begin);
      });
  if (after == runs.begin()) return nullptr;
  const DepTable::Run& run = *(after - 1);
  if (run.k != k || rank >= run.end()) return nullptr;
  return &run;
}

IncrementalPlan::Classification IncrementalPlan::lookup(
    int k, std::uint64_t rank) const {
  Classification c;
  if (k < 1 || k > summary_->order) return c;
  const ConeSummary::Table& t =
      summary_->tables[static_cast<std::size_t>(k - 1)];
  if (!t.present) return c;
  if (rank >= t.num_ranks || !bit(t.checked, rank)) return c;
  if (bit(t.passed, rank)) {
    if (need_deps_) {
      const DepTable::Run* run = run_holding(k, rank);
      if (!run) return c;  // no recorded masks — re-check
      c.V = &run->masks[rank - run->begin];
    }
    c.kind = Kind::kCleanPass;
    return c;
  }
  const auto it = failures_.find(key_of(k, rank));
  if (it == failures_.end()) return c;  // checked-and-failed but no witness
  c.fail = it->second;
  c.kind = Kind::kCleanFail;
  return c;
}

}  // namespace sani::verify
