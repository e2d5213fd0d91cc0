#include "verify/incremental.h"

#include <algorithm>
#include <unordered_map>

#include "util/combinations.h"

namespace sani::verify {

ConeSummary make_summary(const Basis& basis, const VerifyOptions& options,
                         ReportAssembler&& assembler) {
  ConeSummary s;
  s.notion = options.notion;
  s.glitch_robust = options.probes.glitch_robust;
  s.joint_share_count = options.joint_share_count;
  s.union_check = options.union_check;
  s.order = std::max(0, options.order);
  s.varmap = basis.cones.varmap;
  s.digests = basis.cones.digests;
  s.union_verdict = assembler.union_verdict();

  const auto before = [](int ka, std::uint64_t a, int kb, std::uint64_t b) {
    return ka != kb ? ka < kb : a < b;
  };
  std::vector<CheckedRun> covered = assembler.take_covered();
  std::sort(covered.begin(), covered.end(),
            [before](const CheckedRun& a, const CheckedRun& b) {
              return before(a.k, a.begin, b.k, b.begin);
            });
  // Each partial's masks are the dependency run starting at its begin (the
  // assembler keeps them sorted by (k, begin) too, and skips empty ones).
  std::vector<DepTable::Run> deps = assembler.take_deps().take_runs();
  auto dep = deps.begin();
  for (CheckedRun& run : covered) {
    while (dep != deps.end() && before(dep->k, dep->begin, run.k, run.begin))
      ++dep;
    if (dep != deps.end() && dep->k == run.k && dep->begin == run.begin)
      run.masks = std::move((dep++)->masks);
    // A run that passed to its end continues into the one starting there.
    if (!s.runs.empty() && !s.runs.back().failed &&
        s.runs.back().k == run.k && s.runs.back().end == run.begin) {
      CheckedRun& prev = s.runs.back();
      prev.masks.insert(prev.masks.end(), run.masks.begin(), run.masks.end());
      prev.end = run.end;
      prev.failed = run.failed;
      prev.alpha = run.alpha;
      prev.reason = std::move(run.reason);
      continue;
    }
    s.runs.push_back(std::move(run));
  }
  return s;
}

std::uint64_t summary_checked_count(const ConeSummary& summary) {
  std::uint64_t total = 0;
  for (const CheckedRun& run : summary.runs) total += run.end - run.begin;
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
  // A union-checking run can only replay passes whose dependency masks were
  // recorded; a summary from a union-free run still replays failures and
  // leaves its passes to be checked (step() below).
  plan.need_deps_ =
      options.union_check && options.notion != Notion::kProbing;

  std::unordered_map<circuit::ConeDigest, std::int32_t,
                     circuit::ConeDigestHash>
      by_digest;
  by_digest.reserve(s.digests.size());
  for (std::size_t i = 0; i < s.digests.size(); ++i)
    by_digest.emplace(s.digests[i], static_cast<std::int32_t>(i));

  // Layout-preserving: a new combination's rank is its old rank, so step()
  // can skip the re-ranking (the common resubmission — an edit or a rename
  // keeps the observable order).
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
  return plan;
}

IncrementalPlan::Step IncrementalPlan::step(const std::vector<int>& combo,
                                            std::uint64_t rank,
                                            std::uint64_t limit,
                                            std::vector<int>& scratch) const {
  const auto matched = [&](int i) {
    return old_index_[static_cast<std::size_t>(i)] >= 0;
  };
  // The old (size, rank) of `combo`; on a remapping plan its members are
  // mapped, sorted and re-ranked, and at most this one rank replays.
  const int k = static_cast<int>(combo.size());
  std::uint64_t old_rank = rank;
  if (layout_preserving_) {
    if (!all_matched_ && !std::all_of(combo.begin(), combo.end(), matched))
      return {};
  } else {
    scratch.clear();
    for (int i : combo) {
      const std::int32_t old = old_index_[static_cast<std::size_t>(i)];
      if (old < 0) return {};
      scratch.push_back(old);
    }
    std::sort(scratch.begin(), scratch.end());
    // Distinct new observables can share a digest when dedupe is off; such
    // a combination has no old counterpart of the same size — re-check it.
    if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end())
      return {};
    old_rank = combination_rank(old_n_, scratch);
    limit = rank + 1;
  }

  // The run holding (k, old_rank) is the last one starting at or before it.
  const std::vector<CheckedRun>& runs = summary_->runs;
  const auto after = std::upper_bound(
      runs.begin(), runs.end(), old_rank,
      [k](std::uint64_t r, const CheckedRun& run) {
        return k < run.k || (k == run.k && r < run.begin);
      });
  if (after == runs.begin()) return {};
  const CheckedRun& run = *(after - 1);
  if (run.k != k || old_rank >= run.end) return {};
  Step s;
  if (run.failed && old_rank + 1 == run.end) {
    s.kind = Step::Kind::kFailure;
    s.run = &run;
    return s;
  }
  if (need_deps_ && run.masks.empty()) return {};  // no recorded masks

  // Replay up to the run's passing prefix end (in the scan's rank space on
  // a layout-preserving plan), `limit` and, when some cone is unmatched,
  // the first combination that holds one.
  std::uint64_t end = std::min(limit, rank + (run.begin + run.passes() -
                                              old_rank));
  if (layout_preserving_ && !all_matched_) {
    scratch.assign(combo.begin(), combo.end());
    const int N = static_cast<int>(old_index_.size());
    std::uint64_t r = rank + 1;
    while (r < end && next_combination(scratch, N) &&
           std::all_of(scratch.begin(), scratch.end(), matched))
      ++r;
    end = r;
  }
  s.kind = Step::Kind::kPasses;
  s.n = end - rank;
  if (need_deps_) s.masks = &run.masks[old_rank - run.begin];
  return s;
}

const UnionVerdict* IncrementalPlan::replayable_union_verdict(
    int order) const {
  if (!all_matched_ || summary_->order != order ||
      summary_->union_verdict.state != UnionVerdict::State::kPassed)
    return nullptr;
  return &summary_->union_verdict;
}

}  // namespace sani::verify
