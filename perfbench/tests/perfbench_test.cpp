// The benchmark's own tests: known answers against the oracle, seeded
// request sequences, traced-run span integrity and the sharded byte check.
// `python3 perfbench/run.py --selftest` builds and runs them; it points
// PERFBENCH_ANSWERS at the committed table and PERFBENCH_WORK_DIR at a
// scratch directory inside the build tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "answers.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sani::verify::Notion;

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

class PerfbenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    answers_ = KnownAnswers::load(
        env_or("PERFBENCH_ANSWERS", "known_answers.tsv"));
    env_.answers = &answers_;
    env_.work_dir = env_or("PERFBENCH_WORK_DIR", "perfbench-test-work");
    std::filesystem::create_directories(env_.work_dir);
  }
  void TearDown() override { std::filesystem::remove_all(env_.work_dir); }

  KnownAnswers answers_;
  Env env_;
};

TEST_F(PerfbenchTest, TableCoversEveryJobTheWorkloadsSubmit) {
  for (const Job& job : all_jobs())
    EXPECT_NE(answers_.find(job), nullptr)
        << job.gadget << ' ' << notion_flag(job.notion) << ' ' << job.order;
}

TEST_F(PerfbenchTest, OracleEntriesAgreeWithTheOracle) {
  int checked = 0;
  for (const Answer& a : answers_.entries()) {
    if (a.check != "oracle") continue;
    EXPECT_EQ(oracle_verdict(a.job), a.secure)
        << a.job.gadget << ' ' << notion_flag(a.job.notion);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

void expect_same_requests(Workload& a, Workload& b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const Request& x = a.request(i);
    const Request& y = b.request(i);
    ASSERT_EQ(describe(x), describe(y)) << "request " << i;
    ASSERT_EQ(x.ilang, y.ilang) << "request " << i;
  }
}

TEST_F(PerfbenchTest, SameSeedGivesByteIdenticalRequests) {
  for (const char* name : {"cold", "store"}) {
    auto a = make_workload(name, env_);
    auto b = make_workload(name, env_);
    a->setup(7);
    b->setup(7);
    expect_same_requests(*a, *b, 150);
  }
}

TEST_F(PerfbenchTest, SweepOrderFollowsTheSeed) {
  auto a = make_workload("cold", env_);
  auto b = make_workload("cold", env_);
  a->setup(1);
  b->setup(2);
  std::multiset<std::string> pass_a, pass_b;
  bool differs = false;
  for (std::size_t i = 0; i < 64; ++i) {
    pass_a.insert(describe(a->request(i)));
    pass_b.insert(describe(b->request(i)));
    differs |= describe(a->request(i)) != describe(b->request(i));
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(pass_a, pass_b);  // one pass is every (gadget, notion) once
  EXPECT_EQ(pass_a.size(), 64u);
}

TEST_F(PerfbenchTest, OtherSeedChangesTheEditChainNotTheVerdicts) {
  auto a = make_resubmit(env_, {"keccak-2", "dom-3"});
  a->setup(1);
  std::vector<Request> first;
  for (std::size_t i = 0; i < 6; ++i) first.push_back(a->request(i));
  for (std::size_t i = 0; i < 6; ++i) {
    const Outcome o = a->execute(first[i], nullptr, i);
    EXPECT_TRUE(o.ok) << o.error;
  }
  a.reset();
  auto b = make_resubmit(env_, {"keccak-2", "dom-3"});
  b->setup(2);
  bool differs = false;
  for (std::size_t i = 0; i < 6; ++i) {
    const Request& r = b->request(i);
    EXPECT_EQ(r.kind, first[i].kind);
    EXPECT_EQ(r.job, first[i].job);
    differs |= r.ilang != first[i].ilang;
    const Outcome o = b->execute(r, nullptr, i);
    EXPECT_TRUE(o.ok) << o.error;
    if (r.kind == Kind::kRead) {
      EXPECT_TRUE(o.store.hit);
      EXPECT_EQ(o.stats.incremental.combinations_skipped, o.combinations);
    } else {
      EXPECT_FALSE(o.store.hit);
    }
    if (r.kind == Kind::kRename) {
      EXPECT_EQ(o.stats.incremental.cones_reused,
                o.stats.incremental.cones_total);
    }
  }
  EXPECT_TRUE(differs);
}

/// Every span of a request lies inside its request span and siblings do not
/// overlap.  `other` (the request's self time) equals the request's time
/// outside the union of its layer spans, computed here from the intervals,
/// and the layer spans cover at least 90% of the request.
void expect_spans_cover_requests(const SpanLog& log, std::uint32_t requests) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int> root(requests, -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    ASSERT_LT(s.request, requests);
    ASSERT_LE(s.start_ns, s.end_ns);
    if (s.parent < 0) {
      EXPECT_EQ(s.name, "request");
      EXPECT_EQ(root[s.request], -1) << "two request spans";
      root[s.request] = static_cast<int>(i);
      continue;
    }
    const Span& p = spans[s.parent];
    EXPECT_EQ(p.request, s.request);
    EXPECT_GE(s.start_ns, p.start_ns) << s.name;
    EXPECT_LE(s.end_ns, p.end_ns) << s.name;
  }
  for (std::uint32_t r = 0; r < requests; ++r) {
    ASSERT_GE(root[r], 0) << "request " << r << " has no span";
    const Span& req = spans[root[r]];
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (std::size_t i = root[r] + 1; i < spans.size(); ++i)
      if (spans[i].parent == root[r])
        children.emplace_back(spans[i].start_ns, spans[i].end_ns);
    ASSERT_FALSE(children.empty()) << "request " << r << " has no layer span";
    std::sort(children.begin(), children.end());
    std::int64_t covered_ns = 0, last_end = req.start_ns;
    for (const auto& [start, end] : children) {
      EXPECT_GE(start, last_end) << "overlapping layer spans";
      covered_ns += end - std::max(start, last_end);
      last_end = std::max(last_end, end);
    }
    const double outside_ms =
        static_cast<double>(req.end_ns - req.start_ns - covered_ns) * 1e-6;
    const double other = log.self_ms(root[r]);
    EXPECT_NEAR(other, outside_ms, 1e-6) << "request " << r;
    EXPECT_GE(other, 0.0);
    EXPECT_LE(other, 0.1 * req.ms()) << "layer spans miss part of request "
                                     << r;
  }
}

void trace_requests(Workload& w, std::uint32_t count) {
  SpanLog log;
  for (std::uint32_t i = 0; i < count; ++i) {
    const Outcome o = w.execute(w.request(i), &log, i);
    EXPECT_TRUE(o.ok) << o.error;
  }
  expect_spans_cover_requests(log, count);
}

TEST_F(PerfbenchTest, TracedSpansNestInsideAndCoverTheirRequest) {
  auto sweep = make_sweep(env_, {"dom-1", "keccak-1", "trichina-1"});
  sweep->setup(3);
  trace_requests(*sweep, 12);

  auto resubmit = make_resubmit(env_, {"keccak-2", "dom-3"});
  resubmit->setup(3);
  trace_requests(*resubmit, 6);

  auto sharded = make_sharded(env_, {{"dom-2", Notion::kSNI, 2}}, 2);
  sharded->setup(3);
  trace_requests(*sharded, 2);
}

TEST_F(PerfbenchTest, FinalizedScanReportMatchesThePlainReport) {
  auto sharded = make_sharded(env_, {{"dom-2", Notion::kSNI, 2},
                                     {"isw-1", Notion::kNI, 1}}, 2);
  sharded->setup(5);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Outcome o = sharded->execute(sharded->request(i), nullptr, i);
    EXPECT_TRUE(o.ok) << o.error;
    EXPECT_TRUE(o.worker.drained);
    EXPECT_GT(o.worker.shards_done, 0u);
  }
}

}  // namespace
}  // namespace perfbench
