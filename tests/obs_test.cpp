// Tests for the observability subsystem (src/obs): monotonic clock, the
// metrics registry, the tracer's Chrome trace-event JSON output (nesting,
// phase taxonomy, per-worker thread ids) and the progress meter.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "gadgets/registry.h"
#include "util/json.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "verify/engine.h"
#include "verify/report.h"

namespace sani::obs {
namespace {

// The documented span taxonomy (trace.h / DESIGN.md Sec. 10).  Every ph:"X"
// event in any trace this project emits must use one of these names.
const std::set<std::string> kPhaseNames = {
    "parse",       "unfold", "basis_build", "freeze", "thaw",
    "scan",        "convolution", "add_check", "union", "gc",
    "sift",        "task",
    // Fleet/control-plane spans (checkpointable scans and the daemon).
    "claim",       "checkpoint_write", "checkpoint_load", "finalize",
    "admission_wait"};

verify::VerifyResult run_verify(const char* gadget, int jobs) {
  verify::VerifyOptions opt;
  opt.notion = verify::Notion::kSNI;
  opt.order = gadgets::security_level(gadget);
  opt.engine = verify::EngineKind::kMAPI;
  opt.jobs = jobs;
  return verify::verify(gadgets::by_name(gadget), opt);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(Clock, Monotonic) {
  const std::int64_t a = Clock::now_ns();
  const std::int64_t b = Clock::now_ns();
  EXPECT_LE(a, b);
  EXPECT_DOUBLE_EQ(Clock::to_seconds(1'500'000'000), 1.5);
}

TEST(Clock, StopwatchMeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(w.seconds(), 0.004);
  EXPECT_LT(w.seconds(), 10.0);
}

TEST(Clock, PhaseTimersAccumulate) {
  PhaseTimers timers;
  timers.add("a", 1.0);
  timers.add("a", 0.5);
  timers.add("b", 2.0);
  EXPECT_DOUBLE_EQ(timers.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(timers.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(timers.total(), 3.5);
}

// ---------------------------------------------------------------------------
// json_escape
// ---------------------------------------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscape, RoundTripsThroughTheParser) {
  std::string nasty;
  for (int c = 0; c < 0x20; ++c) nasty += static_cast<char>(c);
  nasty += "\"\\plain";
  const std::string doc = "{\"s\":\"" + json_escape(nasty) + "\"}";
  auto v = json::parse(doc);
  EXPECT_EQ(v->at("s").str, nasty);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistograms) {
  auto& m = Metrics::instance();
  m.reset();
  m.counter("test.counter").add(3);
  m.counter("test.counter").add(2);
  m.gauge("test.gauge").set(1.25);
  m.histogram("test.hist").record(100);
  m.histogram("test.hist").record(200);
  EXPECT_EQ(m.counter("test.counter").value(), 5u);
  EXPECT_DOUBLE_EQ(m.gauge("test.gauge").value(), 1.25);
  EXPECT_EQ(m.histogram("test.hist").count(), 2u);
  EXPECT_EQ(m.histogram("test.hist").sum(), 300u);
  m.reset();
  EXPECT_EQ(m.counter("test.counter").value(), 0u);
  EXPECT_EQ(m.histogram("test.hist").count(), 0u);
}

TEST(Metrics, HistogramLog2Buckets) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 1u);
  EXPECT_EQ(Histogram::bucket_of(4), 2u);
  EXPECT_EQ(Histogram::bucket_of(1023), 9u);
  EXPECT_EQ(Histogram::bucket_of(1024), 10u);
}

TEST(Metrics, TextDumpIsSortedAndStable) {
  auto& m = Metrics::instance();
  m.reset();
  // Register out of order; the dump must come back sorted by name.
  m.counter("zzz.last").add(1);
  m.counter("aaa.first").add(2);
  m.gauge("mmm.middle").set(3.0);
  const std::string dump1 = m.to_text();
  std::vector<std::string> names;
  std::istringstream is(dump1);
  std::string line;
  while (std::getline(is, line))
    names.push_back(line.substr(0, line.find(' ')));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "aaa.first"), names.end());
  // Stable: a second dump with no changes is byte-identical.
  EXPECT_EQ(dump1, m.to_text());
}

TEST(Metrics, JsonDumpParsesAndSorts) {
  auto& m = Metrics::instance();
  m.reset();
  m.counter("b.count").add(7);
  m.gauge("a.gauge").set(0.5);
  m.histogram("c.hist").record(9);
  auto v = json::parse(m.to_json());
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->at("b.count").num, 7.0);
  EXPECT_DOUBLE_EQ(v->at("a.gauge").num, 0.5);
  const json::Value& h = v->at("c.hist");
  EXPECT_DOUBLE_EQ(h.at("count").num, 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").num, 9.0);
  EXPECT_TRUE(h.at("buckets").is_array());
  // std::map iteration means the emitted key order is sorted already.
  std::vector<std::string> keys;
  for (const auto& [k, unused] : v->obj) keys.push_back(k);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Metrics, HistogramQuantilesInterpolateWithinTheBucket) {
  auto& m = Metrics::instance();
  m.reset();
  Histogram& h = m.histogram("q.hist");
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int i = 0; i < 10; ++i) h.record(100);  // bucket 6 = [64, 128)
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 64.0);
  EXPECT_LT(p50, 128.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LT(p99, 128.0);
}

TEST(Metrics, HistogramQuantilesSpanBuckets) {
  auto& m = Metrics::instance();
  m.reset();
  Histogram& h = m.histogram("q2.hist");
  for (int i = 0; i < 90; ++i) h.record(1);     // bucket 0 = [0, 2)
  for (int i = 0; i < 10; ++i) h.record(1000);  // bucket 9 = [512, 1024)
  EXPECT_LT(h.quantile(0.50), 2.0);
  EXPECT_GE(h.quantile(0.95), 512.0);
  EXPECT_LT(h.quantile(0.99), 1024.0);
}

TEST(Metrics, JsonHistogramCarriesQuantiles) {
  auto& m = Metrics::instance();
  m.reset();
  m.histogram("q3.hist").record(9);  // bucket 3 = [8, 16)
  auto v = json::parse(m.to_json());
  const json::Value& h = v->at("q3.hist");
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_TRUE(h.has(key)) << "histogram JSON lost " << key;
    EXPECT_GE(h.at(key).num, 8.0);
    EXPECT_LT(h.at(key).num, 16.0);
  }
}

TEST(Metrics, PrometheusExpositionFormat) {
  auto& m = Metrics::instance();
  m.reset();
  m.counter("b.count").add(7);
  m.gauge("a.gauge").set(0.5);
  m.histogram("c.hist").record(9);  // bucket 3 = [8, 16)
  const std::string prom = m.dump_prometheus();
  const auto npos = std::string::npos;
  // Names sanitized to [a-zA-Z0-9_:], one # TYPE line per metric.
  EXPECT_NE(prom.find("# TYPE a_gauge gauge\na_gauge 0.5\n"), npos) << prom;
  EXPECT_NE(prom.find("# TYPE b_count counter\nb_count 7\n"), npos) << prom;
  EXPECT_NE(prom.find("# TYPE c_hist histogram\n"), npos) << prom;
  // Cumulative buckets up to the highest non-empty one, then +Inf.
  EXPECT_NE(prom.find("c_hist_bucket{le=\"2\"} 0\n"), npos) << prom;
  EXPECT_NE(prom.find("c_hist_bucket{le=\"16\"} 1\n"), npos) << prom;
  EXPECT_NE(prom.find("c_hist_bucket{le=\"+Inf\"} 1\n"), npos) << prom;
  EXPECT_NE(prom.find("c_hist_sum 9\n"), npos) << prom;
  EXPECT_NE(prom.find("c_hist_count 1\n"), npos) << prom;
  EXPECT_EQ(prom.find("a.gauge"), npos) << "unsanitized name leaked";
  // Stable: a second dump with no changes is byte-identical.
  EXPECT_EQ(prom, m.dump_prometheus());
}

// The golden schema of a verification metrics export: these names are the
// stable interface consumed by CI dashboards — renaming any of them is a
// breaking change that must be deliberate.
TEST(Metrics, VerifyExportMatchesGoldenSchema) {
  auto& m = Metrics::instance();
  m.reset();
  m.enable();
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.engine = verify::EngineKind::kMAPI;
  verify::VerifyResult r = verify::verify(gadgets::by_name("dom-2"), opt);
  verify::export_metrics(opt, r, 0.5);
  m.disable();
  auto v = json::parse(m.to_json());
  const char* required[] = {
      "verify.combinations",   "verify.coefficients",
      "verify.observables",    "verify.order",
      "verify.seconds",        "verify.combinations_per_sec",
      "verify.secure",         "verify.timed_out",
      "memo.region.hits",      "memo.region.misses",
      "qinfo.entries",         "qinfo.peak_bytes",
      "frozen.nodes",          "frozen.bytes",
      "dd.cache_hits",         "dd.cache_misses",
      "dd.cache_hit_rate",     "dd.peak_nodes",
      "dd.gc_runs",            "dd.cache_survived",
      "dd.arena_bytes",        "dd.thaw_seconds",
      "parallel.jobs",         "parallel.shards",
  };
  for (const char* name : required)
    EXPECT_TRUE(v->has(name)) << "metrics export lost key " << name;
  // The prefix memo is gone, and its counters with it.
  EXPECT_FALSE(v->has("memo.prefix.hits"));
  EXPECT_GT(v->at("verify.combinations").num, 0.0);
  EXPECT_EQ(v->at("verify.secure").num, 1.0);
  // Metrics were enabled, so the per-rank latency histograms sampled.
  ASSERT_TRUE(v->has("verify.check_ns.k1"));
  ASSERT_TRUE(v->has("verify.check_ns.k2"));
  EXPECT_GT(v->at("verify.check_ns.k2").at("count").num, 0.0);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

std::vector<json::ValuePtr> read_ndjson(const std::string& path) {
  std::vector<json::ValuePtr> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) records.push_back(json::parse(line));
  return records;
}

TEST(Journal, DisabledByDefaultAndAfterClose) {
  Journal& j = Journal::instance();
  j.close();
  EXPECT_FALSE(j.enabled());
  const std::uint64_t before = j.lines_written();
  j.info("test", "ignored");  // must be a no-op while disabled
  EXPECT_EQ(j.lines_written(), before);
}

TEST(Journal, WritesParseableNdjsonRecords) {
  const std::string path = ::testing::TempDir() + "sani_journal_basic.ndjson";
  std::remove(path.c_str());
  Journal& j = Journal::instance();
  Journal::Options o;
  o.path = path;
  j.configure(o);
  ASSERT_TRUE(j.enabled());
  j.info("scan", "planned",
         {{"shards", 24}, {"dir", "/tmp/x"}, {"ok", true}, {"rate", 1.5}});
  j.warn("store", "quarantined", {{"key", "ab\"cd"}});
  j.close();

  const auto records = read_ndjson(path);
  ASSERT_EQ(records.size(), 2u);
  const json::Value& r0 = *records[0];
  EXPECT_GT(r0.at("ts_ns").num, 0.0);
  EXPECT_GT(r0.at("pid").num, 0.0);
  EXPECT_EQ(r0.at("level").str, "info");
  EXPECT_EQ(r0.at("component").str, "scan");
  EXPECT_EQ(r0.at("event").str, "planned");
  EXPECT_DOUBLE_EQ(r0.at("shards").num, 24.0);
  EXPECT_EQ(r0.at("dir").str, "/tmp/x");
  EXPECT_TRUE(r0.at("ok").b);
  EXPECT_DOUBLE_EQ(r0.at("rate").num, 1.5);
  const json::Value& r1 = *records[1];
  EXPECT_EQ(r1.at("level").str, "warn");
  EXPECT_EQ(r1.at("key").str, "ab\"cd");  // escaping round-trips
  std::remove(path.c_str());
}

TEST(Journal, MinLevelFiltersRecords) {
  const std::string path = ::testing::TempDir() + "sani_journal_level.ndjson";
  std::remove(path.c_str());
  Journal& j = Journal::instance();
  Journal::Options o;
  o.path = path;
  o.min_level = Journal::Level::kWarn;
  j.configure(o);
  j.debug("test", "too_low");
  j.info("test", "too_low");
  j.error("test", "kept");
  j.close();
  const auto records = read_ndjson(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0]->at("event").str, "kept");
  std::remove(path.c_str());
}

TEST(Journal, RotatesAtTheSizeCap) {
  const std::string path = ::testing::TempDir() + "sani_journal_rotate.ndjson";
  const std::string old = path + ".1";
  std::remove(path.c_str());
  std::remove(old.c_str());
  Journal& j = Journal::instance();
  Journal::Options o;
  o.path = path;
  o.max_bytes = 512;  // a handful of records per generation
  j.configure(o);
  const std::uint64_t rotations_before = j.rotations();
  for (int i = 0; i < 40; ++i)
    j.info("test", "filler", {{"i", i}, {"pad", "0123456789abcdef"}});
  j.close();
  EXPECT_GE(j.rotations(), rotations_before + 2);
  // Both generations exist and every surviving line still parses.
  const auto current = read_ndjson(path);
  const auto previous = read_ndjson(old);
  EXPECT_FALSE(current.empty());
  EXPECT_FALSE(previous.empty());
  for (const auto& r : previous) EXPECT_EQ(r->at("event").str, "filler");
  std::remove(path.c_str());
  std::remove(old.c_str());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct SpanRec {
  double ts = 0.0;
  double dur = 0.0;
};

/// Asserts the ph:"X" events of one thread are strictly nested: sorted by
/// record order, a later span either fits inside every currently open
/// enclosing span or starts after it ends — no partial overlap.
void expect_nested(const std::vector<SpanRec>& spans) {
  std::vector<SpanRec> stack;
  // Ring order is record (i.e. close) order; sort by start, longest first,
  // to recover the open order.
  std::vector<SpanRec> sorted = spans;
  std::sort(sorted.begin(), sorted.end(), [](const SpanRec& a,
                                             const SpanRec& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  const double eps = 0.002;  // µs; emission rounds to 3 decimals
  for (const SpanRec& s : sorted) {
    while (!stack.empty() &&
           s.ts >= stack.back().ts + stack.back().dur - eps)
      stack.pop_back();
    if (!stack.empty()) {
      // Open enclosing span: s must end inside it.
      EXPECT_LE(s.ts + s.dur, stack.back().ts + stack.back().dur + eps)
          << "span partially overlaps its enclosing span";
    }
    stack.push_back(s);
  }
}

TEST(Tracer, EmitsWellFormedNestedJson) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  {
    Span outer("scan");
    {
      Span inner("convolution");
      Clock::now_ns();
    }
    { Span inner2("add_check"); }
  }
  tracer.counter("dd.live_nodes", 42.0);
  tracer.instant("cancel");
  tracer.stop();

  auto v = json::parse(tracer.to_json());
  EXPECT_EQ(v->at("displayTimeUnit").str, "ms");
  const json::Value& evs = v->at("traceEvents");
  ASSERT_TRUE(evs.is_array());
  int complete = 0, counters = 0, instants = 0;
  std::vector<SpanRec> spans;
  for (const auto& e : evs.arr) {
    const std::string ph = e->at("ph").str;
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(kPhaseNames.count(e->at("name").str))
          << "undocumented span name " << e->at("name").str;
      spans.push_back({e->at("ts").num, e->at("dur").num});
    } else if (ph == "C") {
      ++counters;
      EXPECT_DOUBLE_EQ(e->at("args").at("value").num, 42.0);
    } else if (ph == "i") {
      ++instants;
    }
  }
  EXPECT_EQ(complete, 3);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(instants, 1);
  expect_nested(spans);
}

TEST(Tracer, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  tracer.stop();
  { Span s("scan"); }
  auto v = json::parse(tracer.to_json());
  EXPECT_TRUE(v->at("traceEvents").arr.empty());
}

TEST(Tracer, CarriesProcessMetadataAndTraceId) {
  Tracer& tracer = Tracer::instance();
  tracer.set_process_label("sani test process");
  tracer.set_trace_id("deadbeef00112233");
  tracer.start();
  { Span s("scan"); }
  tracer.stop();
  auto v = json::parse(tracer.to_json());
  EXPECT_EQ(v->at("otherData").at("trace_id").str, "deadbeef00112233");
  bool named = false;
  for (const auto& e : v->at("traceEvents").arr) {
    // Every event carries the real pid, so stitched multi-process traces
    // keep one process row per worker.
    EXPECT_GT(e->at("pid").num, 0.0);
    if (e->at("ph").str == "M" && e->at("name").str == "process_name") {
      named = true;
      EXPECT_EQ(e->at("args").at("name").str, "sani test process");
    }
  }
  EXPECT_TRUE(named) << "missing process_name metadata row";
  tracer.set_process_label("");
  tracer.set_trace_id("");
}

TEST(Tracer, VerifyRunUsesDocumentedPhaseNamesOnly) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  run_verify("dom-2", 1);
  tracer.stop();
  auto v = json::parse(tracer.to_json());
  std::set<std::string> seen;
  for (const auto& e : v->at("traceEvents").arr)
    if (e->at("ph").str == "X") seen.insert(e->at("name").str);
  EXPECT_FALSE(seen.empty());
  for (const std::string& name : seen)
    EXPECT_TRUE(kPhaseNames.count(name)) << "undocumented span " << name;
  // The serial MAPI pipeline must at least show these stages.
  for (const char* required : {"unfold", "basis_build", "thaw", "scan"})
    EXPECT_TRUE(seen.count(required)) << "missing span " << required;
}

TEST(Tracer, ParallelRunYieldsPerWorkerThreads) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  run_verify("dom-2", 4);
  tracer.stop();
  auto v = json::parse(tracer.to_json());
  std::set<double> tids;
  std::set<std::string> worker_names;
  std::map<double, std::vector<SpanRec>> per_tid;
  for (const auto& e : v->at("traceEvents").arr) {
    const std::string ph = e->at("ph").str;
    tids.insert(e->at("tid").num);
    if (ph == "M" && e->at("name").str == "thread_name")
      worker_names.insert(e->at("args").at("name").str);
    if (ph == "X")
      per_tid[e->at("tid").num].push_back(
          {e->at("ts").num, e->at("dur").num});
  }
  EXPECT_GE(tids.size(), 4u) << "expected at least 4 distinct trace tids";
  for (int w = 0; w < 4; ++w)
    EXPECT_TRUE(worker_names.count("worker " + std::to_string(w)))
        << "missing thread-name metadata for worker " << w;
  for (const auto& [tid, spans] : per_tid) expect_nested(spans);
}

TEST(Tracer, ThreadedSpansLandOnDistinctTids) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i)
    threads.emplace_back([&] {
      Span s("task");
      Clock::now_ns();
    });
  for (auto& t : threads) t.join();
  tracer.stop();
  auto v = json::parse(tracer.to_json());
  std::set<double> tids;
  for (const auto& e : v->at("traceEvents").arr)
    if (e->at("ph").str == "X") tids.insert(e->at("tid").num);
  EXPECT_EQ(tids.size(), 3u);
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

TEST(Progress, CountsTicksWithoutPrinting) {
  Progress::Options options;
  options.use_stderr = false;
  options.interval_ms = 10;
  Progress p(options);
  p.start(100);
  for (int i = 0; i < 40; ++i) p.tick();
  p.tick(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  p.stop();
  EXPECT_EQ(p.checked(), 50u);
  EXPECT_EQ(p.total(), 100u);
  p.stop();  // idempotent
}

TEST(Progress, DrivesTheEngineCounter) {
  Progress::Options options;
  options.use_stderr = false;
  Progress p(options);
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.engine = verify::EngineKind::kMAPI;
  opt.progress = &p;
  verify::VerifyResult r = verify::verify(gadgets::by_name("dom-2"), opt);
  EXPECT_EQ(p.checked(), r.stats.combinations);
  EXPECT_GE(p.total(), p.checked());
}

TEST(Progress, ParallelTicksSumAcrossWorkers) {
  Progress::Options options;
  options.use_stderr = false;
  Progress p(options);
  verify::VerifyOptions opt;
  opt.order = 2;
  opt.engine = verify::EngineKind::kMAPI;
  opt.jobs = 4;
  opt.progress = &p;
  verify::VerifyResult r = verify::verify(gadgets::by_name("dom-2"), opt);
  EXPECT_EQ(p.checked(), r.stats.combinations);
}

// ---------------------------------------------------------------------------
// Process gauges (src/obs/process)

TEST(Process, RssIsPositiveAndGrowsWithAllocation) {
  const std::uint64_t before = process_rss_bytes();
  EXPECT_GT(before, 0u);
  // Touch a fresh 32 MiB block so it is actually resident, not just mapped.
  std::vector<char> block(32u << 20);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  EXPECT_GT(process_rss_bytes(), before);
}

TEST(Process, UptimeIsMonotonic) {
  const double first = process_uptime_seconds();
  EXPECT_GE(first, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const double second = process_uptime_seconds();
  EXPECT_GT(second, first);
  EXPECT_GE(process_uptime_seconds(), second);
}

TEST(Process, SampleWritesBothGaugesIntoTheRegistry) {
  auto& m = Metrics::instance();
  m.gauge("process.rss_bytes").set(0.0);
  m.gauge("process.uptime_seconds").set(-1.0);
  const std::uint64_t rss = sample_process_gauges();
  EXPECT_GT(rss, 0u);
  EXPECT_EQ(m.gauge("process.rss_bytes").value(),
            static_cast<double>(rss));
  EXPECT_GE(m.gauge("process.uptime_seconds").value(), 0.0);
}

}  // namespace
}  // namespace sani::obs
