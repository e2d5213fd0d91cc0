#pragma once
// Turning a run's outcomes into named metrics, and printing them.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // what the value was computed from
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// End-to-end metrics of an untraced closed-loop run of whole rounds.  The
/// time of a request is its best over the run's rounds; the percentiles are
/// over the requests of one round, and the rates divide one round's
/// requests and combinations by the sum of their times.  Times (setup_s
/// included) are multiplied by `scale`, rates divided by it (host.h).
std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const std::vector<Outcome>& outcomes,
                                       double scale);

/// Per-layer metrics of a traced run: span self times and library counters,
/// per request unless README.md says otherwise.  `outcomes[i]` is the
/// request traced under id i.
std::vector<Metric> per_layer_metrics(const std::vector<Outcome>& outcomes,
                                      const SpanLog& log);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// One human-readable line per metric: name, value, unit, sample count.
std::string metric_table(const std::vector<Metric>& metrics);

}  // namespace perfbench
