#include "obs/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace sani::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_escaped(out, s);
  return out;
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based: ceil(q * total), clamped to >= 1.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = bucket(i);
    if (n == 0) continue;
    if (cum + n >= rank) {
      // Bucket i spans [lo, hi): [0,2) for i == 0, [2^i, 2^(i+1)) above.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      const double within =
          (static_cast<double>(rank - cum) - 0.5) / static_cast<double>(n);
      return lo + within * (hi - lo);
    }
    cum += n;
  }
  return std::ldexp(1.0, static_cast<int>(kBuckets));
}

struct Metrics::Impl {
  mutable std::mutex mu;
  // std::map keeps the dump sorted by construction — the "stable order"
  // the stats tests assert on.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Metrics& Metrics::instance() {
  static Metrics metrics;
  return metrics;
}

Metrics::Impl& Metrics::impl() const {
  static Impl impl;
  return impl;
}

Counter& Metrics::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Metrics::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Metrics::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (auto& [name, c] : im.counters) c->set(0);
  for (auto& [name, g] : im.gauges) g->set(0.0);
  for (auto& [name, h] : im.histograms) h->reset();
}

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// ostream's default double output: printf's %g at precision 6 (nan and
/// inf included).
void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 6)
                      .ptr);
}

void append_histogram(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  append_uint(out, h.count());
  out += ",\"sum\":";
  append_uint(out, h.sum());
  out += ",\"p50\":";
  append_double(out, h.quantile(0.50));
  out += ",\"p95\":";
  append_double(out, h.quantile(0.95));
  out += ",\"p99\":";
  append_double(out, h.quantile(0.99));
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t n = h.bucket(i);
    if (n == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    append_uint(out, i);
    out += ',';
    append_uint(out, n);
    out += ']';
  }
  out += "]}";
}

/// Visits every instrument as (name, rendered value) in one merge pass over
/// the three name-sorted maps — the one ordering both dumps share.  A name
/// registered as more than one kind renders once: histogram over gauge over
/// counter.
template <typename Visit>
void for_each_sorted(const Metrics::Impl& im, Visit&& visit) {
  auto c = im.counters.begin();
  auto g = im.gauges.begin();
  auto h = im.histograms.begin();
  std::string value;
  for (;;) {
    const std::string* least = nullptr;
    if (c != im.counters.end()) least = &c->first;
    if (g != im.gauges.end() && (!least || g->first < *least))
      least = &g->first;
    if (h != im.histograms.end() && (!least || h->first < *least))
      least = &h->first;
    if (!least) return;
    const bool at_c = c != im.counters.end() && c->first == *least;
    const bool at_g = g != im.gauges.end() && g->first == *least;
    const bool at_h = h != im.histograms.end() && h->first == *least;
    value.clear();
    if (at_h)
      append_histogram(value, *h->second);
    else if (at_g)
      append_double(value, g->second->value());
    else
      append_uint(value, c->second->value());
    visit(*least, value);
    if (at_c) ++c;
    if (at_g) ++g;
    if (at_h) ++h;
  }
}

}  // namespace

std::string Metrics::to_json() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  std::string out = "{";
  for_each_sorted(im, [&](const std::string& name, const std::string& value) {
    if (out.size() > 1) out += ',';
    out += '"';
    append_escaped(out, name);
    out += "\":";
    out += value;
  });
  out += '}';
  return out;
}

std::string Metrics::to_text(const std::string& indent) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  std::string out;
  for_each_sorted(im, [&](const std::string& name, const std::string& value) {
    out += indent;
    out += name;
    out += ' ';
    out += value;
    out += '\n';
  });
  return out;
}

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

/// Formats a power-of-two bucket bound exactly (2^64 overflows uint64, so
/// go through long double and print with no fraction).
std::string pow2_label(int exp) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0Lf", std::pow(2.0L, exp));
  return buf;
}

}  // namespace

std::string Metrics::dump_prometheus() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  std::ostringstream os;
  // One pass per kind, but emit in a single name-sorted stream so scrapes
  // are stable (same contract as to_text).  Counters and gauges are
  // scalars; histograms expand to the cumulative series.
  struct Entry {
    std::string type;
    std::string body;
  };
  std::map<std::string, Entry> out;
  for (const auto& [name, c] : im.counters) {
    const std::string pn = prometheus_name(name);
    out[pn] = {"counter", pn + " " + std::to_string(c->value()) + "\n"};
  }
  for (const auto& [name, g] : im.gauges) {
    const std::string pn = prometheus_name(name);
    std::ostringstream v;
    v << pn << " " << g->value() << "\n";
    out[pn] = {"gauge", v.str()};
  }
  for (const auto& [name, h] : im.histograms) {
    const std::string pn = prometheus_name(name);
    std::ostringstream v;
    std::uint64_t cum = 0;
    std::size_t highest = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
      if (h->bucket(i) != 0) highest = i;
    for (std::size_t i = 0; i <= highest; ++i) {
      cum += h->bucket(i);
      v << pn << "_bucket{le=\"" << pow2_label(static_cast<int>(i) + 1)
        << "\"} " << cum << "\n";
    }
    v << pn << "_bucket{le=\"+Inf\"} " << h->count() << "\n";
    v << pn << "_sum " << h->sum() << "\n";
    v << pn << "_count " << h->count() << "\n";
    out[pn] = {"histogram", v.str()};
  }
  for (const auto& [pn, entry] : out)
    os << "# TYPE " << pn << " " << entry.type << "\n" << entry.body;
  return os.str();
}

}  // namespace sani::obs
