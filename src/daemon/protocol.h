#pragma once
// Wire protocol of the sanid verification daemon.
//
// Transport: a unix-domain stream socket carrying newline-delimited JSON
// ("NDJSON") — one complete JSON object per line in both directions.  The
// framing needs no length prefixes, is trivially inspectable with `nc -U`
// and socat, and reuses the project's existing JSON reader (util/json) and
// writer idiom (obs::json_escape).
//
// Requests (client -> server), discriminated by "op":
//
//   {"op":"verify", "gadget":"dom-2" | "ilang":"<netlist text>", ...}
//       Options mirror the sani CLI flag for flag: notion, order, engine,
//       robust, joint, union, time_limit, jobs, cache_bits,
//       var_order, sift, largest_first, format ("text"|"json"),
//       deterministic (bool), incremental (bool) and priority (int; higher
//       runs first).  Omitted fields take the sani defaults, so a bare
//       {"op":"verify","gadget":"dom-1"} is a valid request.
//       "incremental" is tri-state: absent means "server decides" — a
//       store-backed daemon defaults it ON (repeat traffic is the daemon's
//       reason to exist), a storeless one clamps it OFF.  An explicit value
//       always wins (still clamped OFF without a store — there is nothing
//       to seed from or save to).
//       "scan":true routes the job through the checkpointable manifest
//       scan (store/scan.h): resumable across daemon restarts, same
//       report bytes as a plain verify under "deterministic":true.
//   {"op":"stats"}     registry dump + daemon/queue/store counters; a
//                      store-backed daemon appends a "scans" array with
//                      each scan directory's manifest state (shards done /
//                      total, in-flight claims, reclaims, checkpoint bytes)
//   {"op":"ping"}      liveness probe
//   {"op":"metrics"}   Prometheus text exposition (format 0.0.4) of the
//                      metrics registry, wrapped in a metrics frame — a
//                      scrape bridge connects, sends this, and relays the
//                      body verbatim
//   {"op":"shutdown"}  graceful daemon stop (connections drain, socket
//                      unlinked)
//
// Responses (server -> client), discriminated by "frame":
//
//   {"frame":"accepted","id":N,"key":"<64-hex>","trace_id":"<16-hex>",
//    "deduped":B,"queue_depth":Q}
//   {"frame":"progress","id":N,"stage":"running"}
//   {"frame":"result","id":N,"exit":0|1|2,"store_hit":B,"store_saved":B,
//    "report":"<exact sani stdout for this request>"}
//   {"frame":"error","id":N|0,"message":"..."}      (id 0: not tied to a
//                                                    request, e.g. a parse
//                                                    error)
//   {"frame":"stats","queue_depth":Q,"inflight":I,...,"metrics":{...}}
//   {"frame":"metrics","content_type":"text/plain; version=0.0.4",
//    "body":"<Prometheus exposition text>"}
//   {"frame":"pong"}  /  {"frame":"shutdown"}
//
// The "report" string is byte-identical to what `sani verify` would print
// on stdout for the same request (same summarize/json_report renderers run
// server-side), so `sanic` is a faithful drop-in: with
// "deterministic":true a daemon result and a CLI run diff clean.
//
// `exit` carries the sani exit convention: 0 secure, 1 insecure, 2 timed
// out.

#include <cstdint>
#include <string>

#include "util/json.h"
#include "verify/types.h"

namespace sani::daemon {

enum class Op : std::uint8_t { kVerify, kStats, kPing, kMetrics, kShutdown };

/// A decoded verify request.
struct VerifyRequest {
  std::string gadget_name;  // registry lookup; empty when ilang_text is set
  std::string ilang_text;   // inline netlist; empty when gadget_name is set
  verify::VerifyOptions options;
  bool json_format = false;  // "format":"json"
  /// True when the request carried an explicit "incremental" value (held in
  /// options.incremental); false leaves the policy to the server.
  bool incremental_set = false;
  /// "scan":true — run through the checkpointable manifest scan
  /// (store/scan.h) instead of the one-shot engine: shards are claimed and
  /// checkpointed under the daemon's store, so a job interrupted by a
  /// daemon restart (or cancelled when its waiters hang up) resumes from
  /// its checkpoints when resubmitted.  Requires a store-backed daemon.
  bool scan = false;
  int priority = 0;  // higher first in the admission queue
};

/// A decoded request frame.
struct Request {
  Op op = Op::kPing;
  VerifyRequest verify;  // meaningful when op == kVerify
};

/// Parses one request line.  Throws std::runtime_error (malformed JSON) or
/// std::invalid_argument (bad field values) — the server turns either into
/// an error frame on the offending connection.
Request parse_request(const std::string& line);

/// A stable digest of everything a verify request's *response* depends on:
/// the artifact key (netlist + probe model + notion + order-independent
/// basis inputs) plus every remaining option that shapes the verdict,
/// stats or rendering.  Two requests with equal digests are literally the
/// same job, so the daemon runs one and fans the result out.
std::string job_digest(const VerifyRequest& request,
                       const std::string& artifact_key);

// ---- response frame builders (server side) ----

std::string accepted_frame(std::uint64_t id, const std::string& key,
                           const std::string& trace_id, bool deduped,
                           std::size_t queue_depth);
std::string progress_frame(std::uint64_t id, const std::string& stage);
std::string result_frame(std::uint64_t id, int exit_code, bool store_hit,
                         bool store_saved, const std::string& report);
std::string error_frame(std::uint64_t id, const std::string& message);
std::string pong_frame();
/// Wraps Metrics::dump_prometheus() output for the NDJSON transport.
std::string metrics_frame(const std::string& body);
std::string shutdown_frame();

}  // namespace sani::daemon
