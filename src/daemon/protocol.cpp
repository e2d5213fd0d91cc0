#include "daemon/protocol.h"

#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "store/sha256.h"
#include "verify/backends/registry.h"

namespace sani::daemon {

using obs::json_escape;

namespace {

verify::Notion notion_from(const std::string& name) {
  if (name == "probing") return verify::Notion::kProbing;
  if (name == "ni") return verify::Notion::kNI;
  if (name == "sni") return verify::Notion::kSNI;
  if (name == "pini") return verify::Notion::kPINI;
  throw std::invalid_argument("unknown notion '" + name + "'");
}

circuit::VarOrder var_order_from(const std::string& name) {
  if (name == "declared") return circuit::VarOrder::kDeclared;
  if (name == "randoms-first") return circuit::VarOrder::kRandomsFirst;
  if (name == "randoms-last") return circuit::VarOrder::kRandomsLast;
  if (name == "interleaved") return circuit::VarOrder::kInterleaved;
  throw std::invalid_argument("unknown var-order '" + name + "'");
}

int checked_int(const json::Value& v, const std::string& key, int def,
                int lo, int hi) {
  const double raw = v.get_number(key, def);
  const int n = static_cast<int>(raw);
  if (n < lo || n > hi)
    throw std::invalid_argument("'" + key + "' out of range");
  return n;
}

}  // namespace

Request parse_request(const std::string& line) {
  const json::ValuePtr root = json::parse(line);
  if (!root->is_object())
    throw std::invalid_argument("request must be a JSON object");
  const std::string op = root->get_string("op");

  Request req;
  if (op == "stats") {
    req.op = Op::kStats;
    return req;
  }
  if (op == "ping") {
    req.op = Op::kPing;
    return req;
  }
  if (op == "metrics") {
    req.op = Op::kMetrics;
    return req;
  }
  if (op == "shutdown") {
    req.op = Op::kShutdown;
    return req;
  }
  if (op != "verify")
    throw std::invalid_argument("unknown op '" + op + "'");

  req.op = Op::kVerify;
  VerifyRequest& r = req.verify;
  r.gadget_name = root->get_string("gadget");
  r.ilang_text = root->get_string("ilang");
  if (r.gadget_name.empty() == r.ilang_text.empty())
    throw std::invalid_argument(
        "verify needs exactly one of 'gadget' or 'ilang'");

  verify::VerifyOptions& o = r.options;
  o.notion = notion_from(root->get_string("notion", "sni"));
  const std::string engine = root->get_string("engine", "auto");
  if (engine == "auto")
    // Not a registry entry: the verifier resolves it to DIRECT.
    o.engine = verify::EngineKind::kAuto;
  else if (const verify::BackendInfo* info = verify::backend_by_name(engine))
    o.engine = info->kind;
  else
    throw std::invalid_argument("unknown engine '" + engine +
                                "' (registered engines: " +
                                verify::backend_name_list() +
                                ", or 'auto' for the default)");
  // "order" defaults to 0 here (= "use the gadget's design order"); the
  // server resolves it once it knows the gadget, mirroring the CLI.
  o.order = checked_int(*root, "order", 0, 0, 64);
  o.probes.glitch_robust = root->get_bool("robust", false);
  o.joint_share_count = root->get_bool("joint", false);
  o.union_check = root->get_bool("union", true);
  o.time_limit = root->get_number("time_limit", 0.0);
  if (o.time_limit < 0) throw std::invalid_argument("'time_limit' < 0");
  o.jobs = checked_int(*root, "jobs", 1, 0, 4096);
  o.cache_bits = checked_int(*root, "cache_bits", o.cache_bits, 1, 30);
  o.var_order = var_order_from(root->get_string("var_order", "declared"));
  o.sift_after_unfold = root->get_bool("sift", false);
  if (root->get_bool("largest_first", false))
    o.search_order = verify::SearchOrder::kLargestFirst;
  o.deterministic_report = root->get_bool("deterministic", false);
  if (root->has("incremental")) {
    r.incremental_set = true;
    o.incremental = root->get_bool("incremental", false);
  }
  r.scan = root->get_bool("scan", false);

  const std::string format = root->get_string("format", "text");
  if (format != "text" && format != "json")
    throw std::invalid_argument("unknown format '" + format + "'");
  r.json_format = format == "json";
  r.priority = checked_int(*root, "priority", 0, -1000, 1000);
  return req;
}

std::string job_digest(const VerifyRequest& request,
                       const std::string& artifact_key) {
  const verify::VerifyOptions& o = request.options;
  std::ostringstream material;
  // Everything the result frame depends on beyond the artifact key.  jobs /
  // cache_bits / search order are verdict-neutral but shape the
  // report's stats fields, so they are part of the job identity — deduped
  // waiters receive one shared report and it must be the right one for each
  // of them.
  material << "sani-job-v1\n"
           << "artifact:" << artifact_key << '\n'
           << "order:" << o.order << '\n'
           << "union:" << o.union_check << '\n'
           << "joint:" << o.joint_share_count << '\n'
           << "time_limit:" << o.time_limit << '\n'
           << "jobs:" << o.jobs << '\n'
           << "cache_bits:" << o.cache_bits << '\n'
           << "largest_first:"
           << (o.search_order == verify::SearchOrder::kLargestFirst) << '\n'
           << "deterministic:" << o.deterministic_report << '\n'
           << "incremental:" << o.incremental << '\n'
           << "scan:" << request.scan << '\n'
           << "format:" << (request.json_format ? "json" : "text") << '\n'
           << "label:" << request.gadget_name << '\n';
  return store::sha256_hex(material.str());
}

std::string accepted_frame(std::uint64_t id, const std::string& key,
                           const std::string& trace_id, bool deduped,
                           std::size_t queue_depth) {
  std::ostringstream os;
  os << "{\"frame\":\"accepted\",\"id\":" << id << ",\"key\":\""
     << json_escape(key) << "\",\"trace_id\":\"" << json_escape(trace_id)
     << "\",\"deduped\":" << (deduped ? "true" : "false")
     << ",\"queue_depth\":" << queue_depth << "}";
  return os.str();
}

std::string progress_frame(std::uint64_t id, const std::string& stage) {
  std::ostringstream os;
  os << "{\"frame\":\"progress\",\"id\":" << id << ",\"stage\":\""
     << json_escape(stage) << "\"}";
  return os.str();
}

std::string result_frame(std::uint64_t id, int exit_code, bool store_hit,
                         bool store_saved, const std::string& report) {
  std::ostringstream os;
  os << "{\"frame\":\"result\",\"id\":" << id << ",\"exit\":" << exit_code
     << ",\"store_hit\":" << (store_hit ? "true" : "false")
     << ",\"store_saved\":" << (store_saved ? "true" : "false")
     << ",\"report\":\"" << json_escape(report) << "\"}";
  return os.str();
}

std::string error_frame(std::uint64_t id, const std::string& message) {
  std::ostringstream os;
  os << "{\"frame\":\"error\",\"id\":" << id << ",\"message\":\""
     << json_escape(message) << "\"}";
  return os.str();
}

std::string pong_frame() { return "{\"frame\":\"pong\"}"; }

std::string metrics_frame(const std::string& body) {
  std::ostringstream os;
  os << "{\"frame\":\"metrics\",\"content_type\":\"text/plain; "
        "version=0.0.4\",\"body\":\""
     << json_escape(body) << "\"}";
  return os.str();
}

std::string shutdown_frame() { return "{\"frame\":\"shutdown\"}"; }

}  // namespace sani::daemon
