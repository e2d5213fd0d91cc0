// In-process tests of the sanid daemon: protocol parsing, the NDJSON
// request/response loop over a real unix-domain socket, report fidelity
// against the in-process verification pipeline, store warm-starts, dedupe
// of identical in-flight jobs, admission-queue rejection and graceful
// shutdown.
//
// The tests speak to daemon::Server through raw AF_UNIX sockets — the same
// bytes sanic would send — so they cover the wire format itself, not just
// the C++ surface.  Frame ordering on a connection is only guaranteed
// per-kind (a fast executor's progress frame may overtake the accepted
// frame written under a different lock), so the client helper reads until
// the frame kind a test cares about.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "gtest/gtest.h"

#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "gadgets/registry.h"
#include "obs/metrics.h"
#include "store/cached_verify.h"
#include "util/json.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/report.h"
#include "test_util.h"

namespace sani {
namespace {

// ---- fixtures ---------------------------------------------------------

std::string unique_path(const std::string& suffix) {
  static int counter = 0;
  return "/tmp/sanid_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + suffix;
}

/// Scratch directory for store-backed servers, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/sanid_store_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// A started server torn down cleanly at scope exit.
struct TestServer {
  explicit TestServer(daemon::Server::Options options)
      : server(std::move(options)) {
    server.start();
  }
  ~TestServer() {
    server.request_stop();
    server.stop();
  }
  daemon::Server server;
};

daemon::Server::Options basic_options() {
  daemon::Server::Options options;
  options.socket_path = unique_path(".sock");
  return options;
}

/// Raw NDJSON client — the same bytes `sanic` puts on the wire.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path) return;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    // A lost frame should fail the test, not hang the suite.
    timeval tv{180, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { close(); }

  bool ok() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_line(std::string line) {
    line.push_back('\n');
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next frame on the connection; nullptr on EOF/timeout.
  json::ValuePtr next_frame() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return json::parse(line);
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return nullptr;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// First frame of the given kind, discarding others (progress frames may
  /// legally overtake accepted frames).  Error frames are terminal for a
  /// request, so they are returned no matter what was asked for — an
  /// unexpected daemon error then fails the caller's assertions immediately
  /// instead of timing the whole test out.
  json::ValuePtr read_until(const std::string& kind) {
    while (json::ValuePtr frame = next_frame()) {
      const std::string k = frame->get_string("frame");
      if (k == kind || k == "error") return frame;
    }
    return nullptr;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---- expected-output oracle -------------------------------------------

/// The options a bare {"op":"verify",...,"deterministic":true} request
/// resolves to server-side (parse_request defaults + resolved order).
verify::VerifyOptions daemon_default_options(int order) {
  verify::VerifyOptions opt;
  opt.notion = verify::Notion::kSNI;
  opt.engine = verify::EngineKind::kAuto;
  opt.order = order;
  opt.probes.glitch_robust = false;
  opt.joint_share_count = false;
  opt.union_check = true;
  opt.time_limit = 0.0;
  opt.jobs = 1;
  opt.var_order = circuit::VarOrder::kDeclared;
  opt.sift_after_unfold = false;
  opt.deterministic_report = true;
  return opt;
}

/// Exactly what `sani verify` prints on stdout for this request — the
/// byte-fidelity contract the daemon's result frames promise.
std::string expected_cli_stdout(const circuit::Gadget& gadget,
                                const std::string& label,
                                const verify::VerifyOptions& opt,
                                bool json_format = false) {
  const circuit::Unfolded unfolded = verify::unfold_for(gadget, opt);
  verify::ObservableSet observables =
      verify::build_observables(gadget, unfolded, opt.probes);
  verify::VerifyResult result = verify::verify_basis(
      verify::build_basis(unfolded, observables, opt.engine), opt);
  if (json_format)
    return verify::json_report(label, opt, result, 0.0) + "\n";
  std::string out = verify::summarize(label, opt, result, 0.0) + "\n";
  if (!result.secure && result.counterexample)
    out += verify::detailed_report(gadget, unfolded.vars, opt, result);
  return out;
}

// ---- tests ------------------------------------------------------------

TEST(Daemon, PingPongAndStats) {
  TestServer ts(basic_options());
  Client client(ts.server.socket_path());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  json::ValuePtr pong = client.read_until("pong");
  ASSERT_NE(pong, nullptr);

  ASSERT_TRUE(client.send_line("{\"op\":\"stats\"}"));
  json::ValuePtr stats = client.read_until("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->get_number("queue_depth", -1), 0);
  EXPECT_EQ(stats->get_number("inflight", -1), 0);
  EXPECT_FALSE(stats->get_bool("store", true));
  // handle_stats samples the process gauges before dumping the registry.
  ASSERT_TRUE(stats->at("metrics").is_object());
  EXPECT_GT(stats->at("metrics").get_number("process.rss_bytes"), 0.0);
  EXPECT_GE(stats->at("metrics").get_number("process.uptime_seconds"), 0.0);
}

TEST(Daemon, VerifyReportMatchesInProcessPipeline) {
  TestServer ts(basic_options());
  Client client(ts.server.socket_path());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send_line(
      "{\"op\":\"verify\",\"gadget\":\"dom-1\",\"deterministic\":true}"));
  json::ValuePtr accepted = client.read_until("accepted");
  ASSERT_NE(accepted, nullptr);
  EXPECT_FALSE(accepted->get_bool("deduped", true));
  EXPECT_EQ(accepted->get_string("key").size(), 64u);

  json::ValuePtr result = client.read_until("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get_number("exit", -1), 0);
  EXPECT_FALSE(result->get_bool("store_hit", true));
  EXPECT_FALSE(result->get_bool("store_saved", true));

  const auto gadget = gadgets::by_name("dom-1");
  const verify::VerifyOptions opt =
      daemon_default_options(gadgets::security_level("dom-1"));
  EXPECT_EQ(result->get_string("report"),
            expected_cli_stdout(gadget, "dom-1", opt));
  // The accepted key is the store address sani --store would use.
  EXPECT_EQ(accepted->get_string("key"), store::artifact_key(gadget, opt));
}

TEST(Daemon, JsonFormatVerifyMatchesJsonReport) {
  TestServer ts(basic_options());
  Client client(ts.server.socket_path());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send_line(
      "{\"op\":\"verify\",\"gadget\":\"ti-1\",\"deterministic\":true,"
      "\"format\":\"json\"}"));
  json::ValuePtr result = client.read_until("result");
  ASSERT_NE(result, nullptr);

  const auto gadget = gadgets::by_name("ti-1");
  const verify::VerifyOptions opt =
      daemon_default_options(gadgets::security_level("ti-1"));
  const std::string report = result->get_string("report");
  EXPECT_EQ(report,
            expected_cli_stdout(gadget, "ti-1", opt, /*json_format=*/true));
  // Deterministic JSON reports carry no live-metrics object.
  json::ValuePtr parsed = json::parse(report);
  EXPECT_TRUE(parsed->at("metrics").is_null());
}

TEST(Daemon, WarmStartSecondRequestHitsStoreWithIdenticalReport) {
  TempDir store_dir;
  daemon::Server::Options options = basic_options();
  options.store_dir = store_dir.str();
  TestServer ts(std::move(options));

  const std::string request =
      "{\"op\":\"verify\",\"gadget\":\"dom-2\",\"deterministic\":true}";

  Client cold(ts.server.socket_path());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold.send_line(request));
  json::ValuePtr cold_accepted = cold.read_until("accepted");
  ASSERT_NE(cold_accepted, nullptr);
  json::ValuePtr cold_result = cold.read_until("result");
  ASSERT_NE(cold_result, nullptr);
  EXPECT_FALSE(cold_result->get_bool("store_hit", true));
  EXPECT_TRUE(cold_result->get_bool("store_saved", false));
  cold.close();

  Client warm(ts.server.socket_path());
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.send_line(request));
  json::ValuePtr warm_accepted = warm.read_until("accepted");
  ASSERT_NE(warm_accepted, nullptr);
  EXPECT_EQ(warm_accepted->get_string("key"),
            cold_accepted->get_string("key"));
  json::ValuePtr warm_result = warm.read_until("result");
  ASSERT_NE(warm_result, nullptr);
  EXPECT_TRUE(warm_result->get_bool("store_hit", false));
  EXPECT_FALSE(warm_result->get_bool("store_saved", true));

  // The whole point of the daemon: the warm report is byte-identical.
  EXPECT_EQ(warm_result->get_string("report"),
            cold_result->get_string("report"));
  EXPECT_EQ(warm_result->get_number("exit", -1),
            cold_result->get_number("exit", -1));

  ASSERT_TRUE(warm.send_line("{\"op\":\"stats\"}"));
  json::ValuePtr stats = warm.read_until("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->get_bool("store", false));
  EXPECT_GE(stats->at("metrics").get_number("store.hits"), 1.0);
  EXPECT_GE(stats->at("metrics").get_number("store.misses"), 1.0);
}

TEST(Daemon, IlangSubmissionMatchesRegistryGadget) {
  TestServer ts(basic_options());
  Client client(ts.server.socket_path());
  ASSERT_TRUE(client.ok());

  const auto registry_gadget = gadgets::by_name("trichina-1");
  const std::string text = circuit::write_ilang_string(registry_gadget);
  ASSERT_TRUE(client.send_line(
      "{\"op\":\"verify\",\"ilang\":\"" + obs::json_escape(text) +
      "\",\"deterministic\":true}"));
  json::ValuePtr result = client.read_until("result");
  ASSERT_NE(result, nullptr);

  // An ilang submission resolves no registry order — it runs at order 1
  // and is labelled with the netlist's own name.
  const auto parsed = circuit::parse_ilang_string(text);
  const verify::VerifyOptions opt = daemon_default_options(1);
  EXPECT_EQ(result->get_string("report"),
            expected_cli_stdout(parsed, parsed.netlist.name(), opt));
}

TEST(Daemon, ErrorFramesForBadRequests) {
  TestServer ts(basic_options());
  Client client(ts.server.socket_path());
  ASSERT_TRUE(client.ok());

  struct Case {
    const char* request;
    const char* expect_substring;
    bool id_zero;
  };
  const Case cases[] = {
      {"this is not json", "", true},
      {"{\"op\":\"frobnicate\"}", "unknown op", false},
      {"{\"op\":\"verify\"}", "exactly one of", false},
      {"{\"op\":\"verify\",\"gadget\":\"dom-1\",\"ilang\":\"x\"}",
       "exactly one of", false},
      {"{\"op\":\"verify\",\"gadget\":\"nope-9\"}", "unknown gadget", false},
      {"{\"op\":\"verify\",\"gadget\":\"dom-1\",\"engine\":\"warp\"}",
       "unknown engine", false},
      {"{\"op\":\"verify\",\"gadget\":\"dom-1\",\"order\":65}",
       "out of range", false},
      {"{\"op\":\"verify\",\"gadget\":\"dom-1\",\"format\":\"xml\"}",
       "unknown format", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.request);
    ASSERT_TRUE(client.send_line(c.request));
    json::ValuePtr error = client.read_until("error");
    ASSERT_NE(error, nullptr);
    const std::string message = error->get_string("message");
    EXPECT_NE(message.find(c.expect_substring), std::string::npos)
        << message;
    if (c.id_zero)
      EXPECT_EQ(error->get_number("id", -1), 0);  // pre-parse failure
    else
      EXPECT_GE(error->get_number("id", -1), 0);
  }

  // The connection survives every error frame: a good request still works.
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  EXPECT_NE(client.read_until("pong"), nullptr);
}

// A netlist that is secure by construction at order 5 but hopeless to
// enumerate: four masked output shares (each blinded by its own single-use
// random — reconstructing the secret takes all 4 mask/random pairs, i.e.
// 8 probes > 5) plus ~200 pairwise XORs of dedicated randoms, which are
// functions of randoms only and can never leak.  That yields ~C(200+,5) ≈
// 10^9 combinations with no counterexample to early-exit on, inside the
// unfolder's input and Walsh variable caps (58 variables).  Submitting it
// with a 2-second time limit therefore occupies one executor for a
// *deterministic* ~2 s and always resolves as timed out (exit 2).
std::string slow_ilang() {
  constexpr int kShares = 4, kRandoms = 54, kPairs = 200;
  std::ostringstream os;
  os << "module \\slowpoke\n";
  os << "  ## input \\a\n  wire width " << kShares << " input 1 \\a\n";
  os << "  ## random \\rnd\n  wire width " << (kShares + kRandoms)
     << " input 2 \\rnd\n";
  os << "  ## output \\c\n  wire width " << kShares << " output 3 \\c\n";
  for (int i = 0; i < kShares; ++i)
    os << "  wire \\m" << i << "\n  cell $_XOR_ \\gm" << i
       << "\n    connect \\A \\a [" << i << "]\n    connect \\B \\rnd [" << i
       << "]\n    connect \\Y \\m" << i << "\n  end\n";
  for (int k = 0; k < kPairs; ++k) {
    // Walk distinct random pairs (i, j), i < j, skipping the share masks.
    const int i = k % kRandoms, j = (i + 1 + k / kRandoms) % kRandoms;
    os << "  wire \\t" << k << "\n  cell $_XOR_ \\gt" << k
       << "\n    connect \\A \\rnd [" << (kShares + std::min(i, j))
       << "]\n    connect \\B \\rnd [" << (kShares + std::max(i, j))
       << "]\n    connect \\Y \\t" << k << "\n  end\n";
  }
  for (int i = 0; i < kShares; ++i)
    os << "  connect \\c [" << i << "] \\m" << i << "\n";
  os << "end\n";
  return os.str();
}

std::string slow_request() {
  return "{\"op\":\"verify\",\"ilang\":\"" + obs::json_escape(slow_ilang()) +
         "\",\"order\":5,\"time_limit\":2,\"deterministic\":true}";
}

// A gadget over the 62-input limit gets one error frame naming the count and
// the limit, from the storeless and the store-backed pipelines alike.
TEST(Daemon, InputLimitIsAnErrorFrame) {
  std::string text = circuit::write_ilang_string(gadgets::by_name("dom-1"));
  const std::string narrow = "wire width 1 input 3 \\rnd";
  const std::size_t at = text.find(narrow);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, narrow.size(), "wire width 64 input 3 \\rnd");
  const std::string request = "{\"op\":\"verify\",\"ilang\":\"" +
                              obs::json_escape(text) + "\"}";

  TempDir dir;
  daemon::Server::Options stored = basic_options();
  stored.store_dir = dir.str();
  for (daemon::Server::Options options : {basic_options(), stored}) {
    SCOPED_TRACE(options.store_dir);
    TestServer ts(options);
    Client client(ts.server.socket_path());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send_line(request));
    json::ValuePtr error = client.read_until("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->get_string("frame"), "error");
    EXPECT_EQ(error->get_string("message"),
              "gadget has 69 primary inputs; at most 62 are supported "
              "(Walsh coefficients reach 2^inputs and must fit int64)");
  }
}

// The region limit is raised inside a scan worker's shard: the request gets
// one error frame, and the daemon and the connection keep serving.
TEST(Daemon, ScanWorkerErrorIsAnErrorFrame) {
  TempDir dir;
  daemon::Server::Options options = basic_options();
  options.store_dir = dir.str();
  TestServer ts(options);
  Client client(ts.server.socket_path());
  ASSERT_TRUE(client.ok());

  for (const char* jobs : {"1", "2"}) {
    SCOPED_TRACE(std::string("jobs ") + jobs);
    ASSERT_TRUE(client.send_line(
        "{\"op\":\"verify\",\"ilang\":\"" +
        obs::json_escape(circuit::write_ilang_string(test::wide_xor())) +
        "\",\"engine\":\"lil\",\"scan\":true,\"jobs\":" + jobs + "}"));
    json::ValuePtr error = client.read_until("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->get_string("frame"), "error");
    EXPECT_EQ(error->get_string("message"),
              "the forbidden region spans 42 share and public coordinates; "
              "the LIL/MAP scan engines enumerate at most 40 (use --engine "
              "direct)");
  }

  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  EXPECT_NE(client.read_until("pong"), nullptr);
  ASSERT_TRUE(client.send_line(
      "{\"op\":\"verify\",\"gadget\":\"keccak-2\",\"deterministic\":true}"));
  json::ValuePtr result = client.read_until("result");
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->get_string("frame"), "result");
  EXPECT_EQ(result->get_number("exit", -1), 0);
  EXPECT_EQ(result->get_string("report"),
            expected_cli_stdout(
                gadgets::by_name("keccak-2"), "keccak-2",
                daemon_default_options(gadgets::security_level("keccak-2"))));
}

TEST(Daemon, DedupedIdenticalJobsShareOneResult) {
  daemon::Server::Options options = basic_options();
  options.executors = 1;
  TestServer ts(std::move(options));

  Client blocker(ts.server.socket_path());
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(blocker.send_line(slow_request()));
  // Once the progress frame arrives the executor is committed to the slow
  // job, so everything submitted next sits in the queue.
  ASSERT_NE(blocker.read_until("progress"), nullptr);

  const std::string request =
      "{\"op\":\"verify\",\"gadget\":\"dom-1\",\"deterministic\":true}";
  Client first(ts.server.socket_path());
  Client second(ts.server.socket_path());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  ASSERT_TRUE(first.send_line(request));
  json::ValuePtr first_accepted = first.read_until("accepted");
  ASSERT_NE(first_accepted, nullptr);
  EXPECT_FALSE(first_accepted->get_bool("deduped", true));

  ASSERT_TRUE(second.send_line(request));
  json::ValuePtr second_accepted = second.read_until("accepted");
  ASSERT_NE(second_accepted, nullptr);
  EXPECT_TRUE(second_accepted->get_bool("deduped", false));
  EXPECT_EQ(second_accepted->get_string("key"),
            first_accepted->get_string("key"));

  json::ValuePtr slow = blocker.read_until("result");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->get_number("exit", -1), 2);  // timed out by design

  json::ValuePtr first_result = first.read_until("result");
  json::ValuePtr second_result = second.read_until("result");
  ASSERT_NE(first_result, nullptr);
  ASSERT_NE(second_result, nullptr);
  EXPECT_EQ(first_result->get_number("exit", -1), 0);
  EXPECT_EQ(first_result->get_string("report"),
            second_result->get_string("report"));
}

TEST(Daemon, FullAdmissionQueueRejectsWithErrorFrame) {
  daemon::Server::Options options = basic_options();
  options.executors = 1;
  options.queue_capacity = 1;
  TestServer ts(std::move(options));

  Client blocker(ts.server.socket_path());
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(blocker.send_line(slow_request()));
  ASSERT_NE(blocker.read_until("progress"), nullptr);

  // Fills the single queue slot behind the running job.
  Client queued(ts.server.socket_path());
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(queued.send_line(
      "{\"op\":\"verify\",\"gadget\":\"dom-1\",\"deterministic\":true}"));
  ASSERT_NE(queued.read_until("accepted"), nullptr);

  // A *distinct* job (different digest — dedupe must not save it) bounces.
  Client rejected(ts.server.socket_path());
  ASSERT_TRUE(rejected.ok());
  ASSERT_TRUE(rejected.send_line(
      "{\"op\":\"verify\",\"gadget\":\"ti-1\",\"deterministic\":true}"));
  json::ValuePtr error = rejected.read_until("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->get_string("message").find("admission queue full"),
            std::string::npos);

  // The queued job is still served once the blocker finishes.
  json::ValuePtr result = queued.read_until("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get_number("exit", -1), 0);
}

TEST(Daemon, ShutdownOpStopsServerAndUnlinksSocket) {
  daemon::Server server(basic_options());
  server.start();
  const std::string path = server.socket_path();

  Client client(path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send_line("{\"op\":\"shutdown\"}"));
  EXPECT_NE(client.read_until("shutdown"), nullptr);

  server.wait_for_stop();  // returns promptly: the op requested the stop
  server.stop();
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // socket unlinked
  EXPECT_FALSE(Client(path).ok());

  server.stop();  // idempotent
}

TEST(Protocol, JobDigestSeparatesReportShapingOptions) {
  daemon::VerifyRequest a;
  a.gadget_name = "dom-1";
  a.options = daemon_default_options(1);
  daemon::VerifyRequest b = a;

  const std::string key(64, 'a');
  EXPECT_EQ(daemon::job_digest(a, key), daemon::job_digest(b, key));

  // Same artifact, different rendering → different jobs.
  b.json_format = true;
  EXPECT_NE(daemon::job_digest(a, key), daemon::job_digest(b, key));
  b = a;
  b.options.jobs = 8;
  EXPECT_NE(daemon::job_digest(a, key), daemon::job_digest(b, key));
  b = a;
  b.options.time_limit = 1.5;
  EXPECT_NE(daemon::job_digest(a, key), daemon::job_digest(b, key));
  // Different artifact, same options → different jobs.
  EXPECT_NE(daemon::job_digest(a, key),
            daemon::job_digest(a, std::string(64, 'b')));
}

TEST(Protocol, ParseRequestAppliesCliDefaults) {
  daemon::Request req = daemon::parse_request(
      "{\"op\":\"verify\",\"gadget\":\"dom-1\"}");
  ASSERT_EQ(req.op, daemon::Op::kVerify);
  const verify::VerifyOptions& o = req.verify.options;
  EXPECT_EQ(o.notion, verify::Notion::kSNI);
  EXPECT_EQ(o.engine, verify::EngineKind::kAuto);
  EXPECT_EQ(o.order, 0);  // 0 = resolve from the gadget's design order
  EXPECT_TRUE(o.union_check);
  EXPECT_FALSE(o.probes.glitch_robust);
  EXPECT_EQ(o.jobs, 1);
  EXPECT_FALSE(req.verify.json_format);
  EXPECT_EQ(req.verify.priority, 0);
  EXPECT_FALSE(o.deterministic_report);
}

}  // namespace
}  // namespace sani
