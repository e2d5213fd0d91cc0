// Command-line contract of the real `sani` binary (path injected as SANI_BIN
// by CMake): a resource limit is a one-line usage error with exit code 64,
// without the usage text, whether it is raised before unfolding or inside
// a scan worker.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "circuit/ilang.h"
#include "gadgets/registry.h"
#include "test_util.h"

namespace sani {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int exit_code = -1;
  std::string err;
};

/// Runs `SANI_BIN args` with stdout discarded; captures stderr.
CliRun run_sani(const std::string& args) {
  const std::string cmd =
      std::string(SANI_BIN) + " " + args + " 2>&1 1>/dev/null";
  CliRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) return run;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) run.err.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

/// A fresh per-process scratch directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sani_cli_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

TEST(Cli, InputLimitIsOneLineUsageError) {
  // dom-1 with its random widened to 64 bits: 69 primary inputs, inside the
  // 128-input unfolding limit but over the 62 the spectra allow.
  std::string text = circuit::write_ilang_string(gadgets::by_name("dom-1"));
  const std::string narrow = "wire width 1 input 3 \\rnd";
  const std::size_t at = text.find(narrow);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, narrow.size(), "wire width 64 input 3 \\rnd");

  const fs::path dir = fs::temp_directory_path() /
                       ("sani_cli_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path file = dir / "wide.ilang";
  std::ofstream(file) << text;

  const std::string want =
      "error: gadget has 69 primary inputs; at most 62 are supported "
      "(Walsh coefficients reach 2^inputs and must fit int64)\n";
  for (const std::string& args :
       {"verify --file " + file.string(),
        "verify --engine fujita --file " + file.string(),
        "scan --store " + (dir / "store").string() + " --file " +
            file.string()}) {
    SCOPED_TRACE(args);
    const CliRun run = run_sani(args);
    EXPECT_EQ(run.exit_code, 64);
    EXPECT_EQ(run.err, want);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Cli, RegionLimitIsOneLineUsageErrorInScanWorkers) {
  // The limit is raised inside a shard, on a worker thread: every --jobs
  // value must unwind to the one-line error, not abort the process.
  const ScratchDir dir("region");
  const fs::path file = dir.path / "wide_xor.il";
  std::ofstream(file) << circuit::write_ilang_string(test::wide_xor());

  const std::string want =
      "error: the forbidden region spans 42 share and public coordinates; "
      "the LIL/MAP scan engines enumerate at most 40 (use --engine direct)\n";
  const std::string store = (dir.path / "store").string();
  for (const char* jobs : {"1", "2"}) {
    SCOPED_TRACE(std::string("scan --jobs ") + jobs);
    const CliRun run =
        run_sani("scan --file " + file.string() +
                 " --order 1 --engine lil --store " + store + " --jobs " + jobs);
    EXPECT_EQ(run.exit_code, 64);
    // `scan` echoes its journal lines (planned, worker_start) on stderr; the
    // error is the one line after them, and no usage text follows.
    ASSERT_GE(run.err.size(), want.size());
    EXPECT_EQ(run.err.substr(run.err.size() - want.size()), want);
    EXPECT_EQ(run.err.find("error:"), run.err.size() - want.size());
    EXPECT_EQ(run.err.find("usage"), std::string::npos);
  }
  for (const char* args : {" --order 1 --engine map",
                           " --order 1 --engine lil --jobs 2"}) {
    SCOPED_TRACE(std::string("verify") + args);
    const CliRun run = run_sani("verify --file " + file.string() + args);
    EXPECT_EQ(run.exit_code, 64);
    EXPECT_EQ(run.err, want);
  }
}

TEST(Cli, VerifyTraceRecordsTheParseSpan) {
  // The tracer starts before the input is read, so a traced `verify
  // --file` run shows the ILANG parse next to the later phases.
  const ScratchDir dir("trace");
  const fs::path file = dir.path / "dom1.il";
  const fs::path trace = dir.path / "trace.json";
  std::ofstream(file) << circuit::write_ilang_string(gadgets::by_name("dom-1"));
  const CliRun run = run_sani("verify --file " + file.string() +
                              " --order 1 --trace " + trace.string());
  ASSERT_EQ(run.exit_code, 0) << run.err;
  std::ifstream in(trace);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"unfold\""), std::string::npos) << json;
}

}  // namespace
}  // namespace sani
