// Round-trip tests for the machine-readable outputs: verify::json_report
// must emit RFC 8259-conformant JSON even when gadget names, warnings or
// counterexample text contain quotes, backslashes or control characters.

#include <gtest/gtest.h>

#include <string>

#include "circuit/builder.h"
#include "gadgets/registry.h"
#include "util/json.h"
#include "verify/engine.h"
#include "verify/report.h"

namespace sani::verify {
namespace {

VerifyResult run(const char* gadget, int jobs = 1) {
  VerifyOptions opt;
  opt.order = gadgets::security_level(gadget);
  opt.engine = EngineKind::kMAPI;
  opt.jobs = jobs;
  return verify(gadgets::by_name(gadget), opt);
}

TEST(JsonReport, RoundTripsThroughAParser) {
  VerifyOptions opt;
  opt.order = 2;
  opt.engine = EngineKind::kMAPI;
  VerifyResult r = run("dom-2");
  const std::string doc = json_report("dom-2", opt, r, 0.25);
  auto v = json::parse(doc);
  EXPECT_EQ(v->at("gadget").str, "dom-2");
  EXPECT_EQ(v->at("notion").str, "SNI");
  EXPECT_DOUBLE_EQ(v->at("order").num, 2.0);
  EXPECT_EQ(v->at("engine").str, "MAPI");
  EXPECT_TRUE(v->at("secure").b);
  EXPECT_FALSE(v->at("timed_out").b);
  EXPECT_GT(v->at("combinations").num, 0.0);
  EXPECT_DOUBLE_EQ(v->at("seconds").num, 0.25);
  EXPECT_TRUE(v->at("counterexample").kind ==
              json::Value::Kind::kNull);
  EXPECT_TRUE(v->at("metrics").is_object());
  EXPECT_TRUE(v->at("metrics").has("verify.combinations"));
  EXPECT_TRUE(v->at("phases").is_object());
  EXPECT_TRUE(v->at("caches").at("region_cache").has("hits"));
  EXPECT_FALSE(v->at("caches").has("prefix_memo"));
}

TEST(JsonReport, EscapesHostileStringsEverywhere) {
  VerifyOptions opt;
  opt.order = 1;
  // A gadget "name" exercising every escape class: quote, backslash,
  // newline, tab, and a raw control byte.
  std::string name = "bad\"name\\with\nnew\tline";
  name += '\x01';
  VerifyResult r = run("dom-1");
  r.warnings.push_back("warning with \"quotes\" and \x02 control");
  const std::string doc = json_report(name, opt, r, 0.0);
  auto v = json::parse(doc);  // throws on raw control characters
  EXPECT_EQ(v->at("gadget").str, name);
  ASSERT_EQ(v->at("warnings").arr.size(), 1u);
  EXPECT_EQ(v->at("warnings").arr[0]->str,
            "warning with \"quotes\" and \x02 control");
}

// The ISW parenthesisation flaw (see flawed_test.cpp): the unblinded
// cross-pair wire makes the gadget 1-probing-insecure, with a witness.
circuit::Gadget leaky_gadget() {
  circuit::GadgetBuilder b("leaky");
  const auto a = b.secret("a", 2);
  const auto bb = b.secret("b", 2);
  const circuit::WireId r = b.random("r");
  const circuit::WireId p01 = b.and_(a[0], bb[1], "p01");
  const circuit::WireId p10 = b.and_(a[1], bb[0], "p10");
  const circuit::WireId cross = b.xor_(p01, p10, "cross");
  const circuit::WireId z10 = b.xor_(cross, r, "z10");
  const circuit::WireId c0 = b.xor_(b.and_(a[0], bb[0], "p00"), r);
  const circuit::WireId c1 = b.xor_(b.and_(a[1], bb[1], "p11"), z10);
  b.output_group("c", {c0, c1});
  return b.build();
}

TEST(JsonReport, CounterexampleSurvivesRoundTrip) {
  VerifyOptions opt;
  opt.notion = Notion::kProbing;
  opt.order = 1;
  opt.engine = EngineKind::kMAPI;
  VerifyResult r = verify(leaky_gadget(), opt);
  ASSERT_FALSE(r.secure);
  ASSERT_TRUE(r.counterexample.has_value());
  const std::string doc = json_report("leaky", opt, r, 0.0);
  auto v = json::parse(doc);
  const json::Value& ce = v->at("counterexample");
  ASSERT_TRUE(ce.is_object());
  EXPECT_FALSE(ce.at("observables").arr.empty());
  EXPECT_FALSE(ce.at("reason").str.empty());
}

TEST(JsonReport, ParallelRunEmitsWorkerArray) {
  VerifyOptions opt;
  opt.order = 2;
  opt.engine = EngineKind::kMAPI;
  opt.jobs = 2;
  VerifyResult r = run("dom-2", 2);
  const std::string doc = json_report("dom-2", opt, r, 0.1);
  auto v = json::parse(doc);
  EXPECT_DOUBLE_EQ(v->at("jobs").num, 2.0);
  const json::Value& p = v->at("parallel");
  EXPECT_TRUE(p.at("shared_basis").b);
  EXPECT_EQ(p.at("workers").arr.size(), 2u);
}

}  // namespace
}  // namespace sani::verify
