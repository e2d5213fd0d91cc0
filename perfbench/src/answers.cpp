#include "answers.h"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "gadgets/registry.h"
#include "spans.h"
#include "util/combinations.h"
#include "verify/bruteforce.h"
#include "verify/engine.h"

namespace perfbench {

using sani::verify::Notion;

constexpr double kLilSeconds = 600.0;
/// Largest cost estimate (combinations x 2^inputs) the oracle is run for.
constexpr double kOracleBudget = 4e9;

const char* notion_flag(Notion n) {
  switch (n) {
    case Notion::kProbing: return "probing";
    case Notion::kNI: return "ni";
    case Notion::kSNI: return "sni";
    case Notion::kPINI: return "pini";
  }
  return "?";
}

std::optional<Notion> parse_notion(const std::string& flag) {
  for (Notion n : {Notion::kProbing, Notion::kNI, Notion::kSNI, Notion::kPINI})
    if (flag == notion_flag(n)) return n;
  return std::nullopt;
}

sani::verify::VerifyOptions job_options(const Job& job, int jobs) {
  sani::verify::VerifyOptions opt;
  opt.notion = job.notion;
  opt.order = job.order;
  opt.jobs = jobs;
  return opt;
}

KnownAnswers KnownAnswers::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read known answers " + path);
  KnownAnswers table;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string gadget, notion, verdict, check;
    int order = 0;
    fields >> gadget >> notion >> order >> verdict >> check;
    const std::optional<Notion> n = parse_notion(notion);
    if (!fields || !n || order < 1 || (verdict != "secure" &&
                                       verdict != "insecure"))
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed known answer");
    table.add({{gadget, *n, order}, verdict == "secure", check});
  }
  return table;
}

const Answer* KnownAnswers::find(const Job& job) const {
  for (const Answer& a : entries_)
    if (a.job == job) return &a;
  return nullptr;
}

void KnownAnswers::write(std::ostream& os) const {
  os << "# gadget\tnotion\torder\tverdict\tcheck\n";
  for (const Answer& a : entries_)
    os << a.job.gadget << '\t' << notion_flag(a.job.notion) << '\t'
       << a.job.order << '\t' << (a.secure ? "secure" : "insecure") << '\t'
       << a.check << '\n';
}

bool oracle_verdict(const Job& job) {
  return sani::verify::verify_bruteforce(sani::gadgets::by_name(job.gadget),
                                         job_options(job))
      .secure;
}

KnownAnswers make_answers(const std::vector<Job>& jobs, std::ostream& log) {
  using sani::verify::EngineKind;
  KnownAnswers table;
  for (const Job& job : jobs) {
    const sani::circuit::Gadget g = sani::gadgets::by_name(job.gadget);
    const sani::verify::VerifyResult under_test =
        sani::verify::verify(g, job_options(job));
    const int inputs = static_cast<int>(g.netlist.inputs().size());
    const double cost =
        static_cast<double>(sani::count_combinations_up_to(
            static_cast<int>(under_test.stats.num_observables), job.order)) *
        std::ldexp(1.0, inputs);

    Answer a{job, under_test.secure, ""};
    const std::int64_t start = now_ns();
    bool reference = false;
    if (inputs <= 22 && cost <= kOracleBudget) {
      reference = oracle_verdict(job);
      a.check = "oracle";
    } else {
      // LIL is the paper's baseline and shares no spectrum code with the
      // default engine, but on keccak-3 it runs for many minutes; past
      // `kLilSeconds` the per-combination Fujita transform (again a
      // different spectrum path) is the cross-check.
      for (EngineKind engine : {EngineKind::kLIL, EngineKind::kFUJITA}) {
        sani::verify::VerifyOptions opt = job_options(job);
        opt.engine = engine;
        opt.time_limit = engine == EngineKind::kLIL ? kLilSeconds : 0.0;
        const sani::verify::VerifyResult r = sani::verify::verify(g, opt);
        if (r.timed_out) continue;
        reference = r.secure;
        a.check = engine == EngineKind::kLIL ? "lil" : "fujita";
        break;
      }
    }
    log << job.gadget << ' ' << notion_flag(job.notion) << ' ' << job.order
        << ": " << (a.secure ? "secure" : "insecure") << " (" << a.check
        << " " << (now_ns() - start) * 1e-9 << " s, " << inputs << " inputs)"
        << std::endl;
    if (reference != a.secure)
      throw std::runtime_error("cross-check disagrees on " + job.gadget + " " +
                               notion_flag(job.notion));
    table.add(std::move(a));
  }
  return table;
}

}  // namespace perfbench
