#pragma once
// The known-answer table: the expected verdict of every (gadget, notion,
// order) job the workloads submit.
//
// The table is the reference, never the engine under test.  Each entry was
// cross-checked when it was created (make_answers below): by the brute-force
// oracle where it runs, else by agreement of the LIL baseline engine with
// the default engine.  known_answers.tsv holds the committed table.

#include <compare>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "verify/types.h"

namespace perfbench {

struct Job {
  std::string gadget;  // registry name (gadgets::by_name)
  sani::verify::Notion notion = sani::verify::Notion::kSNI;
  int order = 1;

  auto operator<=>(const Job&) const = default;
};

/// "probing", "ni", "sni", "pini" (the sani CLI's --notion spelling).
const char* notion_flag(sani::verify::Notion n);
std::optional<sani::verify::Notion> parse_notion(const std::string& flag);

struct Answer {
  Job job;
  bool secure = true;
  /// How the entry was established: "oracle" (verify_bruteforce agreed),
  /// "lil" or "fujita" (that engine agreed with the default engine).
  std::string check;
};

class KnownAnswers {
 public:
  /// Reads a table written by write(); throws std::runtime_error on a
  /// missing file or a malformed line.
  static KnownAnswers load(const std::string& path);

  const Answer* find(const Job& job) const;
  const std::vector<Answer>& entries() const { return entries_; }

  void add(Answer a) { entries_.push_back(std::move(a)); }
  void write(std::ostream& os) const;

 private:
  std::vector<Answer> entries_;
};

/// Computes the table afresh: the default engine's verdict for each job,
/// cross-checked by the oracle when its cost estimate (combinations x
/// 2^inputs) is at most 4e9, else by LIL, or by FUJITA when LIL runs out of
/// time.  Throws std::runtime_error when a cross-check disagrees.
KnownAnswers make_answers(const std::vector<Job>& jobs, std::ostream& log);

/// The brute-force oracle's verdict for `job` (the gadget must have at most
/// 22 inputs).
bool oracle_verdict(const Job& job);

/// Default verification options for a job: a default-constructed
/// VerifyOptions with the job's notion and order, as `sani verify` runs it.
sani::verify::VerifyOptions job_options(const Job& job, int jobs = 1);

}  // namespace perfbench
