#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "util/sha256.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/partial.h"
#include "verify/portfolio.h"
#include "verify/report.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace circuit = sani::circuit;
namespace store = sani::store;
namespace verify = sani::verify;
using verify::Notion;

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kVerify: return "verify";
    case Kind::kWrite: return "write";
    case Kind::kRead: return "read";
    case Kind::kRename: return "rename";
    case Kind::kScan: return "scan";
  }
  return "?";
}

std::string describe(const Request& r) {
  return std::string(kind_name(r.kind)) + ' ' + r.job.gadget + ' ' +
         notion_flag(r.job.notion) + ' ' + std::to_string(r.job.order) +
         " jobs=" + std::to_string(r.jobs) + ' ' +
         sani::util::sha256_hex(r.ilang);
}

namespace {

constexpr Notion kNotions[] = {Notion::kProbing, Notion::kNI, Notion::kSNI,
                               Notion::kPINI};

/// The 16 registry gadgets that run without `--full` (keccak-3 and dom-4
/// are the long rows).
std::vector<std::string> sweep_gadgets() {
  std::vector<std::string> names;
  for (const std::string& n : sani::gadgets::all_names())
    if (n != "keccak-3" && n != "dom-4") names.push_back(n);
  return names;
}

const Job kDeepJob{"dom-4", Notion::kSNI, 3};
const std::vector<std::string> kResubmitGadgets{"keccak-2", "dom-3"};
const std::vector<Job> kShardedJobs{{"keccak-3", Notion::kSNI, 2},
                                    {"dom-4", Notion::kSNI, 3}};
constexpr int kWorkers = 2;
/// Edit steps per resubmit round (a round takes about 3 s on 4 vCPUs).
constexpr std::size_t kResubmitSteps = 10;

/// splitmix64: a small, fully specified generator, so a seed names the same
/// request sequence on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Rounds over `n` distinct requests, each round in its own order shuffled
/// from the seed; at(i) is the request index at loop position i.
class ShuffledRounds {
 public:
  void reset(std::uint64_t seed, std::size_t n) {
    rng_.emplace(seed);
    n_ = n;
    order_.clear();
  }
  std::size_t at(std::size_t i) {
    while (order_.size() <= i) {
      const std::size_t base = order_.size();
      for (std::size_t k = 0; k < n_; ++k) order_.push_back(k);
      for (std::size_t k = n_; k > 1; --k)
        std::swap(order_[base + k - 1], order_[base + rng_->below(k)]);
    }
    return order_[i];
  }

 private:
  std::optional<Rng> rng_;
  std::size_t n_ = 0;
  std::vector<std::size_t> order_;
};

std::string canonical_text(const std::string& gadget) {
  return circuit::write_ilang_string(sani::gadgets::by_name(gadget));
}

double elapsed_ms(std::int64_t start) { return (now_ns() - start) * 1e-6; }

/// Checks the verdict against the table; fills ok/error.
void judge(const Env& env, const Request& r, const verify::VerifyResult& res,
           Outcome& out) {
  const Answer* expected = env.answers->find(r.job);
  if (!expected) {
    out.error = "no known answer for " + describe(r);
  } else if (res.timed_out) {
    out.error = "timed out: " + describe(r);
  } else if (res.secure != expected->secure) {
    out.error = std::string("wrong verdict (") +
                (res.secure ? "secure" : "insecure") + "): " + describe(r);
  } else {
    out.ok = true;
  }
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Size of a store object (store/store.h layout: objects/ab/cdef...).
std::uint64_t object_bytes(const std::string& store_dir, const std::string& key) {
  std::error_code ec;
  const auto n = fs::file_size(
      fs::path(store_dir) / "objects" / key.substr(0, 2) / key.substr(2), ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// ---------------------------------------------------------------------------
// Cold verification: sweep and deep.

/// The unfolding verify::verify makes: under the portfolio (kAuto) the
/// manager is sized from the netlist, a forced engine keeps opt.cache_bits.
circuit::Unfolded unfold_as_verify(const circuit::Gadget& g,
                                   const verify::VerifyOptions& opt) {
  const int bits = opt.engine == verify::EngineKind::kAuto
                       ? verify::suggest_unfold_cache_bits(g, opt.cache_bits)
                       : opt.cache_bits;
  circuit::Unfolded unfolded = circuit::unfold(g, bits, opt.var_order);
  if (opt.sift_after_unfold) unfolded.manager->reorder_sift();
  return unfolded;
}

/// parse -> verify -> report.  Traced, the verification runs as the stages
/// verify::verify is made of, one call at a time, each in its own span.
Outcome run_verify(const Env& env, const Request& r, SpanLog* log,
                   std::uint32_t id) {
  Outcome out;
  verify::VerifyResult res;
  const std::int64_t start = now_ns();
  try {
    Scope request(log, "request", id);
    circuit::Gadget g;
    {
      Scope s(log, "circuit.parse", id);
      g = circuit::parse_ilang_string(r.ilang);
    }
    const verify::VerifyOptions opt = job_options(r.job, r.jobs);
    if (!log) {
      res = verify::verify(g, opt);
    } else {
      std::optional<circuit::Unfolded> unfolded;
      {
        Scope s(log, "circuit.unfold", id);
        unfolded.emplace(unfold_as_verify(g, opt));
      }
      std::optional<verify::ObservableSet> observables;
      {
        Scope s(log, "circuit.observables", id);
        observables.emplace(verify::build_observables(g, *unfolded, opt.probes));
      }
      std::shared_ptr<const verify::Basis> basis;
      {
        Scope s(log, "verify.basis", id);
        basis = verify::build_basis(*unfolded, *observables, opt.engine);
      }
      out.base_coefficients = basis->base_coefficients;
      {
        Scope s(log, "verify.scan", id);
        res = verify::verify_basis(std::move(basis), opt);
      }
    }
    Scope s(log, "verify.report", id);
    if (verify::json_report(r.job.gadget, opt, res, elapsed_ms(start) * 1e-3)
            .empty())
      out.error = "empty report";
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.ms = elapsed_ms(start);
  out.combinations = res.stats.combinations;
  out.stats = res.stats;
  if (out.error.empty()) judge(env, r, res, out);
  return out;
}

/// Diagram nodes of the request's unfolding, computed beside the request.
std::uint64_t unfold_nodes(const Request& r) {
  const circuit::Gadget g = circuit::parse_ilang_string(r.ilang);
  return circuit::unfolding_size(
      unfold_as_verify(g, job_options(r.job, r.jobs)));
}

class Sweep final : public Workload {
 public:
  Sweep(const Env& env, std::vector<std::string> gadgets)
      : env_(env), gadgets_(std::move(gadgets)) {}

  void setup(std::uint64_t seed) override {
    base_.clear();
    for (const std::string& name : gadgets_) {
      const std::string text = canonical_text(name);
      const int order = sani::gadgets::security_level(name);
      for (Notion n : kNotions)
        base_.push_back({Kind::kVerify, {name, n, order}, 1, text});
    }
    for (std::size_t i = 0; i < base_.size(); ++i) base_[i].id = i;
    rounds_.reset(seed, base_.size());
    nodes_.clear();
    // Warm-up: the first (gadget, notion) of the unshuffled list, so the
    // set-up cost does not depend on the seed.
    execute(base_.front(), nullptr, 0);
  }

  const Request& request(std::size_t i) override {
    return base_[rounds_.at(i)];
  }

  std::size_t round_size() const override { return base_.size(); }

  Outcome execute(const Request& r, SpanLog* log, std::uint32_t id) override {
    Outcome out = run_verify(env_, r, log, id);
    if (log) {
      auto [it, fresh] = nodes_.try_emplace(r.job.gadget, 0);
      if (fresh) it->second = unfold_nodes(r);
      out.unfold_nodes = it->second;
    }
    return out;
  }

 private:
  const Env& env_;
  std::vector<std::string> gadgets_;
  std::vector<Request> base_;  // every (gadget, notion) once
  ShuffledRounds rounds_;
  std::map<std::string, std::uint64_t> nodes_;
};

class Deep final : public Workload {
 public:
  Deep(const Env& env, Job job, int jobs) : env_(env) {
    request_.job = std::move(job);
    request_.jobs = jobs;
  }

  /// The same request throughout, which is also the warm-up.
  void setup(std::uint64_t) override {
    request_.ilang = canonical_text(request_.job.gadget);
    nodes_ = 0;
    const Outcome warm = execute(request_, nullptr, 0);
    if (!warm.ok) throw std::runtime_error("deep warm-up: " + warm.error);
  }

  const Request& request(std::size_t) override { return request_; }
  std::size_t round_size() const override { return 1; }

  Outcome execute(const Request& r, SpanLog* log, std::uint32_t id) override {
    Outcome out = run_verify(env_, r, log, id);
    if (log) {
      if (nodes_ == 0) nodes_ = unfold_nodes(r);
      out.unfold_nodes = nodes_;
    }
    return out;
  }

 private:
  const Env& env_;
  Request request_;
  std::uint64_t nodes_ = 0;
};

// ---------------------------------------------------------------------------
// resubmit: incremental re-verification through the artifact store.

/// Every net renamed, port groups included.  with_renamed_wires keeps the
/// annotated group names, which are all a canonical ILANG text names, so
/// the groups get the prefix too: the text (hence the artifact key) changes
/// while no cone does.
circuit::Gadget renamed_ports(const circuit::Gadget& g, std::size_t step) {
  const std::string prefix = "r" + std::to_string(step) + "_";
  circuit::Gadget out = circuit::with_renamed_wires(g, prefix);
  for (auto* groups : {&out.spec.secrets, &out.spec.outputs})
    for (circuit::ShareGroup& group : *groups) group.name = prefix + group.name;
  return out;
}

class Resubmit final : public Workload {
 public:
  Resubmit(const Env& env, std::vector<std::string> gadgets)
      : env_(env),
        gadgets_(std::move(gadgets)),
        dir_((fs::path(env.work_dir) / "resubmit-store").string()) {}
  ~Resubmit() override { fs::remove_all(dir_); }

  /// Builds the edit chain from the seed: kResubmitSteps steps, step s on
  /// gadget s % gadgets, each a seeded fan-in swap of that gadget's latest
  /// revision whose text the chain has not submitted yet.  Then starts the
  /// first round, whose store seeding is the warm-up.
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    std::unordered_set<std::size_t> seen;  // hashes of submitted texts
    std::vector<Family> families;
    seeds_.clear();
    for (const std::string& name : gadgets_) {
      Family f;
      f.job = {name, Notion::kSNI, sani::gadgets::security_level(name)};
      f.current = sani::gadgets::by_name(name);
      for (circuit::WireId w = 0; w < f.current.netlist.num_wires(); ++w) {
        const circuit::GateNode& node = f.current.netlist.node(w);
        if (node.arity() != 2 || node.fanin[0] == node.fanin[1]) continue;
        try {
          circuit::with_swapped_fanins(f.current, w);
          f.swappable.push_back(w);
        } catch (const std::invalid_argument&) {
        }
      }
      if (f.swappable.empty())
        throw std::runtime_error("resubmit: no swappable gate in " + name);
      const std::string text = circuit::write_ilang_string(f.current);
      seen.insert(std::hash<std::string>{}(text));
      seeds_.push_back({Kind::kWrite, f.job, 1, text});
      families.push_back(std::move(f));
    }
    chain_.clear();
    for (std::size_t step = 0; step < kResubmitSteps; ++step) {
      Family& f = families[step % families.size()];
      std::string text;
      for (int attempt = 0; attempt < 64; ++attempt) {
        circuit::Gadget next = circuit::with_swapped_fanins(
            f.current, f.swappable[rng.below(f.swappable.size())]);
        text = circuit::write_ilang_string(next);
        f.current = std::move(next);
        if (seen.insert(std::hash<std::string>{}(text)).second) break;
      }
      const std::string renamed =
          circuit::write_ilang_string(renamed_ports(f.current, step));
      chain_.push_back({Kind::kWrite, f.job, 1, text});
      chain_.push_back({Kind::kRead, f.job, 1, text});
      chain_.push_back({Kind::kRename, f.job, 1, renamed});
    }
    for (std::size_t i = 0; i < chain_.size(); ++i) chain_[i].id = i;
    begin_round();
  }

  /// A fresh store seeded with every gadget's unedited revision, so each
  /// request of the chain meets the same store state in every round.  The
  /// byte cap is twice the seeded store, so LRU eviction starts within the
  /// first steps.
  void begin_round() override {
    reset_dir(dir_);
    cap_ = 0;
    for (const Request& r : seeds_) {
      const Outcome o = execute(r, nullptr, 0);
      if (!o.ok) throw std::runtime_error("resubmit seeding: " + o.error);
    }
    cap_ = 2 * store::ArtifactStore({dir_, 0}).stats().total_bytes;
  }

  const Request& request(std::size_t i) override {
    return chain_[i % chain_.size()];
  }
  std::size_t round_size() const override { return chain_.size(); }

  Outcome execute(const Request& r, SpanLog* log, std::uint32_t id) override {
    Outcome out;
    verify::VerifyResult res;
    std::optional<store::ArtifactStore> artifacts;
    const std::int64_t start = now_ns();
    try {
      Scope request(log, "request", id);
      circuit::Gadget g;
      {
        Scope s(log, "circuit.parse", id);
        g = circuit::parse_ilang_string(r.ilang);
      }
      verify::VerifyOptions opt = job_options(r.job, r.jobs);
      opt.incremental = true;
      {
        // One store instance per request, as each `sani verify --store`
        // process opens it: a store never evicts keys its own instance
        // wrote, so the cap acts across requests.
        Scope s(log, "store.open", id);
        artifacts.emplace(store::ArtifactStore::Options{dir_, cap_});
      }
      {
        Scope s(log, "store.with_store", id);
        res = store::verify_with_store(g, opt, *artifacts, &out.store);
      }
      Scope s(log, "verify.report", id);
      if (verify::json_report(r.job.gadget, opt, res,
                              elapsed_ms(start) * 1e-3)
              .empty())
        out.error = "empty report";
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.ms = elapsed_ms(start);
    if (!artifacts) return out;
    out.combinations = res.stats.combinations;
    out.stats = res.stats;
    out.store_stats = artifacts->stats();
    if (out.error.empty()) judge(env_, r, res, out);
    if (!out.ok) return out;
    // Counters read beside the request, outside its timing.
    const circuit::Gadget g = circuit::parse_ilang_string(r.ilang);
    verify::VerifyOptions opt = job_options(r.job, r.jobs);
    opt.incremental = true;
    if (out.store.saved) out.bytes_written += object_bytes(dir_, out.store.key);
    if (out.store.summary_saved)
      out.bytes_written += object_bytes(
          dir_, store::summary_object_key(store::summary_family_key(g, opt),
                                          out.store.key));
    if (log) {
      const std::int64_t key_start = now_ns();
      store::artifact_key(g, opt);
      out.key_ms = elapsed_ms(key_start);
    }
    return out;
  }

 private:
  struct Family {
    Job job;
    circuit::Gadget current;  // latest revision
    std::vector<circuit::WireId> swappable;
  };

  const Env& env_;
  std::vector<std::string> gadgets_;
  std::string dir_;
  std::uint64_t cap_ = 0;
  std::vector<Request> seeds_;  // each gadget's unedited revision
  std::vector<Request> chain_;
};

// ---------------------------------------------------------------------------
// sharded: the manifest / claim / checkpoint / finalize path.

class Sharded final : public Workload {
 public:
  Sharded(const Env& env, std::vector<Job> jobs, int workers)
      : env_(env),
        jobs_(std::move(jobs)),
        workers_(workers),
        dir_((fs::path(env.work_dir) / "sharded").string()) {}
  ~Sharded() override { fs::remove_all(dir_); }

  /// Texts and one warm-up request.  The first set-up also computes the
  /// byte reference every finalized report must equal: the deterministic
  /// report of a plain serial verify::verify of each job.
  void setup(std::uint64_t seed) override {
    base_.clear();
    for (const Job& job : jobs_) {
      Request r{Kind::kScan, job, workers_, canonical_text(job.gadget)};
      if (!plain_.count(job)) {
        verify::VerifyOptions opt = job_options(job);
        opt.deterministic_report = true;
        plain_[job] = verify::json_report(
            job.gadget, opt,
            verify::verify(circuit::parse_ilang_string(r.ilang), opt), 0.0);
      }
      r.id = base_.size();
      base_.push_back(std::move(r));
    }
    rounds_.reset(seed, base_.size());
    reset_dir(dir_);
    const Outcome warm = execute(base_.front(), nullptr, 0);
    if (!warm.ok) throw std::runtime_error("sharded warm-up: " + warm.error);
  }

  const Request& request(std::size_t i) override {
    return base_[rounds_.at(i)];
  }

  std::size_t round_size() const override { return base_.size(); }

  /// Cold: every request plans into an empty store.  The store is removed
  /// after the request, outside its timing.
  Outcome execute(const Request& r, SpanLog* log, std::uint32_t id) override {
    const std::string store_dir =
        (fs::path(dir_) / ("s" + std::to_string(serial_++))).string();
    Outcome out;
    verify::VerifyResult res;
    std::optional<store::ScanDir> scan;
    std::string report;
    const std::int64_t start = now_ns();
    try {
      Scope request(log, "request", id);
      circuit::Gadget g;
      {
        Scope s(log, "circuit.parse", id);
        g = circuit::parse_ilang_string(r.ilang);
      }
      const verify::VerifyOptions opt = job_options(r.job, r.jobs);
      std::optional<store::ArtifactStore> artifacts;
      {
        Scope s(log, "store.open", id);
        artifacts.emplace(store::ArtifactStore::Options{store_dir, 0});
      }
      store::PlanOutcome plan;
      {
        Scope s(log, "scan.plan", id);
        scan.emplace(store::plan_scan(g, r.job.gadget, opt, *artifacts,
                                      r.jobs, &plan));
      }
      // The in-memory fold `sani scan` uses for a one-shot drain.
      std::optional<verify::ReportAssembler> assembler;
      {
        Scope s(log, "scan.worker", id);
        assembler.emplace(plan.basis, scan->manifest().options);
        store::WorkerOptions wo;
        wo.jobs = r.jobs;
        wo.basis = plan.basis;
        wo.assembler = &*assembler;
        out.worker = store::run_scan_worker(*scan, &*artifacts, wo);
      }
      {
        Scope s(log, "scan.finalize", id);
        res = store::finalize_scan(*scan, &*artifacts, plan.basis, &*assembler);
      }
      Scope s(log, "verify.report", id);
      verify::VerifyOptions ropt = scan->manifest().options;
      ropt.deterministic_report = true;
      report = verify::json_report(r.job.gadget, ropt, res,
                                   elapsed_ms(start) * 1e-3);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.ms = elapsed_ms(start);
    out.combinations = res.stats.combinations;
    out.stats = res.stats;
    if (scan) out.checkpoint_bytes = scan->status().checkpoint_bytes;
    fs::remove_all(store_dir);
    if (!out.error.empty()) return out;
    judge(env_, r, res, out);
    if (out.ok && !out.worker.drained) {
      out.ok = false;
      out.error = "scan not drained: " + describe(r);
    }
    if (out.ok && report != plain_.at(r.job)) {
      out.ok = false;
      out.error = "finalized report differs from the plain report: " +
                  describe(r);
    }
    return out;
  }

 private:
  const Env& env_;
  std::vector<Job> jobs_;
  int workers_;
  std::string dir_;
  std::vector<Request> base_;
  std::map<Job, std::string> plain_;
  ShuffledRounds rounds_;
  std::uint64_t serial_ = 0;
};

// ---------------------------------------------------------------------------
// Two request generators in one closed loop: a round is a round of `a`
// followed by a round of `b`; b's request ids follow a's.

class Mix final : public Workload {
 public:
  Mix(std::unique_ptr<Workload> a, std::unique_ptr<Workload> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  void setup(std::uint64_t seed) override {
    a_->setup(seed);
    b_->setup(seed);
  }

  const Request& request(std::size_t i) override {
    const std::size_t na = a_->round_size(), nb = b_->round_size();
    const std::size_t round = i / (na + nb), k = i % (na + nb);
    current_ = k < na ? a_->request(round * na + k)
                      : b_->request(round * nb + k - na);
    if (k >= na) current_.id += na;
    return current_;
  }

  std::size_t round_size() const override {
    return a_->round_size() + b_->round_size();
  }

  void begin_round() override {
    a_->begin_round();
    b_->begin_round();
  }

  Outcome execute(const Request& r, SpanLog* log, std::uint32_t id) override {
    return r.id < a_->round_size() ? a_->execute(r, log, id)
                                   : b_->execute(r, log, id);
  }

 private:
  std::unique_ptr<Workload> a_, b_;
  Request current_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Env& env,
                                     std::vector<std::string> gadgets) {
  return std::make_unique<Sweep>(env, std::move(gadgets));
}

std::unique_ptr<Workload> make_deep(const Env& env, Job job, int jobs) {
  return std::make_unique<Deep>(env, std::move(job), jobs);
}

std::unique_ptr<Workload> make_resubmit(const Env& env,
                                        std::vector<std::string> gadgets) {
  return std::make_unique<Resubmit>(env, std::move(gadgets));
}

std::unique_ptr<Workload> make_sharded(const Env& env, std::vector<Job> jobs,
                                       int workers) {
  return std::make_unique<Sharded>(env, std::move(jobs), workers);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env) {
  if (name == "cold")
    return std::make_unique<Mix>(make_sweep(env, sweep_gadgets()),
                                 make_deep(env, kDeepJob, kWorkers));
  if (name == "store")
    return std::make_unique<Mix>(make_resubmit(env, kResubmitGadgets),
                                 make_sharded(env, kShardedJobs, kWorkers));
  return nullptr;
}

std::vector<Job> all_jobs() {
  std::vector<Job> jobs;
  const auto add = [&jobs](const Job& j) {
    if (std::find(jobs.begin(), jobs.end(), j) == jobs.end()) jobs.push_back(j);
  };
  for (const std::string& name : sweep_gadgets())
    for (Notion n : kNotions)
      add({name, n, sani::gadgets::security_level(name)});
  add(kDeepJob);
  for (const std::string& name : kResubmitGadgets)
    add({name, Notion::kSNI, sani::gadgets::security_level(name)});
  for (const Job& j : kShardedJobs) add(j);
  return jobs;
}

}  // namespace perfbench
