// Tests of the checkpointable sharded scan (store/manifest.h, store/scan.h,
// verify/partial.h): SANIMAN/SANIPAR round-trips, manifest-key stability,
// claim/lease stealing, merge order- and engine-independence, and the
// end-to-end contract — plan + drain + finalize renders the same bytes as
// a single-shot `--deterministic-report` serial run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "gadgets/registry.h"
#include "sched/team.h"
#include "store/cached_verify.h"
#include "store/manifest.h"
#include "store/scan.h"
#include "store/serial.h"
#include "store/store.h"
#include "store/telemetry.h"
#include "util/mask.h"
#include "verify/engine.h"
#include "verify/partial.h"
#include "verify/report.h"
#include "verify/types.h"

namespace sani::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("sani_manifest_test_" + tag + "_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter++));
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

verify::VerifyOptions base_options(
    int order, verify::Notion notion = verify::Notion::kSNI) {
  verify::VerifyOptions opt;
  opt.notion = notion;
  opt.order = order;
  opt.deterministic_report = true;
  // Small registry gadgets would otherwise collapse to one or two shards
  // under the scan planner's amortization floor; the protocol tests below
  // need genuinely multi-shard plans.  shard_size is a first-class keyed
  // option, and the serial baseline carries the same value so the rendered
  // reports stay comparable byte for byte.
  opt.shard_size = 16;
  return opt;
}

/// The canonical single-shot baseline: serial verify, deterministic report.
std::string serial_report(const std::string& name, int order,
                          verify::Notion notion = verify::Notion::kSNI) {
  const circuit::Gadget g = gadgets::by_name(name);
  const verify::VerifyOptions opt = base_options(order, notion);
  const verify::VerifyResult r = verify::verify(g, opt);
  return verify::json_report(name, opt, r, 0.0);
}

/// Plan + drain (with `worker` calls) + finalize, rendered the same way.
std::string scan_report(const std::string& name, int order,
                        const std::string& store_dir,
                        const std::vector<WorkerOptions>& workers,
                        verify::Notion notion = verify::Notion::kSNI) {
  const circuit::Gadget g = gadgets::by_name(name);
  verify::VerifyOptions opt = base_options(order, notion);
  ArtifactStore::Options store_opt;
  store_opt.dir = store_dir;
  ArtifactStore store(store_opt);
  ScanDir scan = plan_scan(g, name, opt, store, 2);
  for (const WorkerOptions& w : workers) run_scan_worker(scan, &store, w);
  EXPECT_TRUE(scan.drained());
  const verify::VerifyResult r = finalize_scan(scan, &store);
  // Render under the manifest's canonical (engine-resolved) options —
  // exactly what `sani scan --finalize` prints.
  verify::VerifyOptions ropt = scan.manifest().options;
  ropt.deterministic_report = true;
  return verify::json_report(scan.manifest().label, ropt, r, 0.0);
}

ScanManifest tiny_manifest() {
  ScanManifest m;
  m.label = "dom-1";
  m.canonical_ilang = circuit::write_ilang_string(gadgets::by_name("dom-1"));
  m.basis_key = std::string(64, 'a');
  m.options = base_options(2);
  m.options.engine = verify::EngineKind::kMAPI;
  m.needs.spectra = true;
  m.num_observables = 7;
  m.base_coefficients = 123;
  m.build_seconds = 0.25;
  m.frozen_nodes = 42;
  m.frozen_bytes = 1000;
  m.shards = {{1, 0, 4}, {1, 4, 7}, {2, 0, 21}};
  return m;
}

TEST(Manifest, SerializationRoundTrip) {
  const ScanManifest m = tiny_manifest();
  const ScanManifest back = deserialize_manifest(serialize_manifest(m));
  EXPECT_EQ(back.label, m.label);
  EXPECT_EQ(back.canonical_ilang, m.canonical_ilang);
  EXPECT_EQ(back.basis_key, m.basis_key);
  EXPECT_EQ(back.options.notion, m.options.notion);
  EXPECT_EQ(back.options.order, m.options.order);
  EXPECT_EQ(back.options.engine, m.options.engine);
  EXPECT_EQ(back.needs.spectra, m.needs.spectra);
  EXPECT_EQ(back.needs.lil, m.needs.lil);
  EXPECT_EQ(back.num_observables, m.num_observables);
  EXPECT_EQ(back.base_coefficients, m.base_coefficients);
  EXPECT_EQ(back.frozen_nodes, m.frozen_nodes);
  EXPECT_EQ(back.frozen_bytes, m.frozen_bytes);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].k, m.shards[i].k);
    EXPECT_EQ(back.shards[i].begin, m.shards[i].begin);
    EXPECT_EQ(back.shards[i].end, m.shards[i].end);
  }
  EXPECT_EQ(back.total_combinations(), m.total_combinations());
}

TEST(Manifest, KeyIsStableAndOptionSensitive) {
  const ScanManifest m = tiny_manifest();
  const std::string key = manifest_key(m);
  EXPECT_EQ(key.size(), 64u);
  EXPECT_EQ(manifest_key(m), key);  // pure

  ScanManifest other = tiny_manifest();
  other.options.order = 3;
  EXPECT_NE(manifest_key(other), key);
  other = tiny_manifest();
  other.options.notion = verify::Notion::kNI;
  EXPECT_NE(manifest_key(other), key);
  other = tiny_manifest();
  other.basis_key = std::string(64, 'b');
  EXPECT_NE(manifest_key(other), key);
}

TEST(Manifest, PartialRoundTripWithFailureAndDeps) {
  verify::PartialReport p;
  p.k = 2;
  p.begin = 10;
  p.end = 20;
  p.covered_end = 16;
  p.complete = true;
  p.has_failure = true;
  p.fail_rank = 15;
  p.fail_alpha = Mask::bit(3);
  p.fail_reason = "leaks s0";
  p.combinations = 6;
  p.coefficients = 99;
  // Ranks 10..14 passed; 15 failed.
  p.deps = {Mask::bit(1), Mask::bit(1), Mask::bit(2) | Mask::bit(65),
            Mask::bit(1), Mask::bit(2) | Mask::bit(65)};

  const verify::PartialReport back = deserialize_partial(serialize_partial(p));
  EXPECT_EQ(back.k, p.k);
  EXPECT_EQ(back.begin, p.begin);
  EXPECT_EQ(back.end, p.end);
  EXPECT_EQ(back.covered_end, p.covered_end);
  EXPECT_TRUE(back.complete);
  EXPECT_TRUE(back.has_failure);
  EXPECT_EQ(back.fail_rank, p.fail_rank);
  EXPECT_EQ(back.fail_alpha, p.fail_alpha);
  EXPECT_EQ(back.fail_reason, p.fail_reason);
  EXPECT_EQ(back.combinations, p.combinations);
  EXPECT_EQ(back.coefficients, p.coefficients);
  EXPECT_EQ(back.deps, p.deps);
}

TEST(Manifest, PartialRejectsRangesOutsideItsShard) {
  verify::PartialReport p;
  p.k = 1;
  p.begin = 4;
  p.end = 8;
  p.covered_end = 6;
  p.complete = true;
  p.deps = {Mask::bit(0), Mask::bit(1)};
  EXPECT_NO_THROW(deserialize_partial(serialize_partial(p)));

  verify::PartialReport bad = p;
  bad.covered_end = 9;  // past the shard's end
  EXPECT_THROW(deserialize_partial(serialize_partial(bad)), SerializationError);
  bad = p;
  bad.covered_end = 5;  // two deps, one covered rank
  EXPECT_THROW(deserialize_partial(serialize_partial(bad)), SerializationError);
  bad = p;
  bad.has_failure = true;
  bad.fail_rank = 6;  // not a covered rank
  EXPECT_THROW(deserialize_partial(serialize_partial(bad)), SerializationError);
}

TEST(ScanDirTest, SwappedCheckpointFilesAreRejected) {
  TempDir tmp("swap");
  ScanDir scan = ScanDir::create(tmp.str() + "/scan", tiny_manifest());
  for (std::size_t i : {0, 1}) {
    const sched::Shard& shard = scan.manifest().shards[i];
    verify::PartialReport p;
    p.k = shard.k;
    p.begin = shard.begin;
    p.end = shard.end;
    p.covered_end = shard.end;
    p.complete = true;
    p.combinations = shard.size();
    p.deps.assign(shard.size(), Mask::bit(static_cast<int>(i)));
    ASSERT_TRUE(scan.write_checkpoint(i, p));
  }
  ASSERT_TRUE(scan.read_checkpoint(0).has_value());
  ASSERT_TRUE(scan.read_checkpoint(1).has_value());

  // Both files stay hash-valid SANIPAR images of this job; only the shard
  // identity inside tells them apart.
  const fs::path parts = fs::path(scan.dir()) / "parts";
  fs::rename(parts / "000000.part", parts / "tmp");
  fs::rename(parts / "000001.part", parts / "000000.part");
  fs::rename(parts / "tmp", parts / "000001.part");
  EXPECT_THROW(scan.read_checkpoint(0), SerializationError);
  EXPECT_THROW(scan.read_checkpoint(1), SerializationError);
}

TEST(Manifest, IncompletePartialRefusesToSerialize) {
  verify::PartialReport p;
  p.k = 1;
  p.begin = 0;
  p.end = 4;
  p.covered_end = 2;
  p.complete = false;  // interrupted mid-shard
  EXPECT_THROW(serialize_partial(p), SerializationError);
}

// Images from before one dependency mask per combination: SANIPAR v4 (a
// secret count, S masks per dictionary entry, rank deltas) and SANIMAN v3
// (a secret count).  There is no read path for them: the decoders refuse
// each with SerializationError, the typed error the scan readers report,
// never a crash.  (Re-planning never meets an old manifest: the version is
// part of the manifest key, so the job lands in a fresh directory.)
TEST(Manifest, OldFormatImagesAreRejectedWithATypedError) {
  TempDir tmp("old");
  ScanDir scan = ScanDir::create(tmp.str() + "/scan", tiny_manifest());

  // SANIPAR v4 of shard 0 (size 1, ranks [0, 4)): every rank passed, with
  // one mask per secret of two.
  ByteWriter w;
  w.str(scan.manifest().trace_id);
  w.i32(1);
  w.u64(0);
  w.u64(4);
  w.u64(4);
  w.u8(0);  // no failure
  w.u64(4);  // combinations
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.f64(0.0);
  w.f64(0.0);
  w.u32(2);  // secrets
  w.u64(4);  // dependencies
  w.u64(1);  // distinct mask vectors
  write_mask(w, Mask::bit(0));
  write_mask(w, Mask::bit(3));
  for (int i = 0; i < 4; ++i) {
    w.vu64(i == 0 ? 0 : 1);  // rank delta
    w.vu64(0);               // dictionary index
  }
  const std::string v4 = frame(kPartialMagic, 4, w.bytes());
  EXPECT_THROW(deserialize_partial(v4), SerializationError);
  std::ofstream(fs::path(scan.dir()) / "parts" / "000000.part",
                std::ios::binary)
      << v4;
  EXPECT_THROW(scan.read_checkpoint(0), SerializationError);

  // SANIMAN v3: the current payload plus the secret count after the
  // observable count (three length-prefixed strings, 26 option bytes, 4
  // needs flags, then the u64 count).
  const ScanManifest m = tiny_manifest();
  std::string payload = serialize_manifest(m).substr(52);
  const std::size_t at = 3 * 4 + m.label.size() + m.canonical_ilang.size() +
                         m.basis_key.size() + 26 + 4 + 8;
  ByteWriter secrets;
  secrets.u32(2);
  payload.insert(at, secrets.bytes());
  const std::string v3 = frame(kManifestMagic, 3, payload);
  EXPECT_THROW(deserialize_manifest(v3), SerializationError);
  const fs::path old_dir = fs::path(tmp.str()) / "old_scan";
  fs::create_directories(old_dir);
  std::ofstream(old_dir / "manifest", std::ios::binary) << v3;
  EXPECT_THROW(ScanDir::open(old_dir.string()), SerializationError);
}

// A SANIPAR v5 image whose mask-dictionary sequence (store/serial.h)
// claims more masks than its stream could hold: the reader refuses it
// before sizing anything by the claimed count.
TEST(Manifest, ImplausibleDependencyCountIsRejected) {
  ByteWriter w;
  w.str("");
  w.i32(1);
  w.u64(0);
  w.u64(4);
  w.u64(4);
  w.u8(0);  // no failure
  w.u64(4);  // combinations
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.f64(0.0);
  w.f64(0.0);
  w.u64(std::uint64_t{1} << 62);  // dependencies
  w.u64(1);                       // distinct masks
  write_mask(w, Mask::bit(0));
  for (int i = 0; i < 4; ++i) w.vu64(0);
  EXPECT_THROW(deserialize_partial(frame(kPartialMagic, kPartialFormatVersion,
                                         w.bytes())),
               SerializationError);
}

TEST(ScanDirTest, CreateIsIdempotentAndGuardsForeignManifest) {
  TempDir tmp("create");
  const ScanManifest m = tiny_manifest();
  ScanDir a = ScanDir::create(tmp.str() + "/scan", m);
  ScanDir b = ScanDir::create(tmp.str() + "/scan", m);  // reopen, no throw
  EXPECT_EQ(b.shard_count(), m.shards.size());

  ScanManifest other = tiny_manifest();
  other.options.order = 3;
  EXPECT_THROW(ScanDir::create(tmp.str() + "/scan", other),
               std::runtime_error);
}

TEST(ScanDirTest, ClaimLeaseStealAndRelease) {
  TempDir tmp("claims");
  ScanDir scan = ScanDir::create(tmp.str() + "/scan", tiny_manifest());

  // Claim everything with a long lease: three distinct shards, then dry.
  std::optional<ScanDir::Claim> c0 = scan.claim_next(3600.0);
  std::optional<ScanDir::Claim> c1 = scan.claim_next(3600.0);
  std::optional<ScanDir::Claim> c2 = scan.claim_next(3600.0);
  ASSERT_TRUE(c0 && c1 && c2);
  EXPECT_FALSE(c0->reclaimed || c1->reclaimed || c2->reclaimed);
  EXPECT_EQ(scan.claim_next(3600.0), std::nullopt);

  ScanDir::Status st = scan.status();
  EXPECT_EQ(st.claimed, 3u);
  EXPECT_EQ(st.planned, 0u);
  EXPECT_EQ(st.reclaims, 0u);

  // Lease 0 treats every outstanding claim as stale: the steal succeeds,
  // flags the claim as reclaimed and logs it.
  std::optional<ScanDir::Claim> stolen = scan.claim_next(0.0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->reclaimed);
  EXPECT_GE(scan.status().reclaims, 1u);

  // Releasing a claim returns the shard to the virgin pool.
  scan.release_claim(c1->index);
  std::optional<ScanDir::Claim> again = scan.claim_next(3600.0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->index, c1->index);
  EXPECT_FALSE(again->reclaimed);
}

TEST(ScanDirTest, LeaseZeroStealsAClaimStampedAheadOfTheClock) {
  // A fresh claim's mtime can read ahead of time(); lease 0 must still
  // treat it as stale.
  TempDir tmp("ahead");
  ScanDir scan = ScanDir::create(tmp.str() + "/scan", tiny_manifest());
  std::vector<std::size_t> held;
  while (std::optional<ScanDir::Claim> c = scan.claim_next(3600.0))
    held.push_back(c->index);
  ASSERT_EQ(held.size(), 3u);
  for (const auto& entry : fs::directory_iterator(tmp.str() + "/scan/claims"))
    fs::last_write_time(entry.path(), fs::file_time_type::clock::now() +
                                          std::chrono::seconds(5));
  std::optional<ScanDir::Claim> stolen = scan.claim_next(0.0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->reclaimed);
}

TEST(ScanDirTest, CheckpointMarksDoneAndSkipsClaim) {
  TempDir tmp("ckpt");
  ScanDir scan = ScanDir::create(tmp.str() + "/scan", tiny_manifest());
  std::optional<ScanDir::Claim> c = scan.claim_next(3600.0);
  ASSERT_TRUE(c.has_value());

  verify::PartialReport p;
  const sched::Shard& shard = scan.manifest().shards[c->index];
  p.k = shard.k;
  p.begin = shard.begin;
  p.end = shard.end;
  p.covered_end = shard.end;
  p.complete = true;
  p.combinations = shard.end - shard.begin;
  ASSERT_TRUE(scan.write_checkpoint(c->index, p));

  EXPECT_TRUE(scan.is_done(c->index));
  EXPECT_FALSE(scan.drained());
  const ScanDir::Status st = scan.status();
  EXPECT_EQ(st.done, 1u);
  EXPECT_EQ(st.claimed, 0u);  // write_checkpoint released the claim
  EXPECT_EQ(st.combinations_done, p.combinations);
  EXPECT_GT(st.checkpoint_bytes, 0u);

  std::optional<verify::PartialReport> back = scan.read_checkpoint(c->index);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->combinations, p.combinations);

  // A done shard is never claimed again, with any lease.
  for (int i = 0; i < 2; ++i) {
    std::optional<ScanDir::Claim> next = scan.claim_next(0.0);
    if (!next) break;
    EXPECT_NE(next->index, c->index);
  }
}

TEST(ScanE2E, DrainedScanMatchesSerialReportByteForByte) {
  // Secure and insecure gadgets alike: a drained scan checks every shard,
  // and finalize() reports the search order's canonical counters for an
  // insecure verdict — the same bytes as the plain run.
  struct Job {
    std::string name;
    int order;
    verify::Notion notion;
  };
  const std::vector<Job> jobs = {
      {"dom-1", 1, verify::Notion::kSNI},
      {"dom-2", 2, verify::Notion::kSNI},
      {"isw-1", 1, verify::Notion::kSNI},
      {"composition", 2, verify::Notion::kPINI},
      {"refresh-3", 2, verify::Notion::kSNI},
      {"dom-3", 3, verify::Notion::kPINI}};
  for (const Job& job : jobs) {
    TempDir tmp("e2e_" + job.name);
    WorkerOptions w;
    w.jobs = 2;
    EXPECT_EQ(scan_report(job.name, job.order, tmp.str(), {w}, job.notion),
              serial_report(job.name, job.order, job.notion))
        << job.name;
  }
}

TEST(ScanE2E, InMemoryFoldMatchesDiskFinalize) {
  // One-shot fast path: a worker given WorkerOptions::assembler folds each
  // checkpoint as it writes it, and finalize_scan renders from memory.
  // Contract: byte-identical to the disk read-back fold and to serial.
  const std::string name = "dom-2";
  const circuit::Gadget g = gadgets::by_name(name);
  const verify::VerifyOptions opt = base_options(2);
  TempDir tmp("fold");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);
  PlanOutcome plan;
  ScanDir scan = plan_scan(g, name, opt, store, 2, &plan);
  verify::ReportAssembler assembler(plan.basis, scan.manifest().options);
  WorkerOptions w;
  w.jobs = 2;
  w.basis = plan.basis;
  w.assembler = &assembler;
  const WorkerOutcome out = run_scan_worker(scan, &store, w);
  ASSERT_TRUE(out.drained);
  ASSERT_EQ(assembler.parts(), scan.shard_count());
  verify::VerifyOptions ropt = scan.manifest().options;
  ropt.deterministic_report = true;
  const std::string from_memory = verify::json_report(
      name, ropt, finalize_scan(scan, &store, plan.basis, &assembler), 0.0);
  const std::string from_disk =
      verify::json_report(name, ropt, finalize_scan(scan, &store), 0.0);
  EXPECT_EQ(from_memory, from_disk);
  EXPECT_EQ(from_memory, serial_report(name, 2));

  // A partially-filled assembler (this worker didn't write every shard)
  // must be ignored in favor of the disk fold, not rendered incomplete.
  TempDir tmp2("fold_partial");
  store_opt.dir = tmp2.str();
  ArtifactStore store2(store_opt);
  PlanOutcome plan2;
  ScanDir scan2 = plan_scan(g, name, opt, store2, 2, &plan2);
  verify::ReportAssembler partial(plan2.basis, scan2.manifest().options);
  WorkerOptions first;
  first.basis = plan2.basis;
  first.assembler = &partial;
  first.max_shards = 1;
  run_scan_worker(scan2, &store2, first);
  WorkerOptions rest;
  rest.basis = plan2.basis;
  run_scan_worker(scan2, &store2, rest);
  ASSERT_TRUE(scan2.drained());
  ASSERT_LT(partial.parts(), scan2.shard_count());
  EXPECT_EQ(verify::json_report(
                name, ropt,
                finalize_scan(scan2, &store2, plan2.basis, &partial), 0.0),
            from_disk);
}

TEST(ScanE2E, MixedEnginesAndInterruptionsFinalizeIdentically) {
  const std::string name = "dom-2";
  TempDir tmp("mixed");
  // Worker 1: MAPI, stops after 2 shards.  Worker 2: LIL, 1 shard.
  // Worker 3: MAP, drains the rest.  The finalized report must not know.
  WorkerOptions w1;
  w1.max_shards = 2;
  WorkerOptions w2;
  w2.engine = verify::EngineKind::kLIL;
  w2.max_shards = 1;
  WorkerOptions w3;
  w3.engine = verify::EngineKind::kMAP;
  EXPECT_EQ(scan_report(name, 2, tmp.str(), {w1, w2, w3}),
            serial_report(name, 2));
}

TEST(ScanE2E, InsecureGadgetVerdictAndWitnessMatchSerial) {
  // The drained scan checks *every* combination (serial stops at the first
  // failure), so stats differ by design — but the verdict and the
  // order-minimal witness are contract.
  const circuit::Gadget g = gadgets::by_name("composition");
  verify::VerifyOptions opt = base_options(2);
  opt.joint_share_count = true;
  const verify::VerifyResult serial = verify::verify(g, opt);
  ASSERT_FALSE(serial.secure);

  TempDir tmp("insecure");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);
  ScanDir scan = plan_scan(g, "composition", opt, store, 2);
  WorkerOptions w;
  w.jobs = 2;
  run_scan_worker(scan, &store, w);
  const verify::VerifyResult merged = finalize_scan(scan, &store);
  ASSERT_FALSE(merged.secure);
  ASSERT_TRUE(serial.counterexample && merged.counterexample);
  EXPECT_EQ(merged.counterexample->observables,
            serial.counterexample->observables);
  EXPECT_EQ(merged.counterexample->reason, serial.counterexample->reason);
}

// WorkerOptions::jobs 0 means what VerifyOptions::jobs 0 means: one
// claiming worker per hardware thread.
TEST(ScanE2E, ZeroJobsRunsOneWorkerPerHardwareThread) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  TempDir tmp("zero_jobs");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);
  ScanDir scan = plan_scan(g, "dom-2", base_options(2), store, 2);
  WorkerOptions w;
  w.jobs = 0;
  w.telemetry_interval_seconds = 0.0;
  const WorkerOutcome out = run_scan_worker(scan, &store, w);
  EXPECT_EQ(out.jobs, sched::hardware_threads());
  EXPECT_TRUE(out.drained);
  w.jobs = 1;
  EXPECT_EQ(run_scan_worker(scan, &store, w).jobs, 1);
}

// A scan names its witness after the planned gadget, even when the store
// holds the Basis a differently named twin saved, or holds nothing and the
// finalizer rebuilds from the canonical text.
TEST(ScanE2E, FinalizedWitnessNamesComeFromThePlannedGadget) {
  const circuit::Gadget g = gadgets::by_name("ti-1");
  const circuit::Gadget twin = circuit::with_renamed_wires(g, "twin_");
  verify::VerifyOptions opt = base_options(1, verify::Notion::kNI);
  const verify::VerifyResult cold = verify::verify(twin, opt);
  ASSERT_TRUE(cold.counterexample.has_value());

  TempDir tmp("planned_names");
  ArtifactStore store({tmp.str(), 0});
  verify_with_store(g, opt, store);  // the original text saves the Basis
  ScanDir scan = plan_scan(twin, "ti-1", opt, store, 2);
  WorkerOptions w;
  w.telemetry_interval_seconds = 0.0;
  run_scan_worker(scan, &store, w);
  for (ArtifactStore* from : {&store, static_cast<ArtifactStore*>(nullptr)}) {
    ScanDir reopened = ScanDir::open(scan.dir());
    const verify::VerifyResult r = finalize_scan(reopened, from);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(r.counterexample->observables, cold.counterexample->observables)
        << (from ? "stored Basis" : "rebuilt Basis");
  }
}

TEST(ScanE2E, FinalizeRefusesUndrainedManifest) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  const verify::VerifyOptions opt = base_options(2);
  TempDir tmp("undrained");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);
  ScanDir scan = plan_scan(g, "dom-2", opt, store, 2);
  WorkerOptions w;
  w.max_shards = 1;
  run_scan_worker(scan, &store, w);
  EXPECT_FALSE(scan.drained());
  EXPECT_THROW(finalize_scan(scan, &store), std::runtime_error);
}

TEST(ScanE2E, MergeIsCompletionOrderIndependent) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  const verify::VerifyOptions opt = base_options(2);
  TempDir tmp("orders");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);
  ScanDir scan = plan_scan(g, "dom-2", opt, store, 2);
  WorkerOptions w;
  run_scan_worker(scan, &store, w);
  ASSERT_TRUE(scan.drained());

  std::shared_ptr<const verify::Basis> basis;
  {
    // finalize_scan resolves its own basis; mirror it via the store key.
    basis = store.load_basis(scan.manifest().basis_key);
    ASSERT_TRUE(basis != nullptr);
  }
  const auto assemble = [&](bool forward) {
    verify::ReportAssembler asm_(basis, scan.manifest().options);
    asm_.set_basis_stats(
        scan.manifest().frozen_nodes, scan.manifest().frozen_bytes,
        scan.manifest().base_coefficients, scan.manifest().build_seconds);
    const std::size_t n = scan.shard_count();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = forward ? i : n - 1 - i;
      std::optional<verify::PartialReport> part = scan.read_checkpoint(idx);
      EXPECT_TRUE(part.has_value());
      asm_.add(std::move(*part));
    }
    verify::VerifyOptions ropt = scan.manifest().options;
    ropt.deterministic_report = true;
    return verify::json_report("dom-2", ropt, asm_.finalize(), 0.0);
  };
  EXPECT_EQ(assemble(true), assemble(false));
}

TEST(ScanE2E, ResumeAfterPartialRunIsSeamless) {
  // Simulates a crash/restart: first worker run checkpoints some shards
  // and stops; a second plan_scan of the same job reopens the directory
  // (resumed=true) and a fresh worker drains only the remainder.
  const circuit::Gadget g = gadgets::by_name("dom-2");
  const verify::VerifyOptions opt = base_options(2);
  TempDir tmp("resume");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);

  PlanOutcome first;
  ScanDir scan = plan_scan(g, "dom-2", opt, store, 2, &first);
  EXPECT_FALSE(first.resumed);
  WorkerOptions w;
  w.max_shards = 2;
  const WorkerOutcome before = run_scan_worker(scan, &store, w);
  EXPECT_EQ(before.shards_done, 2u);

  PlanOutcome second;
  ScanDir reopened = plan_scan(g, "dom-2", opt, store, 2, &second);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.key, first.key);
  EXPECT_EQ(reopened.status().done, 2u);

  WorkerOptions drain;
  const WorkerOutcome after = run_scan_worker(reopened, &store, drain);
  EXPECT_TRUE(after.drained);
  EXPECT_EQ(before.shards_done + after.shards_done, reopened.shard_count());

  verify::VerifyOptions ropt = reopened.manifest().options;
  ropt.deterministic_report = true;
  const verify::VerifyResult r = finalize_scan(reopened, &store);
  EXPECT_EQ(verify::json_report("dom-2", ropt, r, 0.0),
            serial_report("dom-2", 2));
}

// ---------------------------------------------------------------------------
// Trace ids and fleet telemetry (SANIMAN v2 / SANIPAR v3 additions)
// ---------------------------------------------------------------------------

TEST(Manifest, TraceIdRoundTripsAndIsExcludedFromKey) {
  ScanManifest m = tiny_manifest();
  const std::string key = manifest_key(m);
  m.trace_id = key.substr(0, 16);
  // The id is derived FROM the key, so it cannot feed the key's preimage.
  EXPECT_EQ(manifest_key(m), key);
  const ScanManifest back = deserialize_manifest(serialize_manifest(m));
  EXPECT_EQ(back.trace_id, m.trace_id);
}

TEST(Manifest, PlanMintsStableTraceId) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  const verify::VerifyOptions opt = base_options(1);
  TempDir tmp("traceid");
  ArtifactStore::Options store_opt;
  store_opt.dir = tmp.str();
  ArtifactStore store(store_opt);

  PlanOutcome plan;
  ScanDir scan = plan_scan(g, "dom-1", opt, store, 2, &plan);
  EXPECT_EQ(scan.manifest().trace_id.size(), 16u);
  EXPECT_EQ(scan.manifest().trace_id, plan.key.substr(0, 16));
  // Reopening the same job yields the same id: resumers, checkpoint files
  // and traces all agree on the job identity across restarts.
  ScanDir again = plan_scan(g, "dom-1", opt, store, 2);
  EXPECT_EQ(again.manifest().trace_id, scan.manifest().trace_id);
}

TEST(Manifest, PartialTraceIdMismatchThrows) {
  verify::PartialReport p;
  p.k = 1;
  p.begin = 0;
  p.end = 4;
  p.covered_end = 4;
  p.complete = true;
  p.combinations = 4;
  const std::string image = serialize_partial(p, "aaaabbbbccccdddd");
  EXPECT_NO_THROW(deserialize_partial(image));  // no expectation: tolerant
  EXPECT_NO_THROW(deserialize_partial(image, "aaaabbbbccccdddd"));
  EXPECT_THROW(deserialize_partial(image, "0000111122223333"),
               SerializationError);
}

TEST(ScanDirTest, StatusReportsClaimAges) {
  TempDir tmp("ages");
  ScanDir scan = ScanDir::create(tmp.str() + "/scan", tiny_manifest());
  std::optional<ScanDir::Claim> c0 = scan.claim_next(3600.0);
  std::optional<ScanDir::Claim> c1 = scan.claim_next(3600.0);
  ASSERT_TRUE(c0 && c1);
  const ScanDir::Status st = scan.status();
  ASSERT_EQ(st.claim_ages.size(), 2u);
  for (const ScanDir::ClaimAge& age : st.claim_ages) {
    EXPECT_TRUE(age.index == c0->index || age.index == c1->index);
    EXPECT_GE(age.age_seconds, 0.0);
    EXPECT_LT(age.age_seconds, 3600.0);
    EXPECT_LE(age.age_seconds, st.oldest_claim_age);
  }
  scan.release_claim(c0->index);
  scan.release_claim(c1->index);
  EXPECT_TRUE(scan.status().claim_ages.empty());
  EXPECT_DOUBLE_EQ(scan.status().oldest_claim_age, 0.0);
}

TEST(ScanE2E, TelemetryDoesNotPerturbDeterministicReport) {
  // Worker snapshots are pure observability: a scan drained with an
  // aggressive sampling interval renders byte-identical deterministic
  // reports to one with telemetry disabled.
  const circuit::Gadget g = gadgets::by_name("dom-2");
  const verify::VerifyOptions opt = base_options(2);
  std::string reports[2];
  for (int with_telemetry = 0; with_telemetry < 2; ++with_telemetry) {
    TempDir tmp(with_telemetry ? "telem_on" : "telem_off");
    ArtifactStore::Options store_opt;
    store_opt.dir = tmp.str();
    ArtifactStore store(store_opt);
    ScanDir scan = plan_scan(g, "dom-2", opt, store, 2);
    WorkerOptions w;
    w.telemetry_interval_seconds = with_telemetry ? 0.005 : 0.0;
    run_scan_worker(scan, &store, w);
    EXPECT_TRUE(scan.drained());
    if (with_telemetry) {
      const auto snaps = read_worker_snapshots(scan.dir());
      ASSERT_EQ(snaps.size(), 1u);
      EXPECT_EQ(snaps[0].trace_id, scan.manifest().trace_id);
      EXPECT_TRUE(scan.drained());
      EXPECT_GT(snaps[0].combinations, 0u);
    }
    verify::VerifyOptions ropt = scan.manifest().options;
    ropt.deterministic_report = true;
    const verify::VerifyResult r = finalize_scan(scan, &store);
    reports[with_telemetry] =
        verify::json_report("dom-2", ropt, r, 0.0);
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], serial_report("dom-2", 2));
}

}  // namespace
}  // namespace sani::store
