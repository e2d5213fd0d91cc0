// Tests of the content-addressed artifact store (src/store): binary
// serialization round-trips, hostile-input rejection, quarantine-as-miss
// semantics, LRU eviction, content-key stability and the end-to-end
// warm-start contract (warm verdict/witness/report == cold).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/compose.h"
#include "gadgets/registry.h"
#include "spectral/spectrum.h"
#include "store/cached_verify.h"
#include "store/serial.h"
#include "store/sha256.h"
#include "store/store.h"
#include "util/mask.h"
#include "verify/backends/registry.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/report.h"

namespace sani::store {
namespace {

namespace fs = std::filesystem;

// A unique, self-cleaning store directory per test.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("sani_store_test_" + tag + "_" + std::to_string(::getpid()) +
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

// Deterministic assignment sampler (freeze_test's xorshift idiom).
std::vector<Mask> sample_masks(int num_vars, int count) {
  std::vector<Mask> out;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  out.push_back(Mask{});
  out.push_back(Mask::first_n(num_vars));
  for (int i = 2; i < count; ++i) {
    Mask m;
    for (int v = 0; v < num_vars; ++v)
      if (next() & 1) m.set(v);
    out.push_back(m);
  }
  return out;
}

std::string fingerprint(const verify::VerifyResult& r) {
  std::string fp = r.timed_out ? "timeout" : (r.secure ? "secure" : "insecure");
  if (r.counterexample) {
    fp += " |";
    for (const auto& o : r.counterexample->observables) fp += " " + o;
    fp += " | alpha=" + r.counterexample->alpha.to_string();
    fp += " | " + r.counterexample->reason;
  }
  return fp;
}

verify::BasisNeeds needs_of(verify::EngineKind engine) {
  const verify::BackendInfo& info = verify::backend_info(engine);
  verify::BasisNeeds needs;
  needs.spectra = info.needs_spectra;
  needs.lil = info.needs_lil;
  needs.frozen_fns = info.frozen_fns;
  needs.frozen_spectra = info.frozen_spectra;
  return needs;
}

// Builds a Basis the way the store's cold path does.
std::shared_ptr<const verify::Basis> build_basis_for(
    const circuit::Gadget& g, const verify::VerifyOptions& opt) {
  circuit::Unfolded u = circuit::unfold(g, opt.cache_bits, opt.var_order);
  if (opt.sift_after_unfold) u.manager->reorder_sift();
  verify::ObservableSet obs = verify::build_observables(g, u, opt.probes);
  return verify::build_basis(u, obs, opt.engine);
}

// Round-trips `basis` through bytes and checks that every externally
// observable piece of it survives: variable map, observable metadata,
// spectra (exact coefficient maps), frozen roots (eval-equality at sampled
// points) and the base-build accounting.
void expect_serial_round_trip(const std::string& label,
                              const verify::Basis& basis,
                              const verify::BasisNeeds& needs) {
  const std::string image = serialize_basis(basis, needs);
  // Canonical bytes: serializing identical content twice is bit-identical
  // (the artifact key space depends on it).
  EXPECT_EQ(image, serialize_basis(basis, needs)) << label;

  std::shared_ptr<const verify::Basis> back = deserialize_basis(image);
  ASSERT_NE(back, nullptr) << label;

  EXPECT_EQ(back->vars.wire_to_var, basis.vars.wire_to_var) << label;
  EXPECT_EQ(back->vars.var_to_wire, basis.vars.var_to_wire) << label;
  EXPECT_EQ(back->vars.num_vars, basis.vars.num_vars) << label;
  EXPECT_TRUE(back->vars.random_vars == basis.vars.random_vars) << label;
  EXPECT_TRUE(back->vars.public_vars == basis.vars.public_vars) << label;
  EXPECT_TRUE(back->vars.share_vars == basis.vars.share_vars) << label;
  ASSERT_EQ(back->vars.secret_vars.size(), basis.vars.secret_vars.size());
  EXPECT_EQ(back->vars.secret_share_var, basis.vars.secret_share_var);
  EXPECT_TRUE(back->relevant_publics == basis.relevant_publics) << label;
  EXPECT_EQ(back->num_outputs, basis.num_outputs) << label;
  EXPECT_EQ(back->base_coefficients, basis.base_coefficients) << label;

  ASSERT_EQ(back->obs.size(), basis.obs.size()) << label;
  for (std::size_t i = 0; i < basis.obs.size(); ++i) {
    EXPECT_EQ(back->obs[i].kind, basis.obs[i].kind);
    EXPECT_EQ(back->obs[i].name, basis.obs[i].name);
    EXPECT_EQ(back->obs[i].output_group, basis.obs[i].output_group);
    EXPECT_EQ(back->obs[i].output_share_index,
              basis.obs[i].output_share_index);
    EXPECT_EQ(back->obs[i].num_subsets, basis.obs[i].num_subsets);
    EXPECT_TRUE(back->obs[i].support == basis.obs[i].support)
        << label << " obs " << i;
  }

  ASSERT_EQ(back->flat.size(), basis.flat.size()) << label;
  for (std::size_t i = 0; i < basis.flat.size(); ++i) {
    ASSERT_EQ(back->flat[i].size(), basis.flat[i].size());
    for (std::size_t s = 0; s < basis.flat[i].size(); ++s) {
      EXPECT_TRUE(back->flat[i][s].is_canonical())
          << label << " obs " << i << " subset " << s;
      EXPECT_TRUE(back->flat[i][s] == basis.flat[i][s])
          << label << " obs " << i << " subset " << s;
    }
  }
  // The LIL mirror is rebuilt, not stored; it must still match.
  ASSERT_EQ(back->lil.size(), basis.lil.size()) << label;
  for (std::size_t i = 0; i < basis.lil.size(); ++i) {
    ASSERT_EQ(back->lil[i].size(), basis.lil[i].size());
    for (std::size_t s = 0; s < basis.lil[i].size(); ++s) {
      ASSERT_EQ(back->lil[i][s].nonzero_count(),
                basis.lil[i][s].nonzero_count());
      for (const auto& [alpha, v] : basis.lil[i][s].entries())
        EXPECT_EQ(back->lil[i][s].at(alpha), v);
    }
  }

  // Frozen forest: same shape, same functions (eval-equality at sampled
  // points on every root).
  ASSERT_EQ(back->frozen.roots.size(), basis.frozen.roots.size()) << label;
  EXPECT_EQ(back->frozen.var_order, basis.frozen.var_order) << label;
  EXPECT_EQ(back->frozen.root_names, basis.frozen.root_names) << label;
  EXPECT_EQ(back->frozen.node_count(), basis.frozen.node_count()) << label;
  EXPECT_EQ(back->frozen_fn_roots, basis.frozen_fn_roots) << label;
  EXPECT_EQ(back->frozen_spectrum_roots, basis.frozen_spectrum_roots)
      << label;
  if (!basis.frozen.empty()) {
    const std::vector<Mask> points = sample_masks(basis.vars.num_vars, 24);
    for (std::size_t r = 0; r < basis.frozen.roots.size(); ++r)
      for (const Mask& p : points)
        EXPECT_EQ(back->frozen.eval(r, p), basis.frozen.eval(r, p))
            << label << " root " << r << " at " << p.to_string();
  }
}

// ---------------------------------------------------------------------------
// Serialization round-trips
// ---------------------------------------------------------------------------

TEST(Serial, BasisRoundTripAllRegistryGadgets) {
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    for (verify::EngineKind engine :
         {verify::EngineKind::kMAPI, verify::EngineKind::kFUJITA,
          verify::EngineKind::kLIL}) {
      verify::VerifyOptions opt;
      opt.engine = engine;
      std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
      expect_serial_round_trip(
          name + "/" + verify::engine_name(engine), *basis, needs_of(engine));
    }
  }
}

TEST(Serial, BasisRoundTripSiftedOrderAndRobustModel) {
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    {
      verify::VerifyOptions opt;
      opt.engine = verify::EngineKind::kMAPI;
      opt.sift_after_unfold = true;
      opt.var_order = circuit::VarOrder::kRandomsFirst;
      std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
      expect_serial_round_trip(name + "/sifted", *basis,
                               needs_of(opt.engine));
    }
    {
      verify::VerifyOptions opt;
      opt.engine = verify::EngineKind::kMAPI;
      opt.probes.glitch_robust = true;
      std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
      expect_serial_round_trip(name + "/robust", *basis,
                               needs_of(opt.engine));
    }
  }
}

TEST(Serial, RejectsTamperedImages) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.engine = verify::EngineKind::kMAPI;  // an image with a frozen forest
  std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
  const std::string image = serialize_basis(*basis, needs_of(opt.engine));
  ASSERT_NE(deserialize_basis(image), nullptr);

  // Truncations at every interesting boundary, including mid-header.
  for (std::size_t len :
       {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{44},
        std::size_t{51}, image.size() / 2, image.size() - 1}) {
    EXPECT_THROW(deserialize_basis(image.substr(0, len)), SerializationError)
        << "len " << len;
  }
  // Wrong magic.
  {
    std::string bad = image;
    bad[0] = 'X';
    EXPECT_THROW(deserialize_basis(bad), SerializationError);
  }
  // Future format version (a downgrade-safety check: new writers never
  // crash old readers, they just miss).
  {
    std::string bad = image;
    bad[8] = static_cast<char>(bad[8] + 1);
    EXPECT_THROW(deserialize_basis(bad), SerializationError);
  }
  // Every single-byte corruption of the payload must be caught by the
  // integrity hash (sample a spread of offsets, not all of them).
  for (std::size_t off = 52; off < image.size();
       off += 1 + image.size() / 37) {
    std::string bad = image;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    EXPECT_THROW(deserialize_basis(bad), SerializationError)
        << "offset " << off;
  }
  // Trailing garbage is not tolerated either.
  EXPECT_THROW(deserialize_basis(image + "x"), SerializationError);
}

// Rewrites a current file image as the v1 format the oldest release wrote:
// version field 1, observable metadata without the per-observable support
// masks (added in v2) and no trailing cone-index section (added in v3).
// Every other payload byte is identical — all versions share the spectra
// encoding — so this shim produces exactly what an old writer would.
std::string downgrade_image_to_v1(const std::string& v2_image) {
  const std::string payload = v2_image.substr(52);
  ByteReader r(payload);
  const auto pos = [&] { return payload.size() - r.remaining(); };

  r.u8();  // needs flags
  // Walk (and keep) the VarMap section, mirroring the reader's field order.
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) r.i32();  // wire_to_var
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) r.u32();  // var_to_wire
  for (int m = 0; m < 3; ++m) {  // random/public/share masks
    r.u64();
    r.u64();
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {  // secret_vars
    r.u64();
    r.u64();
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i)  // secret_share_var
    for (std::uint64_t j = 0, m = r.u64(); j < m; ++j) r.i32();
  r.i32();  // num_vars
  r.u64();  // relevant_publics
  r.u64();

  std::string v1_payload = payload.substr(0, pos());

  // Re-encode the observable section dropping the v2-only support masks.
  ByteWriter obs;
  const std::uint64_t count = r.u64();
  obs.u64(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    obs.u8(r.u8());           // kind
    obs.str(r.str());         // name
    obs.i32(r.i32());         // output_group
    obs.i32(r.i32());         // output_share_index
    obs.u64(r.u64());         // num_subsets
    r.u64();                  // support (dropped)
    r.u64();
  }
  v1_payload += obs.bytes();
  std::string rest = payload.substr(pos());
  // Strip the v3 cone-index tail: a populated section is
  // flag(1) + varmap(32) + count(8) + count digests of 32 bytes; an empty
  // one is the single zero flag byte.
  const std::size_t full_cones =
      1 + 32 + 8 + 32 * static_cast<std::size_t>(count);
  if (rest.size() >= full_cones && rest[rest.size() - full_cones] == 1)
    rest.resize(rest.size() - full_cones);
  else
    rest.resize(rest.size() - 1);
  v1_payload += rest;

  ByteWriter file;
  for (char c : kMagic) file.u8(static_cast<std::uint8_t>(c));
  file.u32(1);
  Sha256 hash;
  hash.update(v1_payload);
  std::uint8_t digest[32];
  hash.digest(digest);
  for (std::uint8_t b : digest) file.u8(b);
  file.u64(v1_payload.size());
  return file.take() + v1_payload;
}

// Backward compatibility: a SANIBAS v1 artifact (previous release's writer)
// must load quarantine-free, with the support masks recomputed from the
// stored spectra.
TEST(Serial, V1ArtifactsStillDeserialize) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  for (verify::EngineKind engine :
       {verify::EngineKind::kMAPI, verify::EngineKind::kFUJITA}) {
    verify::VerifyOptions opt;
    opt.engine = engine;
    std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
    const std::string v2 = serialize_basis(*basis, needs_of(engine));
    const std::string v1 = downgrade_image_to_v1(v2);
    ASSERT_NE(v1, v2);
    EXPECT_LT(v1.size(), v2.size());

    std::shared_ptr<const verify::Basis> back = deserialize_basis(v1);
    ASSERT_NE(back, nullptr) << verify::engine_name(engine);
    ASSERT_EQ(back->obs.size(), basis->obs.size());
    ASSERT_EQ(back->flat.size(), basis->flat.size());
    for (std::size_t i = 0; i < basis->flat.size(); ++i) {
      ASSERT_EQ(back->flat[i].size(), basis->flat[i].size());
      for (std::size_t s = 0; s < basis->flat[i].size(); ++s)
        EXPECT_TRUE(back->flat[i][s] == basis->flat[i][s]);
    }
    for (std::size_t i = 0; i < basis->obs.size(); ++i) {
      if (needs_of(engine).spectra) {
        // Recomputed from the spectra — must match what the build recorded.
        EXPECT_TRUE(back->obs[i].support == basis->obs[i].support)
            << verify::engine_name(engine) << " obs " << i;
      } else {
        // Spectra-free artifacts have nothing to recompute from; the empty
        // mask is the documented degraded state (nothing reads it there).
        EXPECT_TRUE(back->obs[i].support == Mask{});
      }
    }
  }
}

TEST(Store, V1ArtifactsLoadQuarantineFree) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.engine = verify::EngineKind::kMAPI;  // an image with a frozen forest
  std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
  const std::string v1 =
      downgrade_image_to_v1(serialize_basis(*basis, needs_of(opt.engine)));

  TempDir dir("v1_compat");
  ArtifactStore store({dir.str(), 0});
  const std::string key(64, 'b');
  ASSERT_TRUE(store.put(key, v1));
  std::shared_ptr<const verify::Basis> back = store.load_basis(key);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().quarantined, 0u);
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / "quarantine" / key));
  ASSERT_EQ(back->flat.size(), basis->flat.size());
}

TEST(Serial, Sha256KnownAnswers) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// ---------------------------------------------------------------------------
// Store semantics
// ---------------------------------------------------------------------------

TEST(Store, CorruptTruncatedAndVersionBumpedObjectsAreCleanMisses) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.engine = verify::EngineKind::kMAPI;  // an image with a frozen forest
  std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
  const std::string image = serialize_basis(*basis, needs_of(opt.engine));

  const struct {
    const char* tag;
    std::string bytes;
  } cases[] = {
      {"truncated", image.substr(0, image.size() / 2)},
      {"bitflip", [&] {
         std::string b = image;
         b[b.size() / 2] = static_cast<char>(b[b.size() / 2] ^ 1);
         return b;
       }()},
      {"version", [&] {
         std::string b = image;
         b[8] = static_cast<char>(b[8] + 1);
         return b;
       }()},
      {"empty", std::string()},
      {"garbage", std::string(64, '\xff')},
  };
  for (const auto& c : cases) {
    TempDir dir(std::string("corrupt_") + c.tag);
    ArtifactStore store({dir.str(), 0});
    const std::string key(64, 'a');
    ASSERT_TRUE(store.put(key, c.bytes)) << c.tag;
    EXPECT_EQ(store.load_basis(key), nullptr) << c.tag;
    EXPECT_EQ(store.stats().hits, 0u) << c.tag;
    EXPECT_EQ(store.stats().misses, 1u) << c.tag;
    EXPECT_EQ(store.stats().quarantined, 1u) << c.tag;
    // Quarantined, not deleted; and no longer served.
    EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "quarantine" / key))
        << c.tag;
    EXPECT_FALSE(store.contains(key)) << c.tag;
    // The slot recovers: a good save turns the next load into a hit.
    ASSERT_TRUE(store.save_basis(key, *basis, needs_of(opt.engine)));
    EXPECT_NE(store.load_basis(key), nullptr) << c.tag;
    EXPECT_EQ(store.stats().hits, 1u) << c.tag;
  }
}

TEST(Store, LruEvictionKeepsRecentlyUsed) {
  TempDir dir("lru");
  const std::string payload(1000, 'p');
  const std::string k1(64, '1'), k2(64, '2'), k3(64, '3');
  {
    // Same-run keys are pinned (Store.PinnedKeysOutrankTheLru below), so
    // populate with one instance and reopen: the reopened store sees the
    // entries as ordinary LRU candidates.
    ArtifactStore store({dir.str(), 2500});  // room for two objects
    ASSERT_TRUE(store.put(k1, payload));
    ASSERT_TRUE(store.put(k2, payload));
    EXPECT_TRUE(store.contains(k1));
    EXPECT_TRUE(store.contains(k2));
    EXPECT_EQ(store.stats().evictions, 0u);
  }
  ArtifactStore store({dir.str(), 2500});
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_TRUE(store.get(k1).has_value());
  ASSERT_TRUE(store.put(k3, payload));
  EXPECT_TRUE(store.contains(k1));
  EXPECT_FALSE(store.contains(k2));
  EXPECT_TRUE(store.contains(k3));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_LE(store.stats().total_bytes, 2500u);

  // An oversized object still lands (the newest entry is never evicted).
  const std::string big(5000, 'b');
  const std::string k4(64, '4');
  ASSERT_TRUE(store.put(k4, big));
  EXPECT_TRUE(store.contains(k4));
  EXPECT_TRUE(store.get(k4).has_value());
}

TEST(Store, PinnedKeysOutrankTheLru) {
  // Eviction must never select a key this process wrote: a Basis put at
  // request start has to survive until the matching cone summary lands,
  // however small the cap.  (The regression this guards: a tiny cap used
  // to evict the Basis the moment the summary arrived.)
  TempDir dir("pin");
  const std::string payload(1000, 'p');
  const std::string k1(64, '1'), k2(64, '2'), k3(64, '3'), k4(64, '4');
  {
    ArtifactStore store({dir.str(), 1});  // cap below a single object
    ASSERT_TRUE(store.put(k1, payload));
    ASSERT_TRUE(store.put(k2, payload));
    ASSERT_TRUE(store.put(k3, payload));
    // All three keys are same-run: none may be evicted despite the cap.
    EXPECT_TRUE(store.contains(k1));
    EXPECT_TRUE(store.contains(k2));
    EXPECT_TRUE(store.contains(k3));
    EXPECT_EQ(store.stats().evictions, 0u);
    EXPECT_EQ(store.stats().objects, 3u);
    // Overwriting a pinned key keeps it pinned.
    ASSERT_TRUE(store.put(k1, payload + payload));
    EXPECT_TRUE(store.contains(k1));
    EXPECT_EQ(store.stats().evictions, 0u);
  }
  // Pins are process-local: a reopened store evicts the stale entries the
  // moment its own traffic lands.
  ArtifactStore store({dir.str(), 1});
  ASSERT_TRUE(store.put(k4, payload));
  EXPECT_TRUE(store.contains(k4));
  EXPECT_FALSE(store.contains(k1));
  EXPECT_FALSE(store.contains(k2));
  EXPECT_FALSE(store.contains(k3));
  EXPECT_EQ(store.stats().evictions, 3u);
}

TEST(Store, IndexSurvivesReopenAndAdoptsOrphans) {
  TempDir dir("reopen");
  const std::string k1(64, 'a'), k2(64, 'b');
  {
    ArtifactStore store({dir.str(), 0});
    ASSERT_TRUE(store.put(k1, "hello"));
    ASSERT_TRUE(store.put(k2, "world"));
  }
  {
    ArtifactStore store({dir.str(), 0});
    EXPECT_TRUE(store.contains(k1));
    EXPECT_TRUE(store.contains(k2));
    EXPECT_EQ(store.stats().objects, 2u);
    EXPECT_EQ(store.get(k1), "hello");
  }
  // Deleting the index degrades to adoption, not data loss.
  fs::remove(fs::path(dir.str()) / "index");
  {
    ArtifactStore store({dir.str(), 0});
    EXPECT_EQ(store.stats().objects, 2u);
    EXPECT_EQ(store.get(k2), "world");
  }
}

// ---------------------------------------------------------------------------
// Content keys
// ---------------------------------------------------------------------------

TEST(Key, StableThroughCanonicalWriterRoundTrip) {
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget back =
        circuit::parse_ilang_string(circuit::write_ilang_string(g));
    verify::VerifyOptions opt;
    EXPECT_EQ(artifact_key(g, opt), artifact_key(back, opt)) << name;
  }
}

TEST(Key, CanonicalWriterIsAFixedPointOnComposedGadgets) {
  // Instantiated compositions stress the writer with prefixed hierarchical
  // names ("f.p00"), freshened randomness and spliced output groups — the
  // exact inputs a build system resubmits.  write o parse o write must be
  // the identity on the written form, and the artifact key must ride on it.
  const struct {
    const char* tag;
    circuit::Gadget g;
  } cases[] = {
      {"chain-none", gadgets::mult_chain("dom-1", gadgets::RefreshPolicy::kNone)},
      {"chain-sni", gadgets::mult_chain("dom-1", gadgets::RefreshPolicy::kSni)},
      {"chain-simple",
       gadgets::mult_chain("isw-2", gadgets::RefreshPolicy::kSimple)},
      {"serial",
       gadgets::compose_serial(gadgets::by_name("dom-2"),
                               gadgets::by_name("dom-2"), 1,
                               gadgets::RefreshPolicy::kSni)},
  };
  for (const auto& c : cases) {
    const std::string s1 = circuit::write_ilang_string(c.g);
    const circuit::Gadget back = circuit::parse_ilang_string(s1);
    const std::string s2 = circuit::write_ilang_string(back);
    EXPECT_EQ(s1, s2) << c.tag;
    // A second round-trip is then automatically stable too.
    EXPECT_EQ(s2, circuit::write_ilang_string(circuit::parse_ilang_string(s2)))
        << c.tag;

    verify::VerifyOptions opt;
    EXPECT_EQ(artifact_key(c.g, opt), artifact_key(back, opt)) << c.tag;
    // Renaming every net is invisible to the canonical form, hence to the
    // key (label-independent content addressing).
    EXPECT_EQ(artifact_key(circuit::with_renamed_wires(c.g, "inst_"), opt),
              artifact_key(c.g, opt))
        << c.tag;
  }
}

TEST(Key, SensitiveToBasisShapingInputsOnly) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions base;
  const std::string k = artifact_key(g, base);
  EXPECT_EQ(k.size(), 64u);

  // Basis-shaping inputs re-key.
  {
    verify::VerifyOptions o = base;
    o.probes.glitch_robust = true;
    EXPECT_NE(artifact_key(g, o), k);
  }
  {
    verify::VerifyOptions o = base;
    o.notion = verify::Notion::kNI;
    EXPECT_NE(artifact_key(g, o), k);
  }
  {
    verify::VerifyOptions o = base;
    o.var_order = circuit::VarOrder::kRandomsFirst;
    EXPECT_NE(artifact_key(g, o), k);
  }
  {
    verify::VerifyOptions o = base;
    o.engine = verify::EngineKind::kLIL;  // different BasisNeeds
    EXPECT_NE(artifact_key(g, o), k);
  }
  // Basis-invariant run parameters share the artifact.
  {
    verify::VerifyOptions o = base;
    o.order = 5;
    o.jobs = 8;
    o.time_limit = 1.0;
    o.cache_bits = 20;
    EXPECT_EQ(artifact_key(g, o), k);
  }
  // A different gadget never collides.
  EXPECT_NE(artifact_key(gadgets::by_name("dom-2"), base), k);
}

// ---------------------------------------------------------------------------
// Warm start == cold start
// ---------------------------------------------------------------------------

TEST(WarmStart, VerdictWitnessAndReportMatchColdAllRegistryGadgets) {
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    for (verify::EngineKind engine :
         {verify::EngineKind::kMAPI, verify::EngineKind::kFUJITA}) {
      TempDir dir("warm");
      ArtifactStore store({dir.str(), 0});

      verify::VerifyOptions opt;
      opt.engine = engine;
      opt.order = std::min(2, gadgets::security_level(name));
      opt.deterministic_report = true;

      StoreOutcome cold, warm;
      const verify::VerifyResult r_cold =
          verify_with_store(g, opt, store, &cold);
      EXPECT_FALSE(cold.hit) << name;
      EXPECT_TRUE(cold.saved) << name;

      const verify::VerifyResult r_warm =
          verify_with_store(g, opt, store, &warm);
      EXPECT_TRUE(warm.hit) << name << "/" << verify::engine_name(engine);
      EXPECT_EQ(warm.key, cold.key);
      EXPECT_EQ(store.stats().hits, 1u);
      EXPECT_EQ(store.stats().misses, 1u);

      EXPECT_EQ(fingerprint(r_warm), fingerprint(r_cold)) << name;
      EXPECT_EQ(r_warm.stats.combinations, r_cold.stats.combinations);
      EXPECT_EQ(r_warm.stats.coefficients, r_cold.stats.coefficients);
      // Deterministic reports are byte-identical across the temperature
      // difference — the CI smoke test's core assertion, in-process.
      EXPECT_EQ(verify::summarize(name, opt, r_warm, 2.0),
                verify::summarize(name, opt, r_cold, 1.0))
          << name;
      EXPECT_EQ(verify::json_report(name, opt, r_warm, 2.0),
                verify::json_report(name, opt, r_cold, 1.0))
          << name;
    }
  }
}

TEST(WarmStart, ParallelWarmRunMatchesSerialCold) {
  TempDir dir("warm_par");
  ArtifactStore store({dir.str(), 0});
  const circuit::Gadget g = gadgets::by_name("dom-2");

  verify::VerifyOptions opt;
  opt.order = 2;
  StoreOutcome cold;
  const verify::VerifyResult r_cold = verify_with_store(g, opt, store, &cold);
  ASSERT_FALSE(cold.hit);

  opt.jobs = 4;
  opt.shard_size = 7;
  StoreOutcome warm;
  const verify::VerifyResult r_warm = verify_with_store(g, opt, store, &warm);
  EXPECT_TRUE(warm.hit);
  EXPECT_EQ(fingerprint(r_warm), fingerprint(r_cold));
  EXPECT_EQ(r_warm.stats.combinations, r_cold.stats.combinations);
  EXPECT_EQ(r_warm.stats.parallel.jobs, 4);
  EXPECT_EQ(r_warm.stats.parallel.replays, 0u);
}

TEST(WarmStart, InsecureGadgetWitnessSurvivesTheStore) {
  TempDir dir("warm_insecure");
  ArtifactStore store({dir.str(), 0});
  // dom-1 at SNI order 1 with joint share counting stays the classic
  // insecure fixture: the composition gadget is simpler — use it.
  const circuit::Gadget g = gadgets::by_name("composition");
  verify::VerifyOptions opt;
  opt.notion = verify::Notion::kSNI;
  opt.order = gadgets::security_level("composition");

  StoreOutcome cold, warm;
  const verify::VerifyResult r_cold = verify_with_store(g, opt, store, &cold);
  const verify::VerifyResult r_warm = verify_with_store(g, opt, store, &warm);
  ASSERT_TRUE(warm.hit);
  EXPECT_EQ(fingerprint(r_warm), fingerprint(r_cold));
  EXPECT_EQ(r_warm.secure, r_cold.secure);
  if (r_cold.counterexample) {
    ASSERT_TRUE(r_warm.counterexample.has_value());
    EXPECT_EQ(r_warm.counterexample->observables,
              r_cold.counterexample->observables);
    EXPECT_TRUE(r_warm.counterexample->alpha == r_cold.counterexample->alpha);
  }
}

}  // namespace
}  // namespace sani::store
