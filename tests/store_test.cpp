// Tests of the content-addressed artifact store (src/store): binary
// serialization round-trips, hostile-input rejection, quarantine-as-miss
// semantics, LRU eviction, content-key stability and the end-to-end
// warm-start contract (warm verdict/witness/report == cold).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
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
#include "store/store.h"
#include "util/mask.h"
#include "util/sha256.h"
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
  return build_stored_basis(g, opt, verify::basis_needs(opt.engine));
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
    // Names are not stored: a load without the request's wire names leaves
    // them empty, and the position is what names them.
    EXPECT_TRUE(back->obs[i].name.empty());
    EXPECT_EQ(back->obs[i].position, basis.obs[i].position);
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

// Wraps `payload` in SANIBAS framing under format version `version`.
std::string reframe(const std::string& payload, std::uint32_t version) {
  ByteWriter file;
  for (char c : kMagic) file.u8(static_cast<std::uint8_t>(c));
  file.u32(version);
  util::Sha256 hash;
  hash.update(payload);
  std::uint8_t digest[32];
  hash.digest(digest);
  for (std::uint8_t b : digest) file.u8(b);
  file.u64(payload.size());
  return file.take() + payload;
}

// The v3 image minus its trailing cone-index section (added in v3): a
// populated section is flag(1) + varmap(32) + count(8) + count digests of
// 32 bytes; an empty one is the single zero flag byte.
std::string strip_cone_index(std::string payload, std::uint64_t count) {
  const std::size_t full_cones =
      1 + 32 + 8 + 32 * static_cast<std::size_t>(count);
  if (payload.size() >= full_cones &&
      payload[payload.size() - full_cones] == 1)
    payload.resize(payload.size() - full_cones);
  else
    payload.resize(payload.size() - 1);
  return payload;
}

// Walks `r` past the needs flags and the VarMap section to the observable
// count, mirroring the reader's field order.
void skip_to_observables(ByteReader& r) {
  r.u8();  // needs flags
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
}

// Rewrites a current file image as the v3 format: version field 3 and a
// name string per observable where v4 records its canonical wire position.
// Every other payload byte is identical.
std::string downgrade_image_to_v3(const std::string& image) {
  const std::string payload = image.substr(52);
  ByteReader r(payload);
  const auto pos = [&] { return payload.size() - r.remaining(); };
  skip_to_observables(r);
  std::string v3_payload = payload.substr(0, pos());
  ByteWriter obs;
  const std::uint64_t count = r.u64();
  obs.u64(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    obs.u8(r.u8());                               // kind
    obs.str("w" + std::to_string(r.u32()));       // name (v4: position)
    obs.i32(r.i32());                             // output_group
    obs.i32(r.i32());                             // output_share_index
    obs.u64(r.u64());                             // num_subsets
    obs.u64(r.u64());                             // support
    obs.u64(r.u64());
  }
  v3_payload += obs.bytes();
  v3_payload += payload.substr(pos());
  return reframe(v3_payload, 3);
}

// A current file image under the v4 header: v4 shares today's layout but
// its cone index holds structural digests, not function digests.
std::string downgrade_image_to_v4(const std::string& image) {
  return reframe(image.substr(52), 4);
}

// Rewrites a v3 file image as the v2 format: version field 2 and no
// trailing cone-index section.  Every other payload byte is identical.
std::string downgrade_image_to_v2(const std::string& v3_image,
                                  std::uint64_t num_observables) {
  return reframe(strip_cone_index(v3_image.substr(52), num_observables), 2);
}

// Rewrites a v2 file image as the v1 format the oldest release wrote:
// version field 1, observable metadata without the per-observable support
// masks (added in v2) and no trailing cone-index section (added in v3).
// Every other payload byte is identical — all versions share the spectra
// encoding — so this shim produces exactly what an old writer would.
std::string downgrade_image_to_v1(const std::string& v2_image) {
  const std::string payload = v2_image.substr(52);
  ByteReader r(payload);
  const auto pos = [&] { return payload.size() - r.remaining(); };
  skip_to_observables(r);

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
  v1_payload += strip_cone_index(payload.substr(pos()), count);
  return reframe(v1_payload, 1);
}

// The store is a cache: SANIBAS v1–v4 images (older writers) are not
// migrated.  They fail the version check like any other foreign image.
TEST(Serial, V1AndV2ArtifactsAreRejected) {
  const circuit::Gadget g = gadgets::by_name("dom-2");
  for (verify::EngineKind engine :
       {verify::EngineKind::kMAPI, verify::EngineKind::kFUJITA}) {
    verify::VerifyOptions opt;
    opt.engine = engine;
    std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
    const std::string current = serialize_basis(*basis, needs_of(engine));
    const std::string v4 = downgrade_image_to_v4(current);
    const std::string v3 = downgrade_image_to_v3(current);
    const std::string v2 = downgrade_image_to_v2(v3, basis->obs.size());
    const std::string v1 = downgrade_image_to_v1(v2);
    EXPECT_LT(v2.size(), v3.size());
    EXPECT_LT(v1.size(), v2.size());
    EXPECT_NO_THROW(deserialize_basis(current));
    EXPECT_THROW(deserialize_basis(v4), SerializationError)
        << verify::engine_name(engine);
    EXPECT_THROW(deserialize_basis(v3), SerializationError)
        << verify::engine_name(engine);
    EXPECT_THROW(deserialize_basis(v2), SerializationError)
        << verify::engine_name(engine);
    EXPECT_THROW(deserialize_basis(v1), SerializationError)
        << verify::engine_name(engine);
    EXPECT_THROW(peek_needs(v1), SerializationError);
  }
}

TEST(Store, V1AndV2ArtifactsLoadAsQuarantinedMisses) {
  const circuit::Gadget g = gadgets::by_name("dom-1");
  verify::VerifyOptions opt;
  opt.engine = verify::EngineKind::kMAPI;  // an image with a frozen forest
  std::shared_ptr<const verify::Basis> basis = build_basis_for(g, opt);
  const std::string current = serialize_basis(*basis, needs_of(opt.engine));
  const std::string v4 = downgrade_image_to_v4(current);
  const std::string v3 = downgrade_image_to_v3(current);
  const std::string v2 = downgrade_image_to_v2(v3, basis->obs.size());

  TempDir dir("old_versions");
  ArtifactStore store({dir.str(), 0});
  const std::string v1_key(64, 'b');
  const std::string v2_key(64, 'c');
  const std::string v3_key(64, 'd');
  const std::string v4_key(64, 'e');
  ASSERT_TRUE(store.put(v1_key, downgrade_image_to_v1(v2)));
  ASSERT_TRUE(store.put(v2_key, v2));
  ASSERT_TRUE(store.put(v3_key, v3));
  ASSERT_TRUE(store.put(v4_key, v4));
  EXPECT_EQ(store.load_basis(v1_key), nullptr);
  EXPECT_EQ(store.load_basis(v2_key), nullptr);
  EXPECT_EQ(store.load_basis(v3_key), nullptr);
  EXPECT_EQ(store.load_basis(v4_key), nullptr);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().quarantined, 4u);
  for (const std::string& key : {v1_key, v2_key, v3_key, v4_key})
    EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "quarantine" / key));
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

TEST(Store, IndexIsWrittenOncePerSessionByFlush) {
  TempDir dir("flush");
  const std::string payload(1000, 'p');
  const std::string k1(64, '1'), k2(64, '2'), k3(64, '3');
  const fs::path index = fs::path(dir.str()) / "index";
  auto read_index = [&] {
    std::ifstream in(index);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  {
    ArtifactStore store({dir.str(), 0});
    ASSERT_TRUE(store.put(k1, payload));
    ASSERT_TRUE(store.put(k2, payload));
    EXPECT_FALSE(fs::exists(index));  // not per put: on flush or close
  }
  const std::string closed = read_index();
  EXPECT_NE(closed.find(k1), std::string::npos);
  EXPECT_NE(closed.find(k2), std::string::npos);

  ArtifactStore reader({dir.str(), 0});
  EXPECT_TRUE(reader.get(k1).has_value());  // k1 is now more recent than k2
  EXPECT_EQ(read_index(), closed);
  reader.flush();
  EXPECT_NE(read_index(), closed);

  // A later instance sees the flushed recency: k2 is the LRU victim.
  ArtifactStore capped({dir.str(), 2500});
  ASSERT_TRUE(capped.put(k3, payload));
  EXPECT_TRUE(capped.contains(k1));
  EXPECT_FALSE(capped.contains(k2));
  EXPECT_TRUE(capped.contains(k3));
}

fs::path object_file(const TempDir& dir, const std::string& key) {
  return fs::path(dir.str()) / "objects" / key.substr(0, 2) / key.substr(2);
}

TEST(Store, VanishedObjectLeavesTheIndex) {
  // An indexed object deleted behind the store's back: the get is a miss,
  // and the entry goes with it — its bytes stop counting against the cap
  // and the next instance does not inherit it.
  TempDir dir("vanished");
  const std::string k1(64, '1'), k2(64, '2');
  ArtifactStore store({dir.str(), 0});
  ASSERT_TRUE(store.put(k1, std::string(1000, 'p')));
  ASSERT_TRUE(store.put(k2, std::string(500, 'q')));
  fs::remove(object_file(dir, k1));
  EXPECT_FALSE(store.get(k1).has_value());
  EXPECT_FALSE(store.contains(k1));
  EXPECT_EQ(store.stats().objects, 1u);
  EXPECT_EQ(store.stats().total_bytes, 500u);
  store.flush();
  ArtifactStore reopened({dir.str(), 0});
  EXPECT_FALSE(reopened.contains(k1));
  EXPECT_TRUE(reopened.contains(k2));
  EXPECT_EQ(reopened.stats().total_bytes, 500u);
}

TEST(Store, OpenReadsOnlyTheIndex) {
  // With a readable index the constructor touches no object; only a
  // missing index makes it walk the object directory, and that walk writes
  // the index back for the next open.
  TempDir dir("open");
  const std::string k1(64, 'a'), k2(64, 'b');
  {
    ArtifactStore store({dir.str(), 0});
    ASSERT_TRUE(store.put(k1, "hello"));
    ASSERT_TRUE(store.put(k2, "world"));
  }
  {
    ArtifactStore store({dir.str(), 0});
    EXPECT_EQ(store.stats().reconciles, 0u);
    EXPECT_EQ(store.stats().objects, 2u);
    EXPECT_EQ(store.stats().total_bytes, 10u);
  }
  fs::remove(fs::path(dir.str()) / "index");
  {
    ArtifactStore store({dir.str(), 0});
    EXPECT_EQ(store.stats().reconciles, 1u);
    EXPECT_EQ(store.stats().objects, 2u);
  }
  ArtifactStore store({dir.str(), 0});
  EXPECT_EQ(store.stats().reconciles, 0u);
  EXPECT_EQ(store.stats().objects, 2u);
  // An explicit reconcile walks whatever the index says.
  store.reconcile();
  EXPECT_EQ(store.stats().reconciles, 1u);
  EXPECT_EQ(store.stats().objects, 2u);
}

TEST(Store, GetAdoptsAnObjectAnotherInstanceWrote) {
  TempDir dir("adopt");
  const std::string key(64, 'c');
  ArtifactStore reader({dir.str(), 0});
  {
    ArtifactStore writer({dir.str(), 0});
    ASSERT_TRUE(writer.put(key, "hello"));
  }
  EXPECT_FALSE(reader.contains(key));  // opened before the write
  EXPECT_EQ(reader.get(key), "hello");
  EXPECT_TRUE(reader.contains(key));
  EXPECT_EQ(reader.stats().objects, 1u);
  EXPECT_EQ(reader.stats().total_bytes, 5u);
  // A key nobody wrote stays a plain miss.
  EXPECT_FALSE(reader.get(std::string(64, 'd')).has_value());
  EXPECT_EQ(reader.stats().objects, 1u);
}

TEST(Store, FlushKeepsEntriesAnotherInstanceAdded) {
  // Two instances share one directory (a daemon beside CLI runs): each
  // flush merges the index on disk, so neither drops the other's entries,
  // and a removal by one is not undone by the other.
  TempDir dir("merge");
  const std::string k1(64, '1'), k2(64, '2'), k3(64, '3'), k4(64, '4');
  {
    ArtifactStore seed({dir.str(), 0});
    ASSERT_TRUE(seed.put(k1, "garbage"));
    ASSERT_TRUE(seed.put(k2, "kept"));
  }
  ArtifactStore a({dir.str(), 0});
  ArtifactStore b({dir.str(), 0});
  ASSERT_TRUE(a.put(k3, "from a"));
  EXPECT_EQ(a.load_basis(k1), nullptr);  // quarantined: a removes k1
  ASSERT_TRUE(b.put(k4, "from b"));
  a.flush();
  b.flush();
  EXPECT_TRUE(b.contains(k3));   // learnt from a's index
  EXPECT_FALSE(b.contains(k1));  // a removed it; b never touched it
  ArtifactStore c({dir.str(), 0});
  EXPECT_EQ(c.stats().reconciles, 0u);
  EXPECT_FALSE(c.contains(k1));
  for (const std::string& key : {k2, k3, k4}) EXPECT_TRUE(c.contains(key));
  EXPECT_EQ(c.stats().objects, 3u);
  EXPECT_EQ(c.stats().total_bytes, 4u + 6u + 6u);
}

// A cone summary is read only through its family head, so moving the head
// deletes the summary it named: pinned by this instance or not, and before
// the LRU sweep weighs what is left.
TEST(Store, HeadMoveDeletesTheSupersededSummary) {
  TempDir dir("supersede");
  const std::string family(64, 'f');
  const std::string basis(64, 'b'), a(64, 'a'), b(64, 'c'), c(64, 'd');
  verify::ConeSummary summary;
  summary.order = 1;
  auto on_disk = [&](const std::string& key) {
    return fs::exists(fs::path(dir.str()) / "objects" / key.substr(0, 2) /
                      key.substr(2));
  };
  {
    ArtifactStore store({dir.str(), 0});
    ASSERT_TRUE(store.put(basis, std::string(1000, 'p')));
    ASSERT_TRUE(store.publish_summary(family, a, summary));
    EXPECT_EQ(store.family_head(family), a);
    // `a` is pinned by this instance and still goes.
    ASSERT_TRUE(store.publish_summary(family, b, summary));
    EXPECT_EQ(store.family_head(family), b);
    EXPECT_FALSE(store.contains(a));
    EXPECT_FALSE(on_disk(a));
    EXPECT_TRUE(store.contains(b));
    EXPECT_TRUE(store.contains(basis));
    // Republishing the head's own key deletes nothing.
    ASSERT_TRUE(store.publish_summary(family, b, summary));
    EXPECT_TRUE(store.contains(b));
    EXPECT_EQ(store.stats().evictions, 0u);
  }
  // A later instance, which never pinned `b`, deletes it the same way, and
  // before its sweep: capped at the basis plus one summary, it evicts
  // nothing, where a sweep first would have taken the older basis.
  const std::uint64_t cap = 1000 + serialize_summary(summary).size();
  ArtifactStore store({dir.str(), cap});
  ASSERT_TRUE(store.publish_summary(family, c, summary));
  EXPECT_FALSE(store.contains(b));
  EXPECT_FALSE(on_disk(b));
  EXPECT_TRUE(store.contains(c));
  EXPECT_TRUE(store.contains(basis));
  EXPECT_TRUE(on_disk(basis));
  EXPECT_EQ(store.stats().objects, 2u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(Store, LoadOfADeletedSummaryIsAPlainMiss) {
  TempDir dir("deleted");
  const std::string family(64, 'f');
  const std::string a(64, 'a'), b(64, 'c');
  verify::ConeSummary summary;
  summary.order = 1;
  ArtifactStore writer({dir.str(), 0});
  ASSERT_TRUE(writer.publish_summary(family, a, summary));
  // A second instance learns of `a` before the writer moves the head: its
  // read after the deletion loses the race and must be an ordinary miss.
  ArtifactStore reader({dir.str(), 0});
  ASSERT_TRUE(reader.contains(a));
  ASSERT_TRUE(writer.publish_summary(family, b, summary));
  EXPECT_EQ(reader.load_summary(a), nullptr);
  EXPECT_EQ(writer.load_summary(a), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().quarantined, 0u);
  EXPECT_EQ(writer.stats().quarantined, 0u);
  EXPECT_TRUE(fs::is_empty(fs::path(dir.str()) / "quarantine"));
  EXPECT_NE(ArtifactStore({dir.str(), 0}).load_summary(b), nullptr);
}

// Every net renamed, port groups included: the canonical text (hence the
// artifact key) changes while no cone does.
circuit::Gadget renamed_ports(const circuit::Gadget& g, int step) {
  const std::string prefix = "r" + std::to_string(step) + "_";
  circuit::Gadget out = circuit::with_renamed_wires(g, prefix);
  for (auto* groups : {&out.spec.secrets, &out.spec.outputs})
    for (circuit::ShareGroup& group : *groups) group.name = prefix + group.name;
  return out;
}

// Two gadget families edited in turn, two edits each, through a store
// capped at twice its seeded bytes, one store instance per request (as each
// `sani verify --store` process opens it), three requests per edit: the
// edited revision, the same text again, and a port-renamed copy.  Each edit
// swaps a fan-in and complements an XOR, which changes functions, so every
// write publishes a new head and supersedes the family's previous summary.
// A family's first summary of a turn is dead by the turn's end yet younger
// than the other family's live head; dead summaries must not crowd out the
// live heads: every edit seeds its scan from the family's previous summary.
TEST(Store, CappedAlternatingEditChainKeepsBothHeads) {
  TempDir dir("chain");
  struct Family {
    std::string name;
    circuit::Gadget current;
    std::vector<circuit::WireId> swappable;
    std::size_t edits = 0;
  };
  std::vector<Family> families;
  for (const std::string name : {"keccak-2", "dom-3"}) {
    Family f{name, gadgets::by_name(name), {}, 0};
    const circuit::Netlist& nl = f.current.netlist;
    for (circuit::WireId w = 0; w < nl.num_wires(); ++w) {
      const circuit::GateNode& node = nl.node(w);
      if (node.arity() != 2 || node.fanin[0] == node.fanin[1]) continue;
      try {
        circuit::with_swapped_fanins(f.current, w);
        f.swappable.push_back(w);
      } catch (const std::invalid_argument&) {
      }
    }
    ASSERT_GE(f.swappable.size(), 8u) << name;
    families.push_back(std::move(f));
  }
  auto options_for = [](const std::string& name) {
    verify::VerifyOptions opt;
    opt.notion = verify::Notion::kSNI;
    opt.order = gadgets::security_level(name);
    opt.incremental = true;
    return opt;
  };
  auto submit = [&](const circuit::Gadget& g, const std::string& name,
                    std::uint64_t cap) {
    ArtifactStore store({dir.str(), cap});
    StoreOutcome out;
    const verify::VerifyResult r =
        verify_with_store(g, options_for(name), store, &out);
    EXPECT_TRUE(r.secure) << name;
    return std::make_pair(out, r.stats.incremental.cones_reused);
  };

  for (const Family& f : families) submit(f.current, f.name, 0);
  const std::uint64_t cap =
      2 * ArtifactStore({dir.str(), 0}).stats().total_bytes;

  constexpr int kSteps = 10;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    Family& f =
        families[static_cast<std::size_t>(step / 2) % families.size()];
    // Swap a gate no earlier step of this family swapped, so every write
    // is a text the chain has not submitted; the complement toggles one
    // XOR, so consecutive revisions of a family differ in function.
    const std::optional<circuit::Gadget> next =
        circuit::with_xor_complemented(circuit::with_swapped_fanins(
            f.current, f.swappable[f.edits++]));
    ASSERT_TRUE(next.has_value());
    f.current = *next;
    const auto [write, write_reused] = submit(f.current, f.name, cap);
    EXPECT_FALSE(write.hit);
    EXPECT_TRUE(write.summary_hit);
    EXPECT_GT(write_reused, 0u);
    EXPECT_TRUE(write.summary_saved);
    const StoreOutcome read = submit(f.current, f.name, cap).first;
    EXPECT_TRUE(read.hit);
    EXPECT_TRUE(read.summary_hit);
    EXPECT_FALSE(read.summary_saved);
    const StoreOutcome renamed =
        submit(renamed_ports(f.current, step), f.name, cap).first;
    EXPECT_TRUE(renamed.summary_hit);
    EXPECT_FALSE(renamed.summary_saved);
  }

  ArtifactStore store({dir.str(), cap});
  for (const Family& f : families) {
    const auto head =
        store.family_head(summary_family_key(f.current, options_for(f.name)));
    ASSERT_TRUE(head.has_value()) << f.name;
    EXPECT_TRUE(store.contains(*head)) << f.name;
    EXPECT_NE(store.load_summary(*head), nullptr) << f.name;
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

// The artifact key ignores names, so a renamed twin of a stored text hits
// its Basis; the twin's report must still name the twin's wires.  Every
// registry gadget x notion: the store is seeded with the canonical text
// (positional names), the twin renames every wire and cell, and the hit's
// deterministic report must equal the twin's cold report byte for byte.
TEST(WarmStart, RenamedTwinReportsItsOwnNames) {
  TempDir dir("twin");
  ArtifactStore store({dir.str(), 0});
  int insecure = 0;
  for (const std::string& name : gadgets::all_names()) {
    const circuit::Gadget g = gadgets::by_name(name);
    const circuit::Gadget canonical =
        circuit::parse_ilang_string(circuit::write_ilang_string(g));
    const circuit::Gadget twin = circuit::with_renamed_wires(g, "twin_");
    for (verify::Notion notion :
         {verify::Notion::kProbing, verify::Notion::kNI, verify::Notion::kSNI,
          verify::Notion::kPINI}) {
      SCOPED_TRACE(name + " " + verify::notion_name(notion));
      verify::VerifyOptions opt;
      opt.notion = notion;
      opt.order = std::min(2, gadgets::security_level(name));
      opt.deterministic_report = true;
      StoreOutcome seeded, hit;
      verify_with_store(canonical, opt, store, &seeded);
      const verify::VerifyResult warm =
          verify_with_store(twin, opt, store, &hit);
      EXPECT_TRUE(hit.hit);
      EXPECT_EQ(hit.key, seeded.key);
      const verify::VerifyResult cold = verify::verify(twin, opt);
      EXPECT_EQ(verify::json_report(name, opt, warm, 0.0),
                verify::json_report(name, opt, cold, 0.0));
      if (cold.counterexample) ++insecure;
    }
  }
  EXPECT_GT(insecure, 0);  // some report names a witness at all
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
