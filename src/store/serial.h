#pragma once
// Versioned, endianness-explicit binary serialization of prepared
// verification artifacts (dd::FrozenForest + verify::Basis).
//
// Layout (all multi-byte integers little-endian whatever the host's byte
// order, so the format is identical on any host):
//
//   [0..7]   magic "SANIBAS\x01"
//   [8..11]  u32 format version (kFormatVersion)
//   [12..43] SHA-256 of the payload (load-side integrity check: truncated
//            or bit-flipped files fail here and are quarantined, never
//            parsed into a wrong Basis)
//   [44..51] u64 payload length
//   [52..]   payload
//
// Payload sections, in order: needs flags, VarMap, observable metadata,
// base spectra (sorted by spectral coordinate, so identical Basis content
// serializes to identical bytes), frozen forest (var order, topo (level,
// lo, hi) node triples, leaf pool, named roots), per-observable frozen
// fn/spectrum root tables, base-coefficient count, original build cost.
//
// Version history.  v2 serializes the spectra straight from the flat
// container (same byte layout v1 used — sorted (mask, coeff) pairs) and
// adds the per-observable support mask to the observable metadata.
// v3 appends the cone index (verify::Basis::cones): the varmap
// fingerprint plus one cone digest per observable, feeding the
// incremental replay plan (verify/incremental.h).  v4 records
// each observable's canonical wire position (circuit::canonical_wire_order)
// instead of its name: the artifact key ignores names, so the names a
// report shows come from the request that loads the Basis, never from the
// text that saved it.  v5 (current) has v4's layout, but its cone digests
// hash the observables' functions (circuit::function_digests) where v3 and
// v4 hashed netlist structure; the two kinds must never be compared.  Only
// v5 is read or written: the store is a cache, so an older artifact fails
// the version check and is quarantined as a miss (the next run rebuilds
// it).
//
// The sorted-list (LIL) mirror is NOT serialized: it is a deterministic
// function of the spectra and is rebuilt on load when the needs flags say
// the engine wants it — smaller artifacts, one canonical encoding.
//
// Every decoding error throws SerializationError; the store catches it and
// treats the artifact as a clean miss (see store/store.h).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dd/freeze.h"
#include "util/mask.h"
#include "verify/basis.h"
#include "verify/incremental.h"

namespace sani::store {

inline constexpr std::uint32_t kFormatVersion = 5;
/// The artifact key's preimage version (store::artifact_key).  Bumped when
/// what a key names changes, not when only the encoding does: a v3 object
/// under a live key fails the version check and is quarantined as a miss.
inline constexpr std::uint32_t kArtifactKeyVersion = 3;
inline constexpr char kMagic[8] = {'S', 'A', 'N', 'I', 'B', 'A', 'S', '\x01'};

/// Cone-summary (verify::ConeSummary) format.  Same framing discipline as
/// the Basis artifact — own magic, own version counter, payload SHA-256 —
/// but an independent version line: summaries change shape when their
/// runs do, not when the Basis does.  Bump this on any ConeSummary layout
/// change; old-version summaries are rejected (a clean miss — the next run
/// is cold and writes a fresh one), never migrated.
///
/// v1–v5 recorded a run's outcome three times: per-size checked/passed
/// bitmaps, a (k, rank) failure list and the dependency masks as the
/// scan's per-shard DepTable runs (v4 added the union verdict and the mask
/// dictionary; v5 switched to function digests).  v6 (current) writes one
/// run section: per run (k i32, begin u64, count u64, failure flag u8,
/// alpha and reason when flagged, mask count u64: 0 or the run's passes),
/// then one mask-dictionary sequence over every run's masks in run order.
inline constexpr std::uint32_t kSummaryFormatVersion = 6;
inline constexpr char kSummaryMagic[8] = {'S', 'A', 'N', 'I',
                                          'S', 'U', 'M', '\x01'};

class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Little-endian byte sink with explicit per-type encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 unsigned varint (1 byte per 7 bits, low group first).  Used
  /// where the value distribution is overwhelmingly small — checkpoint
  /// rank deltas and dictionary indices — so the fixed-width tax would
  /// dominate the file.
  void vu64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  /// `n` masks as consecutive (lo, hi) u64 pairs, appended in one piece
  /// (a single copy on a little-endian host).
  void masks(const Mask* m, std::size_t n);
  /// Bytes another writer produced, verbatim.
  void append(std::string_view bytes) { out_.append(bytes); }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader over bytes it does not own; throws
/// SerializationError on any overrun or malformed field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : s_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(s_[pos_++]);
  }
  std::uint32_t u32();
  std::uint64_t u64();
  /// Inline one-byte fast path: dictionary indices and rank deltas are
  /// mostly below 128.
  std::uint64_t vu64() {
    if (pos_ < s_.size() && static_cast<std::uint8_t>(s_[pos_]) < 0x80)
      return static_cast<std::uint8_t>(s_[pos_++]);
    return vu64_long();
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  /// `n` masks written by ByteWriter::masks.
  std::vector<Mask> masks(std::uint64_t n);

  bool at_end() const { return pos_ == s_.size(); }
  std::size_t remaining() const { return s_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (n > s_.size() - pos_) truncated();
  }
  [[noreturn]] static void truncated();
  std::uint64_t vu64_long();

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// FrozenForest <-> bytes (section encoders shared by the Basis format and
/// the round-trip tests).
void write_forest(ByteWriter& w, const dd::FrozenForest& forest);
dd::FrozenForest read_forest(ByteReader& r);

/// Mask <-> bytes (shared with the scan-manifest/checkpoint formats in
/// store/manifest.h).
void write_mask(ByteWriter& w, const Mask& m);
Mask read_mask(ByteReader& r);

/// The mask-dictionary codec shared by the SANIPAR checkpoint and the
/// SANISUM summary formats.  A coded sequence is: u64 mask count, u64
/// distinct count, the distinct masks in first-use order (write_mask), then
/// one vu64 dictionary index per mask.  Dependency masks repeat massively
/// (V is the union of the combined observables' share supports, and
/// gadgets have few distinct supports), so each mask costs about a byte
/// instead of 16.  The encoder hashes each mask once, after checking the
/// previous mask's entry (consecutive masks overwhelmingly share one).
class MaskDictionaryWriter {
 public:
  /// Codes `n` more masks, continuing the sequence.
  void add(const Mask* masks, std::size_t n);
  /// Appends the coded sequence to `w`.
  void write(ByteWriter& w) const;

 private:
  std::vector<Mask> dict_;
  std::unordered_map<Mask, std::uint64_t, MaskHash> index_;
  ByteWriter indices_;
  std::uint64_t count_ = 0;
  std::uint64_t last_ = 0;
};

/// Decodes one MaskDictionaryWriter sequence in order, `take(n)` masks at a
/// time (a summary hands each dependency run its own slice).  An
/// implausible count or dictionary size, an index outside the dictionary,
/// or taking past the coded count throws SerializationError; `format`
/// prefixes the message ("checkpoint", "summary").
class MaskDictionaryReader {
 public:
  /// Reads the counts and the dictionary; the indices follow in `r`.
  MaskDictionaryReader(ByteReader& r, const char* format);
  /// Masks coded (and not yet taken).
  std::uint64_t remaining() const { return remaining_; }
  /// The next `n` masks of the sequence.
  std::vector<Mask> take(std::uint64_t n);

 private:
  [[noreturn]] void fail(const char* what) const;

  ByteReader& r_;
  const char* format_;
  std::vector<Mask> dict_;
  std::uint64_t remaining_ = 0;
};

/// Common file framing (magic + u32 version + payload SHA-256 + u64 length
/// + payload) shared by every store artifact format: SANIBAS, SANISUM and
/// the scan manifest/checkpoint files.  checked_payload_for validates and
/// returns the payload slice — a view into `file_image`, no copy — throwing
/// SerializationError on any mismatch (including any version other than
/// `version`).
std::string frame(const char (&magic)[8], std::uint32_t version,
                  const std::string& body);
std::string_view checked_payload_for(const std::string& file_image,
                                     const char (&magic)[8],
                                     std::uint32_t version);

/// Reads an element count and rejects one the rest of the stream cannot
/// hold at `min_bytes` per element (a hostile prefix never drives a huge
/// reserve).
std::uint64_t read_count(ByteReader& r, std::size_t min_bytes);

/// Full artifact file image (header + integrity hash + payload).
std::string serialize_basis(const verify::Basis& basis,
                            const verify::BasisNeeds& needs);

/// Parses an artifact file image.  Checks magic, version and payload hash;
/// throws SerializationError on any mismatch (the store quarantines).  The
/// returned Basis has its LIL mirror rebuilt when the stored needs flags
/// include it, and its observables named after `wire_names` (the request's
/// circuit::canonical_wire_names; a position past it is a
/// SerializationError).  Without names the observables stay unnamed.
std::shared_ptr<const verify::Basis> deserialize_basis(
    const std::string& file_image,
    const std::vector<std::string>* wire_names = nullptr);

/// The needs flags stored in `file_image` (for cache-compatibility checks)
/// without decoding the whole payload.
verify::BasisNeeds peek_needs(const std::string& file_image);

/// Full cone-summary file image (SANISUM header + integrity hash + payload).
std::string serialize_summary(const verify::ConeSummary& summary);

/// Parses a cone-summary file image.  Checks magic, version and payload
/// hash, and that the runs are nonempty, sorted and disjoint, have a size
/// in [1, order], lie inside the old rank space C(digests, k) and carry
/// either no masks or one per passing rank; throws SerializationError on
/// any mismatch (the store quarantines and reports a miss).
std::shared_ptr<const verify::ConeSummary> deserialize_summary(
    const std::string& file_image);

}  // namespace sani::store
