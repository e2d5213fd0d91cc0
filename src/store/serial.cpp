#include "store/serial.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "spectral/lil_spectrum.h"
#include "util/combinations.h"
#include "util/mask.h"
#include "util/sha256.h"

namespace sani::store {

// Payload section encoders ---------------------------------------------------

void write_mask(ByteWriter& w, const Mask& m) {
  w.u64(m.lo);
  w.u64(m.hi);
}

Mask read_mask(ByteReader& r) {
  Mask m;
  m.lo = r.u64();
  m.hi = r.u64();
  return m;
}

// A hostile or truncated length prefix must not drive a multi-gigabyte
// reserve before the bounds check catches it: every element of the claimed
// count occupies at least `min_bytes` in the stream, so a count exceeding
// what the stream can still hold is malformed by construction.
std::uint64_t read_count(ByteReader& r, std::size_t min_bytes) {
  const std::uint64_t n = r.u64();
  if (min_bytes > 0 && n > r.remaining() / min_bytes)
    throw SerializationError("artifact: element count exceeds stream size");
  return n;
}

namespace {

void write_var_map(ByteWriter& w, const circuit::VarMap& vars) {
  w.u64(vars.wire_to_var.size());
  for (int v : vars.wire_to_var) w.i32(v);
  w.u64(vars.var_to_wire.size());
  for (circuit::WireId id : vars.var_to_wire) w.u32(id);
  write_mask(w, vars.random_vars);
  write_mask(w, vars.public_vars);
  write_mask(w, vars.share_vars);
  w.u64(vars.secret_vars.size());
  for (const Mask& m : vars.secret_vars) write_mask(w, m);
  w.u64(vars.secret_share_var.size());
  for (const auto& group : vars.secret_share_var) {
    w.u64(group.size());
    for (int v : group) w.i32(v);
  }
  w.i32(vars.num_vars);
}

circuit::VarMap read_var_map(ByteReader& r) {
  circuit::VarMap vars;
  vars.wire_to_var.resize(read_count(r, 4));
  for (int& v : vars.wire_to_var) v = r.i32();
  vars.var_to_wire.resize(read_count(r, 4));
  for (circuit::WireId& id : vars.var_to_wire) id = r.u32();
  vars.random_vars = read_mask(r);
  vars.public_vars = read_mask(r);
  vars.share_vars = read_mask(r);
  vars.secret_vars.resize(read_count(r, 16));
  for (Mask& m : vars.secret_vars) m = read_mask(r);
  vars.secret_share_var.resize(read_count(r, 8));
  for (auto& group : vars.secret_share_var) {
    group.resize(read_count(r, 4));
    for (int& v : group) v = r.i32();
  }
  vars.num_vars = r.i32();
  return vars;
}

void write_spectrum(ByteWriter& w, const spectral::FlatSpectrum& s) {
  // The flat container is already sorted by spectral coordinate, which is
  // exactly the canonical v1 encoding — v2 keeps the section byte-identical.
  w.i32(s.num_vars());
  w.u64(s.nonzero_count());
  for (std::size_t i = 0; i < s.nonzero_count(); ++i) {
    write_mask(w, s.masks()[i]);
    w.i64(s.coeffs()[i]);
  }
}

spectral::FlatSpectrum read_spectrum(ByteReader& r) {
  const int num_vars = r.i32();
  if (num_vars < 0 || num_vars > Mask::kMaxBits)
    throw SerializationError("artifact: spectrum variable count out of range");
  const std::uint64_t count = read_count(r, 24);
  std::vector<Mask> masks;
  std::vector<std::int64_t> coeffs;
  masks.reserve(count);
  coeffs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    masks.push_back(read_mask(r));
    coeffs.push_back(r.i64());
  }
  try {
    // Canonical-form validation (sorted, unique, nonzero) happens in the
    // container itself, so a decoded artifact is safe for the merge kernels.
    return spectral::FlatSpectrum::from_sorted(num_vars, std::move(masks),
                                               std::move(coeffs));
  } catch (const std::invalid_argument& e) {
    throw SerializationError(std::string("artifact: ") + e.what());
  }
}

void write_digest(ByteWriter& w, const circuit::ConeDigest& d) {
  for (std::uint8_t b : d.bytes) w.u8(b);
}

circuit::ConeDigest read_digest(ByteReader& r) {
  circuit::ConeDigest d;
  for (std::uint8_t& b : d.bytes) b = r.u8();
  return d;
}

void write_observable_info(ByteWriter& w, const verify::ObservableInfo& o) {
  w.u8(static_cast<std::uint8_t>(o.kind));
  w.u32(o.position);
  w.i32(o.output_group);
  w.i32(o.output_share_index);
  w.u64(o.num_subsets);
  write_mask(w, o.support);
}

verify::ObservableInfo read_observable_info(ByteReader& r) {
  verify::ObservableInfo o;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(verify::Observable::Kind::kProbe))
    throw SerializationError("artifact: bad observable kind");
  o.kind = static_cast<verify::Observable::Kind>(kind);
  o.position = r.u32();
  o.output_group = r.i32();
  o.output_share_index = r.i32();
  o.num_subsets = r.u64();
  o.support = read_mask(r);
  return o;
}

void write_root_table(ByteWriter& w,
                      const std::vector<std::vector<std::size_t>>& table) {
  w.u64(table.size());
  for (const auto& row : table) {
    w.u64(row.size());
    for (std::size_t root : row) w.u64(root);
  }
}

std::vector<std::vector<std::size_t>> read_root_table(ByteReader& r) {
  std::vector<std::vector<std::size_t>> table(read_count(r, 8));
  for (auto& row : table) {
    row.resize(read_count(r, 8));
    for (std::size_t& root : row) root = r.u64();
  }
  return table;
}

std::uint8_t pack_needs(const verify::BasisNeeds& needs) {
  return static_cast<std::uint8_t>((needs.spectra ? 1 : 0) |
                                   (needs.lil ? 2 : 0) |
                                   (needs.frozen_fns ? 4 : 0) |
                                   (needs.frozen_spectra ? 8 : 0));
}

verify::BasisNeeds unpack_needs(std::uint8_t bits) {
  if (bits > 15) throw SerializationError("artifact: bad needs flags");
  verify::BasisNeeds needs;
  needs.spectra = bits & 1;
  needs.lil = bits & 2;
  needs.frozen_fns = bits & 4;
  needs.frozen_spectra = bits & 8;
  return needs;
}

}  // namespace

constexpr std::size_t kHeaderBytes = 8 + 4 + 32 + 8;

// Wraps a payload in the common file framing: magic, format version,
// payload SHA-256, payload length.  Shared by the Basis artifact and the
// cone-summary object (different magics, independent version counters).
std::string frame(const char (&magic)[8], std::uint32_t version,
                  const std::string& body) {
  util::Sha256 hash;
  hash.update(body);
  std::uint8_t digest[32];
  hash.digest(digest);

  ByteWriter file;
  for (char c : magic) file.u8(static_cast<std::uint8_t>(c));
  file.u32(version);
  for (std::uint8_t b : digest) file.u8(b);
  file.u64(body.size());
  std::string out = file.take();
  out += body;
  return out;
}

// Validates the common framing; returns the payload slice.
std::string_view checked_payload_for(const std::string& file_image,
                                     const char (&magic)[8],
                                     std::uint32_t version) {
  if (file_image.size() < kHeaderBytes)
    throw SerializationError("artifact: file shorter than header");
  if (std::memcmp(file_image.data(), magic, sizeof(kMagic)) != 0)
    throw SerializationError("artifact: bad magic");
  ByteReader header(file_image);
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) header.u8();
  const std::uint32_t stored = header.u32();
  if (stored != version)
    throw SerializationError("artifact: format version " +
                             std::to_string(stored) + ", expected " +
                             std::to_string(version));
  std::uint8_t want_digest[32];
  for (std::uint8_t& b : want_digest) b = header.u8();
  const std::uint64_t payload_len = header.u64();
  if (payload_len != file_image.size() - kHeaderBytes)
    throw SerializationError("artifact: payload length mismatch");
  const std::string_view payload =
      std::string_view(file_image).substr(kHeaderBytes);
  util::Sha256 hash;
  hash.update(payload.data(), payload.size());
  std::uint8_t got_digest[32];
  hash.digest(got_digest);
  if (std::memcmp(want_digest, got_digest, 32) != 0)
    throw SerializationError("artifact: payload hash mismatch");
  return payload;
}

// ByteWriter / ByteReader ----------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

static_assert(sizeof(Mask) == 16 && std::is_trivially_copyable_v<Mask>,
              "mask arrays are copied as (lo, hi) u64 pairs");

void ByteWriter::masks(const Mask* m, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    out_.append(reinterpret_cast<const char*>(m), n * sizeof(Mask));
  } else {
    out_.reserve(out_.size() + n * sizeof(Mask));
    for (std::size_t i = 0; i < n; ++i) {
      u64(m[i].lo);
      u64(m[i].hi);
    }
  }
}

void ByteWriter::vu64(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void ByteReader::truncated() {
  throw SerializationError("artifact: truncated stream");
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t{static_cast<std::uint8_t>(s_[pos_ + i])} << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= std::uint64_t{static_cast<std::uint8_t>(s_[pos_ + i])} << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::vu64_long() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    v |= std::uint64_t{byte & 0x7Fu} << shift;
    if ((byte & 0x80u) == 0) {
      // The top group holds the final bit 63 only; anything wider
      // overflows u64 and cannot have come from vu64-encoded output.
      if (shift == 63 && (byte & 0x7Eu) != 0)
        throw SerializationError("artifact: varint overflows 64 bits");
      return v;
    }
  }
  throw SerializationError("artifact: varint longer than 10 bytes");
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(s_.substr(pos_, len));
  pos_ += len;
  return out;
}

std::vector<Mask> ByteReader::masks(std::uint64_t n) {
  if (n > remaining() / sizeof(Mask))
    throw SerializationError("artifact: truncated stream");
  std::vector<Mask> out(static_cast<std::size_t>(n));
  if (out.empty()) return out;  // an empty dictionary: no memcpy from null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), s_.data() + pos_, out.size() * sizeof(Mask));
    pos_ += out.size() * sizeof(Mask);
  } else {
    for (Mask& m : out) {
      m.lo = u64();
      m.hi = u64();
    }
  }
  return out;
}

// Mask dictionary ------------------------------------------------------------

void MaskDictionaryWriter::add(const Mask* masks, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Mask& m = masks[i];
    if (last_ >= dict_.size() || dict_[last_] != m) {
      const auto [it, inserted] = index_.try_emplace(m, dict_.size());
      if (inserted) dict_.push_back(m);
      last_ = it->second;
    }
    indices_.vu64(last_);
  }
  count_ += n;
}

void MaskDictionaryWriter::write(ByteWriter& w) const {
  w.u64(count_);
  w.u64(dict_.size());
  w.masks(dict_.data(), dict_.size());
  w.append(indices_.bytes());
}

MaskDictionaryReader::MaskDictionaryReader(ByteReader& r, const char* format)
    : r_(r), format_(format) {
  remaining_ = r_.u64();
  // Each mask occupies at least one index byte; cap before reserving.
  if (remaining_ > r_.remaining()) fail("implausible dependency count");
  const std::uint64_t distinct = r_.u64();
  if (distinct > remaining_ || distinct > r_.remaining() / sizeof(Mask))
    fail("implausible dictionary size");
  dict_ = r_.masks(distinct);
}

std::vector<Mask> MaskDictionaryReader::take(std::uint64_t n) {
  if (n > remaining_) fail("more masks taken than coded");
  remaining_ -= n;
  std::vector<Mask> out(static_cast<std::size_t>(n));
  for (Mask& m : out) {
    const std::uint64_t idx = r_.vu64();
    if (idx >= dict_.size()) fail("dictionary index out of range");
    m = dict_[idx];
  }
  return out;
}

void MaskDictionaryReader::fail(const char* what) const {
  throw SerializationError(std::string(format_) + ": " + what);
}

// FrozenForest ---------------------------------------------------------------

void write_forest(ByteWriter& w, const dd::FrozenForest& forest) {
  w.u64(forest.var_order.size());
  for (int v : forest.var_order) w.i32(v);
  w.u64(forest.nodes.size());
  for (const dd::FrozenForest::Node& n : forest.nodes) {
    w.i32(n.level);
    w.u32(n.lo);
    w.u32(n.hi);
  }
  w.u64(forest.leaves.size());
  for (std::int64_t leaf : forest.leaves) w.i64(leaf);
  w.u64(forest.roots.size());
  for (dd::FrozenForest::Ref root : forest.roots) w.u32(root);
  w.u64(forest.root_names.size());
  for (const std::string& name : forest.root_names) w.str(name);
}

dd::FrozenForest read_forest(ByteReader& r) {
  dd::FrozenForest forest;
  forest.var_order.resize(read_count(r, 4));
  for (int& v : forest.var_order) v = r.i32();
  forest.nodes.resize(read_count(r, 12));
  const auto num_nodes = static_cast<std::uint32_t>(forest.nodes.size());
  const auto num_levels = static_cast<std::int32_t>(forest.var_order.size());
  std::uint32_t node_index = 0;
  for (dd::FrozenForest::Node& n : forest.nodes) {
    n.level = r.i32();
    n.lo = r.u32();
    n.hi = r.u32();
    // Enforce the forest invariants here, so a file that decodes cleanly is
    // structurally safe to import (children strictly earlier, levels valid).
    if (n.level < 0 || n.level >= num_levels)
      throw SerializationError("artifact: frozen node level out of range");
    for (dd::FrozenForest::Ref child : {n.lo, n.hi}) {
      if (!dd::FrozenForest::is_leaf(child) &&
          dd::FrozenForest::index_of(child) >= node_index)
        throw SerializationError("artifact: frozen node order violation");
    }
    ++node_index;
  }
  forest.leaves.resize(read_count(r, 8));
  for (std::int64_t& leaf : forest.leaves) leaf = r.i64();
  forest.roots.resize(read_count(r, 4));
  for (dd::FrozenForest::Ref& root : forest.roots) {
    root = r.u32();
    const std::uint32_t index = dd::FrozenForest::index_of(root);
    if (dd::FrozenForest::is_leaf(root) ? index >= forest.leaves.size()
                                        : index >= num_nodes)
      throw SerializationError("artifact: frozen root out of range");
  }
  for (const dd::FrozenForest::Node& n : forest.nodes)
    for (dd::FrozenForest::Ref child : {n.lo, n.hi})
      if (dd::FrozenForest::is_leaf(child) &&
          dd::FrozenForest::index_of(child) >= forest.leaves.size())
        throw SerializationError("artifact: frozen leaf out of range");
  forest.root_names.resize(read_count(r, 4));
  for (std::string& name : forest.root_names) name = r.str();
  if (!forest.root_names.empty() &&
      forest.root_names.size() != forest.roots.size())
    throw SerializationError("artifact: root-name count mismatch");
  return forest;
}

// Basis ----------------------------------------------------------------------

std::string serialize_basis(const verify::Basis& basis,
                            const verify::BasisNeeds& needs) {
  ByteWriter payload;
  payload.u8(pack_needs(needs));
  write_var_map(payload, basis.vars);
  write_mask(payload, basis.relevant_publics);
  payload.u64(basis.obs.size());
  for (const verify::ObservableInfo& o : basis.obs)
    write_observable_info(payload, o);
  payload.u64(basis.num_outputs);
  if (needs.spectra) {
    payload.u64(basis.flat.size());
    for (const auto& subsets : basis.flat) {
      payload.u64(subsets.size());
      for (const spectral::FlatSpectrum& s : subsets)
        write_spectrum(payload, s);
    }
  }
  write_forest(payload, basis.frozen);
  if (needs.frozen_fns) write_root_table(payload, basis.frozen_fn_roots);
  if (needs.frozen_spectra)
    write_root_table(payload, basis.frozen_spectrum_roots);
  payload.u64(basis.base_coefficients);
  payload.f64(basis.build_seconds);

  // Cone section: the varmap fingerprint and one function digest per
  // observable.  A Basis without a cone index stays without one.
  const bool cones =
      basis.cones.available && basis.cones.digests.size() == basis.obs.size();
  payload.u8(cones ? 1 : 0);
  if (cones) {
    write_digest(payload, basis.cones.varmap);
    payload.u64(basis.cones.digests.size());
    for (const circuit::ConeDigest& d : basis.cones.digests)
      write_digest(payload, d);
  }

  return frame(kMagic, kFormatVersion, payload.bytes());
}

verify::BasisNeeds peek_needs(const std::string& file_image) {
  const std::string_view payload =
      checked_payload_for(file_image, kMagic, kFormatVersion);
  ByteReader r(payload);
  return unpack_needs(r.u8());
}

std::shared_ptr<const verify::Basis> deserialize_basis(
    const std::string& file_image,
    const std::vector<std::string>* wire_names) {
  const std::string_view payload =
      checked_payload_for(file_image, kMagic, kFormatVersion);
  ByteReader r(payload);

  const verify::BasisNeeds needs = unpack_needs(r.u8());
  auto basis = std::make_shared<verify::Basis>();
  basis->vars = read_var_map(r);
  basis->relevant_publics = read_mask(r);
  basis->obs.resize(read_count(r, 17));
  for (verify::ObservableInfo& o : basis->obs)
    o = read_observable_info(r);
  basis->num_outputs = r.u64();
  if (needs.spectra) {
    basis->flat.resize(read_count(r, 8));
    for (auto& subsets : basis->flat) {
      const std::size_t count = read_count(r, 12);
      subsets.reserve(count);
      for (std::size_t i = 0; i < count; ++i)
        subsets.push_back(read_spectrum(r));
    }
  }
  basis->frozen = read_forest(r);
  if (needs.frozen_fns) {
    basis->frozen_fn_roots = read_root_table(r);
    for (const auto& row : basis->frozen_fn_roots)
      for (std::size_t root : row)
        if (root >= basis->frozen.roots.size())
          throw SerializationError("artifact: fn root index out of range");
  }
  if (needs.frozen_spectra) {
    basis->frozen_spectrum_roots = read_root_table(r);
    for (const auto& row : basis->frozen_spectrum_roots)
      for (std::size_t root : row)
        if (root >= basis->frozen.roots.size())
          throw SerializationError("artifact: spectrum root out of range");
  }
  basis->base_coefficients = r.u64();
  basis->build_seconds = r.f64();
  if (r.u8() != 0) {
    basis->cones.varmap = read_digest(r);
    basis->cones.digests.resize(read_count(r, 32));
    for (circuit::ConeDigest& d : basis->cones.digests) d = read_digest(r);
    if (basis->cones.digests.size() != basis->obs.size())
      throw SerializationError("artifact: cone digest count mismatch");
    basis->cones.available = true;
  }
  if (!r.at_end())
    throw SerializationError("artifact: trailing bytes after payload");
  if (wire_names) {
    for (const verify::ObservableInfo& o : basis->obs)
      if (o.position >= wire_names->size())
        throw SerializationError("artifact: observable position " +
                                 std::to_string(o.position) +
                                 " past the request's wires");
    verify::name_observables(*basis, *wire_names);
  }

  // The LIL mirror is derived data — rebuild instead of shipping it.
  if (needs.lil) {
    basis->lil.reserve(basis->flat.size());
    for (const auto& subsets : basis->flat) {
      std::vector<spectral::LilSpectrum> row;
      row.reserve(subsets.size());
      for (const spectral::FlatSpectrum& s : subsets)
        row.push_back(spectral::LilSpectrum::from_flat(s));
      basis->lil.push_back(std::move(row));
    }
  }
  return basis;
}

// ConeSummary ----------------------------------------------------------------

std::string serialize_summary(const verify::ConeSummary& summary) {
  ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(summary.notion));
  payload.u8(summary.glitch_robust ? 1 : 0);
  payload.u8(summary.joint_share_count ? 1 : 0);
  payload.u8(summary.union_check ? 1 : 0);
  payload.i32(summary.order);
  write_digest(payload, summary.varmap);
  payload.u64(summary.digests.size());
  for (const circuit::ConeDigest& d : summary.digests)
    write_digest(payload, d);
  payload.u8(static_cast<std::uint8_t>(summary.union_verdict.state));
  payload.u64(summary.union_verdict.closure_peak_bytes);
  payload.u64(summary.runs.size());
  MaskDictionaryWriter masks;
  for (const verify::ConeSummary::Run& run : summary.runs) {
    payload.i32(run.k);
    payload.u64(run.begin);
    payload.u64(run.end - run.begin);
    payload.u8(run.failed ? 1 : 0);
    if (run.failed) {
      write_mask(payload, run.alpha);
      payload.str(run.reason);
    }
    payload.u64(run.masks.size());
    masks.add(run.masks.data(), run.masks.size());
  }
  masks.write(payload);
  return frame(kSummaryMagic, kSummaryFormatVersion, payload.bytes());
}

std::shared_ptr<const verify::ConeSummary> deserialize_summary(
    const std::string& file_image) {
  const std::string_view payload =
      checked_payload_for(file_image, kSummaryMagic, kSummaryFormatVersion);
  ByteReader r(payload);
  auto summary = std::make_shared<verify::ConeSummary>();
  const std::uint8_t notion = r.u8();
  if (notion > static_cast<std::uint8_t>(verify::Notion::kPINI))
    throw SerializationError("summary: bad notion");
  summary->notion = static_cast<verify::Notion>(notion);
  summary->glitch_robust = r.u8() != 0;
  summary->joint_share_count = r.u8() != 0;
  summary->union_check = r.u8() != 0;
  summary->order = r.i32();
  if (summary->order < 1 || summary->order > 63)
    throw SerializationError("summary: order out of range");
  summary->varmap = read_digest(r);
  summary->digests.resize(read_count(r, 32));
  for (circuit::ConeDigest& d : summary->digests) d = read_digest(r);
  const std::uint8_t union_state = r.u8();
  if (union_state >
      static_cast<std::uint8_t>(verify::UnionVerdict::State::kFailed))
    throw SerializationError("summary: bad union verdict");
  summary->union_verdict.state =
      static_cast<verify::UnionVerdict::State>(union_state);
  summary->union_verdict.closure_peak_bytes = r.u64();
  // Runs: the plan binary-searches them, replays a failure at a run's last
  // rank and masks by offset, so everything those depend on is checked
  // here.
  const int old_n = static_cast<int>(summary->digests.size());
  summary->runs.resize(read_count(r, 29));
  std::vector<std::uint64_t> mask_counts;
  mask_counts.reserve(summary->runs.size());
  std::uint64_t total = 0;
  const verify::ConeSummary::Run* prev = nullptr;
  for (verify::ConeSummary::Run& run : summary->runs) {
    run.k = r.i32();
    if (run.k < 1 || run.k > summary->order)
      throw SerializationError("summary: run size out of range");
    run.begin = r.u64();
    const std::uint64_t count = r.u64();
    const std::uint64_t ranks = binomial(old_n, run.k);
    if (count == 0 || count > ranks || run.begin > ranks - count)
      throw SerializationError("summary: run outside rank space");
    run.end = run.begin + count;
    if (prev && (run.k < prev->k ||
                 (run.k == prev->k && run.begin < prev->end)))
      throw SerializationError("summary: runs unsorted or overlap");
    prev = &run;
    const std::uint8_t failed = r.u8();
    if (failed > 1) throw SerializationError("summary: bad failure flag");
    run.failed = failed != 0;
    if (run.failed) {
      run.alpha = read_mask(r);
      run.reason = r.str();
    }
    const std::uint64_t masks = r.u64();
    if (masks != 0 && masks != run.passes())
      throw SerializationError("summary: mask count is not the run's passes");
    // Every mask costs at least one index byte below.
    if (masks > r.remaining() || total > r.remaining() - masks)
      throw SerializationError("summary: implausible mask count");
    mask_counts.push_back(masks);
    total += masks;
  }
  MaskDictionaryReader masks(r, "summary");
  if (masks.remaining() != total)
    throw SerializationError("summary: mask count mismatch");
  for (std::size_t i = 0; i < summary->runs.size(); ++i)
    summary->runs[i].masks = masks.take(mask_counts[i]);
  if (!r.at_end())
    throw SerializationError("summary: trailing bytes after payload");
  return summary;
}

}  // namespace sani::store
