#include "store/manifest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/serial.h"
#include "util/sha256.h"

namespace sani::store {

namespace fs = std::filesystem;

namespace {

/// Zero-padded shard index, so directory listings sort by shard order.
std::string index_name(std::size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06zu", index);
  return buf;
}

/// Write-to-temp + rename: readers observe either no file or the complete
/// image.  The temp name is unique per process (pid + sequence), so two
/// processes checkpointing the same shard never collide mid-write; the
/// final rename is last-writer-wins over byte-identical content.
bool atomic_write(const std::string& final_path, const std::string& bytes) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = final_path + ".tmp." + std::to_string(::getpid()) +
                          "." + std::to_string(seq.fetch_add(1));
  // Plain POSIX calls: a stream's set-up costs more than writing a
  // checkpoint of a few KB, and the scan writes one per shard.
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  if (::close(fd) != 0 || done != bytes.size()) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string claim_body(std::size_t index, const std::string& trace_id) {
  char host[256] = "?";
  ::gethostname(host, sizeof(host) - 1);
  std::ostringstream os;
  os << index << ' ' << ::getpid() << ' ' << host << ' '
     << static_cast<long long>(::time(nullptr)) << ' '
     << (trace_id.empty() ? "-" : trace_id) << '\n';
  return os.str();
}

/// Age of `path` in seconds via mtime; nullopt when the file is gone.
/// Never negative: a fresh file's mtime can read a second ahead of
/// time(), whose clock is coarser, and lease 0 must still steal it.
std::optional<double> file_age_seconds(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return std::max(0.0, std::difftime(::time(nullptr), st.st_mtime));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("scan: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void append_line(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;  // forensics only; never fail the scan over it
  (void)!::write(fd, line.data(), line.size());
  ::close(fd);
}

std::uint64_t count_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::uint64_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

}  // namespace

std::string manifest_key(const ScanManifest& m) {
  // NOTE: trace_id is intentionally absent — it is *derived from* this key
  // at plan time, so including it would be circular and would break the
  // idempotent re-plan (same job → same directory).
  const verify::VerifyOptions& o = m.options;
  std::ostringstream material;
  material << "sani-scan-manifest-v" << kManifestFormatVersion << '\n'
           << "basis:" << m.basis_key << '\n'
           << "notion:" << verify::notion_name(o.notion) << '\n'
           << "order:" << o.order << '\n'
           << "engine:" << verify::engine_name(o.engine) << '\n'
           << "probes:include_inputs=" << o.probes.include_inputs
           << ",dedupe=" << o.probes.dedupe
           << ",glitch_robust=" << o.probes.glitch_robust << '\n'
           << "joint:" << o.joint_share_count << '\n'
           << "union:" << o.union_check << '\n'
           << "search:" << static_cast<int>(o.search_order) << '\n'
           << "var_order:" << static_cast<int>(o.var_order) << '\n'
           << "sift:" << o.sift_after_unfold << '\n'
           << "shard_size:" << o.shard_size << '\n';
  return util::sha256_hex(material.str());
}

std::string serialize_manifest(const ScanManifest& m) {
  ByteWriter w;
  w.str(m.label);
  w.str(m.canonical_ilang);
  w.u64(m.wire_names.size());
  for (const std::string& name : m.wire_names) w.str(name);
  w.str(m.basis_key);
  const verify::VerifyOptions& o = m.options;
  w.u8(static_cast<std::uint8_t>(o.notion));
  w.i32(o.order);
  w.u8(static_cast<std::uint8_t>(o.engine));
  w.u8(o.probes.include_inputs ? 1 : 0);
  w.u8(o.probes.dedupe ? 1 : 0);
  w.u8(o.probes.glitch_robust ? 1 : 0);
  w.u8(o.union_check ? 1 : 0);
  w.u8(o.joint_share_count ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(o.search_order));
  w.u8(static_cast<std::uint8_t>(o.var_order));
  w.u8(o.sift_after_unfold ? 1 : 0);
  w.u64(o.shard_size);
  w.i32(o.cache_bits);
  w.u8(m.needs.spectra ? 1 : 0);
  w.u8(m.needs.lil ? 1 : 0);
  w.u8(m.needs.frozen_fns ? 1 : 0);
  w.u8(m.needs.frozen_spectra ? 1 : 0);
  w.u64(m.num_observables);
  w.u64(m.base_coefficients);
  w.f64(m.build_seconds);
  w.u64(m.frozen_nodes);
  w.u64(m.frozen_bytes);
  w.str(m.trace_id);
  w.u64(m.shards.size());
  for (const sched::Shard& s : m.shards) {
    w.i32(s.k);
    w.u64(s.begin);
    w.u64(s.end);
  }
  return frame(kManifestMagic, kManifestFormatVersion, w.bytes());
}

ScanManifest deserialize_manifest(const std::string& file_image) {
  const std::string_view payload =
      checked_payload_for(file_image, kManifestMagic, kManifestFormatVersion);
  ByteReader r(payload);
  ScanManifest m;
  m.label = r.str();
  m.canonical_ilang = r.str();
  m.wire_names.resize(read_count(r, 8));
  for (std::string& name : m.wire_names) name = r.str();
  m.basis_key = r.str();
  verify::VerifyOptions& o = m.options;
  o.notion = static_cast<verify::Notion>(r.u8());
  o.order = r.i32();
  o.engine = static_cast<verify::EngineKind>(r.u8());
  o.probes.include_inputs = r.u8() != 0;
  o.probes.dedupe = r.u8() != 0;
  o.probes.glitch_robust = r.u8() != 0;
  o.union_check = r.u8() != 0;
  o.joint_share_count = r.u8() != 0;
  o.search_order = static_cast<verify::SearchOrder>(r.u8());
  o.var_order = static_cast<circuit::VarOrder>(r.u8());
  o.sift_after_unfold = r.u8() != 0;
  o.shard_size = r.u64();
  o.cache_bits = r.i32();
  m.needs.spectra = r.u8() != 0;
  m.needs.lil = r.u8() != 0;
  m.needs.frozen_fns = r.u8() != 0;
  m.needs.frozen_spectra = r.u8() != 0;
  m.num_observables = r.u64();
  m.base_coefficients = r.u64();
  m.build_seconds = r.f64();
  m.frozen_nodes = r.u64();
  m.frozen_bytes = r.u64();
  m.trace_id = r.str();
  const std::uint64_t num_shards = r.u64();
  if (num_shards > (std::uint64_t{1} << 32))
    throw SerializationError("manifest: implausible shard count");
  m.shards.reserve(num_shards);
  for (std::uint64_t i = 0; i < num_shards; ++i) {
    sched::Shard s;
    s.k = r.i32();
    s.begin = r.u64();
    s.end = r.u64();
    m.shards.push_back(s);
  }
  if (!r.at_end())
    throw SerializationError("manifest: trailing bytes");
  return m;
}

std::string serialize_partial(const verify::PartialReport& part,
                              const std::string& trace_id) {
  if (!part.complete)
    throw SerializationError(
        "checkpoint: refusing to persist an incomplete partial");
  ByteWriter w;
  w.str(trace_id);
  w.i32(part.k);
  w.u64(part.begin);
  w.u64(part.end);
  w.u64(part.covered_end);
  w.u8(part.has_failure ? 1 : 0);
  if (part.has_failure) {
    w.u64(part.fail_rank);
    write_mask(w, part.fail_alpha);
    w.str(part.fail_reason);
  }
  w.u64(part.combinations);
  w.u64(part.coefficients);
  w.u64(part.region_cache.hits);
  w.u64(part.region_cache.misses);
  w.f64(part.convolution_seconds);
  w.f64(part.verification_seconds);
  // Dependency section: the shared mask-dictionary codec (serial.h).
  // Checkpoint size is the dominant overhead of the scan over an
  // uncheckpointed run; coding each mask in about a byte keeps it small.
  MaskDictionaryWriter deps;
  deps.add(part.deps.data(), part.deps.size());
  deps.write(w);
  return frame(kPartialMagic, kPartialFormatVersion, w.bytes());
}

verify::PartialReport deserialize_partial(const std::string& file_image,
                                          const std::string& expected_trace_id) {
  const std::string_view payload =
      checked_payload_for(file_image, kPartialMagic, kPartialFormatVersion);
  ByteReader r(payload);
  const std::string stored_trace_id = r.str();
  if (!expected_trace_id.empty() && !stored_trace_id.empty() &&
      stored_trace_id != expected_trace_id)
    throw SerializationError("checkpoint: trace id mismatch (belongs to job " +
                             stored_trace_id + ")");
  verify::PartialReport part;
  part.k = r.i32();
  part.begin = r.u64();
  part.end = r.u64();
  part.covered_end = r.u64();
  part.complete = true;  // only complete partials are ever persisted
  part.has_failure = r.u8() != 0;
  if (part.has_failure) {
    part.fail_rank = r.u64();
    part.fail_alpha = read_mask(r);
    part.fail_reason = r.str();
  }
  part.combinations = r.u64();
  part.coefficients = r.u64();
  part.region_cache.hits = r.u64();
  part.region_cache.misses = r.u64();
  part.convolution_seconds = r.f64();
  part.verification_seconds = r.f64();
  MaskDictionaryReader deps(r, "checkpoint");
  part.deps = deps.take(deps.remaining());
  const std::uint64_t num_deps = part.deps.size();
  if (part.covered_end < part.begin || part.covered_end > part.end)
    throw SerializationError("checkpoint: covered range outside the shard");
  if (num_deps > part.covered_end - part.begin)
    throw SerializationError("checkpoint: more dependencies than covered ranks");
  if (part.has_failure &&
      (part.fail_rank < part.begin || part.fail_rank >= part.covered_end))
    throw SerializationError("checkpoint: failure outside the covered range");
  if (!r.at_end())
    throw SerializationError("checkpoint: trailing bytes");
  return part;
}

// ScanDir ---------------------------------------------------------------------

ScanDir::ScanDir(std::string dir, ScanManifest manifest)
    : dir_(std::move(dir)), manifest_(std::move(manifest)) {}

std::string ScanDir::claim_path(std::size_t index) const {
  return dir_ + "/claims/" + index_name(index) + ".claim";
}

std::string ScanDir::part_path(std::size_t index) const {
  return dir_ + "/parts/" + index_name(index) + ".part";
}

ScanDir ScanDir::create(const std::string& dir, const ScanManifest& manifest) {
  fs::create_directories(dir + "/claims");
  fs::create_directories(dir + "/parts");
  const std::string manifest_path = dir + "/manifest";
  if (fs::exists(manifest_path)) {
    // Idempotent re-plan: accept iff the existing manifest is the same scan.
    ScanManifest existing = deserialize_manifest(read_file(manifest_path));
    if (manifest_key(existing) != manifest_key(manifest))
      throw std::runtime_error("scan: directory " + dir +
                               " holds a different manifest");
    return ScanDir(dir, std::move(existing));
  }
  if (!atomic_write(manifest_path, serialize_manifest(manifest)))
    throw std::runtime_error("scan: cannot write manifest in " + dir);
  obs::Metrics::instance()
      .counter("scan.shards_planned")
      .add(manifest.shards.size());
  return ScanDir(dir, manifest);
}

ScanDir ScanDir::open(const std::string& dir) {
  const std::string manifest_path = dir + "/manifest";
  if (!fs::exists(manifest_path))
    throw std::runtime_error("scan: no manifest in " + dir);
  fs::create_directories(dir + "/claims");
  fs::create_directories(dir + "/parts");
  return ScanDir(dir, deserialize_manifest(read_file(manifest_path)));
}

bool ScanDir::is_done(std::size_t index) const {
  return fs::exists(part_path(index));
}

bool ScanDir::drained() const {
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i)
    if (!is_done(i)) return false;
  return true;
}

std::optional<ScanDir::Claim> ScanDir::claim_next(double lease_seconds) {
  obs::Span span("claim");
  // Instrument handles resolved once (registry lookup takes a mutex; claims
  // are per-shard hot-path).
  static obs::Counter& claimed_counter =
      obs::Metrics::instance().counter("scan.shards_claimed");
  static obs::Counter& reclaimed_counter =
      obs::Metrics::instance().counter("scan.shards_reclaimed");
  const std::size_t n = manifest_.shards.size();
  // Pass 1: virgin shards — O_CREAT|O_EXCL makes exactly one claimer win.
  // Full rotation from the cursor: O(1) probes while draining forward, yet
  // no shard is ever unreachable.
  const std::size_t start = claim_cursor_->load(std::memory_order_relaxed);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = (start + j) % n;
    if (is_done(i)) continue;
    const std::string path = claim_path(i);
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) continue;  // someone else holds (or held) it
    const std::string body = claim_body(i, manifest_.trace_id);
    (void)!::write(fd, body.data(), body.size());
    ::close(fd);
    claim_cursor_->store((i + 1) % n, std::memory_order_relaxed);
    claimed_counter.add(1);
    return Claim{i, false};
  }
  // Pass 2: stale leases.  rename() over the old claim is atomic; if two
  // stealers race, both "own" the shard — duplicate execution of a pure
  // function, reconciled by the idempotent checkpoint rename.
  for (std::size_t i = 0; i < n; ++i) {
    if (is_done(i)) continue;
    const std::string path = claim_path(i);
    const std::optional<double> age = file_age_seconds(path);
    if (!age || *age < lease_seconds) continue;
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = path + ".steal." + std::to_string(::getpid()) +
                            "." + std::to_string(seq.fetch_add(1));
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << claim_body(i, manifest_.trace_id);
      if (!out) continue;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      std::error_code ec;
      fs::remove(tmp, ec);
      continue;
    }
    append_line(dir_ + "/reclaims.log", claim_body(i, manifest_.trace_id));
    claimed_counter.add(1);
    reclaimed_counter.add(1);
    return Claim{i, true};
  }
  return std::nullopt;
}

void ScanDir::release_claim(std::size_t index) {
  std::error_code ec;
  fs::remove(claim_path(index), ec);
}

bool ScanDir::write_checkpoint(std::size_t index,
                               const verify::PartialReport& part) {
  static obs::Counter& done_counter =
      obs::Metrics::instance().counter("scan.shards_done");
  static obs::Counter& bytes_counter =
      obs::Metrics::instance().counter("scan.checkpoint_bytes");
  obs::Span span("checkpoint_write");
  const std::string image =
      serialize_partial(part, manifest_.trace_id);
  if (!atomic_write(part_path(index), image)) return false;
  release_claim(index);
  done_counter.add(1);
  bytes_counter.add(image.size());
  return true;
}

std::optional<verify::PartialReport> ScanDir::read_checkpoint(
    std::size_t index) const {
  const std::string path = part_path(index);
  if (!fs::exists(path)) return std::nullopt;
  obs::Span span("checkpoint_load");
  verify::PartialReport part = deserialize_partial(
      read_file(path), manifest_.trace_id);
  // A checkpoint copied over another shard's file is hash-valid; only its
  // identity gives it away.
  const sched::Shard& shard = manifest_.shards.at(index);
  if (part.k != shard.k || part.begin != shard.begin || part.end != shard.end)
    throw SerializationError("checkpoint: " + path +
                             " does not belong to shard " +
                             std::to_string(index));
  return part;
}

ScanDir::Status ScanDir::status() const {
  Status st;
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    if (is_done(i)) {
      ++st.done;
      std::error_code ec;
      const std::uintmax_t sz = fs::file_size(part_path(i), ec);
      if (!ec) st.checkpoint_bytes += sz;
      if (std::optional<verify::PartialReport> part = read_checkpoint(i))
        st.combinations_done += part->combinations;
    } else if (fs::exists(claim_path(i))) {
      ++st.claimed;
      if (std::optional<double> age = file_age_seconds(claim_path(i))) {
        st.claim_ages.push_back({i, *age});
        if (*age > st.oldest_claim_age) st.oldest_claim_age = *age;
      }
    } else {
      ++st.planned;
    }
  }
  st.reclaims = count_lines(dir_ + "/reclaims.log");
  return st;
}

}  // namespace sani::store
