#include "store/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/serial.h"

namespace sani::store {

namespace fs = std::filesystem;

namespace {

// 64 lowercase hex digits (plain range checks: opening a store checks
// every indexed key).
bool valid_key(std::string_view key) {
  if (key.size() != 64) return false;
  for (const char c : key)
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) return false;
  return true;
}

// One copy: size the string from the open file and read straight into it
// (plain POSIX calls: a stream's setup costs more than reading a small
// index or summary).
bool read_file(const fs::path& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (ok && done < out->size()) {
      const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
      if (n > 0)
        done += static_cast<std::size_t>(n);
      else if (n == 0 || errno != EINTR)
        ok = false;
    }
  }
  ::close(fd);
  return ok;
}

// Atomic publication: write a dot-tmp sibling, then rename into place.  The
// tmp file lives in the destination directory so the rename never crosses a
// filesystem boundary.
bool write_file_atomic(const fs::path& path, const std::string& bytes) {
  const fs::path tmp = path.parent_path() / ("." + path.filename().string() +
                                             ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::optional<ArtifactStore::Digest> ArtifactStore::Digest::parse(
    std::string_view hex) {
  if (hex.size() != 64) return std::nullopt;
  Digest d;
  for (std::size_t i = 0; i < d.bytes.size(); ++i) {
    const int hi = hex_value(hex[2 * i]);
    const int lo = hex_value(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    d.bytes[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  return d;
}

std::string ArtifactStore::Digest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kDigits[bytes[i] >> 4];
    out[2 * i + 1] = kDigits[bytes[i] & 15];
  }
  return out;
}

std::size_t ArtifactStore::DigestHash::operator()(const Digest& d) const {
  // A SHA-256 digest is uniform already: its first word is the hash.
  std::size_t h;
  std::memcpy(&h, d.bytes.data(), sizeof h);
  return h;
}

ArtifactStore::ArtifactStore(Options options)
    : dir_(std::move(options.dir)), max_bytes_(options.max_bytes) {
  obs::Span span("store_open");
  if (dir_.empty())
    throw std::invalid_argument("ArtifactStore: empty store directory");
  std::lock_guard<std::mutex> lock(mu_);
  // objects/<shard> and heads/ are created by the first write into them
  // (insert_locked, publish_summary): a mkdir costs more than the rest of
  // an open, and a store opened only to plan a scan never writes a head.
  if (read_index(&entries_)) {
    for (const auto& [key, e] : entries_) {
      total_bytes_ += e.size;
      clock_ = std::max(clock_, e.last_used);
    }
  } else {
    // A new store (or a lost index): lay out the directory with its
    // quarantine/, which post-mortems expect to find, then walk whatever
    // objects there are.
    fs::create_directories(fs::path(dir_) / "quarantine");
    entries_.clear();
    reconcile_locked();
  }
  publish_gauges();
}

std::string ArtifactStore::object_path(const Digest& key) const {
  const std::string hex = key.hex();
  return (fs::path(dir_) / "objects" / hex.substr(0, 2) / hex.substr(2))
      .string();
}

bool ArtifactStore::read_index(Entries* out) const {
  std::string text;
  if (!read_file(fs::path(dir_) / "index", &text)) return false;
  const char* p = text.data();
  const char* const end = p + text.size();
  // One "key size last_used" line per entry; anything else means the file
  // cannot be trusted, and the caller falls back to the directory walk.
  const auto field = [&](char stop) -> std::string_view {
    const char* from = p;
    while (p < end && *p != stop && *p != '\n') ++p;
    const std::string_view f(from, static_cast<std::size_t>(p - from));
    if (p < end && *p == stop) ++p;
    return f;
  };
  const auto number = [](std::string_view f, std::uint64_t* v) {
    const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), *v);
    return ec == std::errc() && ptr == f.data() + f.size() && !f.empty();
  };
  out->reserve(text.size() / 72 + 1);  // about 72 bytes per line
  while (p < end) {
    const std::optional<Digest> key = Digest::parse(field(' '));
    Entry e;
    if (!key || !number(field(' '), &e.size) ||
        !number(field('\n'), &e.last_used))
      return false;
    out->try_emplace(*key, e);
  }
  return true;
}

void ArtifactStore::reconcile() {
  std::lock_guard<std::mutex> lock(mu_);
  reconcile_locked();
  publish_gauges();
}

void ArtifactStore::reconcile_locked() {
  ++stats_.reconciles;
  // Drop entries whose object vanished, refresh sizes from disk, then adopt
  // objects the index never heard of (e.g. after an index loss).
  bool changed = false;
  Entries found;
  found.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    std::error_code ec;
    const auto size = fs::file_size(object_path(key), ec);
    if (ec) {
      removed_.insert(key);
      pinned_.erase(key);
      changed = true;
      continue;
    }
    Entry e = entry;
    changed |= e.size != size;
    e.size = size;
    found.emplace(key, e);
  }
  std::error_code ec;
  for (const auto& shard :
       fs::directory_iterator(fs::path(dir_) / "objects", ec)) {
    if (!shard.is_directory()) continue;
    std::error_code iter_ec;
    for (const auto& file : fs::directory_iterator(shard.path(), iter_ec)) {
      const std::string name = file.path().filename().string();
      if (!name.empty() && name.front() == '.') continue;  // stale tmp
      const std::optional<Digest> key =
          Digest::parse(shard.path().filename().string() + name);
      if (!key || found.count(*key)) continue;
      std::error_code size_ec;
      const auto size = fs::file_size(file.path(), size_ec);
      if (size_ec) continue;
      found.emplace(*key, Entry{size, 0, false});
      removed_.erase(*key);
      changed = true;
    }
  }
  entries_ = std::move(found);
  total_bytes_ = 0;
  for (const auto& [key, e] : entries_) total_bytes_ += e.size;
  if (changed) index_dirty_ = true;
}

ArtifactStore::~ArtifactStore() {
  try {
    flush();
  } catch (...) {
    // Best-effort, like every index write: the next open reconciles.
  }
}

void ArtifactStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!index_dirty_) return;
  // Merge what other instances published since this one read the index:
  // an entry this instance never touched follows the disk (gone there
  // means another instance removed it); a disk entry this instance lacks
  // is learnt unless this instance removed it; a shared entry keeps the
  // later use.
  Entries disk;
  if (read_index(&disk)) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!it->second.touched && !disk.count(it->first)) {
        total_bytes_ -= it->second.size;
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [key, e] : disk) {
      if (removed_.count(key)) continue;
      clock_ = std::max(clock_, e.last_used);
      const auto [it, added] = entries_.try_emplace(key, e);
      if (added) {
        total_bytes_ += e.size;
      } else if (!it->second.touched) {
        total_bytes_ = total_bytes_ - it->second.size + e.size;
        it->second = e;
      } else {
        it->second.last_used = std::max(it->second.last_used, e.last_used);
      }
    }
  }
  removed_.clear();
  index_dirty_ = false;
  std::vector<const Entries::value_type*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& kv : entries_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::string out;
  out.reserve(sorted.size() * 96);
  for (const auto* kv : sorted) {
    out += kv->first.hex();
    out += ' ';
    out += std::to_string(kv->second.size);
    out += ' ';
    out += std::to_string(kv->second.last_used);
    out += '\n';
  }
  write_file_atomic(fs::path(dir_) / "index", out);
  publish_gauges();
}

void ArtifactStore::publish_gauges() const {
  auto& m = obs::Metrics::instance();
  m.gauge("store.bytes").set(static_cast<double>(total_bytes_));
  m.gauge("store.objects").set(static_cast<double>(entries_.size()));
}

ArtifactStore::Entry& ArtifactStore::set_locked(const Digest& key,
                                                std::uint64_t size) {
  Entry& e = entries_[key];
  total_bytes_ = total_bytes_ - e.size + size;
  e.size = size;
  e.touched = true;
  removed_.erase(key);
  index_dirty_ = true;
  return e;
}

void ArtifactStore::erase_locked(Entries::iterator it) {
  total_bytes_ -= it->second.size;
  removed_.insert(it->first);
  pinned_.erase(it->first);
  entries_.erase(it);
  index_dirty_ = true;
}

std::optional<std::string> ArtifactStore::get(const std::string& hex) {
  const std::optional<Digest> key = Digest::parse(hex);
  if (!key) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(*key);
  std::string bytes;
  if (!read_file(object_path(*key), &bytes)) {
    // Indexed but gone (another instance deleted it): its bytes must stop
    // counting against the cap, and contains() must stop answering true.
    if (it != entries_.end()) {
      erase_locked(it);
      publish_gauges();
    }
    return std::nullopt;
  }
  const bool adopted = it == entries_.end();
  set_locked(*key, bytes.size()).last_used = ++clock_;
  if (adopted) publish_gauges();
  return bytes;
}

bool ArtifactStore::put(const std::string& hex, const std::string& bytes) {
  const std::optional<Digest> key = Digest::parse(hex);
  if (!key)
    throw std::invalid_argument("ArtifactStore: malformed key '" + hex + "'");
  std::lock_guard<std::mutex> lock(mu_);
  if (!insert_locked(*key, bytes)) return false;
  evict_to_cap();
  publish_gauges();
  return true;
}

bool ArtifactStore::insert_locked(const Digest& key,
                                  const std::string& bytes) {
  const fs::path path = object_path(key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (!write_file_atomic(path, bytes)) return false;
  set_locked(key, bytes.size()).last_used = ++clock_;
  // Pin for the process lifetime: this run's own artifacts must never fall
  // to the LRU sweep (a Basis saved at request start has to survive until
  // the matching summary lands, however much unrelated traffic intervenes).
  pinned_.insert(key);
  return true;
}

void ArtifactStore::remove_locked(const Digest& key) {
  std::error_code ec;
  fs::remove(object_path(key), ec);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    erase_locked(it);
  } else {
    // Unknown to this instance, but possibly in another's index: the flush
    // merge must not bring it back.
    removed_.insert(key);
    pinned_.erase(key);
    index_dirty_ = true;
  }
}

void ArtifactStore::evict_to_cap() {
  if (max_bytes_ == 0 || total_bytes_ <= max_bytes_) return;
  // Least-recently-used first among the evictable (ties by key): pinned
  // (same-run) keys are off the table entirely.  If everything left is
  // pinned, the store runs over cap until the process exits — correctness
  // over tidiness.
  std::vector<std::pair<std::uint64_t, const Digest*>> victims;
  for (const auto& [key, e] : entries_)
    if (!pinned_.count(key)) victims.emplace_back(e.last_used, &key);
  std::sort(victims.begin(), victims.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : *a.second < *b.second;
  });
  for (const auto& victim : victims) {
    if (entries_.size() <= 1 || total_bytes_ <= max_bytes_) break;
    remove_locked(Digest(*victim.second));
    ++stats_.evictions;
    obs::Metrics::instance().counter("store.evictions").add();
  }
}

void ArtifactStore::quarantine(const Digest& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string hex = key.hex();
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "quarantine", ec);
  fs::rename(object_path(key), fs::path(dir_) / "quarantine" / hex, ec);
  if (ec) fs::remove(object_path(key), ec);  // cross-device fallback
  const auto it = entries_.find(key);
  if (it != entries_.end()) erase_locked(it);
  publish_gauges();
  ++stats_.quarantined;
  obs::Metrics::instance().counter("store.quarantined").add();
  obs::Journal::instance().warn("store", "quarantined",
                                {{"key", hex}, {"dir", dir_}});
}

std::shared_ptr<const verify::Basis> ArtifactStore::load_basis(
    const std::string& key, const std::vector<std::string>* wire_names) {
  // Hit/miss is decided after validation: an object that fails to decode is
  // a miss with evidence (quarantined), never a hit — so warm-start
  // accounting and the daemon's stats stay truthful.
  auto miss = [&]() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    obs::Metrics::instance().counter("store.misses").add();
    return nullptr;
  };
  std::optional<std::string> bytes = get(key);
  if (!bytes) return miss();
  try {
    std::shared_ptr<const verify::Basis> basis =
        deserialize_basis(*bytes, wire_names);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    obs::Metrics::instance().counter("store.hits").add();
    return basis;
  } catch (const SerializationError&) {
    quarantine(*Digest::parse(key));  // get() accepted the key
    return miss();
  }
}

bool ArtifactStore::save_basis(const std::string& key,
                               const verify::Basis& basis,
                               const verify::BasisNeeds& needs) {
  return put(key, serialize_basis(basis, needs));
}

std::shared_ptr<const verify::ConeSummary> ArtifactStore::load_summary(
    const std::string& key) {
  auto miss = [&]() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    obs::Metrics::instance().counter("store.misses").add();
    return nullptr;
  };
  std::optional<std::string> bytes = get(key);
  if (!bytes) return miss();
  try {
    std::shared_ptr<const verify::ConeSummary> summary =
        deserialize_summary(*bytes);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    obs::Metrics::instance().counter("store.hits").add();
    return summary;
  } catch (const SerializationError&) {
    quarantine(*Digest::parse(key));  // get() accepted the key
    return miss();
  }
}

std::optional<std::string> ArtifactStore::head_locked(
    const std::string& family_key) const {
  std::string head;
  if (!read_file(fs::path(dir_) / "heads" / family_key, &head))
    return std::nullopt;
  // Trim the trailing newline a hand-edited pointer might carry.
  while (!head.empty() && (head.back() == '\n' || head.back() == '\r'))
    head.pop_back();
  if (!valid_key(head)) return std::nullopt;
  return head;
}

std::optional<std::string> ArtifactStore::family_head(
    const std::string& family_key) const {
  if (!valid_key(family_key)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  return head_locked(family_key);
}

bool ArtifactStore::publish_summary(const std::string& family_key,
                                    const std::string& key,
                                    const verify::ConeSummary& summary) {
  if (!valid_key(family_key))
    throw std::invalid_argument("ArtifactStore: malformed family key '" +
                                family_key + "'");
  if (!valid_key(key))
    throw std::invalid_argument("ArtifactStore: malformed key '" + key + "'");
  const std::string bytes = serialize_summary(summary);
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "heads", ec);
  const std::optional<std::string> superseded = head_locked(family_key);
  // The object goes in place before the head names it, so a reader
  // following the head always finds it (or a clean miss once superseded).
  const bool published =
      insert_locked(*Digest::parse(key), bytes) &&
      write_file_atomic(fs::path(dir_) / "heads" / family_key, key);
  // Only heads are read, so the summary the head named before is dead
  // whoever wrote it: drop it before the sweep weighs live objects.
  if (published && superseded && *superseded != key)
    remove_locked(*Digest::parse(*superseded));
  evict_to_cap();
  publish_gauges();
  return published;
}

bool ArtifactStore::contains(const std::string& hex) const {
  const std::optional<Digest> key = Digest::parse(hex);
  if (!key) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(*key) != 0;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.total_bytes = total_bytes_;
  s.objects = entries_.size();
  return s;
}

}  // namespace sani::store
