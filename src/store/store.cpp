#include "store/store.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <unordered_set>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "store/serial.h"

namespace sani::store {

namespace fs = std::filesystem;

namespace {

bool valid_key(const std::string& key) {
  if (key.size() != 64) return false;
  for (char c : key)
    if (!std::isxdigit(static_cast<unsigned char>(c)) ||
        (std::isalpha(static_cast<unsigned char>(c)) &&
         !std::islower(static_cast<unsigned char>(c))))
      return false;
  return true;
}

// One copy: size the string from the open file and read straight into it.
bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  in.seekg(0);
  out->resize(static_cast<std::size_t>(size));
  in.read(out->data(), size);
  return in.gcount() == size;
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

}  // namespace

ArtifactStore::ArtifactStore(Options options)
    : dir_(std::move(options.dir)), max_bytes_(options.max_bytes) {
  if (dir_.empty())
    throw std::invalid_argument("ArtifactStore: empty store directory");
  fs::create_directories(fs::path(dir_) / "objects");
  fs::create_directories(fs::path(dir_) / "heads");
  fs::create_directories(fs::path(dir_) / "quarantine");
  load_index();
  publish_gauges();
}

std::string ArtifactStore::object_path(const std::string& key) const {
  return (fs::path(dir_) / "objects" / key.substr(0, 2) / key.substr(2))
      .string();
}

void ArtifactStore::load_index() {
  std::vector<std::pair<std::string, Entry>> indexed;
  std::string text;
  if (read_file(fs::path(dir_) / "index", &text)) {
    std::istringstream lines(text);
    std::string key;
    Entry e;
    while (lines >> key >> e.size >> e.last_used) {
      if (!valid_key(key)) continue;
      indexed.emplace_back(key, e);
      clock_ = std::max(clock_, e.last_used);
    }
  }
  // Reconcile with the filesystem: drop index entries whose object vanished,
  // adopt objects the index never heard of (e.g. after an index loss).
  std::unordered_set<std::string> known;
  for (const auto& [key, entry] : indexed) {
    std::error_code ec;
    const auto size = fs::file_size(object_path(key), ec);
    if (ec || !known.insert(key).second) continue;
    Entry e = entry;
    e.size = size;
    entries_.emplace_back(key, e);
  }
  std::error_code ec;
  for (const auto& shard :
       fs::directory_iterator(fs::path(dir_) / "objects", ec)) {
    if (!shard.is_directory()) continue;
    std::error_code iter_ec;
    for (const auto& file : fs::directory_iterator(shard.path(), iter_ec)) {
      const std::string name = file.path().filename().string();
      if (!name.empty() && name.front() == '.') continue;  // stale tmp
      const std::string key = shard.path().filename().string() + name;
      if (!valid_key(key)) continue;
      if (known.count(key)) continue;
      std::error_code size_ec;
      const auto size = fs::file_size(file.path(), size_ec);
      if (size_ec) continue;
      known.insert(key);
      entries_.emplace_back(key, Entry{size, 0});
    }
  }
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
  index_dirty_ = false;
  std::ostringstream out;
  for (const auto& [key, e] : entries_)
    out << key << ' ' << e.size << ' ' << e.last_used << '\n';
  write_file_atomic(fs::path(dir_) / "index", out.str());
}

std::uint64_t ArtifactStore::total_bytes_locked() const {
  std::uint64_t total = 0;
  for (const auto& [key, e] : entries_) total += e.size;
  return total;
}

void ArtifactStore::publish_gauges() const {
  auto& m = obs::Metrics::instance();
  m.gauge("store.bytes").set(static_cast<double>(total_bytes_locked()));
  m.gauge("store.objects").set(static_cast<double>(entries_.size()));
}

std::optional<std::string> ArtifactStore::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const auto& kv) { return kv.first == key; });
  std::string bytes;
  if (it == entries_.end() || !read_file(object_path(key), &bytes))
    return std::nullopt;
  it->second.last_used = ++clock_;
  it->second.size = bytes.size();
  index_dirty_ = true;
  return bytes;
}

bool ArtifactStore::put(const std::string& key, const std::string& bytes) {
  if (!valid_key(key))
    throw std::invalid_argument("ArtifactStore: malformed key '" + key + "'");
  std::lock_guard<std::mutex> lock(mu_);
  if (!insert_locked(key, bytes)) return false;
  evict_to_cap();
  publish_gauges();
  return true;
}

bool ArtifactStore::insert_locked(const std::string& key,
                                  const std::string& bytes) {
  const fs::path path = object_path(key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (!write_file_atomic(path, bytes)) return false;
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const auto& kv) { return kv.first == key; });
  if (it == entries_.end())
    it = entries_.emplace(entries_.end(), key, Entry{});
  it->second.size = bytes.size();
  it->second.last_used = ++clock_;
  // Pin for the process lifetime: this run's own artifacts must never fall
  // to the LRU sweep (a Basis saved at request start has to survive until
  // the matching summary lands, however much unrelated traffic intervenes).
  pinned_.insert(key);
  index_dirty_ = true;
  return true;
}

void ArtifactStore::remove_locked(const std::string& key) {
  std::error_code ec;
  fs::remove(object_path(key), ec);
  entries_.erase(
      std::remove_if(entries_.begin(), entries_.end(),
                     [&](const auto& kv) { return kv.first == key; }),
      entries_.end());
  pinned_.erase(key);
  index_dirty_ = true;
}

void ArtifactStore::evict_to_cap() {
  if (max_bytes_ == 0) return;
  while (entries_.size() > 1 && total_bytes_locked() > max_bytes_) {
    // Least-recently-used among the evictable: pinned (same-run) keys are
    // off the table entirely.  If everything left is pinned, the store runs
    // over cap until the process exits — correctness over tidiness.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pinned_.count(it->first)) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == entries_.end()) return;
    remove_locked(std::string(victim->first));
    ++stats_.evictions;
    obs::Metrics::instance().counter("store.evictions").add();
  }
}

void ArtifactStore::quarantine(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  fs::rename(object_path(key), fs::path(dir_) / "quarantine" / key, ec);
  if (ec) fs::remove(object_path(key), ec);  // cross-device fallback
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const auto& kv) { return kv.first == key; }),
                 entries_.end());
  index_dirty_ = true;
  publish_gauges();
  ++stats_.quarantined;
  obs::Metrics::instance().counter("store.quarantined").add();
  obs::Journal::instance().warn("store", "quarantined",
                                {{"key", key}, {"dir", dir_}});
}

std::shared_ptr<const verify::Basis> ArtifactStore::load_basis(
    const std::string& key) {
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
    std::shared_ptr<const verify::Basis> basis = deserialize_basis(*bytes);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    obs::Metrics::instance().counter("store.hits").add();
    return basis;
  } catch (const SerializationError&) {
    quarantine(key);
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
    quarantine(key);
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
  const std::optional<std::string> superseded = head_locked(family_key);
  // The object goes in place before the head names it, so a reader
  // following the head always finds it (or a clean miss once superseded).
  const bool published =
      insert_locked(key, bytes) &&
      write_file_atomic(fs::path(dir_) / "heads" / family_key, key);
  // Only heads are read, so the summary the head named before is dead
  // whoever wrote it: drop it before the sweep weighs live objects.
  if (published && superseded && *superseded != key)
    remove_locked(*superseded);
  evict_to_cap();
  publish_gauges();
  return published;
}

bool ArtifactStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.total_bytes = total_bytes_locked();
  s.objects = entries_.size();
  return s;
}

}  // namespace sani::store
