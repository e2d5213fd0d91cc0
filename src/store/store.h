#pragma once
// Content-addressed artifact store for prepared verification artifacts.
//
// A verification job's expensive prefix — parse -> unfold -> basis_build ->
// freeze — is a pure function of (netlist, probe model, notion): the Basis
// it produces is immutable and manager-free (verify/basis.h).  The store
// persists that Basis on disk keyed by a SHA-256 content hash of the
// canonicalized inputs (store/cached_verify.h derives the key), so repeat
// traffic — the same gadget resubmitted by any client, any process, any
// day — warm-starts from a deserialized artifact instead of recomputing it.
//
// Layout under the store directory:
//
//   objects/ab/cdef...        one file per artifact, sharded by the first
//                             two hex digits of its key (64-hex SHA-256).
//                             Basis artifacts (SANIBAS) and cone summaries
//                             (SANISUM) share the space — the key derivation
//                             keeps them distinct, the framing keeps them
//                             honest (loading one as the other quarantines)
//   heads/<family_key>        pointer file naming the newest cone-summary
//                             object for one (gadget family, probe model,
//                             notion) line — the incremental scan's "nearest
//                             prior run" lookup (store/cached_verify.h).
//                             Heads are the only way a summary is read, so
//                             publishing a new one deletes the one it
//                             supersedes: every stored summary is live
//   index                     text index: "key size last_used" per line,
//                             sorted by key, rewritten atomically once per
//                             session (by flush() or on destruction), not
//                             per access.  Opening reads this file and
//                             nothing else; the objects are walked only
//                             when it is missing or unreadable
//   quarantine/<key>          artifacts that failed load-side validation
//                             (bad magic/version/hash): moved aside for
//                             post-mortem, never deleted, never re-served
//
// Writes are atomic (write to a dot-tmp sibling, fsync-free rename into
// place), so a crashed writer can never leave a half-written object where
// a reader would find it.  Replacing an existing file that way makes ext4
// (auto_da_alloc) start writeback of the new data inside rename(), which
// costs milliseconds when the disk is busy; the index is therefore written
// once per session rather than after every get/put, and a crash before
// that write costs only recency: get() adopts an unindexed object it
// finds, and a lost index makes the next open walk the objects.  Several
// instances may share a directory (a long-lived daemon beside CLI runs):
// flush() merges the on-disk index first, keeping the entries other
// instances added and dropping those they removed, so none loses another's
// work.
// Load-side validation (serial.h: magic, format version, payload SHA-256)
// turns truncation, corruption and version skew into clean misses — the
// caller rebuilds and overwrites; a corrupt entry is never fatal and can
// never produce a wrong Basis.
//
// Size is capped by LRU eviction: when the object bytes exceed `max_bytes`
// after an insert, least-recently-used artifacts are dropped (the newest
// entry is always kept, even if it alone exceeds the cap — evicting what
// was just built would make the store useless for oversized artifacts).
// Keys written during this process' lifetime are *pinned*: eviction never
// selects them, so a run can never evict its own artifacts (a Basis put at
// request start must still be there when the matching summary lands, and a
// summary must survive until its family head points at it).  Pins are
// process-local and die with the process — a later daemon run sees them as
// ordinary LRU entries.  A pin does not outlive its summary's usefulness:
// publish_summary() deletes the superseded summary of the family whether
// or not this instance pinned it, before the sweep runs, so a long-lived
// daemon instance and a store opened per request keep the same live set.
//
// The index is a key -> entry hash map with a running byte total, so
// every lookup, insert and removal is O(1) and an LRU sweep sorts its
// candidates once.  All operations take an internal mutex: one store
// instance is shared by every daemon executor thread.  Counters
// (store.hits / store.misses / store.evictions / store.quarantined,
// gauges store.bytes / store.objects) are published through obs::Metrics,
// which the daemon serves as its STATS endpoint.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "verify/basis.h"
#include "verify/incremental.h"

namespace sani::store {

class ArtifactStore {
 public:
  struct Options {
    std::string dir;
    /// LRU size cap over the object bytes; 0 = unbounded.
    std::uint64_t max_bytes = 0;
  };

  /// Opens the store by loading its index — and touches nothing else, so
  /// opening costs O(index), not O(objects).  Only when the index is
  /// missing or unreadable does it create the directory and quarantine/
  /// as needed and reconcile() instead, so a lost index degrades to a cold
  /// recency order, never to data loss.  Traced as the `store_open` span.
  explicit ArtifactStore(Options options);

  /// Writes the index if this instance changed it (flush()).
  ~ArtifactStore();

  /// Publishes this instance's index changes (sizes, recency, evictions,
  /// quarantines) to the index file, so instances opened later see them.
  /// The on-disk index is re-read first: entries another instance added
  /// are kept (and learnt), entries this instance never touched that the
  /// other removed are dropped, and this instance's own removals stay
  /// removed.  A no-op when nothing changed since the last write.
  void flush();

  /// Makes the index exact: stats every indexed object (dropping those
  /// whose file is gone, refreshing sizes) and adopts every object file the
  /// index lacks.  O(objects); the constructor runs it only without a
  /// readable index, `sani stats` runs it so its counts are exact.
  void reconcile();

  /// Raw object fetch.  Returns the file image and refreshes the key's
  /// recency; nullopt (a miss) when absent.  An indexed key whose file is
  /// gone leaves the index; an unindexed key whose file exists (another
  /// instance wrote it) is adopted.  No content validation here —
  /// load_basis() is the validating entry point.
  std::optional<std::string> get(const std::string& key);

  /// Atomic write-rename insert (overwrites an existing object), then
  /// LRU-evicts down to the size cap.  False if the object directory is not
  /// writable — callers treat the store as best-effort and continue.
  bool put(const std::string& key, const std::string& bytes);

  /// get() + deserialize, the observables named after `wire_names` (the
  /// request's circuit::canonical_wire_names; null leaves them unnamed).
  /// A missing object, or one failing validation (truncated, corrupted,
  /// wrong magic/version, hash mismatch, a position past `wire_names`),
  /// returns null; validation failures additionally move the file to
  /// quarantine/.
  std::shared_ptr<const verify::Basis> load_basis(
      const std::string& key,
      const std::vector<std::string>* wire_names = nullptr);

  /// serialize + put().
  bool save_basis(const std::string& key, const verify::Basis& basis,
                  const verify::BasisNeeds& needs);

  /// get() + deserialize for a cone-summary object (SANISUM framing).
  /// Same contract as load_basis: missing is a miss, invalid is a
  /// quarantined miss, never an exception.
  std::shared_ptr<const verify::ConeSummary> load_summary(
      const std::string& key);

  /// The summary object key the family pointer currently names, or nullopt
  /// when the family has no prior summary (or the pointer is malformed).
  std::optional<std::string> family_head(const std::string& family_key) const;

  /// Publishes a family's newest cone summary: serializes it to object
  /// `key`, atomically repoints heads/<family_key> at it, deletes the
  /// summary object the head named before (pinned or not: a summary is
  /// only ever read through its family head, so a superseded one is dead),
  /// and only then LRU-sweeps to the cap, so the sweep never evicts a live
  /// object while a dead one remains.  A reader that followed the old head
  /// just before the deletion gets a plain miss.  False if the object or
  /// the head could not be written.
  bool publish_summary(const std::string& family_key, const std::string& key,
                       const verify::ConeSummary& summary);

  bool contains(const std::string& key) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t total_bytes = 0;
    std::size_t objects = 0;
    std::uint64_t reconciles = 0;  // object-directory walks (reconcile())
  };
  Stats stats() const;

  const std::string& dir() const { return dir_; }

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

 private:
  /// An object key as its 32-byte SHA-256 digest: the in-memory index
  /// holds no key text (the index file and object paths use the hex form).
  struct Digest {
    std::array<std::uint8_t, 32> bytes;

    /// Parses 64 lowercase hex digits; nullopt for anything else.
    static std::optional<Digest> parse(std::string_view hex);
    std::string hex() const;
    bool operator==(const Digest& o) const { return bytes == o.bytes; }
    /// Byte order, which is also the hex keys' string order.
    bool operator<(const Digest& o) const { return bytes < o.bytes; }
  };
  struct DigestHash {
    std::size_t operator()(const Digest& d) const;
  };
  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t last_used = 0;  // logical clock, persisted in the index
    bool touched = false;  // read or written by this instance (flush merge)
  };
  using Entries = std::unordered_map<Digest, Entry, DigestHash>;
  using DigestSet = std::unordered_set<Digest, DigestHash>;

  std::string object_path(const Digest& key) const;
  /// Parses the index file into `out`; false when it is missing or any
  /// line is malformed.
  bool read_index(Entries* out) const;
  // The *_locked helpers expect mu_ held.  insert_locked writes and pins
  // an object without sweeping; remove_locked deletes one outright;
  // set_locked / erase_locked edit the index alone, keeping total_bytes_.
  bool insert_locked(const Digest& key, const std::string& bytes);
  void remove_locked(const Digest& key);
  Entry& set_locked(const Digest& key, std::uint64_t size);
  void erase_locked(Entries::iterator it);
  void reconcile_locked();
  std::optional<std::string> head_locked(const std::string& family_key) const;
  void evict_to_cap();
  void quarantine(const Digest& key);
  void publish_gauges() const;

  std::string dir_;
  std::uint64_t max_bytes_;
  mutable std::mutex mu_;
  Entries entries_;
  std::uint64_t total_bytes_ = 0;  // sum of entries_' sizes
  DigestSet pinned_;   // same-run keys, never evicted
  DigestSet removed_;  // since the last flush
  std::uint64_t clock_ = 0;
  bool index_dirty_ = false;  // entries_ changed since the index was written
  Stats stats_;
};

}  // namespace sani::store
