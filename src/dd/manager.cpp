#include "dd/manager.h"

#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace sani::dd {

namespace {

constexpr std::size_t kInitialSlots = 1u << 6;
constexpr std::size_t kInitialGcThreshold = 1u << 16;

bool as_bool(std::int64_t v) { return v != 0; }

// Range checks run from the first member initializer, before any table is
// sized from the arguments: an out-of-range cache_bits must not reach the
// 2^cache_bits allocation (bad_alloc, or an undefined shift when negative).
int checked_num_vars(int num_vars, int cache_bits) {
  if (num_vars < 0 || num_vars > Mask::kMaxBits)
    throw std::invalid_argument("Manager: num_vars out of [0,128]");
  if (cache_bits < 1 || cache_bits > 30)
    throw std::invalid_argument("Manager: cache_bits out of [1,30]");
  return num_vars;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kPlus: return "plus";
    case Op::kMinus: return "minus";
    case Op::kTimes: return "times";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kIte: return "ite";
    case Op::kExists: return "exists";
    case Op::kForall: return "forall";
    case Op::kNotEquals0: return "nonzero";
    case Op::kEquals0: return "iszero";
    case Op::kWalsh: return "walsh";
    case Op::kAbs: return "abs";
    case Op::kDivPow2: return "divpow2";
    case Op::kCofactor0: return "cofactor0";
    case Op::kCofactor1: return "cofactor1";
    case Op::kCompose: return "compose";
  }
  return "?";
}

Manager::Manager(int num_vars, int cache_bits)
    : num_vars_(checked_num_vars(num_vars, cache_bits)),
      cache_bits_(cache_bits),
      unique_(static_cast<std::size_t>(num_vars)),
      var_to_level_(static_cast<std::size_t>(num_vars)),
      level_to_var_(static_cast<std::size_t>(num_vars)),
      cache_(std::size_t{1} << cache_bits),
      cache_mask_((std::size_t{1} << cache_bits) - 1),
      gc_threshold_(kInitialGcThreshold) {
  for (auto& t : unique_) t.slots.assign(kInitialSlots, kNilNode);
  cache_used_ = std::make_unique_for_overwrite<std::uint32_t[]>(cache_.size());
  terminal_map_.keys.assign(kInitialSlots, 0);
  terminal_map_.vals.assign(kInitialSlots, kNilNode);
  std::iota(var_to_level_.begin(), var_to_level_.end(), 0);
  std::iota(level_to_var_.begin(), level_to_var_.end(), 0);
  zero_ = terminal(0);
  one_ = terminal(1);
}

// --------------------------------------------------------------------------
// Node allocation and hash-consing
// --------------------------------------------------------------------------

NodeId Manager::alloc_node() {
  NodeId n;
  if (free_list_ != kNilNode) {
    n = free_list_;
    free_list_ = los_[n];  // free list threads through the lo array
    --free_count_;
  } else {
    if (arena_used_ == vars_.size()) {
      if (arena_used_ >= static_cast<std::size_t>(kNilNode))
        throw std::runtime_error("Manager: node arena exhausted");
      const std::size_t grown =
          vars_.empty() ? std::size_t{1} << 10 : vars_.size() * 2;
      vars_.resize(grown, 0);
      los_.resize(grown, kNilNode);
      his_.resize(grown, kNilNode);
      refs_.resize(grown, 0);
    }
    n = static_cast<NodeId>(arena_used_++);
  }
  ++live_count_;
  stats_.live_nodes = live_count_;
  if (live_count_ > stats_.peak_nodes) stats_.peak_nodes = live_count_;
  return n;
}

std::size_t Manager::subtable_home(const SubTable& t, NodeId lo,
                                   NodeId hi) const {
  std::uint64_t h = (static_cast<std::uint64_t>(lo) << 32) | hi;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & (t.slots.size() - 1);
}

NodeId Manager::subtable_find(const SubTable& t, NodeId lo, NodeId hi) const {
  const std::size_t mask = t.slots.size() - 1;
  std::size_t slot = subtable_home(t, lo, hi);
  std::size_t dist = 0;
  while (true) {
    const NodeId occ = t.slots[slot];
    if (occ == kNilNode) return kNilNode;
    if (los_[occ] == lo && his_[occ] == hi) return occ;
    // Robin-hood invariant: residents are ordered by probe distance, so a
    // resident closer to its home than we are to ours ends the search.
    const std::size_t occ_dist =
        (slot - subtable_home(t, los_[occ], his_[occ])) & mask;
    if (occ_dist < dist) return kNilNode;
    slot = (slot + 1) & mask;
    ++dist;
  }
}

void Manager::subtable_place(SubTable& t, NodeId cur, std::size_t slot,
                             std::size_t dist) {
  const std::size_t mask = t.slots.size() - 1;
  while (true) {
    if (t.slots[slot] == kNilNode) {
      t.slots[slot] = cur;
      ++t.count;
      return;
    }
    const NodeId occ = t.slots[slot];
    const std::size_t occ_dist =
        (slot - subtable_home(t, los_[occ], his_[occ])) & mask;
    if (occ_dist < dist) {  // rob the rich: displace the closer-to-home entry
      t.slots[slot] = cur;
      cur = occ;
      dist = occ_dist;
    }
    slot = (slot + 1) & mask;
    ++dist;
  }
}

void Manager::subtable_insert(int var, NodeId n) {
  SubTable& t = unique_[var];
  if ((t.count + 1) * 4 > t.slots.size() * 3) subtable_grow(var);
  subtable_place(t, n, subtable_home(t, los_[n], his_[n]), 0);
}

void Manager::subtable_remove(int var, NodeId n) {
  SubTable& t = unique_[var];
  const std::size_t mask = t.slots.size() - 1;
  std::size_t slot = subtable_home(t, los_[n], his_[n]);
  while (t.slots[slot] != n) {
    assert(t.slots[slot] != kNilNode && "subtable_remove: node not found");
    slot = (slot + 1) & mask;
  }
  // Backward-shift deletion keeps the probe-distance ordering without
  // tombstones: slide successors left until an empty slot or a resident
  // already at its home.
  std::size_t next = (slot + 1) & mask;
  while (t.slots[next] != kNilNode) {
    const NodeId occ = t.slots[next];
    if (((next - subtable_home(t, los_[occ], his_[occ])) & mask) == 0) break;
    t.slots[slot] = occ;
    slot = next;
    next = (next + 1) & mask;
  }
  t.slots[slot] = kNilNode;
  --t.count;
}

void Manager::subtable_grow(int var) {
  SubTable& t = unique_[var];
  std::vector<NodeId> old = std::move(t.slots);
  t.slots.assign(old.size() * 2, kNilNode);
  t.count = 0;
  for (NodeId n : old)
    if (n != kNilNode) subtable_insert(var, n);
}

std::size_t Manager::terminal_home(std::int64_t value) const {
  std::uint64_t h = static_cast<std::uint64_t>(value);
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & (terminal_map_.vals.size() - 1);
}

void Manager::terminal_map_grow() {
  TerminalMap old = std::move(terminal_map_);
  terminal_map_.keys.assign(old.keys.size() * 2, 0);
  terminal_map_.vals.assign(old.vals.size() * 2, kNilNode);
  terminal_map_.count = old.count;
  for (std::size_t i = 0; i < old.vals.size(); ++i) {
    if (old.vals[i] == kNilNode) continue;
    std::size_t slot = terminal_home(old.keys[i]);
    while (terminal_map_.vals[slot] != kNilNode)
      slot = (slot + 1) & (terminal_map_.vals.size() - 1);
    terminal_map_.keys[slot] = old.keys[i];
    terminal_map_.vals[slot] = old.vals[i];
  }
}

NodeId Manager::terminal(std::int64_t value) {
  const std::size_t mask = terminal_map_.vals.size() - 1;
  std::size_t slot = terminal_home(value);
  while (terminal_map_.vals[slot] != kNilNode) {
    if (terminal_map_.keys[slot] == value) return terminal_map_.vals[slot];
    slot = (slot + 1) & mask;
  }
  NodeId n = alloc_node();
  vars_[n] = kTermVar;
  los_[n] = static_cast<NodeId>(static_cast<std::uint64_t>(value));
  his_[n] = static_cast<NodeId>(static_cast<std::uint64_t>(value) >> 32);
  refs_[n] = 1;  // terminals are immortal
  terminal_map_.keys[slot] = value;
  terminal_map_.vals[slot] = n;
  if (++terminal_map_.count * 4 > terminal_map_.vals.size() * 3)
    terminal_map_grow();
  return n;
}

std::int64_t Manager::terminal_value(NodeId n) const {
  assert(is_terminal(n));
  return pack_value(los_[n], his_[n]);
}

NodeId Manager::make(int var, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;  // reduction rule
  assert(var >= 0 && var < num_vars_);
  assert(node_level(lo) > var_to_level_[var]);
  assert(node_level(hi) > var_to_level_[var]);
  SubTable& t = unique_[var];
  if ((t.count + 1) * 4 > t.slots.size() * 3) subtable_grow(var);
  // Single fused probe: a robin-hood search that ends with a miss is
  // already standing on the new node's insertion point.
  const std::size_t mask = t.slots.size() - 1;
  std::size_t slot = subtable_home(t, lo, hi);
  std::size_t dist = 0;
  while (true) {
    const NodeId occ = t.slots[slot];
    if (occ == kNilNode) break;
    if (los_[occ] == lo && his_[occ] == hi) return occ;
    const std::size_t occ_dist =
        (slot - subtable_home(t, los_[occ], his_[occ])) & mask;
    if (occ_dist < dist) break;  // invariant: key would already sit here
    slot = (slot + 1) & mask;
    ++dist;
  }
  NodeId n = alloc_node();
  vars_[n] = var;
  los_[n] = lo;
  his_[n] = hi;
  refs_[n] = 0;
  subtable_place(t, n, slot, dist);
  return n;
}

NodeId Manager::var_node(int var) { return make(var, zero_, one_); }
NodeId Manager::nvar_node(int var) { return make(var, one_, zero_); }

// --------------------------------------------------------------------------
// Shared visit stamps and garbage collection
// --------------------------------------------------------------------------

std::uint32_t Manager::begin_visit() const {
  if (stamps_.size() < vars_.size()) stamps_.resize(vars_.size(), 0);
  if (++stamp_epoch_ == 0) {
    // Epoch counter wrapped: old stamps could alias the new epoch, so reset
    // them all once per 2^32 walks.
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stamp_epoch_ = 1;
  }
  return stamp_epoch_;
}

void Manager::mark_rec(NodeId root, std::uint32_t epoch) {
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (stamps_[n] == epoch) continue;
    stamps_[n] = epoch;
    if (vars_[n] != kTermVar) {
      stack.push_back(los_[n]);
      stack.push_back(his_[n]);
    }
  }
}

void Manager::scrub_cache(std::uint32_t epoch) {
  // Entries referencing a node that is about to be swept must go: the freed
  // NodeId will be recycled for an unrelated function, and a stale hit would
  // silently corrupt results.  Everything whose operands and result survive
  // stays hot across the collection.  Only occupied slots (tracked in
  // cache_used_) are visited, so the pass is proportional to occupancy, not
  // table size — reorder_sift collects per level move and relies on this.
  auto dead = [&](NodeId n) { return stamps_[n] != epoch; };
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cache_used_count_; ++i) {
    const std::uint32_t slot = cache_used_[i];
    CacheEntry& e = cache_[slot];
    if (e.result == kNilNode) continue;  // defensive: slot already empty
    bool drop = dead(e.a) || dead(e.result);
    if (!drop && op_b_is_node(e.op)) drop = dead(e.b);
    if (!drop && op_c_is_node(e.op)) drop = dead(e.c);
    if (drop) {
      e = CacheEntry{};
      ++stats_.cache_scrubbed;
    } else {
      cache_used_[kept++] = slot;
      ++stats_.cache_survived;
    }
  }
  cache_used_count_ = kept;
}

std::size_t Manager::collect_garbage() {
  obs::Span span("gc");
  // Mark phase: externally referenced nodes and all terminals are roots.
  const std::uint32_t epoch = begin_visit();
  for (std::size_t i = 0; i < arena_used_; ++i)
    if (refs_[i] > 0 && vars_[i] != kTermVar && stamps_[i] != epoch)
      mark_rec(static_cast<NodeId>(i), epoch);
  for (NodeId n : terminal_map_.vals)
    if (n != kNilNode) stamps_[n] = epoch;

  // Scrub the computed table of entries touching doomed nodes; survivors
  // keep their slots (and their hits) across the sweep.
  scrub_cache(epoch);

  // Sweep phase: rebuild the subtables from survivors, thread the rest onto
  // the free list (through los_).
  for (auto& t : unique_) {
    std::fill(t.slots.begin(), t.slots.end(), kNilNode);
    t.count = 0;
  }
  free_list_ = kNilNode;
  free_count_ = 0;
  std::size_t marked = 0;
  for (std::size_t i = 0; i < arena_used_; ++i) {
    if (stamps_[i] == epoch) {
      ++marked;
      if (vars_[i] != kTermVar) subtable_insert(vars_[i], static_cast<NodeId>(i));
      continue;
    }
    vars_[i] = 0;
    his_[i] = kNilNode;
    refs_[i] = 0;
    los_[i] = free_list_;
    free_list_ = static_cast<NodeId>(i);
    ++free_count_;
  }
  const std::size_t freed = live_count_ - marked;
  live_count_ = marked;
  ++stats_.gc_runs;
  stats_.nodes_freed += freed;
  stats_.live_nodes = live_count_;
  sample_counters();
  return freed;
}

/// Emits manager health as trace counter tracks.  GC boundaries are the
/// natural sampling points: cheap (one enabled() check when tracing is off)
/// and frequent enough to show the node population over a run.
void Manager::sample_counters() const {
  // The live-node gauge feeds the fleet telemetry snapshots (`sani top`
  // reads it between GCs), so it is written even when tracing is off —
  // one relaxed store at a GC boundary, which the overhead gate can't see.
  static obs::Gauge& live_gauge =
      obs::Metrics::instance().gauge("dd.live_nodes");
  live_gauge.set(static_cast<double>(live_count_));
  auto& tracer = obs::Tracer::instance();
  if (!tracer.enabled()) return;
  tracer.counter("dd.live_nodes", static_cast<double>(live_count_));
  tracer.counter("dd.arena_bytes", static_cast<double>(arena_bytes()));
  const std::uint64_t hits = stats_.cache_hits;
  const std::uint64_t lookups = hits + stats_.cache_misses;
  if (lookups > 0)
    tracer.counter("dd.cache_hit_rate",
                   static_cast<double>(hits) / static_cast<double>(lookups));
}

void Manager::maybe_gc() {
  if (live_count_ < gc_threshold_) return;
  collect_garbage();
  // Keep collections amortized: if most nodes survived, raise the bar.
  if (live_count_ > gc_threshold_ / 2) gc_threshold_ *= 2;
}

std::size_t Manager::arena_bytes() const {
  std::size_t bytes = vars_.capacity() * sizeof(std::int32_t) +
                      los_.capacity() * sizeof(NodeId) +
                      his_.capacity() * sizeof(NodeId) +
                      refs_.capacity() * sizeof(std::uint32_t) +
                      stamps_.capacity() * sizeof(std::uint32_t);
  for (const auto& t : unique_) bytes += t.slots.capacity() * sizeof(NodeId);
  bytes += terminal_map_.keys.capacity() * sizeof(std::int64_t) +
           terminal_map_.vals.capacity() * sizeof(NodeId);
  return bytes;
}

std::size_t Manager::cache_bytes() const {
  return cache_.capacity() * sizeof(CacheEntry) +
         cache_.size() * sizeof(std::uint32_t);  // + the cache_used_ buffer
}

// --------------------------------------------------------------------------
// Apply and friends  (the computed-table fast path is inline in manager.h)
// --------------------------------------------------------------------------

std::int64_t Manager::eval_terminal_op(Op op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case Op::kAnd: return as_bool(a) && as_bool(b) ? 1 : 0;
    case Op::kOr: return as_bool(a) || as_bool(b) ? 1 : 0;
    case Op::kXor: return as_bool(a) != as_bool(b) ? 1 : 0;
    case Op::kPlus: return a + b;
    case Op::kMinus: return a - b;
    case Op::kTimes: return a * b;
    case Op::kMin: return a < b ? a : b;
    case Op::kMax: return a > b ? a : b;
    default: break;
  }
  std::abort();  // non-binary op routed through apply()
}

NodeId Manager::apply_rec(Op op, NodeId f, NodeId g) {
  // Short circuits.  Boolean ops (kAnd/kOr/kXor) require 0/1 operands, which
  // makes the identities below valid without inspecting the whole diagram.
  switch (op) {
    case Op::kAnd:
      if (f == zero_ || g == zero_) return zero_;
      if (f == one_) return g;
      if (g == one_) return f;
      if (f == g) return f;
      break;
    case Op::kOr:
      if (f == one_ || g == one_) return one_;
      if (f == zero_) return g;
      if (g == zero_) return f;
      if (f == g) return f;
      break;
    case Op::kXor:
      if (f == zero_) return g;
      if (g == zero_) return f;
      if (f == g) return zero_;
      break;
    case Op::kTimes:
      if (f == zero_ || g == zero_) return zero_;
      if (f == one_) return g;
      if (g == one_) return f;
      break;
    case Op::kPlus:
      if (f == zero_) return g;
      if (g == zero_) return f;
      break;
    case Op::kMinus:
      if (g == zero_) return f;
      break;
    case Op::kMin:
    case Op::kMax:
      if (f == g) return f;
      break;
    default:
      break;
  }

  if (is_terminal(f) && is_terminal(g))
    return terminal(eval_terminal_op(op, terminal_value(f), terminal_value(g)));

  // Normalize commutative operand order for better cache reuse.
  switch (op) {
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kPlus:
    case Op::kTimes:
    case Op::kMin:
    case Op::kMax:
      if (f > g) std::swap(f, g);
      break;
    default:
      break;
  }

  NodeId cached;
  if (cache_lookup(op, f, g, kNilNode, &cached)) return cached;

  const int flevel = node_level(f);
  const int glevel = node_level(g);
  const int level = flevel < glevel ? flevel : glevel;
  const int var = level_to_var_[level];
  NodeId f0 = flevel == level ? los_[f] : f;
  NodeId f1 = flevel == level ? his_[f] : f;
  NodeId g0 = glevel == level ? los_[g] : g;
  NodeId g1 = glevel == level ? his_[g] : g;

  NodeId r0 = apply_rec(op, f0, g0);
  NodeId r1 = apply_rec(op, f1, g1);
  NodeId r = make(var, r0, r1);
  cache_insert(op, f, g, kNilNode, r);
  return r;
}

NodeId Manager::apply(Op op, NodeId f, NodeId g) {
  maybe_gc();
  return apply_rec(op, f, g);
}

NodeId Manager::ite(NodeId f, NodeId g, NodeId h) {
  maybe_gc();
  // Recursive ITE over a 0/1 selector f; g/h may be arbitrary ADDs.
  struct Rec {
    Manager& m;
    NodeId run(NodeId f, NodeId g, NodeId h) {
      if (f == m.one_) return g;
      if (f == m.zero_) return h;
      if (g == h) return g;
      NodeId cached;
      if (m.cache_lookup(Op::kIte, f, g, h, &cached)) return cached;
      const int fl = m.node_level(f);
      const int gl = m.node_level(g);
      const int hl = m.node_level(h);
      int level = fl;
      if (gl < level) level = gl;
      if (hl < level) level = hl;
      const int var = m.level_to_var_[level];
      NodeId f0 = fl == level ? m.los_[f] : f;
      NodeId f1 = fl == level ? m.his_[f] : f;
      NodeId g0 = gl == level ? m.los_[g] : g;
      NodeId g1 = gl == level ? m.his_[g] : g;
      NodeId h0 = hl == level ? m.los_[h] : h;
      NodeId h1 = hl == level ? m.his_[h] : h;
      NodeId r = m.make(var, run(f0, g0, h0), run(f1, g1, h1));
      m.cache_insert(Op::kIte, f, g, h, r);
      return r;
    }
  };
  return Rec{*this}.run(f, g, h);
}

NodeId Manager::not_(NodeId f) { return apply(Op::kXor, f, one_); }

NodeId Manager::cube(const Mask& vars) {
  maybe_gc();
  NodeId c = one_;
  // Build bottom-up in level order so every make() call sees deeper
  // children.
  for (int level = num_vars_ - 1; level >= 0; --level) {
    const int var = level_to_var_[level];
    if (vars.test(var)) c = make(var, zero_, c);
  }
  return c;
}

NodeId Manager::exists(NodeId f, const Mask& vars) {
  NodeId c = cube(vars);
  struct Rec {
    Manager& m;
    Op op;       // cache tag: kExists or kForall
    Op combine;  // kOr or kAnd
    NodeId run(NodeId f, NodeId c) {
      if (m.is_terminal(f)) return f;
      // Skip quantified variables above f's top variable: quantifying a
      // variable f does not depend on leaves f unchanged (for 0/1 f).
      while (!m.is_terminal(c) && m.node_level(c) < m.node_level(f))
        c = m.his_[c];
      if (m.is_terminal(c)) return f;
      NodeId cached;
      if (m.cache_lookup(op, f, c, kNilNode, &cached)) return cached;
      NodeId r;
      if (m.vars_[f] == m.vars_[c]) {
        NodeId lo = run(m.los_[f], m.his_[c]);
        NodeId hi = run(m.his_[f], m.his_[c]);
        r = m.apply_rec(combine, lo, hi);
      } else {
        r = m.make(m.vars_[f], run(m.los_[f], c), run(m.his_[f], c));
      }
      m.cache_insert(op, f, c, kNilNode, r);
      return r;
    }
  };
  maybe_gc();
  return Rec{*this, Op::kExists, Op::kOr}.run(f, c);
}

NodeId Manager::forall(NodeId f, const Mask& vars) {
  NodeId c = cube(vars);
  struct Rec {
    Manager& m;
    NodeId run(NodeId f, NodeId c) {
      if (m.is_terminal(f)) return f;
      while (!m.is_terminal(c) && m.node_level(c) < m.node_level(f))
        c = m.his_[c];
      if (m.is_terminal(c)) return f;
      NodeId cached;
      if (m.cache_lookup(Op::kForall, f, c, kNilNode, &cached)) return cached;
      NodeId r;
      if (m.vars_[f] == m.vars_[c]) {
        NodeId lo = run(m.los_[f], m.his_[c]);
        NodeId hi = run(m.his_[f], m.his_[c]);
        r = m.apply_rec(Op::kAnd, lo, hi);
      } else {
        r = m.make(m.vars_[f], run(m.los_[f], c), run(m.his_[f], c));
      }
      m.cache_insert(Op::kForall, f, c, kNilNode, r);
      return r;
    }
  };
  maybe_gc();
  return Rec{*this}.run(f, c);
}

NodeId Manager::cofactor(NodeId f, int var, bool value) {
  maybe_gc();
  Op op = value ? Op::kCofactor1 : Op::kCofactor0;
  struct Rec {
    Manager& m;
    Op op;
    int var;
    int var_level;
    bool value;
    NodeId run(NodeId f) {
      if (m.is_terminal(f) || m.node_level(f) > var_level) return f;
      if (m.vars_[f] == var) return value ? m.his_[f] : m.los_[f];
      NodeId cached;
      if (m.cache_lookup(op, f, static_cast<NodeId>(var), kNilNode, &cached))
        return cached;
      NodeId r = m.make(m.vars_[f], run(m.los_[f]), run(m.his_[f]));
      m.cache_insert(op, f, static_cast<NodeId>(var), kNilNode, r);
      return r;
    }
  };
  return Rec{*this, op, var, var_to_level_[var], value}.run(f);
}

namespace {

// Generic unary terminal map with caching.
template <typename Fn>
NodeId unary_rec(Manager& m, Op op, NodeId f, Fn&& leaf) {
  if (m.is_terminal(f)) return m.terminal(leaf(m.terminal_value(f)));
  NodeId cached;
  if (m.cache_lookup(op, f, kNilNode, kNilNode, &cached)) return cached;
  NodeId r = m.make(m.node_var(f), unary_rec(m, op, m.node_lo(f), leaf),
                    unary_rec(m, op, m.node_hi(f), leaf));
  m.cache_insert(op, f, kNilNode, kNilNode, r);
  return r;
}

}  // namespace

NodeId Manager::nonzero(NodeId f) {
  maybe_gc();
  return unary_rec(*this, Op::kNotEquals0, f,
                   [](std::int64_t v) -> std::int64_t { return v != 0; });
}

NodeId Manager::iszero(NodeId f) {
  maybe_gc();
  return unary_rec(*this, Op::kEquals0, f,
                   [](std::int64_t v) -> std::int64_t { return v == 0; });
}

NodeId Manager::abs(NodeId f) {
  maybe_gc();
  return unary_rec(*this, Op::kAbs, f, [](std::int64_t v) -> std::int64_t {
    return v < 0 ? -v : v;
  });
}

// --------------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------------

Mask Manager::support(NodeId f) {
  Mask result;
  visit_postorder({f}, [&](NodeId n) {
    if (!is_terminal(n)) result.set(vars_[n]);
  });
  return result;
}

std::int64_t Manager::eval(NodeId f, const Mask& assignment) const {
  while (!is_terminal(f))
    f = assignment.test(vars_[f]) ? his_[f] : los_[f];
  return terminal_value(f);
}

double Manager::sat_count(NodeId f) {
  std::unordered_map<NodeId, double> memo;
  auto rec = [&](auto&& self, NodeId n) -> double {
    if (is_terminal(n)) return terminal_value(n) != 0 ? 1.0 : 0.0;
    auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const int level = node_level(n);
    double lo = self(self, los_[n]) *
                std::pow(2.0, node_level(los_[n]) - level - 1);
    double hi = self(self, his_[n]) *
                std::pow(2.0, node_level(his_[n]) - level - 1);
    double r = lo + hi;
    memo.emplace(n, r);
    return r;
  };
  return rec(rec, f) * std::pow(2.0, node_level(f));
}

std::int64_t Manager::max_abs_terminal(NodeId f) {
  std::int64_t best = 0;
  visit_postorder({f}, [&](NodeId n) {
    if (!is_terminal(n)) return;
    std::int64_t v = terminal_value(n);
    if (v < 0) v = -v;
    if (v > best) best = v;
  });
  return best;
}

bool Manager::any_sat(NodeId f, Mask* assignment) const {
  *assignment = Mask{};
  // Canonical form guarantees that any node with a nonzero terminal below it
  // has at least one child leading to a nonzero terminal; walking greedily
  // toward "not the zero terminal" suffices because the zero terminal is
  // unique and reduction removed redundant tests.
  while (!is_terminal(f)) {
    NodeId lo = los_[f];
    // Prefer the 0-branch if it can reach a nonzero terminal.
    if (reaches_nonzero(lo)) {
      f = lo;
    } else {
      assignment->set(vars_[f]);
      f = his_[f];
    }
  }
  return terminal_value(f) != 0;
}

bool Manager::reaches_nonzero(NodeId f) const {
  const std::uint32_t epoch = begin_visit();
  std::vector<NodeId> stack{f};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (stamps_[n] == epoch) continue;
    stamps_[n] = epoch;
    if (is_terminal(n)) {
      if (terminal_value(n) != 0) return true;
      continue;
    }
    stack.push_back(los_[n]);
    stack.push_back(his_[n]);
  }
  return false;
}

std::size_t Manager::dag_size(NodeId f) const {
  std::size_t count = 0;
  visit_postorder({f}, [&](NodeId) { ++count; });
  return count;
}

// --------------------------------------------------------------------------
// Dynamic reordering
// --------------------------------------------------------------------------

void Manager::swap_adjacent_levels(int level) {
  assert(level >= 0 && level + 1 < num_vars_);
  const int u = level_to_var_[level];      // moves down
  const int v = level_to_var_[level + 1];  // moves up

  // Snapshot the var-u nodes: make() during the rewrite only creates fresh
  // var-u nodes whose children live strictly below level+1, and those need
  // no processing.
  std::vector<NodeId> u_nodes;
  u_nodes.reserve(unique_[u].count);
  for (NodeId n : unique_[u].slots)
    if (n != kNilNode) u_nodes.push_back(n);

  // Commit the order change first so make(u, ...) sees the new levels.
  std::swap(level_to_var_[level], level_to_var_[level + 1]);
  var_to_level_[u] = level + 1;
  var_to_level_[v] = level;

  for (NodeId n : u_nodes) {
    const NodeId lo = los_[n];
    const NodeId hi = his_[n];
    const bool lo_v = !is_terminal(lo) && vars_[lo] == v;
    const bool hi_v = !is_terminal(hi) && vars_[hi] == v;
    if (!lo_v && !hi_v) continue;  // node sinks below v untouched

    const NodeId f00 = lo_v ? los_[lo] : lo;
    const NodeId f01 = lo_v ? his_[lo] : lo;
    const NodeId f10 = hi_v ? los_[hi] : hi;
    const NodeId f11 = hi_v ? his_[hi] : hi;

    // Rewrite in place: the NodeId keeps denoting the same function, now
    // rooted at var v.  (A canonical collision is impossible: an existing
    // (v, lo', hi') node cannot depend on u, while this one does.)
    subtable_remove(u, n);
    const NodeId new_lo = make(u, f00, f10);
    const NodeId new_hi = make(u, f01, f11);
    assert(new_lo != new_hi);
    vars_[n] = v;
    los_[n] = new_lo;
    his_[n] = new_hi;
    subtable_insert(v, n);
  }
  ++stats_.reorder_swaps;
  // Node identities still denote the same functions, so ordinary computed-
  // table entries stay valid.  Level-keyed entries (Walsh/ANF butterflies)
  // do not; bumping the epoch turns them into misses without a table sweep.
  if (++order_epoch_ == 0) {
    // 16-bit epoch wrapped (65536 swaps): purge every level-keyed entry so
    // none of them can alias the restarted counter.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cache_used_count_; ++i) {
      const std::uint32_t slot = cache_used_[i];
      CacheEntry& e = cache_[slot];
      if (e.result == kNilNode) continue;
      if (op_order_sensitive(e.op)) {
        e = CacheEntry{};
        continue;
      }
      cache_used_[kept++] = slot;
    }
    cache_used_count_ = kept;
  }
}

void Manager::move_level(int from, int to) {
  while (from > to) {
    swap_adjacent_levels(from - 1);
    --from;
  }
  while (from < to) {
    swap_adjacent_levels(from);
    ++from;
  }
}

std::size_t Manager::reorder_sift() {
  obs::Span span("sift");
  // Sift variables in decreasing subtable-size order.  Collect first so the
  // size metric starts from live nodes only; swaps may strand a few orphans,
  // so the metric is a (slight) over-approximation during a pass.
  collect_garbage();
  std::vector<int> vars(num_vars_);
  std::iota(vars.begin(), vars.end(), 0);
  std::sort(vars.begin(), vars.end(), [&](int a, int b) {
    return unique_[a].count > unique_[b].count;
  });

  for (int var : vars) {
    if (unique_[var].count == 0) continue;
    collect_garbage();

    auto total = [&] {
      std::size_t t = 0;
      for (const auto& st : unique_) t += st.count;
      return t;
    };

    const int start = var_to_level_[var];
    int best_level = start;
    std::size_t best_size = total();

    // Sweep to the nearer end first, then across to the other end.  Each
    // swap strands the old cofactor nodes as garbage, which would bias the
    // size metric toward the starting position; collect before measuring.
    const bool down_first = start >= num_vars_ / 2;
    auto sweep = [&](int target) {
      while (var_to_level_[var] != target) {
        const int l = var_to_level_[var];
        move_level(l, l + (target > l ? 1 : -1));
        collect_garbage();
        const std::size_t size = total();
        if (size < best_size) {
          best_size = size;
          best_level = var_to_level_[var];
        }
      }
    };
    if (down_first) {
      sweep(num_vars_ - 1);
      sweep(0);
    } else {
      sweep(0);
      sweep(num_vars_ - 1);
    }
    move_level(var_to_level_[var], best_level);
  }
  collect_garbage();
  return live_node_count();
}

void Manager::set_variable_order(const std::vector<int>& order) {
  if (order.size() != static_cast<std::size_t>(num_vars_))
    throw std::invalid_argument("set_variable_order: wrong length");
  std::vector<bool> seen(num_vars_, false);
  for (int v : order) {
    if (v < 0 || v >= num_vars_ || seen[v])
      throw std::invalid_argument("set_variable_order: not a permutation");
    seen[v] = true;
  }
  for (int target = 0; target < num_vars_; ++target)
    move_level(var_to_level_[order[target]], target);
}

}  // namespace sani::dd
