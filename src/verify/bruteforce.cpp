#include "verify/bruteforce.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "circuit/cone.h"
#include "sched/cancel.h"
#include "util/combinations.h"
#include "verify/checker.h"
#include "verify/observables.h"

namespace sani::verify {

namespace {

using circuit::GateKind;
using circuit::WireId;

struct BruteObservable {
  Observable::Kind kind;
  std::vector<WireId> members;  // wires whose values the adversary sees
  int output_share_index = -1;
  std::vector<std::string> names;
};

struct BruteUniverse {
  // Truth table of every wire, bit x = value at input assignment x.
  std::vector<std::vector<std::uint64_t>> table;
  std::vector<BruteObservable> observables;

  int num_inputs = 0;
  std::vector<int> share_positions;          // input position -> is share?
  std::vector<Mask> secret_pos;              // per secret: input-position mask
  std::vector<std::vector<int>> secret_share_pos;  // [secret][index] -> pos
  Mask share_pos_all;
  Mask random_pos;
  Mask public_pos;

  bool wire_bit(WireId w, std::size_t x) const {
    return (table[w][x >> 6] >> (x & 63)) & 1;
  }
};

BruteUniverse build_universe(const circuit::Gadget& gadget,
                             const ProbeModelOptions& probes) {
  const circuit::Netlist& nl = gadget.netlist;
  const std::vector<WireId> inputs = nl.inputs();
  const int n = static_cast<int>(inputs.size());
  if (n > 22)
    throw std::invalid_argument("verify_bruteforce: too many inputs");

  BruteUniverse u;
  u.num_inputs = n;
  const std::size_t size = std::size_t{1} << n;
  const std::size_t words = (size + 63) / 64;
  u.table.assign(nl.num_wires(), std::vector<std::uint64_t>(words, 0));

  std::vector<bool> in_bits(static_cast<std::size_t>(n));
  for (std::size_t x = 0; x < size; ++x) {
    for (int i = 0; i < n; ++i) in_bits[i] = (x >> i) & 1;
    const std::vector<bool> values = nl.evaluate(in_bits);
    for (WireId w = 0; w < nl.num_wires(); ++w)
      if (values[w]) u.table[w][x >> 6] |= std::uint64_t{1} << (x & 63);
  }

  // Input positions by role.
  std::map<WireId, int> pos;
  for (int i = 0; i < n; ++i) pos[inputs[i]] = i;
  for (const auto& g : gadget.spec.secrets) {
    Mask m;
    std::vector<int> ps;
    for (WireId w : g.shares) {
      m.set(pos.at(w));
      ps.push_back(pos.at(w));
    }
    u.share_pos_all |= m;
    u.secret_pos.push_back(m);
    u.secret_share_pos.push_back(std::move(ps));
  }
  for (WireId w : gadget.spec.randoms) u.random_pos.set(pos.at(w));
  for (WireId w : gadget.spec.publics) u.public_pos.set(pos.at(w));

  // Observables: outputs first, then probes (same policy as observables.cpp).
  std::set<std::vector<std::vector<std::uint64_t>>> seen;
  auto signature = [&](const std::vector<WireId>& members) {
    std::vector<std::vector<std::uint64_t>> sig;
    for (WireId w : members) sig.push_back(u.table[w]);
    std::sort(sig.begin(), sig.end());
    return sig;
  };

  for (const auto& g : gadget.spec.outputs)
    for (std::size_t j = 0; j < g.shares.size(); ++j) {
      BruteObservable o;
      o.kind = Observable::Kind::kOutput;
      o.members = {g.shares[j]};
      o.output_share_index = static_cast<int>(j);
      o.names = {nl.node(g.shares[j]).name};
      if (probes.dedupe && !seen.insert(signature(o.members)).second)
        continue;
      u.observables.push_back(std::move(o));
    }

  std::vector<std::vector<WireId>> cones;
  if (probes.glitch_robust) cones = circuit::glitch_cones(nl);

  for (WireId w = 0; w < nl.num_wires(); ++w) {
    const GateKind kind = nl.node(w).kind;
    if (kind == GateKind::kConst0 || kind == GateKind::kConst1) continue;
    if (kind == GateKind::kInput && !probes.include_inputs) continue;
    // Output wires stay probe-able (see observables.cpp): deduplicated in
    // the standard model, strictly more revealing under glitches.
    BruteObservable o;
    o.kind = Observable::Kind::kProbe;
    o.members = probes.glitch_robust ? cones[w] : std::vector<WireId>{w};
    if (o.members.empty()) continue;
    o.names = {nl.node(w).name};
    // Constant probe functions carry no information.
    if (o.members.size() == 1) {
      const auto& t = u.table[o.members[0]];
      bool all0 = true, all1 = true;
      const std::size_t sz = std::size_t{1} << n;
      for (std::size_t x = 0; x < sz; ++x) {
        if (u.wire_bit(o.members[0], x)) all0 = false;
        else all1 = false;
        (void)t;
      }
      if (all0 || all1) continue;
    }
    if (probes.dedupe && !seen.insert(signature(o.members)).second) continue;
    u.observables.push_back(std::move(o));
  }
  return u;
}

/// Bits of `x` selected by `mask`, compacted into a small integer.
std::size_t compact(std::size_t x, const Mask& mask, int num_bits) {
  std::size_t out = 0;
  int k = 0;
  for (int i = 0; i < num_bits; ++i)
    if (mask.test(i)) {
      out |= ((x >> i) & 1) << k;
      ++k;
    }
  return out;
}

}  // namespace

VerifyResult verify_bruteforce(const circuit::Gadget& gadget,
                               const VerifyOptions& options) {
  const BruteUniverse u = build_universe(gadget, options.probes);
  const int n = u.num_inputs;
  const std::size_t size = std::size_t{1} << n;

  VerifyResult result;
  result.stats.num_observables = u.observables.size();
  const int N = static_cast<int>(u.observables.size());

  const Mask cond_mask = u.share_pos_all | u.public_pos;
  const int cond_bits = cond_mask.popcount();
  if (cond_bits > 24)
    throw std::invalid_argument("verify_bruteforce: too many share bits");

  // Map compact conditioning index bit -> original position (for dependency
  // extraction).
  std::vector<int> cond_positions;
  for (int i = 0; i < n; ++i)
    if (cond_mask.test(i)) cond_positions.push_back(i);

  const int num_secret_bits = static_cast<int>(u.secret_pos.size());

  sched::CancelToken deadline;
  if (options.time_limit > 0) deadline.set_deadline_after(options.time_limit);

  for (int k = options.order; k >= 1; --k) {
    CombinationIter it(N, k);
    if (!it.valid()) continue;
    do {
      // Per-combination deadline poll: a timeout fires mid-enumeration and
      // returns the partial-progress result (sani exit code 2).
      if (deadline.expired()) {
        result.timed_out = true;
        deadline.acknowledge();
        return result;
      }
      ++result.stats.combinations;
      const auto& combo = it.indices();

      RowContext row;
      std::vector<WireId> members;
      for (int i : combo) {
        const BruteObservable& o = u.observables[i];
        row.add(o.kind == Observable::Kind::kOutput, o.output_share_index);
        members.insert(members.end(), o.members.begin(), o.members.end());
      }
      if (members.size() > 16)
        throw std::invalid_argument(
            "verify_bruteforce: observation tuple too wide");
      const std::size_t tuple_size = std::size_t{1} << members.size();

      auto fail = [&](const std::string& reason) {
        result.secure = false;
        CounterExample ce;
        for (int i : combo)
          for (const auto& nm : u.observables[i].names)
            ce.observables.push_back(nm);
        ce.reason = reason;
        result.counterexample = std::move(ce);
      };

      if (options.notion == Notion::kProbing) {
        // Distribution conditioned on the secrets AND the public inputs
        // (the adversary knows the publics; only randoms and the sharing
        // itself are averaged).  Independence must hold within every public
        // setting, across secret settings.
        const int num_public_bits = u.public_pos.popcount();
        std::vector<std::vector<std::uint32_t>> counts(
            std::size_t{1} << (num_secret_bits + num_public_bits),
            std::vector<std::uint32_t>(tuple_size, 0));
        for (std::size_t x = 0; x < size; ++x) {
          std::size_t t = 0;
          for (std::size_t j = 0; j < members.size(); ++j)
            t |= static_cast<std::size_t>(u.wire_bit(members[j], x)) << j;
          std::size_t s = 0;
          for (int b = 0; b < num_secret_bits; ++b) {
            bool bit = false;
            u.secret_pos[b].for_each_bit([&](int p) { bit ^= (x >> p) & 1; });
            s |= static_cast<std::size_t>(bit) << b;
          }
          s |= compact(x, u.public_pos, n) << num_secret_bits;
          ++counts[s][t];
        }
        const std::size_t secret_space = std::size_t{1} << num_secret_bits;
        for (std::size_t pub = 0;
             pub < (std::size_t{1} << num_public_bits); ++pub)
          for (std::size_t s = 1; s < secret_space; ++s)
            if (counts[pub * secret_space + s] !=
                counts[pub * secret_space]) {
              fail("observed distribution depends on the secrets");
              return result;
            }
        continue;
      }

      // Distribution conditioned on shares (and publics); randoms averaged.
      std::vector<std::vector<std::uint32_t>> counts(
          std::size_t{1} << cond_bits,
          std::vector<std::uint32_t>(tuple_size, 0));
      for (std::size_t x = 0; x < size; ++x) {
        std::size_t t = 0;
        for (std::size_t j = 0; j < members.size(); ++j)
          t |= static_cast<std::size_t>(u.wire_bit(members[j], x)) << j;
        ++counts[compact(x, cond_mask, n)][t];
      }

      // Exact dependency set: a conditioning bit matters iff flipping it
      // changes some conditional distribution.
      Mask V;
      for (std::size_t cb = 0; cb < cond_positions.size(); ++cb) {
        const std::size_t flip = std::size_t{1} << cb;
        bool depends = false;
        for (std::size_t c = 0; c < counts.size() && !depends; ++c)
          if ((c & flip) == 0 && counts[c] != counts[c | flip]) depends = true;
        if (depends) V.set(cond_positions[cb]);
      }

      std::vector<Mask> per_secret(u.secret_pos.size());
      for (std::size_t i = 0; i < u.secret_pos.size(); ++i)
        per_secret[i] = V & u.secret_pos[i];

      switch (options.notion) {
        case Notion::kNI:
        case Notion::kSNI: {
          const int t = options.notion == Notion::kNI ? row.num_observables
                                                      : row.num_internal;
          if (options.joint_share_count) {
            const int total = (V & u.share_pos_all).popcount();
            if (total > t) {
              fail("joint distribution depends on " + std::to_string(total) +
                   " input shares in total (allowed: " + std::to_string(t) +
                   ")");
              return result;
            }
            break;
          }
          for (std::size_t i = 0; i < per_secret.size(); ++i)
            if (per_secret[i].popcount() > t) {
              fail("joint distribution depends on " +
                   std::to_string(per_secret[i].popcount()) +
                   " shares of secret " + std::to_string(i) +
                   " (allowed: " + std::to_string(t) + ")");
              return result;
            }
          break;
        }
        case Notion::kPINI: {
          std::set<int> touched;
          for (std::size_t i = 0; i < u.secret_share_pos.size(); ++i)
            for (std::size_t j = 0; j < u.secret_share_pos[i].size(); ++j)
              if (V.test(u.secret_share_pos[i][j]))
                touched.insert(static_cast<int>(j));
          int extra = 0;
          for (int j : touched)
            if (!((row.output_mask >> j) & 1)) ++extra;
          if (extra > row.num_internal) {
            fail("observations touch " + std::to_string(extra) +
                 " share indices beyond the probed outputs");
            return result;
          }
          break;
        }
        case Notion::kProbing:
          break;  // handled above
      }
    } while (it.next());
  }
  return result;
}

}  // namespace sani::verify
