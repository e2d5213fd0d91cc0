#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "circuit/ilang.h"
#include "obs/trace.h"

namespace sani::circuit {

namespace {

struct ParseError : std::runtime_error {
  explicit ParseError(int line, const std::string& msg)
      : std::runtime_error("ilang:" + std::to_string(line) + ": " + msg) {}
};

// Declared bits across all wires.  Every bit is a slot of the flat net
// tables, so an absurd `width` must not turn into an absurd allocation.
constexpr std::int64_t kMaxNetBits = std::int64_t{1} << 24;

// A single-bit signal reference as spelled in the text: a (wire,bit) pair
// or a constant.  `wire` views the input text.
struct SigRef {
  enum Kind { kNet, kConst0, kConst1 } kind = kNet;
  std::string_view wire;
  int bit = 0;
};

// A single-bit reference with its wire interned: bit `bit` of wire id
// `wire`, or a constant.  kAbsent marks a cell port never connected.
struct NetRef {
  enum Kind : std::uint8_t { kAbsent, kNet, kConst0, kConst1 } kind = kAbsent;
  int wire = 0;
  int bit = 0;
};

struct WireDecl {
  int width = 1;
  int input_port = -1;   // ILANG `input N` slot, -1 if not an input
  int output_port = -1;  // ILANG `output N` slot
  int order = -1;        // declaration order; -1 while only referenced
};

// The cell ports a gate reads or drives; any other port name is ignored.
enum Port { kA, kB, kC, kS, kD, kY, kQ, kNumPorts };
constexpr const char* kPortNames[kNumPorts] = {"A", "B", "C", "S",
                                               "D", "Y", "Q"};

int port_of(std::string_view name) {
  if (name.size() != 1) return -1;
  for (int p = 0; p < kNumPorts; ++p)
    if (name[0] == kPortNames[p][0]) return p;
  return -1;
}

struct CellDecl {
  std::string_view type;
  std::string name;
  std::array<NetRef, kNumPorts> ports{};
  int line = 0;
  std::optional<GateKind> kind;  // resolved when emission first visits it
};

enum class Role { kNone, kSecret, kOutput, kRandom, kPublic };

// The tokens of one line, as views into it.  Whitespace is the C locale's
// set, the same split `istream >>` makes.
struct Tokenizer {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  int line_no = 0;

  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  }

  void reset(std::string_view line, int number) {
    tokens.clear();
    pos = 0;
    line_no = number;
    std::size_t i = 0;
    for (;;) {
      while (i < line.size() && is_space(line[i])) ++i;
      if (i == line.size()) return;
      const std::size_t start = i;
      while (i < line.size() && !is_space(line[i])) ++i;
      tokens.push_back(line.substr(start, i - start));
    }
  }

  bool done() const { return pos >= tokens.size(); }
  std::string_view peek() const {
    return done() ? std::string_view{} : tokens[pos];
  }
  std::string_view next() {
    if (done()) throw ParseError(line_no, "unexpected end of line");
    return tokens[pos++];
  }
};

// std::stoi's value and exceptions; short unsigned decimals skip the
// string it needs.
int to_int(std::string_view t) {
  if (!t.empty() && t.size() <= 9 &&
      std::all_of(t.begin(), t.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    int v = 0;
    for (char c : t) v = v * 10 + (c - '0');
    return v;
  }
  return std::stoi(std::string(t));
}

// Parses `\name`, `\name [i]`, `1'0`, `1'1`, `1'x`.
SigRef parse_sigref(Tokenizer& tz) {
  const std::string_view t = tz.next();
  SigRef ref;
  if (t == "1'0" || t == "1'x") {
    ref.kind = SigRef::kConst0;
    return ref;
  }
  if (t == "1'1") {
    ref.kind = SigRef::kConst1;
    return ref;
  }
  if (t.empty() || t[0] != '\\')
    throw ParseError(tz.line_no,
                     "expected signal reference, got '" + std::string(t) + "'");
  ref.wire = t.substr(1);
  if (!tz.done() && tz.peek().front() == '[') {
    const std::string_view sel = tz.next();
    if (sel.back() != ']')
      throw ParseError(tz.line_no,
                       "malformed bit select '" + std::string(sel) + "'");
    ref.bit = to_int(sel.substr(1, sel.size() - 2));
  }
  return ref;
}

struct Parser {
  // Wire names, interned on first mention (declaration, reference or
  // annotation); the per-wire vectors are indexed by the interned id.
  std::unordered_map<std::string_view, int> ids;
  std::vector<std::string_view> names;
  std::vector<WireDecl> decls;
  std::vector<Role> roles;
  std::vector<int> wire_order;  // declared wire ids
  std::vector<CellDecl> cells;
  std::vector<std::pair<NetRef, NetRef>> connects;
  std::string module_name = "top";
  bool saw_module = false;

  int intern(std::string_view name) {
    const auto [it, fresh] =
        ids.emplace(name, static_cast<int>(names.size()));
    if (fresh) {
      names.push_back(name);
      decls.emplace_back();
      roles.push_back(Role::kNone);
    }
    return it->second;
  }

  NetRef net(const SigRef& r) {
    if (r.kind == SigRef::kConst0) return {NetRef::kConst0};
    if (r.kind == SigRef::kConst1) return {NetRef::kConst1};
    return {NetRef::kNet, intern(r.wire), r.bit};
  }

  void annotate(std::string_view name, Role role, int line) {
    Role& r = roles[static_cast<std::size_t>(intern(name))];
    if (r != Role::kNone && r != role)
      throw ParseError(line,
                       "conflicting annotation for '" + std::string(name) +
                           "'");
    r = role;
  }

  void parse(std::string_view text) {
    int line_no = 0;
    std::optional<CellDecl> cell;
    Tokenizer tz;
    // Lines split as std::getline splits them: a final line needs no '\n'.
    for (std::size_t at = 0; at < text.size();) {
      std::size_t eol = text.find('\n', at);
      if (eol == std::string_view::npos) eol = text.size();
      std::string_view line = text.substr(at, eol - at);
      at = eol + 1;
      ++line_no;
      // `##` lines are annotations; other `#` prefixes are comments.
      auto hash = line.find('#');
      bool annotation = false;
      if (hash != std::string_view::npos) {
        if (line.compare(hash, 2, "##") == 0)
          annotation = true;
        else
          line = line.substr(0, hash);
      }
      tz.reset(line, line_no);
      if (tz.done()) continue;

      if (annotation) {
        tz.next();  // "##"
        const std::string_view what = tz.next();
        Role role;
        if (what == "input") role = Role::kSecret;
        else if (what == "output") role = Role::kOutput;
        else if (what == "random") role = Role::kRandom;
        else if (what == "public") role = Role::kPublic;
        else
          throw ParseError(line_no,
                           "unknown annotation '" + std::string(what) + "'");
        while (!tz.done()) {
          const std::string_view t = tz.next();
          if (t.empty() || t[0] != '\\')
            throw ParseError(line_no, "annotation expects \\names");
          annotate(t.substr(1), role, line_no);
        }
        continue;
      }

      const std::string_view kw = tz.next();
      if (kw == "connect") {
        SigRef a = parse_sigref(tz);
        if (cell) {
          // Port connection: first ref is the port name.
          if (a.bit != 0)
            throw ParseError(line_no, "bit select on port name");
          const SigRef b = parse_sigref(tz);
          const int port = a.kind == SigRef::kNet ? port_of(a.wire) : -1;
          if (port >= 0) cell->ports[static_cast<std::size_t>(port)] = net(b);
        } else {
          const SigRef b = parse_sigref(tz);
          connects.emplace_back(net(a), net(b));
        }
      } else if (kw == "module") {
        if (saw_module) throw ParseError(line_no, "multiple modules");
        saw_module = true;
        const std::string_view t = tz.next();
        module_name = std::string(t.size() > 1 && t[0] == '\\' ? t.substr(1)
                                                               : t);
      } else if (kw == "attribute" || kw == "parameter" || kw == "autoidx") {
        // metadata: ignored
      } else if (kw == "wire") {
        WireDecl d;
        d.order = static_cast<int>(wire_order.size());
        std::string_view name;
        while (!tz.done()) {
          const std::string_view t = tz.next();
          if (t == "width") d.width = to_int(tz.next());
          else if (t == "input") d.input_port = to_int(tz.next());
          else if (t == "output") d.output_port = to_int(tz.next());
          else if (t == "inout")
            throw ParseError(line_no, "inout ports unsupported");
          else if (t == "upto" || t == "signed") { /* ignored */ }
          else if (t == "offset") tz.next();
          else if (t[0] == '\\') name = t.substr(1);
          else
            throw ParseError(line_no,
                             "bad wire option '" + std::string(t) + "'");
        }
        if (name.empty()) throw ParseError(line_no, "wire without name");
        const int id = intern(name);
        WireDecl& decl = decls[static_cast<std::size_t>(id)];
        if (decl.order >= 0)
          throw ParseError(line_no,
                           "duplicate wire '" + std::string(name) + "'");
        decl = d;
        wire_order.push_back(id);
      } else if (kw == "cell") {
        if (cell) throw ParseError(line_no, "nested cell");
        CellDecl c;
        c.type = tz.next();
        c.name = tz.done()
                     ? std::string(c.type) + "$" + std::to_string(cells.size())
                     : std::string(tz.next());
        if (!c.name.empty() && c.name[0] == '\\') c.name.erase(0, 1);
        c.line = line_no;
        cell = std::move(c);
      } else if (kw == "end") {
        if (cell) {
          cells.push_back(std::move(*cell));
          cell.reset();
        }
        // else: end of module
      } else if (kw == "process" || kw == "memory" || kw == "switch") {
        throw ParseError(line_no,
                         "construct '" + std::string(kw) + "' unsupported");
      } else {
        throw ParseError(line_no,
                         "unknown keyword '" + std::string(kw) + "'");
      }
    }
    if (cell) throw ParseError(line_no, "unterminated cell");
  }
};

// Union-find over net slots (bit b of wire w is slot base[w] + b), with an
// optional constant binding per class.
struct Nets {
  std::vector<int> parent;
  std::vector<std::int8_t> const_value;  // per root: -1 unbound, 0 or 1

  explicit Nets(std::size_t slots) : parent(slots), const_value(slots, -1) {
    for (std::size_t i = 0; i < slots; ++i)
      parent[i] = static_cast<int>(i);
  }

  int find(int k) {
    while (parent[static_cast<std::size_t>(k)] != k) {
      int& up = parent[static_cast<std::size_t>(k)];
      up = parent[static_cast<std::size_t>(up)];  // path halving
      k = up;
    }
    return k;
  }

  void unite(int a, int b) {
    const int ra = find(a), rb = find(b);
    if (ra == rb) return;
    std::int8_t& ca = const_value[static_cast<std::size_t>(ra)];
    std::int8_t& cb = const_value[static_cast<std::size_t>(rb)];
    if (ca >= 0 && cb >= 0 && ca != cb)
      throw std::runtime_error("ilang: net tied to both constants");
    if (cb < 0) cb = ca;
    parent[static_cast<std::size_t>(ra)] = rb;
  }

  void tie_const(int k, int v) {
    std::int8_t& c = const_value[static_cast<std::size_t>(find(k))];
    if (c >= 0 && c != v)
      throw std::runtime_error("ilang: net tied to both constants");
    c = static_cast<std::int8_t>(v);
  }
};

GateKind cell_kind(std::string_view type, int line) {
  if (type == "$_BUF_") return GateKind::kBuf;
  if (type == "$_NOT_") return GateKind::kNot;
  if (type == "$_AND_") return GateKind::kAnd;
  if (type == "$_OR_") return GateKind::kOr;
  if (type == "$_XOR_") return GateKind::kXor;
  if (type == "$_XNOR_") return GateKind::kXnor;
  if (type == "$_NAND_") return GateKind::kNand;
  if (type == "$_NOR_") return GateKind::kNor;
  if (type == "$_ANDNOT_") return GateKind::kAndNot;
  if (type == "$_ORNOT_") return GateKind::kOrNot;
  if (type == "$_MUX_") return GateKind::kMux;
  if (type == "$_NMUX_") return GateKind::kNmux;
  if (type == "$_AOI3_") return GateKind::kAoi3;
  if (type == "$_OAI3_") return GateKind::kOai3;
  if (type == "$_DFF_P_" || type == "$_DFF_N_") return GateKind::kReg;
  throw ParseError(line, "unsupported cell type '" + std::string(type) + "'");
}

// The ports a gate of `kind` reads, in fan-in order.
struct InputPorts {
  Port port[3];
  int size;
};

InputPorts input_ports(GateKind kind) {
  if (kind == GateKind::kReg) return {{kD}, 1};
  if (kind == GateKind::kMux || kind == GateKind::kNmux)
    return {{kA, kB, kS}, 3};
  if (kind == GateKind::kAoi3 || kind == GateKind::kOai3)
    return {{kA, kB, kC}, 3};
  if (gate_arity(kind) == 1) return {{kA}, 1};
  return {{kA, kB}, 2};
}

Gadget build(Parser& p) {
  // Number the declared bits: bit b of wire w is slot base[w] + b.  One
  // extra slot stands for every constant a cell output is connected to.
  std::vector<int> base(p.names.size(), 0);
  std::int64_t slots = 0;
  for (const int w : p.wire_order) {
    base[static_cast<std::size_t>(w)] = static_cast<int>(slots);
    slots += std::max(p.decls[static_cast<std::size_t>(w)].width, 0);
    if (slots > kMaxNetBits)
      throw std::runtime_error("ilang: more than " +
                               std::to_string(kMaxNetBits) + " net bits");
  }
  const int const_sink = static_cast<int>(slots);
  Nets nets(static_cast<std::size_t>(slots) + 1);

  auto slot = [&](const NetRef& r) -> int {
    if (r.kind != NetRef::kNet) return const_sink;
    const std::size_t w = static_cast<std::size_t>(r.wire);
    const WireDecl& d = p.decls[w];
    if (d.order < 0)
      throw std::runtime_error("ilang: reference to undeclared wire '" +
                               std::string(p.names[w]) + "'");
    if (r.bit < 0 || r.bit >= d.width)
      throw std::runtime_error("ilang: bit select out of range on '" +
                               std::string(p.names[w]) + "'");
    return base[w] + r.bit;
  };

  // Register aliases and constants from top-level connects.
  for (const auto& [a, b] : p.connects) {
    const int ka = slot(a);
    const int kb = slot(b);
    if (a.kind == NetRef::kNet && b.kind == NetRef::kNet)
      nets.unite(ka, kb);
    else if (a.kind == NetRef::kNet)
      nets.tie_const(ka, b.kind == NetRef::kConst1 ? 1 : 0);
    else if (b.kind == NetRef::kNet)
      nets.tie_const(kb, a.kind == NetRef::kConst1 ? 1 : 0);
  }

  Netlist nl(p.module_name);

  // Root slot -> netlist wire (once driven).
  std::vector<WireId> driven(static_cast<std::size_t>(slots) + 1, kNoWire);
  auto driver = [&](int k) -> WireId& {
    return driven[static_cast<std::size_t>(nets.find(k))];
  };

  // Inputs (or outputs) in (port, declaration) order.
  auto ports_in_order = [&](int WireDecl::*port) {
    std::vector<std::pair<int, int>> order;  // (port, declaration order)
    for (const int w : p.wire_order) {
      const WireDecl& d = p.decls[static_cast<std::size_t>(w)];
      if (d.*port >= 0) order.emplace_back(d.*port, d.order);
    }
    std::sort(order.begin(), order.end());
    std::vector<int> wires;
    wires.reserve(order.size());
    for (const auto& [port_no, decl] : order)
      wires.push_back(p.wire_order[static_cast<std::size_t>(decl)]);
    return wires;
  };

  SecuritySpec spec;
  for (const int id : ports_in_order(&WireDecl::input_port)) {
    const WireDecl& d = p.decls[static_cast<std::size_t>(id)];
    const std::string name(p.names[static_cast<std::size_t>(id)]);
    const Role role = p.roles[static_cast<std::size_t>(id)];
    ShareGroup group;
    group.name = name;
    for (int b = 0; b < d.width; ++b) {
      std::string wname =
          d.width == 1 ? name : name + "[" + std::to_string(b) + "]";
      WireId w = nl.add(GateKind::kInput, wname);
      WireId& drv = driver(base[static_cast<std::size_t>(id)] + b);
      if (drv != kNoWire)
        throw std::runtime_error("ilang: input net driven twice: " + name);
      drv = w;
      switch (role) {
        case Role::kSecret: group.shares.push_back(w); break;
        case Role::kRandom: spec.randoms.push_back(w); break;
        case Role::kPublic:
        case Role::kNone: spec.publics.push_back(w); break;
        case Role::kOutput:
          throw std::runtime_error("ilang: '## output' on an input wire: " +
                                   name);
      }
    }
    if (role == Role::kSecret) spec.secrets.push_back(std::move(group));
  }

  // Constants used anywhere become dedicated nodes on demand.
  WireId const_wire[2] = {kNoWire, kNoWire};
  auto const_node = [&](int v) {
    if (const_wire[v] == kNoWire)
      const_wire[v] = nl.add(v ? GateKind::kConst1 : GateKind::kConst0,
                             v ? "$const1" : "$const0");
    return const_wire[v];
  };

  // Resolve a cell input ref to a netlist wire if available.
  auto resolve = [&](const NetRef& r) -> WireId {
    if (r.kind == NetRef::kConst0) return const_node(0);
    if (r.kind == NetRef::kConst1) return const_node(1);
    const int root = nets.find(slot(r));
    if (const int v = nets.const_value[static_cast<std::size_t>(root)]; v >= 0)
      return const_node(v);
    return driven[static_cast<std::size_t>(root)];
  };

  // Topological emission of cells (arbitrary declaration order supported).
  std::vector<bool> emitted(p.cells.size(), false);
  std::size_t remaining = p.cells.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
      if (emitted[i]) continue;
      CellDecl& c = p.cells[i];
      if (!c.kind) c.kind = cell_kind(c.type, c.line);
      const GateKind kind = *c.kind;
      const InputPorts in = input_ports(kind);

      WireId fanin[3] = {kNoWire, kNoWire, kNoWire};
      bool ready = true;
      for (int j = 0; j < in.size; ++j) {
        const NetRef& r = c.ports[in.port[j]];
        if (r.kind == NetRef::kAbsent)
          throw ParseError(c.line, std::string("cell missing port ") +
                                       kPortNames[in.port[j]]);
        fanin[j] = resolve(r);
        if (fanin[j] == kNoWire) ready = false;
      }
      if (!ready) continue;

      const Port out_port = kind == GateKind::kReg ? kQ : kY;
      const NetRef& out = c.ports[out_port];
      if (out.kind == NetRef::kAbsent)
        throw ParseError(c.line, std::string("cell missing port ") +
                                     kPortNames[out_port]);
      WireId w = nl.add(kind, c.name, fanin[0], fanin[1], fanin[2]);
      WireId& drv = driver(slot(out));
      if (drv != kNoWire)
        throw ParseError(c.line, "net driven twice by cell " + c.name);
      drv = w;
      emitted[i] = true;
      --remaining;
      progress = true;
    }
    if (!progress)
      throw std::runtime_error(
          "ilang: combinational cycle or undriven cell input");
  }

  // Output groups, ordered by (port, declaration).
  for (const int id : ports_in_order(&WireDecl::output_port)) {
    const WireDecl& d = p.decls[static_cast<std::size_t>(id)];
    const std::string name(p.names[static_cast<std::size_t>(id)]);
    ShareGroup group;
    group.name = name;
    for (int b = 0; b < d.width; ++b) {
      const int root = nets.find(base[static_cast<std::size_t>(id)] + b);
      WireId w = driven[static_cast<std::size_t>(root)];
      if (w == kNoWire) {
        const int v = nets.const_value[static_cast<std::size_t>(root)];
        if (v < 0)
          throw std::runtime_error("ilang: undriven output bit of '" + name +
                                   "'");
        w = const_node(v);
      }
      nl.add_output(w);
      group.shares.push_back(w);
    }
    if (p.roles[static_cast<std::size_t>(id)] == Role::kOutput)
      spec.outputs.push_back(std::move(group));
  }

  Gadget g{std::move(nl), std::move(spec)};
  g.validate();
  return g;
}

Gadget parse_text(std::string_view text) {
  obs::Span span("parse");
  Parser p;
  p.parse(text);
  return build(p);
}

}  // namespace

Gadget parse_ilang(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return parse_text(text);
}

Gadget parse_ilang_string(const std::string& text) { return parse_text(text); }

Gadget parse_ilang_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("ilang: cannot open " + path);
  return parse_ilang(is);
}

}  // namespace sani::circuit
