#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "circuit/ilang.h"
#include "obs/trace.h"

namespace sani::circuit {

namespace {

struct ParseError : std::runtime_error {
  explicit ParseError(int line, const std::string& msg)
      : std::runtime_error("ilang:" + std::to_string(line) + ": " + msg) {}
};

// A single-bit signal reference: a (wire,bit) pair or a constant.
struct SigRef {
  enum Kind { kNet, kConst0, kConst1 } kind = kNet;
  std::string wire;
  int bit = 0;

  std::string key() const { return wire + "#" + std::to_string(bit); }
};

struct WireDecl {
  int width = 1;
  int input_port = -1;   // ILANG `input N` slot, -1 if not an input
  int output_port = -1;  // ILANG `output N` slot
  int order = 0;         // declaration order tiebreak
};

struct CellDecl {
  std::string type;
  std::string name;
  std::map<std::string, SigRef> ports;
  int line = 0;
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
  std::string next() {
    if (done()) throw ParseError(line_no, "unexpected end of line");
    return std::string(tokens[pos++]);
  }
};

// Parses `\name`, `\name [i]`, `1'0`, `1'1`, `1'x`.
SigRef parse_sigref(Tokenizer& tz) {
  std::string t = tz.next();
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
    throw ParseError(tz.line_no, "expected signal reference, got '" + t + "'");
  ref.wire = t.substr(1);
  if (!tz.done() && tz.peek().front() == '[') {
    std::string sel = tz.next();
    if (sel.back() != ']')
      throw ParseError(tz.line_no, "malformed bit select '" + sel + "'");
    ref.bit = std::stoi(sel.substr(1, sel.size() - 2));
  }
  return ref;
}

struct Parser {
  std::map<std::string, WireDecl> wires;
  std::vector<std::string> wire_order;
  std::map<std::string, Role> roles;
  std::vector<std::string> role_order;  // annotation order
  std::vector<CellDecl> cells;
  std::vector<std::pair<SigRef, SigRef>> connects;
  std::string module_name = "top";
  bool saw_module = false;

  void annotate(const std::string& name, Role role, int line) {
    auto [it, fresh] = roles.emplace(name, role);
    if (!fresh && it->second != role)
      throw ParseError(line, "conflicting annotation for '" + name + "'");
    if (fresh) role_order.push_back(name);
  }

  void parse(std::istream& is) {
    std::string line;
    int line_no = 0;
    std::optional<CellDecl> cell;
    Tokenizer tz;
    while (std::getline(is, line)) {
      ++line_no;
      // `##` lines are annotations; other `#` prefixes are comments.
      std::string_view text(line);
      auto hash = text.find('#');
      bool annotation = false;
      if (hash != std::string_view::npos) {
        if (text.compare(hash, 2, "##") == 0)
          annotation = true;
        else
          text = text.substr(0, hash);
      }
      tz.reset(text, line_no);
      if (tz.done()) continue;

      if (annotation) {
        tz.next();  // "##"
        std::string what = tz.next();
        Role role;
        if (what == "input") role = Role::kSecret;
        else if (what == "output") role = Role::kOutput;
        else if (what == "random") role = Role::kRandom;
        else if (what == "public") role = Role::kPublic;
        else throw ParseError(line_no, "unknown annotation '" + what + "'");
        while (!tz.done()) {
          std::string t = tz.next();
          if (t.empty() || t[0] != '\\')
            throw ParseError(line_no, "annotation expects \\names");
          annotate(t.substr(1), role, line_no);
        }
        continue;
      }

      std::string kw = tz.next();
      if (kw == "module") {
        if (saw_module) throw ParseError(line_no, "multiple modules");
        saw_module = true;
        std::string t = tz.next();
        module_name = t.size() > 1 && t[0] == '\\' ? t.substr(1) : t;
      } else if (kw == "attribute" || kw == "parameter" || kw == "autoidx") {
        // metadata: ignored
      } else if (kw == "wire") {
        WireDecl d;
        d.order = static_cast<int>(wire_order.size());
        std::string name;
        while (!tz.done()) {
          std::string t = tz.next();
          if (t == "width") d.width = std::stoi(tz.next());
          else if (t == "input") d.input_port = std::stoi(tz.next());
          else if (t == "output") d.output_port = std::stoi(tz.next());
          else if (t == "inout")
            throw ParseError(line_no, "inout ports unsupported");
          else if (t == "upto" || t == "signed") { /* ignored */ }
          else if (t == "offset") tz.next();
          else if (t[0] == '\\') name = t.substr(1);
          else throw ParseError(line_no, "bad wire option '" + t + "'");
        }
        if (name.empty()) throw ParseError(line_no, "wire without name");
        if (!wires.emplace(name, d).second)
          throw ParseError(line_no, "duplicate wire '" + name + "'");
        wire_order.push_back(name);
      } else if (kw == "cell") {
        if (cell) throw ParseError(line_no, "nested cell");
        CellDecl c;
        c.type = tz.next();
        c.name = tz.done() ? c.type + "$" + std::to_string(cells.size())
                           : tz.next();
        if (!c.name.empty() && c.name[0] == '\\') c.name = c.name.substr(1);
        c.line = line_no;
        cell = std::move(c);
      } else if (kw == "connect") {
        SigRef a = parse_sigref(tz);
        if (cell) {
          // Port connection: first ref is the port name.
          if (a.bit != 0)
            throw ParseError(line_no, "bit select on port name");
          SigRef b = parse_sigref(tz);
          cell->ports[a.wire] = b;
        } else {
          SigRef b = parse_sigref(tz);
          connects.emplace_back(a, b);
        }
      } else if (kw == "end") {
        if (cell) {
          cells.push_back(std::move(*cell));
          cell.reset();
        }
        // else: end of module
      } else if (kw == "process" || kw == "memory" || kw == "switch") {
        throw ParseError(line_no, "construct '" + kw + "' unsupported");
      } else {
        throw ParseError(line_no, "unknown keyword '" + kw + "'");
      }
    }
    if (cell) throw ParseError(line_no, "unterminated cell");
  }
};

// Union-find over net keys, with optional constant binding per class.
struct Nets {
  std::map<std::string, std::string> parent;
  std::map<std::string, int> const_value;  // root -> 0/1

  std::string find(const std::string& k) {
    auto it = parent.find(k);
    if (it == parent.end()) {
      parent.emplace(k, k);
      return k;
    }
    if (it->second == k) return k;
    std::string root = find(it->second);
    parent[k] = root;
    return root;
  }

  void unite(const std::string& a, const std::string& b) {
    std::string ra = find(a), rb = find(b);
    if (ra == rb) return;
    // Merge constant bindings.
    auto ca = const_value.find(ra);
    auto cb = const_value.find(rb);
    if (ca != const_value.end() && cb != const_value.end() &&
        ca->second != cb->second)
      throw std::runtime_error("ilang: net tied to both constants");
    int cv = ca != const_value.end() ? ca->second
             : cb != const_value.end() ? cb->second
                                       : -1;
    parent[ra] = rb;
    const_value.erase(ra);
    if (cv >= 0) const_value[rb] = cv;
  }

  void tie_const(const std::string& k, int v) {
    std::string r = find(k);
    auto it = const_value.find(r);
    if (it != const_value.end() && it->second != v)
      throw std::runtime_error("ilang: net tied to both constants");
    const_value[r] = v;
  }
};

GateKind cell_kind(const std::string& type, int line) {
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
  throw ParseError(line, "unsupported cell type '" + type + "'");
}

}  // namespace

Gadget parse_ilang(std::istream& is) {
  obs::Span span("parse");
  Parser p;
  p.parse(is);

  Nets nets;
  auto ref_key = [&](const SigRef& r) -> std::string {
    if (r.kind == SigRef::kNet) {
      auto it = p.wires.find(r.wire);
      if (it == p.wires.end())
        throw std::runtime_error("ilang: reference to undeclared wire '" +
                                 r.wire + "'");
      if (r.bit < 0 || r.bit >= it->second.width)
        throw std::runtime_error("ilang: bit select out of range on '" +
                                 r.wire + "'");
      return r.key();
    }
    return "";
  };

  // Register aliases and constants from top-level connects.
  for (const auto& [a, b] : p.connects) {
    std::string ka = ref_key(a);
    std::string kb = ref_key(b);
    if (!ka.empty() && !kb.empty())
      nets.unite(ka, kb);
    else if (!ka.empty())
      nets.tie_const(ka, b.kind == SigRef::kConst1 ? 1 : 0);
    else if (!kb.empty())
      nets.tie_const(kb, a.kind == SigRef::kConst1 ? 1 : 0);
  }
  // Touch every declared bit so isolated nets exist.
  for (const auto& name : p.wire_order) {
    const WireDecl& d = p.wires.at(name);
    for (int b = 0; b < d.width; ++b)
      nets.find(name + "#" + std::to_string(b));
  }

  Netlist nl(p.module_name);

  // root net -> netlist wire (once driven).
  std::map<std::string, WireId> driven;

  // Inputs first, ordered by (port, bit).
  std::vector<std::pair<std::pair<int, int>, std::string>> input_wires;
  for (const auto& name : p.wire_order) {
    const WireDecl& d = p.wires.at(name);
    if (d.input_port >= 0)
      input_wires.push_back({{d.input_port, d.order}, name});
  }
  std::sort(input_wires.begin(), input_wires.end());

  SecuritySpec spec;
  for (const auto& [key, name] : input_wires) {
    const WireDecl& d = p.wires.at(name);
    Role role = Role::kNone;
    if (auto it = p.roles.find(name); it != p.roles.end()) role = it->second;
    ShareGroup group;
    group.name = name;
    for (int b = 0; b < d.width; ++b) {
      std::string wname =
          d.width == 1 ? name : name + "[" + std::to_string(b) + "]";
      WireId w = nl.add(GateKind::kInput, wname);
      std::string root = nets.find(name + "#" + std::to_string(b));
      if (driven.count(root))
        throw std::runtime_error("ilang: input net driven twice: " + name);
      driven[root] = w;
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
  auto resolve = [&](const SigRef& r) -> WireId {
    if (r.kind == SigRef::kConst0) return const_node(0);
    if (r.kind == SigRef::kConst1) return const_node(1);
    std::string root = nets.find(ref_key(r));
    if (auto it = nets.const_value.find(root); it != nets.const_value.end())
      return const_node(it->second);
    if (auto it = driven.find(root); it != driven.end()) return it->second;
    return kNoWire;
  };

  // Topological emission of cells (arbitrary declaration order supported).
  std::vector<bool> emitted(p.cells.size(), false);
  std::size_t remaining = p.cells.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
      if (emitted[i]) continue;
      const CellDecl& c = p.cells[i];
      GateKind kind = cell_kind(c.type, c.line);
      const bool is_reg = kind == GateKind::kReg;
      const char* out_port = is_reg ? "Q" : "Y";
      std::vector<std::string> in_ports;
      if (is_reg) in_ports = {"D"};
      else if (kind == GateKind::kMux || kind == GateKind::kNmux)
        in_ports = {"A", "B", "S"};
      else if (kind == GateKind::kAoi3 || kind == GateKind::kOai3)
        in_ports = {"A", "B", "C"};
      else if (gate_arity(kind) == 1) in_ports = {"A"};
      else in_ports = {"A", "B"};

      WireId fanin[3] = {kNoWire, kNoWire, kNoWire};
      bool ready = true;
      for (std::size_t j = 0; j < in_ports.size(); ++j) {
        auto it = c.ports.find(in_ports[j]);
        if (it == c.ports.end())
          throw ParseError(c.line, "cell missing port " + in_ports[j]);
        fanin[j] = resolve(it->second);
        if (fanin[j] == kNoWire) ready = false;
      }
      if (!ready) continue;

      auto out_it = c.ports.find(out_port);
      if (out_it == c.ports.end())
        throw ParseError(c.line, std::string("cell missing port ") + out_port);
      WireId w = nl.add(kind, c.name, fanin[0], fanin[1], fanin[2]);
      std::string root = nets.find(ref_key(out_it->second));
      if (driven.count(root))
        throw ParseError(c.line, "net driven twice by cell " + c.name);
      driven[root] = w;
      emitted[i] = true;
      --remaining;
      progress = true;
    }
    if (!progress)
      throw std::runtime_error(
          "ilang: combinational cycle or undriven cell input");
  }

  // Output groups, ordered by (port, declaration).
  std::vector<std::pair<std::pair<int, int>, std::string>> output_wires;
  for (const auto& name : p.wire_order) {
    const WireDecl& d = p.wires.at(name);
    if (d.output_port >= 0)
      output_wires.push_back({{d.output_port, d.order}, name});
  }
  std::sort(output_wires.begin(), output_wires.end());
  for (const auto& [key, name] : output_wires) {
    const WireDecl& d = p.wires.at(name);
    ShareGroup group;
    group.name = name;
    for (int b = 0; b < d.width; ++b) {
      std::string root = nets.find(name + "#" + std::to_string(b));
      WireId w;
      if (auto it = driven.find(root); it != driven.end()) {
        w = it->second;
      } else if (auto cit = nets.const_value.find(root);
                 cit != nets.const_value.end()) {
        w = const_node(cit->second);
      } else {
        throw std::runtime_error("ilang: undriven output bit of '" + name +
                                 "'");
      }
      nl.add_output(w);
      group.shares.push_back(w);
    }
    Role role = Role::kNone;
    if (auto it = p.roles.find(name); it != p.roles.end()) role = it->second;
    if (role == Role::kOutput) spec.outputs.push_back(std::move(group));
  }

  Gadget g{std::move(nl), std::move(spec)};
  g.validate();
  return g;
}

Gadget parse_ilang_string(const std::string& text) {
  std::istringstream is(text);
  return parse_ilang(is);
}

Gadget parse_ilang_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("ilang: cannot open " + path);
  return parse_ilang(is);
}

}  // namespace sani::circuit
