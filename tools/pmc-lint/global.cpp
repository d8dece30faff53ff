// pmc-lint pass 2: the cross-TU rules over the whole-program index.
//
//   D8  encode/decode schema symmetry — per message kind (or per named
//       schema() binding), every encoder's put_* record sequence and every
//       decoder's read_* sequence must agree in type and order.
//   D1-D5 helper propagation — a helper whose own file hides a banned core
//       pattern from the rule's scope taints every call site where the
//       rule is live (one level deep).
//   D10 stale-suppression audit — allow()/schema() comments that match
//       nothing fail the build.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "internal.hpp"

namespace pmc_lint {
namespace internal {
namespace {

const Token& at(const std::vector<Token>& toks, std::size_t i) {
  static const Token kEnd{"", 0, false};
  return i < toks.size() ? toks[i] : kEnd;
}

std::size_t match_paren_fwd(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return toks.size();
}

std::size_t match_brace_fwd(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

/// Maps put_*/read_* member names to the wire type they move.
const char* accessor_type(const std::string& name) {
  if (name == "put_u8" || name == "read_u8") return "u8";
  if (name == "put_id" || name == "read_id") return "id";
  if (name == "put_id_rel" || name == "read_id_rel") return "id_rel";
  if (name == "put_color" || name == "read_color") return "color";
  return nullptr;
}

bool is_member_call(const std::vector<Token>& toks, std::size_t i) {
  if (!toks[i].is_ident || at(toks, i + 1).text != "(") return false;
  const std::string& prev = i > 0 ? toks[i - 1].text : std::string();
  return prev == "." || prev == "->";
}

/// A mention of message-kind constant `kinds[name]` at token i: enum kinds
/// must be qualified by their enum's name (so VState::kFailed is not
/// RecordType::kFailed); bare constants must appear unqualified.
bool kind_mention_at(const std::vector<Token>& toks, std::size_t i,
                     const ProgramIndex& idx, std::string* name_out) {
  if (!toks[i].is_ident) return false;
  const auto it = idx.kinds.find(toks[i].text);
  if (it == idx.kinds.end()) return false;
  const bool qualified = i >= 2 && toks[i - 1].text == "::";
  if (it->second.enum_name.empty()) {
    if (qualified) return false;
  } else {
    if (!qualified || toks[i - 2].text != it->second.enum_name) return false;
  }
  if (name_out != nullptr) *name_out = toks[i].text;
  return true;
}

/// Display key for a kind ("RecordType::kRequest" / "kInvalidateRecord").
std::string kind_key(const ProgramIndex& idx, const std::string& name) {
  const auto it = idx.kinds.find(name);
  if (it != idx.kinds.end() && !it->second.enum_name.empty()) {
    return it->second.enum_name + "::" + name;
  }
  return name;
}

std::string seq_str(const std::vector<std::string>& seq) {
  std::string out = "[";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    out += (i == 0 ? "" : ", ") + seq[i];
  }
  return out + "]";
}

// ---- D8: schema extraction -------------------------------------------------

struct SeqSite {
  std::size_t file = 0;  ///< Index into ProgramIndex::files.
  int line = 0;          ///< First accessor of the sequence.
  std::string fn;        ///< Qualified function name, for messages.
  std::vector<std::string> seq;
  bool is_encoder = false;
};

/// Accessor sequences one function contributes, keyed by message kind or
/// schema name.
struct FnSchemas {
  std::map<std::string, std::vector<SeqSite>> enc;  ///< Records written.
  std::map<std::string, SeqSite> dec;               ///< Flat read order.
  bool any_events = false;
  bool u8_only = true;  ///< Tag-dispatch shim: only moves the kind byte.
  bool unbound = false;
  int first_event_line = 0;
};

/// One active kind filter while walking a function body.
struct KindFilter {
  enum class Mode { kOnly, kExcept, kSwitchCase };
  Mode mode = Mode::kOnly;
  std::set<std::string> kinds;
  std::size_t begin = 0, end = 0;  ///< Token span where active.
  bool events_since_label = false;
};

FnSchemas extract_schemas(const ProgramIndex& idx, std::size_t file_idx,
                          const FunctionInfo& fn) {
  const std::vector<Token>& toks = idx.files[file_idx].tokens;
  FnSchemas out;

  // Kind universe: every kind the function's body mentions.
  std::set<std::string> universe;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    std::string k;
    if (kind_mention_at(toks, i, idx, &k)) universe.insert(k);
  }
  const bool schema_bound = !fn.schema.empty();

  std::vector<KindFilter> scopes;
  std::map<std::string, std::vector<std::string>> enc_current;
  std::map<std::string, int> enc_line;

  auto flush_enc = [&](const std::string& key) {
    auto it = enc_current.find(key);
    if (it == enc_current.end() || it->second.empty()) return;
    out.enc[key].push_back(
        {file_idx, enc_line[key], fn.qualified, it->second, true});
    it->second.clear();
  };

  auto effective_keys = [&](std::size_t i) -> std::set<std::string> {
    if (schema_bound) return {fn.schema};
    if (universe.empty()) {
      out.unbound = true;
      return {std::string()};
    }
    std::set<std::string> ks = universe;
    for (const KindFilter& f : scopes) {
      if (i < f.begin || i >= f.end) continue;
      std::set<std::string> next;
      if (f.mode == KindFilter::Mode::kExcept) {
        for (const std::string& k : ks) {
          if (f.kinds.count(k) == 0) next.insert(k);
        }
      } else {  // kOnly and kSwitchCase both intersect
        for (const std::string& k : ks) {
          if (f.kinds.count(k) != 0) next.insert(k);
        }
      }
      ks = std::move(next);
    }
    return ks;
  };

  auto innermost_switch = [&](std::size_t i) -> KindFilter* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->mode == KindFilter::Mode::kSwitchCase && it->begin <= i &&
          i < it->end) {
        return &*it;
      }
    }
    return nullptr;
  };

  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    while (!scopes.empty() && scopes.back().end <= i) scopes.pop_back();
    const Token& t = toks[i];
    if (!t.is_ident) continue;

    if (t.text == "switch" && at(toks, i + 1).text == "(") {
      const std::size_t close = match_paren_fwd(toks, i + 1);
      std::size_t open = close + 1;
      while (open < fn.body_end && toks[open].text != "{") ++open;
      if (open >= fn.body_end) continue;
      const std::size_t end = match_brace_fwd(toks, open);
      // Only a switch that dispatches on kinds filters events; any other
      // switch (bundling policy, state machine) is transparent.
      bool kind_switch = false;
      for (std::size_t j = open + 1; j < end && !kind_switch; ++j) {
        if (!toks[j].is_ident || toks[j].text != "case") continue;
        for (std::size_t k = j + 1; k < end && toks[k].text != ":"; ++k) {
          if (kind_mention_at(toks, k, idx, nullptr)) {
            kind_switch = true;
            break;
          }
        }
      }
      if (kind_switch) {
        KindFilter f;
        f.mode = KindFilter::Mode::kSwitchCase;
        f.begin = open + 1;
        f.end = end;
        scopes.push_back(f);
      }
      continue;
    }

    if (t.text == "case") {
      KindFilter* sw = innermost_switch(i);
      if (sw != nullptr) {
        if (sw->events_since_label) {
          sw->kinds.clear();
          sw->events_since_label = false;
        }
        for (std::size_t k = i + 1;
             k < fn.body_end && toks[k].text != ":"; ++k) {
          std::string name;
          if (kind_mention_at(toks, k, idx, &name)) sw->kinds.insert(name);
        }
      }
      continue;
    }
    if (t.text == "default" && at(toks, i + 1).text == ":") {
      KindFilter* sw = innermost_switch(i);
      if (sw != nullptr) {
        sw->kinds.clear();
        sw->events_since_label = false;
      }
      continue;
    }

    if (t.text == "if" && at(toks, i + 1).text == "(") {
      const std::size_t close = match_paren_fwd(toks, i + 1);
      std::set<std::string> cond_kinds;
      bool eq = false, ne = false;
      for (std::size_t k = i + 2; k < close; ++k) {
        std::string name;
        if (kind_mention_at(toks, k, idx, &name)) cond_kinds.insert(name);
        if (toks[k].text == "=" && at(toks, k + 1).text == "=") eq = true;
        if (toks[k].text == "!" && at(toks, k + 1).text == "=") ne = true;
      }
      if (cond_kinds.size() == 1 && (eq != ne)) {
        KindFilter f;
        f.mode =
            eq ? KindFilter::Mode::kOnly : KindFilter::Mode::kExcept;
        f.kinds = cond_kinds;
        if (at(toks, close + 1).text == "{") {
          f.begin = close + 2;
          f.end = match_brace_fwd(toks, close + 1);
        } else {  // single-statement then-branch
          f.begin = close + 1;
          std::size_t j = close + 1;
          int depth = 0;
          while (j < fn.body_end) {
            const std::string& u = toks[j].text;
            if (u == "(" || u == "{") ++depth;
            if (u == ")" || u == "}") --depth;
            if (u == ";" && depth == 0) break;
            ++j;
          }
          f.end = j + 1;
        }
        scopes.push_back(f);
      }
      continue;
    }

    if (!is_member_call(toks, i)) continue;
    const bool is_begin_record = t.text == "begin_record";
    const char* type = accessor_type(t.text);
    if (type == nullptr && !is_begin_record) continue;

    out.any_events = true;
    if (out.first_event_line == 0) out.first_event_line = t.line;
    if (!is_begin_record && std::string(type) != "u8") out.u8_only = false;
    if (KindFilter* sw = innermost_switch(i)) sw->events_since_label = true;

    for (const std::string& key : effective_keys(i)) {
      if (is_begin_record) {
        flush_enc(key);
        if (enc_line.count(key) == 0) enc_line[key] = t.line;
        continue;
      }
      if (t.text.rfind("put_", 0) == 0) {
        if (enc_current[key].empty()) enc_line[key] = t.line;
        enc_current[key].push_back(type);
      } else {
        SeqSite& d = out.dec[key];
        if (d.seq.empty()) {
          d.file = file_idx;
          d.line = t.line;
          d.fn = fn.qualified;
          d.is_encoder = false;
        }
        d.seq.push_back(type);
      }
    }
  }
  for (auto& [key, cur] : enc_current) {
    (void)cur;
    flush_enc(key);
  }
  return out;
}

}  // namespace

// ---- the whole pass --------------------------------------------------------

namespace {

struct GlobalPass {
  const ProgramIndex& index;
  const ProgramOptions& opts;
  std::vector<Diagnostic>& diags;
  std::vector<RuleScope> scopes;
  /// (file path, line) of schema() comments that bound a live function.
  std::set<std::pair<std::string, int>> used_schemas;

  GlobalPass(const ProgramIndex& idx, const ProgramOptions& o,
             std::vector<Diagnostic>& d)
      : index(idx), opts(o), diags(d) {
    scopes.reserve(index.files.size());
    for (const FileIndex& fi : index.files) {
      scopes.push_back(opts.all_rules ? all_rules() : scope_for_path(fi.path));
    }
  }

  void emit(const std::string& rule, std::size_t file_idx, int line,
            std::string message) {
    Diagnostic d;
    d.rule = rule;
    d.file = index.files[file_idx].path;
    d.line = line;
    d.message = std::move(message);
    apply_allows(d, index.files[file_idx].view.allows);
    diags.push_back(std::move(d));
  }

  // ---- D8 ------------------------------------------------------------------

  void check_schemas() {
    std::map<std::string, std::vector<SeqSite>> table;
    std::map<std::string, bool> is_kind_key;
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      if (!scopes[f].d8) continue;
      for (const FunctionInfo& fn : index.files[f].functions) {
        FnSchemas fs = extract_schemas(index, f, fn);
        if (!fn.schema.empty() && fs.any_events) {
          used_schemas.insert({index.files[f].path, fn.schema_line});
        }
        if (fs.unbound && !fs.u8_only) {
          emit("D8", f, fs.first_event_line,
               "typed accessor sequence in '" + fn.qualified +
                   "' is not tied to any message kind — bind it with "
                   "// pmc-lint: schema(Name) so encode/decode symmetry "
                   "can be checked cross-TU");
          continue;
        }
        for (auto& [key, sites] : fs.enc) {
          if (key.empty()) continue;
          is_kind_key[key] = index.kinds.count(key) != 0;
          for (SeqSite& s : sites) table[key].push_back(std::move(s));
        }
        for (auto& [key, site] : fs.dec) {
          if (key.empty() || site.seq.empty()) continue;
          is_kind_key[key] = index.kinds.count(key) != 0;
          table[key].push_back(std::move(site));
        }
      }
    }
    for (auto& [key, sites] : table) {
      // For tagged kinds the encoder writes the kind byte itself while the
      // decoder's dispatcher usually consumed it — compare modulo one
      // leading u8 on either side.
      if (is_kind_key[key]) {
        for (SeqSite& s : sites) {
          if (!s.seq.empty() && s.seq.front() == "u8") {
            s.seq.erase(s.seq.begin());
          }
        }
      }
      std::stable_sort(sites.begin(), sites.end(),
                       [this](const SeqSite& a, const SeqSite& b) {
                         if (a.is_encoder != b.is_encoder) return a.is_encoder;
                         const std::string& fa = index.files[a.file].path;
                         const std::string& fb = index.files[b.file].path;
                         if (fa != fb) return fa < fb;
                         return a.line < b.line;
                       });
      const SeqSite& ref = sites.front();
      const std::string display =
          index.kinds.count(key) != 0 ? kind_key(index, key) : key;
      for (std::size_t s = 1; s < sites.size(); ++s) {
        const SeqSite& cur = sites[s];
        if (cur.seq == ref.seq) continue;
        emit("D8", cur.file, cur.line,
             std::string(cur.is_encoder ? "encoder" : "decoder") + " '" +
                 cur.fn + "' for '" + display + "' " +
                 (cur.is_encoder ? "writes " : "reads ") + seq_str(cur.seq) +
                 " but " + (ref.is_encoder ? "encoder '" : "decoder '") +
                 ref.fn + "' (" +
                 internal::normalize_path(index.files[ref.file].path) + ":" +
                 std::to_string(ref.line) + ") " +
                 (ref.is_encoder ? "writes " : "reads ") + seq_str(ref.seq) +
                 " — encode/decode schema asymmetry");
      }
    }
  }

  // ---- D1-D5 helper propagation -------------------------------------------

  void propagate_file_rules(const std::set<std::string>& direct_keys) {
    // Taints: unsuppressed core-pattern hits that the helper's own file
    // scope (path predicate) hides. D4 is scope-global and decode-local, so
    // it never taints.
    struct Taint {
      std::set<std::string> rules;
      std::map<std::string, std::pair<int, std::string>> exemplar;
    };
    std::map<const FunctionInfo*, Taint> taints;
    RuleScope everything;
    everything.d1 = everything.d2 = everything.d3 = everything.d5 = true;
    everything.d4 = false;
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      const FileIndex& fi = index.files[f];
      const std::vector<Diagnostic> potential =
          file_rules(fi.path, fi.view, fi.tokens, everything);
      for (const Diagnostic& d : potential) {
        if (d.suppressed) continue;
        const std::string key =
            d.rule + "|" + d.file + "|" + std::to_string(d.line);
        if (direct_keys.count(key) != 0) continue;  // already reported
        for (const FunctionInfo& fn : fi.functions) {
          if (fn.line <= d.line && d.line <= fn.end_line) {
            Taint& t = taints[&fn];
            t.rules.insert(d.rule);
            t.exemplar.emplace(d.rule, std::make_pair(d.line, d.message));
            break;
          }
        }
      }
    }
    if (taints.empty()) return;

    auto rule_enabled = [&](std::size_t f, const std::string& r) {
      const RuleScope& s = scopes[f];
      if (r == "D1") return s.d1;
      if (r == "D2") return s.d2;
      if (r == "D3") return s.d3;
      if (r == "D5") return s.d5;
      return false;
    };

    for (std::size_t f = 0; f < index.files.size(); ++f) {
      const std::vector<Token>& toks = index.files[f].tokens;
      for (const FunctionInfo& fn : index.files[f].functions) {
        for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
          const Token& t = toks[i];
          if (!t.is_ident || at(toks, i + 1).text != "(") continue;
          const std::string& prev =
              i > 0 ? toks[i - 1].text : std::string();
          if (prev == "." || prev == "->" || prev == "::") continue;
          if (t.text == fn.name) continue;
          const auto defs = index.by_name.find(t.text);
          if (defs == index.by_name.end() || defs->second.size() != 1) {
            continue;  // unknown or ambiguous target: no propagation
          }
          const auto [cf, cg] = defs->second.front();
          const FunctionInfo& callee = index.files[cf].functions[cg];
          const auto taint = taints.find(&callee);
          if (taint == taints.end()) continue;
          for (const std::string& rule : taint->second.rules) {
            if (!rule_enabled(f, rule)) continue;
            const auto& [line, msg] = taint->second.exemplar.at(rule);
            emit(rule, f, t.line,
                 "call to helper '" + callee.qualified + "' (" +
                     internal::normalize_path(index.files[cf].path) + ":" +
                     std::to_string(line) + ") reaches a " + rule +
                     " violation its own file's scope hides: " + msg);
          }
        }
      }
    }
  }

  // ---- D10 -----------------------------------------------------------------

  void audit_suppressions() {
    std::set<std::pair<std::string, int>> consumed;
    for (const Diagnostic& d : diags) {
      if (d.allow_line != 0) consumed.insert({d.file, d.allow_line});
    }
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      const FileIndex& fi = index.files[f];
      // Deterministic order over the unordered allow map.
      std::vector<int> lines;
      lines.reserve(fi.view.allows.size());
      for (const auto& [line, allow] : fi.view.allows) lines.push_back(line);
      std::sort(lines.begin(), lines.end());
      for (const int line : lines) {
        if (consumed.count({fi.path, line}) != 0) continue;
        const Allow& allow = fi.view.allows.at(line);
        std::string rules;
        for (const std::string& r : allow.rules) {
          rules += (rules.empty() ? "" : ",") + r;
        }
        emit("D10", f, line,
             "stale suppression: allow(" + rules +
                 ") no longer matches any diagnostic — delete it so the "
                 "suppression ledger stays honest");
      }
      std::vector<int> schema_lines;
      schema_lines.reserve(fi.view.schemas.size());
      for (const auto& [line, name] : fi.view.schemas) {
        schema_lines.push_back(line);
      }
      std::sort(schema_lines.begin(), schema_lines.end());
      for (const int line : schema_lines) {
        if (used_schemas.count({fi.path, line}) != 0) continue;
        emit("D10", f, line,
             "stale schema annotation: schema(" + fi.view.schemas.at(line) +
                 ") binds no function with typed accessor calls");
      }
    }
  }
};

}  // namespace

void global_rules(const ProgramIndex& index, const ProgramOptions& opts,
                  std::vector<Diagnostic>& diags) {
  GlobalPass pass(index, opts, diags);
  std::set<std::string> direct_keys;
  for (const Diagnostic& d : diags) {
    direct_keys.insert(d.rule + "|" + d.file + "|" + std::to_string(d.line));
  }
  pass.check_schemas();
  pass.propagate_file_rules(direct_keys);
  if (opts.audit_suppressions) pass.audit_suppressions();
}

}  // namespace internal

ProgramReport analyze_program(const std::vector<SourceFile>& sources,
                              const ProgramOptions& opts) {
  const internal::ProgramIndex index = internal::build_index(sources);
  ProgramReport report;
  report.files_scanned = sources.size();
  for (std::size_t f = 0; f < index.files.size(); ++f) {
    const internal::FileIndex& fi = index.files[f];
    const RuleScope scope =
        opts.all_rules ? all_rules() : scope_for_path(fi.path);
    std::vector<Diagnostic> diags = internal::file_rules(
        fi.path, fi.view, fi.tokens, scope);
    for (Diagnostic& d : diags) {
      report.diagnostics.push_back(std::move(d));
    }
  }
  internal::global_rules(index, opts, report.diagnostics);
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

namespace {

std::string sarif_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct SarifRule {
  const char* id;
  const char* text;
};

constexpr SarifRule kSarifRules[] = {
    {"D1", "No unordered-container range-iteration in message-producing "
           "code; snapshot with sorted_keys()/sorted_items()."},
    {"D2", "No hidden entropy; randomness flows through pmc::Rng, wall time "
           "through WallTimer."},
    {"D3", "No raw memcpy/reinterpret_cast serialization outside the frame "
           "codec."},
    {"D4", "Every FrameReader/ByteReader decode loop must check done()."},
    {"D5", "No floating-point accumulation under an unordered-container "
           "iteration."},
    {"D8", "Encoder put_* and decoder read_* sequences must mirror each "
           "other per message kind (cross-TU)."},
    {"D10", "allow()/schema() comments that no longer match anything are "
            "stale and fail the build."},
};

}  // namespace

std::string to_sarif(const ProgramReport& report) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n"
     << "          \"name\": \"pmc-lint\",\n"
     << "          \"version\": \"2.0.0\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/pmc-lint\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kSarifRules); ++i) {
    os << "            {\"id\": \"" << kSarifRules[i].id
       << "\", \"shortDescription\": {\"text\": \""
       << sarif_escape(kSarifRules[i].text) << "\"}}"
       << (i + 1 < std::size(kSarifRules) ? "," : "") << "\n";
  }
  os << "          ]\n        }\n      },\n"
     << "      \"results\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    os << (i == 0 ? "" : ",") << "\n        {\n"
       << "          \"ruleId\": \"" << sarif_escape(d.rule) << "\",\n"
       << "          \"level\": "
       << (d.suppressed || d.baselined ? "\"note\"" : "\"error\"") << ",\n"
       << "          \"message\": {\"text\": \"" << sarif_escape(d.message)
       << "\"},\n"
       << "          \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << sarif_escape(internal::normalize_path(d.file))
       << "\"}, \"region\": {\"startLine\": " << d.line << "}}}]";
    if (d.suppressed) {
      os << ",\n          \"suppressions\": [{\"kind\": \"inSource\", "
            "\"justification\": \""
         << sarif_escape(d.justification) << "\"}]";
    }
    if (d.baselined) {
      os << ",\n          \"baselineState\": \"unchanged\"";
    }
    os << "\n        }";
  }
  os << "\n      ]\n    }\n  ]\n}\n";
  return os.str();
}

}  // namespace pmc_lint
