#include "lint/analyzer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <utility>

#include "lint/lexer.h"

namespace spongefiles::lint {

const char* CheckId(Check check) {
  switch (check) {
    case Check::kCoroRef: return "ref";
    case Check::kDeterminism: return "det";
    case Check::kUnorderedIter: return "iter";
    case Check::kLockAcrossAwait: return "lock";
    case Check::kUncheckedStatus: return "status";
    case Check::kBannedHeader: return "header";
    case Check::kBadWaiver: return "waiver";
    case Check::kShardCross: return "shard";
    case Check::kShardAffinity: return "affinity";
    case Check::kOrphanWaiver: return "orphan";
  }
  return "?";
}

bool CheckFromId(const std::string& id, Check* out) {
  // kBadWaiver and kOrphanWaiver are deliberately absent: a waiver cannot
  // waive the waiver machinery.
  static const std::pair<const char*, Check> kIds[] = {
      {"ref", Check::kCoroRef},        {"det", Check::kDeterminism},
      {"iter", Check::kUnorderedIter}, {"lock", Check::kLockAcrossAwait},
      {"status", Check::kUncheckedStatus}, {"header", Check::kBannedHeader},
      {"shard", Check::kShardCross},   {"affinity", Check::kShardAffinity},
  };
  for (const auto& [name, check] : kIds) {
    if (id == name) {
      *out = check;
      return true;
    }
  }
  return false;
}

std::string Diagnostic::ToString() const {
  std::string s = file + ":" + std::to_string(line) + ": [" +
                  CheckId(check) + "] " + message;
  if (waived) s += " (waived: " + waiver_reason + ")";
  return s;
}

void SymbolIndex::Merge(const SymbolIndex& other) {
  status_functions.insert(other.status_functions.begin(),
                          other.status_functions.end());
  awaitable_status_functions.insert(other.awaitable_status_functions.begin(),
                                    other.awaitable_status_functions.end());
  unordered_names.insert(other.unordered_names.begin(),
                         other.unordered_names.end());
  quoted_includes.insert(quoted_includes.end(), other.quoted_includes.begin(),
                         other.quoted_includes.end());
  class_affinity.insert(other.class_affinity.begin(),
                        other.class_affinity.end());
  returns_class.insert(other.returns_class.begin(),
                       other.returns_class.end());
}

namespace {

using Tokens = std::vector<Token>;

bool Contains(const std::vector<std::string>& xs, const std::string& x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

// Returns the index just past the `>` matching the `<` at `i`. A `>>`
// token closes two levels (template context). Falls off the end of the
// token stream gracefully on malformed input.
size_t SkipAngles(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.punct("<")) {
      ++depth;
    } else if (t.punct(">")) {
      if (--depth == 0) return i + 1;
    } else if (t.punct(">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t.punct(";") || t.punct("{")) {
      // A `<` that was a comparison, not a template bracket.
      return i;
    }
  }
  return i;
}

// `i` points at `(`; returns the index of the matching `)`.
size_t MatchParen(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].punct("(")) ++depth;
    if (toks[i].punct(")") && --depth == 0) return i;
  }
  return toks.size() - 1;
}

// `i` points at `{`; returns the index of the matching `}`.
size_t MatchBrace(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].punct("{")) ++depth;
    if (toks[i].punct("}") && --depth == 0) return i;
  }
  return toks.size() - 1;
}

// `i` points at `)`; returns the index of the matching `(` searching
// backwards, or npos-like 0 on malformed input.
size_t MatchParenBackward(const Tokens& toks, size_t i) {
  int depth = 0;
  for (;; --i) {
    if (toks[i].punct(")")) ++depth;
    if (toks[i].punct("(") && --depth == 0) return i;
    if (i == 0) return 0;
  }
}

// `i` points at `[`; returns the index of the matching `]`.
size_t MatchBracket(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].punct("[")) ++depth;
    if (toks[i].punct("]") && --depth == 0) return i;
  }
  return toks.size() - 1;
}

// ---- shard affinities ----------------------------------------------------

// Where a class's state lives in the planned sharded engine. kValue marks
// passive data that travels by copy; kChannel marks the sanctioned
// cross-shard machinery (network messages, RPC plumbing, engine event
// posting); kGlobal marks shared state whose annotation must carry the
// reason the sharing is acceptable.
enum class Affinity { kNone, kNode, kRack, kValue, kChannel, kGlobal };

const char* AffinityName(Affinity a) {
  switch (a) {
    case Affinity::kNode: return "node";
    case Affinity::kRack: return "rack";
    case Affinity::kValue: return "value";
    case Affinity::kChannel: return "channel";
    case Affinity::kGlobal: return "global";
    case Affinity::kNone: break;
  }
  return "none";
}

struct AffinityInfo {
  Affinity kind = Affinity::kNone;
  std::string reason;
  bool valid = false;
  std::string error;  // when !valid: what is wrong with the clause
};

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// Parses the interior of a `shard(...)` clause.
AffinityInfo ParseAffinity(const std::string& clause) {
  AffinityInfo info;
  std::string text = Trimmed(clause);
  if (text == "node") {
    info = {Affinity::kNode, "", true, ""};
  } else if (text == "rack") {
    info = {Affinity::kRack, "", true, ""};
  } else if (text == "value") {
    info = {Affinity::kValue, "", true, ""};
  } else if (text == "channel") {
    info = {Affinity::kChannel, "", true, ""};
  } else if (text.compare(0, 6, "global") == 0) {
    std::string rest = Trimmed(text.substr(6));
    if (!rest.empty() && rest[0] == ':') {
      info.reason = Trimmed(rest.substr(1));
    }
    info.kind = Affinity::kGlobal;
    if (info.reason.empty()) {
      info.error = "'global' needs a reason: shard(global: why sharing is ok)";
    } else {
      info.valid = true;
    }
  } else {
    info.error = "unknown affinity '" + text +
                 "'; expected node, rack, value, channel, or global: reason";
  }
  return info;
}

// Comment lines carrying the lint marker followed by a `shard(...)`
// affinity clause, mapped line -> clause interior. (The clause shares the
// waiver marker but is not a waiver; ParseWaivers skips it.)
std::map<int, std::string> AffinityClauseLines(
    const std::vector<Comment>& comments) {
  std::map<int, std::string> out;
  for (const Comment& c : comments) {
    size_t at = c.text.find("lint:");
    if (at == std::string::npos) continue;
    size_t s = c.text.find("shard(", at);
    if (s == std::string::npos) continue;
    size_t close = c.text.find(')', s);
    if (close == std::string::npos) continue;
    out[c.line] = c.text.substr(s + 6, close - s - 6);
  }
  return out;
}

// Parses `ident (:: ident | . ident | -> ident)*` starting at `i`.
// Returns the number of tokens consumed (0 if `i` is not an identifier)
// and fills `last` with the final identifier.
size_t ParseChain(const Tokens& toks, size_t i, std::string* last) {
  if (i >= toks.size() || toks[i].kind != TokenKind::kIdentifier) return 0;
  size_t start = i;
  *last = toks[i].text;
  ++i;
  while (i + 1 < toks.size() &&
         (toks[i].punct("::") || toks[i].punct(".") || toks[i].punct("->")) &&
         toks[i + 1].kind == TokenKind::kIdentifier) {
    *last = toks[i + 1].text;
    i += 2;
  }
  return i - start;
}

// One parsed waiver entry: a `<tag>-ok(reason)` clause following the
// waiver marker in a comment.
struct Waiver {
  Check check;
  std::string reason;
  mutable bool used = false;
};

class Analyzer {
 public:
  Analyzer(const std::string& path, const LexResult& lex,
           const SymbolIndex& index, const AnalyzerOptions& opts)
      : path_(path), toks_(lex.tokens), comments_(lex.comments),
        index_(index), opts_(opts) {}

  FileReport Run() {
    ParseWaivers();
    CheckCoroutineRefParams();
    CheckDeterminism();
    CheckBannedHeaders();
    CheckUnorderedIteration();
    CheckLockAcrossAwait();
    CheckUncheckedStatus();
    CheckShardAffinity();
    ApplyWaivers();
    ReportOrphanWaivers();
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
    report_.file = path_;
    return std::move(report_);
  }

 private:
  void Diag(Check check, int line, std::string message) {
    report_.diagnostics.push_back(
        Diagnostic{check, path_, line, std::move(message), false, ""});
  }

  bool PathAllowed() const {
    for (const auto& sub : opts_.allowlist) {
      if (path_.find(sub) != std::string::npos) return true;
    }
    return false;
  }

  // ---- waivers ----------------------------------------------------------

  void ParseWaivers() {
    for (const Comment& c : comments_) {
      size_t at = c.text.find("lint:");
      if (at == std::string::npos) continue;
      size_t pos = at + 5;
      bool any = false;
      while (pos < c.text.size()) {
        while (pos < c.text.size() &&
               (c.text[pos] == ' ' || c.text[pos] == ',')) {
          ++pos;
        }
        size_t tag_begin = pos;
        while (pos < c.text.size() &&
               (std::isalnum(static_cast<unsigned char>(c.text[pos])) ||
                c.text[pos] == '-' || c.text[pos] == '_')) {
          ++pos;
        }
        std::string tag = c.text.substr(tag_begin, pos - tag_begin);
        if (tag.empty()) break;
        any = true;
        std::string reason;
        bool had_paren = false;
        if (pos < c.text.size() && c.text[pos] == '(') {
          had_paren = true;
          size_t close = c.text.find(')', pos);
          if (close == std::string::npos) close = c.text.size();
          reason = c.text.substr(pos + 1, close - pos - 1);
          pos = std::min(close + 1, c.text.size());
        }
        if (tag == "shard" && had_paren) {
          // A shard affinity clause, not a waiver; the shard pass attaches
          // and validates it.
          continue;
        }
        if (tag.size() < 4 || tag.substr(tag.size() - 3) != "-ok") {
          Diag(Check::kBadWaiver, c.line,
               "malformed waiver '" + tag +
                   "': expected '<check>-ok(reason)'");
          continue;
        }
        Check check;
        std::string id = tag.substr(0, tag.size() - 3);
        if (!CheckFromId(id, &check)) {
          Diag(Check::kBadWaiver, c.line,
               "waiver for unknown check '" + id + "'");
          continue;
        }
        if (reason.empty()) {
          Diag(Check::kBadWaiver, c.line,
               "waiver '" + tag + "' has no reason; write '" + tag +
                   "(why this is safe)'");
          continue;
        }
        waivers_[c.line].push_back(Waiver{check, reason});
      }
      if (!any) {
        Diag(Check::kBadWaiver, c.line, "empty 'lint:' waiver comment");
      }
    }
  }

  void ApplyWaivers() {
    for (Diagnostic& d : report_.diagnostics) {
      if (d.check == Check::kBadWaiver) continue;
      for (int line : {d.line, d.line - 1}) {
        auto it = waivers_.find(line);
        if (it == waivers_.end()) continue;
        for (const Waiver& w : it->second) {
          if (w.check == d.check) {
            d.waived = true;
            d.waiver_reason = w.reason;
            w.used = true;
            break;
          }
        }
        if (d.waived) break;
      }
    }
  }

  // ---- check 1: coroutine-frame escapes ---------------------------------

  bool IsAwaitableType(const std::string& name) const {
    return Contains(opts_.awaitable_types, name);
  }

  void CheckCoroutineRefParams() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      // Function declarations/definitions returning Task<...>.
      if (t.kind == TokenKind::kIdentifier && IsAwaitableType(t.text) &&
          toks_[i + 1].punct("<")) {
        if (i > 0 && (toks_[i - 1].punct(".") || toks_[i - 1].punct("->"))) {
          continue;  // member access, not a type
        }
        size_t j = SkipAngles(toks_, i + 1);
        std::string name;
        size_t consumed = ParseChain(toks_, j, &name);
        if (consumed > 0 && j + consumed < toks_.size() &&
            toks_[j + consumed].punct("(")) {
          CheckParamList(j + consumed, name);
        }
      }
      // Lambdas with a trailing `-> Task<...>` return type.
      if (t.punct("->") && i > 0 && toks_[i - 1].punct(")")) {
        size_t k = i + 1;
        while (k + 1 < toks_.size() &&
               toks_[k].kind == TokenKind::kIdentifier &&
               toks_[k + 1].punct("::")) {
          k += 2;
        }
        if (k < toks_.size() && toks_[k].kind == TokenKind::kIdentifier &&
            IsAwaitableType(toks_[k].text) && k + 1 < toks_.size() &&
            toks_[k + 1].punct("<")) {
          size_t open = MatchParenBackward(toks_, i - 1);
          CheckParamList(open, "<lambda>");
        }
      }
    }
  }

  void CheckParamList(size_t open, const std::string& fn) {
    size_t close = MatchParen(toks_, open);
    size_t param_begin = open + 1;
    int angle = 0, paren = 0, brace = 0, bracket = 0;
    for (size_t i = open + 1; i <= close && i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct("<")) ++angle;
      if (t.punct(">")) angle = std::max(0, angle - 1);
      if (t.punct(">>")) angle = std::max(0, angle - 2);
      if (t.punct("(")) ++paren;
      if (t.punct(")")) --paren;
      if (t.punct("{")) ++brace;
      if (t.punct("}")) --brace;
      if (t.punct("[")) ++bracket;
      if (t.punct("]")) --bracket;
      bool at_end = (i == close);
      bool at_comma = t.punct(",") && angle == 0 && paren == 0 &&
                      brace == 0 && bracket == 0;
      if (at_end || at_comma) {
        CheckOneParam(param_begin, i, fn);
        param_begin = i + 1;
      }
    }
  }

  void CheckOneParam(size_t begin, size_t end, const std::string& fn) {
    if (begin >= end) return;
    // Param name: the last identifier before a default-argument `=`.
    std::string name = "<unnamed>";
    size_t value_end = end;
    for (size_t i = begin; i < end; ++i) {
      if (toks_[i].punct("=")) {
        value_end = i;
        break;
      }
    }
    for (size_t i = begin; i < value_end; ++i) {
      if (toks_[i].kind == TokenKind::kIdentifier) name = toks_[i].text;
    }
    // Only the top level of the declarator: a `&` nested inside template
    // arguments (e.g. the call signature of a by-value std::function) does
    // not make the parameter itself a reference.
    int depth = 0;
    for (size_t i = begin; i < value_end; ++i) {
      const Token& t = toks_[i];
      if (t.punct("<") || t.punct("(") || t.punct("{") || t.punct("[")) ++depth;
      if (t.punct(">") || t.punct(")") || t.punct("}") || t.punct("]")) --depth;
      if (t.punct(">>")) depth -= 2;
      if (depth > 0) continue;
      if (t.punct("&")) {
        Diag(Check::kCoroRef, t.line,
             "coroutine '" + fn + "' takes reference parameter '" + name +
                 "'; a frame that outlives its caller dangles — pass by "
                 "value, or waive with // lint: ref-ok(reason)");
        return;
      }
      if (t.kind == TokenKind::kIdentifier && Contains(opts_.view_types, t.text)) {
        Diag(Check::kCoroRef, t.line,
             "coroutine '" + fn + "' takes view parameter '" + name + "' (" +
                 t.text + "); the viewed storage must outlive the frame — "
                 "copy it, or waive with // lint: ref-ok(reason)");
        return;
      }
    }
  }

  // ---- check 2: determinism hazards -------------------------------------

  void CheckDeterminism() {
    if (PathAllowed()) return;
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (Contains(opts_.banned_idents, t.text)) {
        Diag(Check::kDeterminism, t.line,
             "'" + t.text + "' breaks reproducibility; all time comes from "
                 "sim::Engine::now() and all randomness from a seeded Rng");
        continue;
      }
      if (Contains(opts_.banned_calls, t.text) && i + 1 < toks_.size() &&
          toks_[i + 1].punct("(") && InExpressionContext(i)) {
        Diag(Check::kDeterminism, t.line,
             "call to '" + t.text + "()' reads ambient state; route it "
                 "through the simulation environment");
      }
    }
  }

  // True when the token at `i` begins an expression (so `name(` is a call
  // of the global function, not a declaration `Duration name(...)` or a
  // member access `x.name(`).
  bool InExpressionContext(size_t i) const {
    if (i == 0) return true;
    const Token& p = toks_[i - 1];
    if (p.punct("::")) {
      return i >= 2 && toks_[i - 2].ident("std");
    }
    if (p.kind == TokenKind::kPunct) {
      static const char* kDecl[] = {".", "->", "&", "*"};
      for (const char* d : kDecl) {
        if (p.text == d) return false;
      }
      return true;
    }
    if (p.kind == TokenKind::kIdentifier) {
      static const char* kExprKeywords[] = {"return", "co_return", "co_await",
                                            "co_yield", "else", "do"};
      for (const char* k : kExprKeywords) {
        if (p.text == k) return true;
      }
      return false;  // likely a declaration: `Foo time(...)`
    }
    return true;
  }

  // ---- check 5: banned headers ------------------------------------------

  void CheckBannedHeaders() {
    if (PathAllowed()) return;
    for (const Token& t : toks_) {
      if (t.kind != TokenKind::kPreprocessor) continue;
      std::string header = IncludeTarget(t.text, '<', '>');
      if (header.empty()) continue;
      if (!Contains(opts_.banned_headers, header)) continue;
      Diag(Check::kBannedHeader, t.line,
           "#include <" + header + "> is banned here; the simulator is "
               "single-threaded and deterministic (allowed only under: " +
               (opts_.allowlist.empty() ? std::string("nothing")
                                        : opts_.allowlist.front()) + ")");
    }
  }

  static std::string IncludeTarget(const std::string& directive, char open,
                                   char close) {
    size_t pos = directive.find('#');
    if (pos == std::string::npos) return "";
    ++pos;
    while (pos < directive.size() && std::isspace(
               static_cast<unsigned char>(directive[pos]))) {
      ++pos;
    }
    if (directive.compare(pos, 7, "include") != 0) return "";
    size_t lt = directive.find(open, pos);
    if (lt == std::string::npos) return "";
    size_t gt = directive.find(close, lt + 1);
    if (gt == std::string::npos) return "";
    return directive.substr(lt + 1, gt - lt - 1);
  }

  // ---- check 3: unordered iteration -------------------------------------

  void CheckUnorderedIteration() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!toks_[i].ident("for") || !toks_[i + 1].punct("(")) continue;
      size_t open = i + 1;
      size_t close = MatchParen(toks_, open);
      // Range-for: a top-level `:` inside the header.
      size_t colon = 0;
      int depth = 0;
      for (size_t j = open + 1; j < close; ++j) {
        if (toks_[j].punct("(") || toks_[j].punct("[") || toks_[j].punct("{"))
          ++depth;
        if (toks_[j].punct(")") || toks_[j].punct("]") || toks_[j].punct("}"))
          --depth;
        if (depth == 0 && toks_[j].punct(":")) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      std::string container;
      for (size_t j = colon + 1; j < close; ++j) {
        if (toks_[j].kind == TokenKind::kIdentifier &&
            index_.unordered_names.count(toks_[j].text) > 0) {
          container = toks_[j].text;
          break;
        }
      }
      if (container.empty()) continue;
      size_t body_begin, body_end;
      if (close + 1 < toks_.size() && toks_[close + 1].punct("{")) {
        body_begin = close + 2;
        body_end = MatchBrace(toks_, close + 1);
      } else {
        body_begin = close + 1;
        body_end = body_begin;
        while (body_end < toks_.size() && !toks_[body_end].punct(";"))
          ++body_end;
      }
      for (size_t j = body_begin; j < body_end; ++j) {
        const Token& t = toks_[j];
        bool sink =
            (t.kind == TokenKind::kIdentifier &&
             Contains(opts_.sink_idents, t.text)) ||
            (t.kind == TokenKind::kPunct && Contains(opts_.sink_puncts, t.text));
        if (sink) {
          Diag(Check::kUnorderedIter, toks_[i].line,
               "iteration over unordered container '" + container +
                   "' reaches ordering-sensitive '" + t.text +
                   "' (line " + std::to_string(t.line) +
                   "); hash order is not deterministic across "
                   "implementations — iterate a sorted copy, or waive with "
                   "// lint: iter-ok(reason)");
          break;
        }
      }
    }
  }

  // ---- check 4: lock held across a suspension point ---------------------

  void CheckLockAcrossAwait() {
    struct Held {
      std::string name;
      int depth;
      int line;
    };
    std::vector<Held> held;
    int depth = 0;
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct("{")) ++depth;
      if (t.punct("}")) {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "co_await") {
        // Does this statement acquire a lock, or suspend while holding one?
        size_t stmt_end = i;
        while (stmt_end < toks_.size() && !toks_[stmt_end].punct(";") &&
               !toks_[stmt_end].punct("{") && !toks_[stmt_end].punct("}")) {
          ++stmt_end;
        }
        bool acquires = false;
        for (size_t j = i + 1; j + 1 < stmt_end; ++j) {
          if (toks_[j].kind == TokenKind::kIdentifier &&
              Contains(opts_.lock_acquire, toks_[j].text) &&
              toks_[j + 1].punct("(")) {
            std::string obj = "<lock>";
            if (j >= 2 && (toks_[j - 1].punct(".") || toks_[j - 1].punct("->")) &&
                toks_[j - 2].kind == TokenKind::kIdentifier) {
              obj = toks_[j - 2].text;
            }
            held.push_back(Held{obj, depth, t.line});
            acquires = true;
            break;
          }
        }
        if (!acquires && !held.empty()) {
          Diag(Check::kLockAcrossAwait, t.line,
               "co_await while holding lock '" + held.back().name +
                   "' (acquired line " + std::to_string(held.back().line) +
                   "); a suspended holder can deadlock every waiter — "
                   "release first, or waive with // lint: lock-ok(reason)");
        }
        i = stmt_end > i ? stmt_end - 1 : i;
        continue;
      }
      if (Contains(opts_.lock_release, t.text) && i + 1 < toks_.size() &&
          toks_[i + 1].punct("(")) {
        std::string obj;
        if (i >= 2 && (toks_[i - 1].punct(".") || toks_[i - 1].punct("->")) &&
            toks_[i - 2].kind == TokenKind::kIdentifier) {
          obj = toks_[i - 2].text;
        }
        for (size_t k = held.size(); k > 0; --k) {
          if (obj.empty() || held[k - 1].name == obj) {
            held.erase(held.begin() + static_cast<long>(k - 1));
            break;
          }
        }
      }
    }
  }

  // ---- check 6: unchecked Status / Result -------------------------------

  void CheckUncheckedStatus() {
    bool at_start = true;
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct(";") || t.punct("{") || t.punct("}") ||
          t.kind == TokenKind::kPreprocessor) {
        at_start = true;
        continue;
      }
      if (!at_start) continue;
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "if" || t.text == "while" || t.text == "for" ||
            t.text == "switch" || t.text == "catch") {
          size_t j = i + 1;
          if (j < toks_.size() && toks_[j].ident("constexpr")) ++j;
          if (j < toks_.size() && toks_[j].punct("(")) {
            i = MatchParen(toks_, j);
          }
          continue;  // what follows the header is a statement start
        }
        if (t.text == "else" || t.text == "do" || t.text == "try") continue;
        if (t.text == "case" || t.text == "default" || t.text == "public" ||
            t.text == "private" || t.text == "protected") {
          while (i + 1 < toks_.size() && !toks_[i].punct(":")) ++i;
          continue;
        }
        bool awaited = false;
        size_t j = i;
        if (t.text == "co_await") {
          awaited = true;
          ++j;
        }
        std::string callee;
        size_t consumed = ParseChain(toks_, j, &callee);
        if (consumed > 0 && j + consumed < toks_.size() &&
            toks_[j + consumed].punct("(")) {
          size_t close = MatchParen(toks_, j + consumed);
          if (close + 1 < toks_.size() && toks_[close + 1].punct(";")) {
            if (awaited &&
                index_.awaitable_status_functions.count(callee) > 0) {
              Diag(Check::kUncheckedStatus, t.line,
                   "result of co_await '" + callee +
                       "' (awaitable Status) is discarded; check it or "
                       "cast to (void)");
            } else if (!awaited && index_.status_functions.count(callee) > 0) {
              Diag(Check::kUncheckedStatus, t.line,
                   "return value of '" + callee +
                       "' (Status/Result) is discarded; check it or cast "
                       "to (void)");
            }
          }
          i = close;
        }
      }
      at_start = false;
    }
  }

  // ---- check 7: shard affinities & cross-affinity accesses ---------------

  void ReportOrphanWaivers() {
    for (const auto& [line, ws] : waivers_) {
      for (const Waiver& w : ws) {
        if (w.used) continue;
        Diag(Check::kOrphanWaiver, line,
             std::string("waiver '") + CheckId(w.check) +
                 "-ok' matches no diagnostic on this or the next line; "
                 "delete it");
      }
    }
  }

  bool InComponentLayer() const {
    for (const auto& sub : opts_.component_paths) {
      if (path_.find(sub) != std::string::npos) return true;
    }
    return false;
  }

  // Looks up a class's affinity: this file's clauses first (via
  // class_lines_), then the merged index (annotation at a definition in
  // another file of the closure).
  AffinityInfo ClassAffinity(const std::string& name) const {
    auto it = index_.class_affinity.find(name);
    if (it != index_.class_affinity.end()) return ParseAffinity(it->second);
    return AffinityInfo{};
  }

  // Harvests `name -> class` bindings for every declaration in this file
  // whose type mentions an affinity-annotated class: plain variables and
  // members (`SpongeServer* server`), containers of pointers
  // (`std::vector<SpongeServer*> members_`), references, and range-for
  // bindings. Name-based and file-wide, like the rest of the analyzer.
  void HarvestBindings() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (index_.class_affinity.find(t.text) == index_.class_affinity.end()) {
        continue;
      }
      size_t j = i + 1;
      if (j < toks_.size() && toks_[j].punct("<")) j = SkipAngles(toks_, j);
      while (j < toks_.size() &&
             (toks_[j].punct("*") || toks_[j].punct("&") ||
              toks_[j].punct(">") || toks_[j].punct(">>") ||
              toks_[j].ident("const"))) {
        ++j;
      }
      if (j < toks_.size() && toks_[j].kind == TokenKind::kIdentifier &&
          !(j + 1 < toks_.size() && toks_[j + 1].punct("("))) {
        bindings_[toks_[j].text] = t.text;
      }
    }
  }

  struct Scope {
    std::string name;
    Affinity aff;
    int depth;  // brace depth the scope's body lives at
  };

  void CheckShardAffinity() {
    HarvestBindings();
    std::map<int, std::string> clauses = AffinityClauseLines(comments_);
    std::set<int> used_clauses;

    std::vector<Scope> scopes;
    int depth = 0;
    bool pending = false;      // a class head / out-of-line def awaits '{'
    bool pending_guarded = false;  // attach only to a function-body '{'
    Scope pend{};

    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct("{")) {
        ++depth;
        if (pending) {
          bool attach = true;
          if (pending_guarded && i > 0) {
            // Out-of-line member definition: only a brace following the
            // parameter list (or its trailing qualifiers) starts the body;
            // member-initializer braces are preceded by an identifier.
            const Token& p = toks_[i - 1];
            attach = p.punct(")") || p.ident("const") || p.ident("noexcept") ||
                     p.ident("override") || p.punct(">") || p.punct(">>");
          }
          if (attach) {
            pend.depth = depth;
            scopes.push_back(pend);
            pending = false;
          }
        }
        continue;
      }
      if (t.punct("}")) {
        while (!scopes.empty() && scopes.back().depth == depth) {
          scopes.pop_back();
        }
        --depth;
        continue;
      }
      if (t.punct(";")) {
        pending = false;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier && !t.punct(")") && !t.punct("]")) {
        continue;
      }

      // Skip template parameter lists wholesale: `template <class T>` must
      // not read as a class definition of T.
      if (t.ident("template") && i + 1 < toks_.size() &&
          toks_[i + 1].punct("<")) {
        i = SkipAngles(toks_, i + 1) - 1;
        continue;
      }

      // Class / struct definitions.
      if ((t.ident("class") || t.ident("struct")) &&
          !(i > 0 && toks_[i - 1].ident("enum"))) {
        size_t j = i + 1;
        // Skip attributes: class [[nodiscard]] Task.
        while (j + 1 < toks_.size() && toks_[j].punct("[") &&
               toks_[j + 1].punct("[")) {
          j = MatchBracket(toks_, j);
          // MatchBracket of the outer '[' lands on the second ']'.
          ++j;
        }
        if (j >= toks_.size() ||
            toks_[j].kind != TokenKind::kIdentifier) {
          continue;  // anonymous struct
        }
        std::string name = toks_[j].text;
        size_t k = j + 1;
        if (k < toks_.size() && toks_[k].punct("<")) {
          k = SkipAngles(toks_, k);  // template specialization args
        }
        bool is_def = false;
        for (size_t m = k; m < toks_.size(); ++m) {
          if (toks_[m].punct("{")) {
            is_def = true;
            break;
          }
          if (toks_[m].punct(";") || toks_[m].punct(")") ||
              toks_[m].punct("=")) {
            break;  // forward declaration, parameter, or alias
          }
        }
        if (!is_def) {
          i = j;
          continue;
        }
        AffinityInfo aff;
        for (int line : {t.line, t.line - 1}) {
          auto c = clauses.find(line);
          if (c == clauses.end()) continue;
          used_clauses.insert(line);
          aff = ParseAffinity(c->second);
          if (!aff.valid) {
            Diag(Check::kShardAffinity, line,
                 "bad shard affinity on class '" + name + "': " + aff.error);
          }
          break;
        }
        if (aff.kind == Affinity::kNone) {
          // Annotated at another definition in the closure?
          aff = ClassAffinity(name);
        }
        if (aff.kind == Affinity::kNone) {
          if (!scopes.empty()) {
            aff.kind = scopes.back().aff;  // nested classes inherit
            aff.valid = true;
          } else if (InComponentLayer()) {
            Diag(Check::kShardAffinity, t.line,
                 "class '" + name +
                     "' in the simulated-component layer has no shard "
                     "affinity; annotate with the lint marker and "
                     "shard(node|rack|value|channel|global: reason), or "
                     "waive with // lint: affinity-ok(reason)");
          }
        }
        pending = true;
        pending_guarded = false;
        pend = Scope{name, aff.valid ? aff.kind : Affinity::kNone, 0};
        i = j;
        continue;
      }

      // Out-of-line member definitions: `Ret ClassName::Method(...) {`.
      if (t.kind == TokenKind::kIdentifier && !pending &&
          scopes.empty() && i + 3 < toks_.size() &&
          toks_[i + 1].punct("::") &&
          toks_[i + 2].kind == TokenKind::kIdentifier &&
          (toks_[i + 3].punct("(") ||
           (toks_[i + 2].text == "operator"))) {
        auto it = index_.class_affinity.find(t.text);
        if (it != index_.class_affinity.end()) {
          AffinityInfo aff = ParseAffinity(it->second);
          pending = true;
          pending_guarded = true;
          pend = Scope{t.text, aff.valid ? aff.kind : Affinity::kNone, 0};
        }
        continue;
      }

      // Cross-affinity accesses, only inside node/rack scopes.
      Affinity cur = scopes.empty() ? Affinity::kNone : scopes.back().aff;
      if (cur != Affinity::kNode && cur != Affinity::kRack) continue;

      if (t.kind == TokenKind::kIdentifier) {
        if (i > 0 && (toks_[i - 1].punct(".") || toks_[i - 1].punct("->") ||
                      toks_[i - 1].punct("::"))) {
          continue;  // middle of a chain; the head was already checked
        }
        size_t j = i + 1;
        if (j < toks_.size() && toks_[j].punct("[")) {
          j = MatchBracket(toks_, j) + 1;  // members_[i]->alive()
        }
        if (j + 1 < toks_.size() &&
            (toks_[j].punct(".") || toks_[j].punct("->")) &&
            toks_[j + 1].kind == TokenKind::kIdentifier) {
          auto b = bindings_.find(t.text);
          if (b != bindings_.end()) {
            CheckCrossAccess(scopes.back(), cur, b->second, t.text,
                             toks_[j + 1]);
          }
        }
        continue;
      }

      // Accessor chains: `cluster_->node(i).free_slots()` — the `.` after
      // a call binds through the callee's declared return class.
      if ((t.punct(")") || t.punct("]")) && i + 2 < toks_.size() &&
          (toks_[i + 1].punct(".") || toks_[i + 1].punct("->")) &&
          toks_[i + 2].kind == TokenKind::kIdentifier) {
        size_t open = t.punct(")") ? MatchParenBackward(toks_, i) : 0;
        if (open > 0 && toks_[open - 1].kind == TokenKind::kIdentifier) {
          auto f = index_.returns_class.find(toks_[open - 1].text);
          if (f != index_.returns_class.end()) {
            CheckCrossAccess(scopes.back(), cur, f->second,
                             toks_[open - 1].text + "(...)", toks_[i + 2]);
          }
        }
        continue;
      }
    }

    // Affinity clauses that attached to nothing are drift (a deleted or
    // renamed class) or a typo'd placement.
    for (const auto& [line, clause] : clauses) {
      if (used_clauses.count(line) > 0) continue;
      Diag(Check::kShardAffinity, line,
           "shard affinity 'shard(" + clause +
               ")' is not attached to a class definition (put it on the "
               "class line or the line above)");
    }
  }

  void CheckCrossAccess(const Scope& scope, Affinity cur,
                        const std::string& target_class,
                        const std::string& expr, const Token& member) {
    if (Contains(opts_.shard_identity_members, member.text)) return;
    AffinityInfo target = ClassAffinity(target_class);
    if (!target.valid) return;  // unannotated or malformed: flagged at decl
    if (target.kind == cur || target.kind == Affinity::kValue ||
        target.kind == Affinity::kChannel ||
        target.kind == Affinity::kGlobal) {
      return;  // same domain, passive data, sanctioned channel, or
               // reasoned global
    }
    Diag(Check::kShardCross, member.line,
         "class '" + scope.name + "' (" + AffinityName(cur) + ") touches '" +
             expr + (expr.back() == ')' ? "." : "->") + member.text +
             "' of class '" + target_class + "' (" +
             AffinityName(target.kind) +
             "): cross-shard state access outside a sanctioned channel — "
             "move it behind a message, or waive with "
             "// lint: shard-ok(reason)");
  }

  const std::string& path_;
  const Tokens& toks_;
  const std::vector<Comment>& comments_;
  const SymbolIndex& index_;
  const AnalyzerOptions& opts_;
  std::map<int, std::vector<Waiver>> waivers_;
  std::map<std::string, std::string> bindings_;  // name -> class
  FileReport report_;
};

}  // namespace

SymbolIndex IndexSymbols(const LexResult& lex) {
  SymbolIndex out;
  const Tokens& toks = lex.tokens;
  std::map<int, std::string> affinity_clauses = AffinityClauseLines(lex.comments);
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // Skip template parameter lists: `template <class T>` must not harvest
    // a class named T.
    if (t.ident("template") && i + 1 < toks.size() &&
        toks[i + 1].punct("<")) {
      i = SkipAngles(toks, i + 1) - 1;
      continue;
    }

    // Shard-affinity-annotated class definitions.
    if ((t.ident("class") || t.ident("struct")) &&
        !(i > 0 && toks[i - 1].ident("enum"))) {
      size_t j = i + 1;
      while (j + 1 < toks.size() && toks[j].punct("[") &&
             toks[j + 1].punct("[")) {
        j = MatchBracket(toks, j) + 1;
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
        for (int line : {t.line, t.line - 1}) {
          auto c = affinity_clauses.find(line);
          if (c != affinity_clauses.end()) {
            out.class_affinity[toks[j].text] = c->second;
            break;
          }
        }
      }
      continue;
    }
    if (t.kind == TokenKind::kPreprocessor) {
      // Quoted includes, for include-closure scoping.
      size_t q1 = t.text.find('"');
      if (t.text.find("include") != std::string::npos &&
          q1 != std::string::npos) {
        size_t q2 = t.text.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          out.quoted_includes.push_back(t.text.substr(q1 + 1, q2 - q1 - 1));
        }
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    // Declarations of unordered containers (and accessors returning them).
    if (t.text == "unordered_map" || t.text == "unordered_set" ||
        t.text == "unordered_multimap" || t.text == "unordered_multiset") {
      if (i + 1 >= toks.size() || !toks[i + 1].punct("<")) continue;
      size_t j = SkipAngles(toks, i + 1);
      if (j < toks.size() && toks[j].punct("::")) continue;  // ::iterator
      while (j < toks.size() &&
             (toks[j].punct("&") || toks[j].punct("*") ||
              toks[j].ident("const"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
        out.unordered_names.insert(toks[j].text);
      }
      continue;
    }

    // Functions returning Status / StatusCode / Result<...>.
    bool is_status = t.text == "Status" || t.text == "StatusCode";
    bool is_result = t.text == "Result" && i + 1 < toks.size() &&
                     toks[i + 1].punct("<");
    if (is_status || is_result) {
      if (i > 0) {
        const Token& p = toks[i - 1];
        if (p.ident("return") || p.ident("co_return") ||
            p.ident("co_await") || p.ident("new") || p.ident("throw") ||
            p.punct("=") || p.punct("(") || p.punct(",") || p.punct("<") ||
            p.punct(".") || p.punct("->")) {
          continue;  // expression use, not a declaration
        }
      }
      size_t j = is_result ? SkipAngles(toks, i + 1) : i + 1;
      std::string name;
      size_t consumed = ParseChain(toks, j, &name);
      if (consumed > 0 && j + consumed < toks.size() &&
          toks[j + consumed].punct("(") && name != "operator") {
        out.status_functions.insert(name);
      }
      continue;
    }

    // Functions returning Task<Status> / Task<Result<...>>.
    if (t.text == "Task" && i + 1 < toks.size() && toks[i + 1].punct("<")) {
      size_t j = SkipAngles(toks, i + 1);
      bool carries_status = false;
      for (size_t k = i + 2; k + 1 < j; ++k) {
        if (toks[k].ident("Status") || toks[k].ident("Result")) {
          carries_status = true;
          break;
        }
      }
      if (!carries_status) continue;
      std::string name;
      size_t consumed = ParseChain(toks, j, &name);
      if (consumed > 0 && j + consumed < toks.size() &&
          toks[j + consumed].punct("(") && name != "operator") {
        out.awaitable_status_functions.insert(name);
      }
      continue;
    }

    // Accessor functions declared to return `Class&` / `Class*` (Class in
    // PascalCase): `Node& node(int i)` lets the shard pass bind the result
    // of `cluster->node(i)` to Node. Declarations only — an expression use
    // of `T&` / `T*` at this token shape is vanishingly rare.
    if (std::isupper(static_cast<unsigned char>(t.text[0]))) {
      size_t j = i + 1;
      if (j < toks.size() && toks[j].punct("<")) j = SkipAngles(toks, j);
      if (j < toks.size() && (toks[j].punct("&") || toks[j].punct("*"))) {
        ++j;
        while (j < toks.size() && toks[j].ident("const")) ++j;
        if (j + 1 < toks.size() && toks[j].kind == TokenKind::kIdentifier &&
            toks[j + 1].punct("(")) {
          out.returns_class[toks[j].text] = t.text;
        }
      }
    }
  }
  return out;
}

FileReport AnalyzeFile(const std::string& path, const LexResult& lex,
                       const SymbolIndex& index, const AnalyzerOptions& opts) {
  return Analyzer(path, lex, index, opts).Run();
}

FileReport AnalyzeSource(const std::string& path, std::string_view source,
                         const AnalyzerOptions& opts) {
  LexResult lex = Lex(source);
  SymbolIndex index = IndexSymbols(lex);
  return AnalyzeFile(path, lex, index, opts);
}

}  // namespace spongefiles::lint
