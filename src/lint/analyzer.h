#ifndef SPONGEFILES_LINT_ANALYZER_H_
#define SPONGEFILES_LINT_ANALYZER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostic.h"
#include "lint/token.h"

namespace spongefiles::lint {

// Tuning knobs for the checks. The defaults encode this repository's
// conventions (sim::Task coroutines, sim::Mutex locks, the seeded Rng in
// common/random as the only randomness gateway); tests override them to
// exercise the machinery in isolation.
struct AnalyzerOptions {
  // Type names treated as awaitable coroutine return types for the
  // coroutine-frame-escape check (matched on the unqualified name).
  std::vector<std::string> awaitable_types = {"Task"};

  // Parameter type names that are non-owning views into caller storage.
  // Passed by value they are exactly as dangerous as a T& when the
  // coroutine outlives its caller's frame.
  std::vector<std::string> view_types = {"string_view", "Slice", "span"};

  // Identifiers whose mere mention is a determinism hazard.
  std::vector<std::string> banned_idents = {
      "system_clock",     "steady_clock",        "high_resolution_clock",
      "random_device",    "mt19937",             "mt19937_64",
      "default_random_engine", "minstd_rand",
  };

  // Free functions that read ambient time/randomness/environment; flagged
  // only in call position (`name(`) in an expression context, so a method
  // or member named `time` does not trip it.
  std::vector<std::string> banned_calls = {
      "time", "rand", "srand", "getenv", "gettimeofday", "clock", "localtime",
  };

  // Headers whose inclusion is banned outside the allowlist.
  std::vector<std::string> banned_headers = {
      "thread", "mutex", "shared_mutex", "condition_variable",
      "random", "ctime",  "future",
  };

  // Path substrings exempt from the determinism and banned-header checks
  // (the seeded-randomness gateway lives here).
  std::vector<std::string> allowlist = {"common/random"};

  // Method names that acquire / release a lock for the
  // lock-across-suspension check. Semaphore::Acquire is deliberately NOT
  // listed: holding a simulated resource (disk queue, network link)
  // across simulated time is the simulator's job; holding a Mutex across
  // a suspension point is how coroutine deadlocks start.
  std::vector<std::string> lock_acquire = {"Lock"};
  std::vector<std::string> lock_release = {"Unlock"};

  // Ordering-sensitive sinks: iterating an unordered container is only
  // flagged when the loop body hits one of these (appends to a sequence,
  // emits output, awaits, destroys, schedules).
  std::vector<std::string> sink_idents = {
      "push_back", "emplace_back", "append", "Append", "Push",  "Spawn",
      "ScheduleHandle", "destroy", "co_await", "Set", "Increment", "Observe",
  };
  std::vector<std::string> sink_puncts = {"<<", "+="};

  // Path substrings naming the simulated-component layer: every top-level
  // class defined under one of these must carry a shard affinity
  // annotation (the marker followed by `shard(node|rack|value|channel|`
  // `global: reason)`), and member accesses from a node/rack class into a
  // class of a different affinity are flagged unless the target is a
  // value, a channel, or a reasoned global.
  std::vector<std::string> component_paths = {"src/cluster/", "src/sponge/",
                                              "src/mapred/", "src/pig/"};

  // Members that carry immutable identity (ids, shard coordinates, sizes
  // fixed at construction) plus standard container operations — a
  // container of Foo* is owned by the class that declares it, so
  // `members_.front()` is an access to *our* member, not to a Foo. Only
  // dereferencing an element (`members_[i]->x`) crosses domains.
  std::vector<std::string> shard_identity_members = {
      "node_id", "rack", "rack_of", "home_node", "num_racks", "num_nodes",
      "size", "empty", "name", "id",
      // container ops
      "front", "back", "begin", "end", "at", "find", "count", "push_back",
      "pop_back", "emplace_back", "clear", "erase", "insert", "resize",
      "assign", "reserve",
  };
};

// Names harvested from a first pass over one or more files; the analyzer
// consults it for cross-file checks (unchecked Status calls, iteration
// over unordered members returned by accessors declared elsewhere). The
// index is name-based — deliberately over-approximate; waivers handle the
// rare collision.
struct SymbolIndex {
  // Functions declared to return Status / Result<...> / StatusCode.
  std::set<std::string> status_functions;
  // Functions declared to return Task<Status> / Task<Result<...>>.
  std::set<std::string> awaitable_status_functions;
  // Variables, members, parameters, and accessor functions whose declared
  // type involves unordered_map / unordered_set.
  std::set<std::string> unordered_names;
  // Quoted #include targets, for include-closure scoping by the driver.
  std::vector<std::string> quoted_includes;
  // Class name -> shard affinity clause text ("node", "rack", "value",
  // "channel", or "global: reason"), harvested from annotated class
  // definitions. Name-based like everything else in the index.
  std::map<std::string, std::string> class_affinity;
  // Function name -> class name, for accessor functions declared to return
  // `Class&` or `Class*`: `cluster->node(i).free_slots()` binds through
  // the return type of `node`.
  std::map<std::string, std::string> returns_class;

  void Merge(const SymbolIndex& other);
};

// Pass 1: harvest declarations from a lexed file.
SymbolIndex IndexSymbols(const LexResult& lex);

// Pass 2: run every check over a lexed file. `path` is used for
// diagnostics and allowlist matching (match it repo-relative).
FileReport AnalyzeFile(const std::string& path, const LexResult& lex,
                       const SymbolIndex& index, const AnalyzerOptions& opts);

// Convenience for tests and single-file use: lex, self-index, analyze.
FileReport AnalyzeSource(const std::string& path, std::string_view source,
                         const AnalyzerOptions& opts = AnalyzerOptions());

}  // namespace spongefiles::lint

#endif  // SPONGEFILES_LINT_ANALYZER_H_
