#pragma once
// AS-path regex evaluation (paper Appendix B, "AS-Path Regex Matching").
//
// Three interchangeable engines are provided:
//
//  * NFA engine (the default): compiles the token regex into a Thompson NFA
//    whose edges carry AS predicates. Equivalent to the paper's symbolic
//    construction but never materializes symbol strings, so matching is
//    O(path × states).
//  * Backtracking engine: a direct AST interpreter. Slower, but supports
//    the "same pattern" unary postfix operators (~*, ~+) that no finite
//    NFA over AS predicates can express; also serves as the reference in
//    engine-equivalence property tests.
//  * Symbolic engine: the paper's literal construction — replace each AS
//    token with a symbol, convert each path ASN to its set of matching
//    symbols, enumerate the Cartesian product of symbol strings, and match
//    each string. Exponential in the worst case (kept for the ablation
//    bench with a budget guard).
//
// Matching semantics: POSIX-style *search* — the regex may match any
// substring of the AS path unless anchored with '^' (path start: the
// neighbor the route was received from) and '$' (path end: the origin AS).

#include <memory>
#include <span>
#include <string_view>

#include "rpslyzer/ir/aspath_regex.hpp"

namespace rpslyzer::aspath {

using ir::Asn;

/// Resolves as-set membership for regex tokens that name sets. Implemented
/// by the IRR index; a null membership treats every set as empty/unknown.
class AsSetMembership {
 public:
  virtual ~AsSetMembership() = default;
  /// Does the (recursively flattened) as-set contain `asn`?
  virtual bool contains(std::string_view as_set, Asn asn) const = 0;
  /// Is the as-set defined at all? (Unknown sets make a rule Unrecorded.)
  virtual bool is_known(std::string_view as_set) const = 0;
};

/// Evaluation environment for one match.
struct MatchEnv {
  /// AS path in BGP order: element 0 is the most recent hop (the neighbor
  /// announcing the route), the last element is the origin AS.
  std::span<const Asn> path;
  /// Binding for the PeerAS keyword.
  Asn peer_asn = 0;
  /// Set membership oracle; may be null.
  const AsSetMembership* membership = nullptr;
};

enum class RegexMatch {
  kMatch,
  kNoMatch,
  kUnsupported,  // construct outside the engine's language (or budget)
};

/// Does a single token match one AS under `env`?
bool token_matches(const ir::ReToken& token, Asn asn, const MatchEnv& env);

/// Primary engine: predicate NFA. kUnsupported for same-pattern operators
/// and repetition counts above kMaxRepeatExpansion.
RegexMatch match_nfa(const ir::AsPathRegex& regex, const MatchEnv& env);

/// A regex pre-lowered to its predicate NFA. match_nfa() rebuilds the
/// Thompson automaton on every call; compiling once and matching many times
/// is what the §5-scale hot loop (and the compiled policy snapshot) wants.
/// match() is const and allocates only local frontier vectors, so one
/// CompiledRegex is safely shared across threads.
class CompiledRegex {
 public:
  explicit CompiledRegex(const ir::AsPathRegex& regex);
  CompiledRegex(CompiledRegex&&) noexcept;
  CompiledRegex& operator=(CompiledRegex&&) noexcept;
  CompiledRegex(const CompiledRegex&) = delete;
  CompiledRegex& operator=(const CompiledRegex&) = delete;
  ~CompiledRegex();

  /// False when the regex uses constructs outside the NFA language
  /// (same-pattern operators, oversized repeats); match() then returns
  /// kUnsupported and the caller should fall back to match_backtrack.
  bool supported() const noexcept;

  RegexMatch match(const MatchEnv& env) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reference engine: memoized backtracking over the AST. Supports the full
/// language including same-pattern operators.
RegexMatch match_backtrack(const ir::AsPathRegex& regex, const MatchEnv& env);

/// The paper's symbolic Cartesian-product construction. `budget` caps the
/// number of symbol strings enumerated; kUnsupported when exceeded.
RegexMatch match_symbolic(const ir::AsPathRegex& regex, const MatchEnv& env,
                          std::size_t budget = 1u << 16);

/// Bounded repeat expansion in the NFA ({m,n} with n beyond this is
/// refused rather than exploding the automaton).
inline constexpr std::uint32_t kMaxRepeatExpansion = 64;

}  // namespace rpslyzer::aspath
