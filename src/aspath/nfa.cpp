// Predicate-NFA engine for AS-path regexes.
//
// Thompson construction over AS tokens. Edges are epsilon, positional
// assertions ('^' start / '$' end), or token edges that consume one AS and
// test it against an AS predicate (ASN equality, as-set membership, PeerAS,
// wildcard, complemented sets). Search semantics come from implicit
// consume-anything self-loops at the start and accept states; explicit
// anchors still bind because assertions check the absolute position.

#include <vector>

#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::aspath {

namespace {

using ir::AsPathRegexNode;

struct Edge {
  enum class Kind : std::uint8_t { kEps, kAssertBegin, kAssertEnd, kToken, kAnyToken };
  Kind kind = Kind::kEps;
  int token = -1;  // index into Nfa::tokens for kToken
  int to = -1;
};

struct Nfa {
  std::vector<std::vector<Edge>> states;
  std::vector<ir::ReToken> tokens;
  int start = -1;
  int accept = -1;
  bool unsupported = false;

  int new_state() {
    states.emplace_back();
    return static_cast<int>(states.size()) - 1;
  }
  void add_edge(int from, Edge e) { states[static_cast<std::size_t>(from)].push_back(e); }
};

struct Fragment {
  int in = -1;
  int out = -1;
};

class Builder {
 public:
  explicit Builder(Nfa& nfa) : nfa_(nfa) {}

  Fragment build(const AsPathRegexNode& node) {
    return std::visit(
        util::overloaded{
            [&](const ir::ReEmpty&) { return epsilon_fragment(); },
            [&](const ir::ReBeginAnchor&) {
              Fragment f{nfa_.new_state(), nfa_.new_state()};
              nfa_.add_edge(f.in, {Edge::Kind::kAssertBegin, -1, f.out});
              return f;
            },
            [&](const ir::ReEndAnchor&) {
              Fragment f{nfa_.new_state(), nfa_.new_state()};
              nfa_.add_edge(f.in, {Edge::Kind::kAssertEnd, -1, f.out});
              return f;
            },
            [&](const ir::ReTokenNode& t) {
              Fragment f{nfa_.new_state(), nfa_.new_state()};
              nfa_.tokens.push_back(t.token);
              nfa_.add_edge(f.in, {Edge::Kind::kToken,
                                   static_cast<int>(nfa_.tokens.size()) - 1, f.out});
              return f;
            },
            [&](const ir::ReConcat& c) {
              Fragment f = epsilon_fragment();
              for (const auto& part : c.parts) {
                Fragment p = build(*part);
                nfa_.add_edge(f.out, {Edge::Kind::kEps, -1, p.in});
                f.out = p.out;
              }
              return f;
            },
            [&](const ir::ReAlt& a) {
              Fragment f{nfa_.new_state(), nfa_.new_state()};
              for (const auto& option : a.options) {
                Fragment o = build(*option);
                nfa_.add_edge(f.in, {Edge::Kind::kEps, -1, o.in});
                nfa_.add_edge(o.out, {Edge::Kind::kEps, -1, f.out});
              }
              return f;
            },
            [&](const ir::ReRepeatNode& r) { return build_repeat(r); },
        },
        node.node);
  }

 private:
  Nfa& nfa_;

  Fragment epsilon_fragment() {
    Fragment f{nfa_.new_state(), nfa_.new_state()};
    nfa_.add_edge(f.in, {Edge::Kind::kEps, -1, f.out});
    return f;
  }

  Fragment build_star(const AsPathRegexNode& inner) {
    Fragment f{nfa_.new_state(), nfa_.new_state()};
    Fragment body = build(inner);
    nfa_.add_edge(f.in, {Edge::Kind::kEps, -1, f.out});
    nfa_.add_edge(f.in, {Edge::Kind::kEps, -1, body.in});
    nfa_.add_edge(body.out, {Edge::Kind::kEps, -1, body.in});
    nfa_.add_edge(body.out, {Edge::Kind::kEps, -1, f.out});
    return f;
  }

  Fragment build_repeat(const ir::ReRepeatNode& r) {
    // "Same pattern" repetition cannot be expressed by a finite automaton
    // over AS predicates (it needs equality with the previously consumed
    // AS); the backtracking engine handles it.
    if (r.repeat.same_pattern) {
      nfa_.unsupported = true;
      return epsilon_fragment();
    }
    const std::uint32_t min = r.repeat.min;
    if (min > kMaxRepeatExpansion ||
        (r.repeat.max && *r.repeat.max > kMaxRepeatExpansion)) {
      nfa_.unsupported = true;
      return epsilon_fragment();
    }
    Fragment f = epsilon_fragment();
    for (std::uint32_t i = 0; i < min; ++i) {
      Fragment copy = build(*r.inner);
      nfa_.add_edge(f.out, {Edge::Kind::kEps, -1, copy.in});
      f.out = copy.out;
    }
    if (!r.repeat.max) {
      Fragment star = build_star(*r.inner);
      nfa_.add_edge(f.out, {Edge::Kind::kEps, -1, star.in});
      f.out = star.out;
    } else {
      for (std::uint32_t i = min; i < *r.repeat.max; ++i) {
        // Optional copy.
        Fragment copy = build(*r.inner);
        int join = nfa_.new_state();
        nfa_.add_edge(f.out, {Edge::Kind::kEps, -1, copy.in});
        nfa_.add_edge(f.out, {Edge::Kind::kEps, -1, join});
        nfa_.add_edge(copy.out, {Edge::Kind::kEps, -1, join});
        f.out = join;
      }
    }
    return f;
  }
};

Nfa compile(const ir::AsPathRegex& regex) {
  Nfa nfa;
  Builder builder(nfa);
  Fragment body = builder.build(*regex.root);
  // Search semantics: consume-anything self-loops around the body.
  nfa.start = nfa.new_state();
  nfa.accept = nfa.new_state();
  nfa.add_edge(nfa.start, {Edge::Kind::kAnyToken, -1, nfa.start});
  nfa.add_edge(nfa.start, {Edge::Kind::kEps, -1, body.in});
  nfa.add_edge(body.out, {Edge::Kind::kEps, -1, nfa.accept});
  nfa.add_edge(nfa.accept, {Edge::Kind::kAnyToken, -1, nfa.accept});
  return nfa;
}

/// Epsilon/assertion closure of `frontier` at path position `pos`.
void close(const Nfa& nfa, std::vector<bool>& frontier, std::size_t pos, std::size_t len) {
  std::vector<int> stack;
  for (std::size_t s = 0; s < frontier.size(); ++s) {
    if (frontier[s]) stack.push_back(static_cast<int>(s));
  }
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (const Edge& e : nfa.states[static_cast<std::size_t>(s)]) {
      bool traverse = false;
      switch (e.kind) {
        case Edge::Kind::kEps:
          traverse = true;
          break;
        case Edge::Kind::kAssertBegin:
          traverse = pos == 0;
          break;
        case Edge::Kind::kAssertEnd:
          traverse = pos == len;
          break;
        case Edge::Kind::kToken:
        case Edge::Kind::kAnyToken:
          break;
      }
      if (traverse && !frontier[static_cast<std::size_t>(e.to)]) {
        frontier[static_cast<std::size_t>(e.to)] = true;
        stack.push_back(e.to);
      }
    }
  }
}

}  // namespace

bool token_matches(const ir::ReToken& token, Asn asn, const MatchEnv& env) {
  auto set_contains = [&](std::string_view name) {
    return env.membership != nullptr && env.membership->contains(name, asn);
  };
  switch (token.kind) {
    case ir::ReToken::Kind::kAsn:
      return token.asn == asn;
    case ir::ReToken::Kind::kAny:
      return true;
    case ir::ReToken::Kind::kPeerAs:
      return asn == env.peer_asn;
    case ir::ReToken::Kind::kAsSet:
      return set_contains(token.as_set);
    case ir::ReToken::Kind::kSet: {
      bool hit = false;
      for (const auto& item : token.items) {
        switch (item.kind) {
          case ir::ReSetItem::Kind::kAsn:
            hit = item.asn == asn;
            break;
          case ir::ReSetItem::Kind::kAsnRange:
            hit = item.asn <= asn && asn <= item.asn_hi;
            break;
          case ir::ReSetItem::Kind::kAsSet:
            hit = set_contains(item.as_set);
            break;
          case ir::ReSetItem::Kind::kPeerAs:
            hit = asn == env.peer_asn;
            break;
        }
        if (hit) break;
      }
      return token.complemented ? !hit : hit;
    }
  }
  return false;
}

struct CompiledRegex::Impl {
  Nfa nfa;
};

CompiledRegex::CompiledRegex(const ir::AsPathRegex& regex)
    : impl_(std::make_unique<Impl>(Impl{compile(regex)})) {}
CompiledRegex::CompiledRegex(CompiledRegex&&) noexcept = default;
CompiledRegex& CompiledRegex::operator=(CompiledRegex&&) noexcept = default;
CompiledRegex::~CompiledRegex() = default;

bool CompiledRegex::supported() const noexcept { return !impl_->nfa.unsupported; }

RegexMatch CompiledRegex::match(const MatchEnv& env) const {
  const Nfa& nfa = impl_->nfa;
  if (nfa.unsupported) return RegexMatch::kUnsupported;

  const std::size_t len = env.path.size();
  std::vector<bool> frontier(nfa.states.size(), false);
  frontier[static_cast<std::size_t>(nfa.start)] = true;
  close(nfa, frontier, 0, len);

  for (std::size_t i = 0; i < len; ++i) {
    std::vector<bool> next(nfa.states.size(), false);
    bool any = false;
    for (std::size_t s = 0; s < frontier.size(); ++s) {
      if (!frontier[s]) continue;
      for (const Edge& e : nfa.states[s]) {
        if (e.kind == Edge::Kind::kToken || e.kind == Edge::Kind::kAnyToken) {
          if (e.kind == Edge::Kind::kAnyToken ||
              token_matches(nfa.tokens[static_cast<std::size_t>(e.token)], env.path[i], env)) {
            next[static_cast<std::size_t>(e.to)] = true;
            any = true;
          }
        }
      }
    }
    if (!any) return RegexMatch::kNoMatch;
    close(nfa, next, i + 1, len);
    frontier = std::move(next);
  }
  return frontier[static_cast<std::size_t>(nfa.accept)] ? RegexMatch::kMatch
                                                        : RegexMatch::kNoMatch;
}

RegexMatch match_nfa(const ir::AsPathRegex& regex, const MatchEnv& env) {
  return CompiledRegex(regex).match(env);
}

}  // namespace rpslyzer::aspath
