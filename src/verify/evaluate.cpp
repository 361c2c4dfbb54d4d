#include "evaluate.hpp"

#include <algorithm>

#include "rpslyzer/aspath/engine.hpp"
#include "rpslyzer/compile/snapshot.hpp"
#include "rpslyzer/net/martians.hpp"
#include "rpslyzer/util/strings.hpp"

namespace rpslyzer::verify::internal {

aspath::RegexMatch InterpretedCorpus::match_as_path(const ir::FilterAsPath& filter,
                                                    std::span<const Asn> path,
                                                    Asn peer) const {
  aspath::MatchEnv env{path, peer, &index};
  aspath::RegexMatch result = aspath::match_nfa(filter.regex, env);
  if (result == aspath::RegexMatch::kUnsupported) {
    result = aspath::match_backtrack(filter.regex, env);
  }
  return result;
}

bool InterpretedCorpus::as_path_skipped(const ir::FilterAsPath& filter) const {
  return ir::uses_skipped_constructs(filter.regex);
}


namespace {

using util::overloaded;

// ---------------------------------------------------------------------------
// In-place item-range operations. Each takes adjacent ranges, the last of
// which is the buffer's tail, and leaves its result as the new tail.
// ---------------------------------------------------------------------------

/// The empty range where the next result will start.
ItemRange empty_tail(const ItemBuffer& items) { return {items.size(), items.size()}; }

/// Append one item; returns the one-item range holding it.
ItemRange push(ItemBuffer& items, ReportItem item) {
  items.push_back(std::move(item));
  return {items.size() - 1, items.size()};
}

/// Drop every item from `begin` on.
ItemRange truncate(ItemBuffer& items, std::size_t begin) {
  items.erase(items.begin() + static_cast<std::ptrdiff_t>(begin), items.end());
  return {begin, begin};
}

/// Keep `first`, drop everything after it.
ItemRange keep(ItemBuffer& items, ItemRange first) {
  truncate(items, first.end);
  return first;
}

/// Keep `second`, drop the adjacent `first` before it.
ItemRange keep_second(ItemBuffer& items, ItemRange first, ItemRange second) {
  items.erase(items.begin() + static_cast<std::ptrdiff_t>(first.begin),
              items.begin() + static_cast<std::ptrdiff_t>(first.end));
  return {first.begin, first.begin + second.size()};
}

/// `first`, then the items of the adjacent `second` not already present.
ItemRange append(ItemBuffer& items, ItemRange first, ItemRange second) {
  const auto seen_begin = items.begin() + static_cast<std::ptrdiff_t>(first.begin);
  std::size_t out = first.end;
  for (std::size_t i = second.begin; i < second.end; ++i) {
    const auto seen_end = items.begin() + static_cast<std::ptrdiff_t>(out);
    if (std::find(seen_begin, seen_end, items[i]) != seen_end) continue;
    if (i != out) items[out] = std::move(items[i]);
    ++out;
  }
  return {first.begin, truncate(items, out).end};
}

/// `second`, then the items of the adjacent `first` not already present:
/// the later range moves to the front, then the ranges merge as above.
ItemRange append_second_first(ItemBuffer& items, ItemRange first, ItemRange second) {
  std::rotate(items.begin() + static_cast<std::ptrdiff_t>(first.begin),
              items.begin() + static_cast<std::ptrdiff_t>(second.begin),
              items.begin() + static_cast<std::ptrdiff_t>(second.end));
  const std::size_t split = first.begin + second.size();
  return append(items, {first.begin, split}, {split, second.end});
}

// ---------------------------------------------------------------------------
// Peerings: {match, no-match, unrecorded}
// ---------------------------------------------------------------------------

enum class PeeringEvalClass : std::uint8_t { kMatch, kNoMatch, kUnrecorded };

struct PeeringEval {
  PeeringEvalClass cls = PeeringEvalClass::kNoMatch;
  ItemRange items;
};

template <typename Corpus>
PeeringEval eval_as_expr(const ir::AsExpr& expr, const EvalContextT<Corpus>& ctx,
                         ItemBuffer& items) {
  return std::visit(
      overloaded{
          [&](const ir::AsExprAsn& a) -> PeeringEval {
            if (a.asn == ctx.peer) return {PeeringEvalClass::kMatch, empty_tail(items)};
            return {PeeringEvalClass::kNoMatch,
                    push(items, {Reason::kMatchRemoteAsNum, a.asn, {}})};
          },
          [&](const ir::AsExprSet& s) -> PeeringEval {
            const auto* flat = ctx.corpus.flattened(s.name);
            if (flat == nullptr) {
              return {PeeringEvalClass::kUnrecorded,
                      push(items, {Reason::kUnrecordedAsSet, 0, s.name})};
            }
            if (flat->contains_any || flat->contains(ctx.peer)) {
              return {PeeringEvalClass::kMatch, empty_tail(items)};
            }
            return {PeeringEvalClass::kNoMatch, push(items, {Reason::kMatchRemoteAsSet, 0, s.name})};
          },
          [&](const ir::AsExprAny&) -> PeeringEval {
            return {PeeringEvalClass::kMatch, empty_tail(items)};
          },
          [&](const ir::AsExprAnd& n) -> PeeringEval {
            const PeeringEval l = eval_as_expr(*n.left, ctx, items);
            const PeeringEval r = eval_as_expr(*n.right, ctx, items);
            PeeringEvalClass cls = PeeringEvalClass::kMatch;
            if (l.cls == PeeringEvalClass::kNoMatch || r.cls == PeeringEvalClass::kNoMatch) {
              cls = PeeringEvalClass::kNoMatch;
            } else if (l.cls == PeeringEvalClass::kUnrecorded ||
                       r.cls == PeeringEvalClass::kUnrecorded) {
              cls = PeeringEvalClass::kUnrecorded;
            }
            return {cls, append(items, l.items, r.items)};
          },
          [&](const ir::AsExprOr& n) -> PeeringEval {
            const PeeringEval l = eval_as_expr(*n.left, ctx, items);
            if (l.cls == PeeringEvalClass::kMatch) return l;
            const PeeringEval r = eval_as_expr(*n.right, ctx, items);
            if (r.cls == PeeringEvalClass::kMatch) {
              return {r.cls, keep_second(items, l.items, r.items)};
            }
            const PeeringEvalClass cls = (l.cls == PeeringEvalClass::kUnrecorded ||
                                          r.cls == PeeringEvalClass::kUnrecorded)
                                             ? PeeringEvalClass::kUnrecorded
                                             : PeeringEvalClass::kNoMatch;
            return {cls, append(items, l.items, r.items)};
          },
          [&](const ir::AsExprExcept& n) -> PeeringEval {
            const PeeringEval l = eval_as_expr(*n.left, ctx, items);
            const PeeringEval r = eval_as_expr(*n.right, ctx, items);
            // left AND NOT right.
            if (l.cls == PeeringEvalClass::kNoMatch) return {l.cls, keep(items, l.items)};
            if (r.cls == PeeringEvalClass::kMatch) {
              return {PeeringEvalClass::kNoMatch, keep(items, l.items)};
            }
            if (l.cls == PeeringEvalClass::kUnrecorded ||
                r.cls == PeeringEvalClass::kUnrecorded) {
              return {PeeringEvalClass::kUnrecorded, append(items, l.items, r.items)};
            }
            return {PeeringEvalClass::kMatch, truncate(items, l.items.begin)};
          },
      },
      expr.node);
}

template <typename Corpus>
PeeringEval eval_peering(const ir::Peering& peering, const EvalContextT<Corpus>& ctx,
                         ItemBuffer& items, int depth = 0);

template <typename Corpus>
PeeringEval eval_peering_set(std::string_view name, const EvalContextT<Corpus>& ctx,
                             ItemBuffer& items, int depth) {
  // Peering-sets may (pathologically) reference peering-sets; bound the
  // recursion like the set-flattening cycle guards elsewhere.
  if (depth > 8) {
    return {PeeringEvalClass::kNoMatch,
            push(items, {Reason::kMatchRemotePeeringSet, 0, std::string(name)})};
  }
  const ir::PeeringSet* set = ctx.corpus.peering_set(name);
  if (set == nullptr) {
    return {PeeringEvalClass::kUnrecorded,
            push(items, {Reason::kUnrecordedPeeringSet, 0, std::string(name)})};
  }
  PeeringEval out{PeeringEvalClass::kNoMatch, empty_tail(items)};
  bool unrecorded = false;
  for (const auto* list : {&set->peerings, &set->mp_peerings}) {
    for (const auto& p : *list) {
      const PeeringEval sub = eval_peering(p, ctx, items, depth + 1);
      if (sub.cls == PeeringEvalClass::kMatch) {
        return {sub.cls, keep_second(items, out.items, sub.items)};
      }
      if (sub.cls == PeeringEvalClass::kUnrecorded) unrecorded = true;
      out.items = append(items, out.items, sub.items);
    }
  }
  if (unrecorded) {
    out.cls = PeeringEvalClass::kUnrecorded;
  } else if (out.items.size() == 0) {
    out.items = push(items, {Reason::kMatchRemotePeeringSet, 0, std::string(name)});
  }
  return out;
}

template <typename Corpus>
PeeringEval eval_peering(const ir::Peering& peering, const EvalContextT<Corpus>& ctx,
                         ItemBuffer& items, int depth) {
  return std::visit(
      overloaded{
          [&](const ir::PeeringSpec& spec) { return eval_as_expr(spec.as_expr, ctx, items); },
          [&](const ir::PeeringSetRef& ref) {
            return eval_peering_set(ref.name, ctx, items, depth);
          },
      },
      peering.node);
}

// ---------------------------------------------------------------------------
// Filters: {match, no-match, unrecorded, skip}
// ---------------------------------------------------------------------------

enum class FilterEvalClass : std::uint8_t { kMatch, kNoMatch, kUnrecorded, kSkip };

struct FilterEval {
  FilterEvalClass cls = FilterEvalClass::kNoMatch;
  ItemRange items;
};

/// A set or route-object lookup's outcome, explained by an item naming
/// `asn` or `name`. The item is built only when it is recorded: a match
/// records nothing, nor does a term in a negative position (`record`).
FilterEval from_lookup(irr::Lookup lookup, ItemBuffer& items, bool record, Reason on_fail,
                       Reason on_unknown, Asn asn, std::string_view name) {
  switch (lookup) {
    case irr::Lookup::kMatch:
      return {FilterEvalClass::kMatch, empty_tail(items)};
    case irr::Lookup::kNoMatch:
      return {FilterEvalClass::kNoMatch,
              record ? push(items, {on_fail, asn, std::string(name)}) : empty_tail(items)};
    case irr::Lookup::kUnknown:
      return {FilterEvalClass::kUnrecorded,
              record ? push(items, {on_unknown, asn, std::string(name)}) : empty_tail(items)};
  }
  return {FilterEvalClass::kNoMatch, empty_tail(items)};
}

/// `positive` tracks boolean polarity: failed-term report items are only
/// recorded in positive positions, where they are relaxation candidates.
/// `depth` bounds filter-set reference chains (which may cycle in the wild).
template <typename Corpus>
FilterEval eval_filter(const ir::Filter& filter, const EvalContextT<Corpus>& ctx,
                       ItemBuffer& items, bool positive, int depth = 0) {
  return std::visit(
      overloaded{
          [&](const ir::FilterAny&) -> FilterEval {
            return {FilterEvalClass::kMatch, empty_tail(items)};
          },
          [&](const ir::FilterPeerAs&) -> FilterEval {
            // PeerAS stands for the remote AS's number (RFC 2622 §5.6):
            // routes whose prefix has a matching route object with that
            // origin. Report failures as MatchFilterAsNum(peer) so the
            // import-customer relaxation sees them.
            return from_lookup(
                ctx.corpus.origin_matches(ctx.peer, net::RangeOp::none(), ctx.prefix), items,
                /*record=*/true, Reason::kMatchFilterAsNum, Reason::kUnrecordedZeroRouteAs,
                ctx.peer, {});
          },
          [&](const ir::FilterFltrMartian&) -> FilterEval {
            return {net::is_martian(ctx.prefix) ? FilterEvalClass::kMatch
                                                : FilterEvalClass::kNoMatch,
                    empty_tail(items)};
          },
          [&](const ir::FilterAsNum& f) -> FilterEval {
            return from_lookup(ctx.corpus.origin_matches(f.asn, f.op, ctx.prefix), items,
                               positive, Reason::kMatchFilterAsNum,
                               Reason::kUnrecordedZeroRouteAs, f.asn, {});
          },
          [&](const ir::FilterAsSet& f) -> FilterEval {
            const irr::Lookup lookup = ctx.corpus.as_set_originates(f.name, f.op, ctx.prefix);
            const Reason on_unknown =
                lookup == irr::Lookup::kUnknown && ctx.corpus.is_known(f.name)
                    ? Reason::kUnrecordedZeroRouteAs
                    : Reason::kUnrecordedAsSet;
            return from_lookup(lookup, items, positive, Reason::kMatchFilterAsSet, on_unknown,
                               0, f.name);
          },
          [&](const ir::FilterRouteSet& f) -> FilterEval {
            return from_lookup(ctx.corpus.route_set_matches(f.name, f.op, ctx.prefix), items,
                               /*record=*/true, Reason::kMatchFilterRouteSet,
                               Reason::kUnrecordedRouteSet, 0, f.name);
          },
          [&](const ir::FilterFilterSet& f) -> FilterEval {
            if (depth > 16) {
              // A filter-set reference cycle can never be resolved.
              return {FilterEvalClass::kSkip,
                      push(items, {Reason::kSkipUnparsedFilter, 0, f.name})};
            }
            const ir::FilterSet* set = ctx.corpus.filter_set(f.name);
            if (set == nullptr) {
              return {FilterEvalClass::kUnrecorded,
                      push(items, {Reason::kUnrecordedFilterSet, 0, f.name})};
            }
            // Prefer the family-appropriate filter; fall back to the other.
            const bool v6 = !ctx.prefix.is_v4();
            const ir::Filter* chosen = nullptr;
            if (v6 && set->has_mp_filter) {
              chosen = &set->mp_filter;
            } else if (set->has_filter) {
              chosen = &set->filter;
            } else if (set->has_mp_filter) {
              chosen = &set->mp_filter;
            }
            if (chosen == nullptr) {
              return {FilterEvalClass::kUnrecorded,
                      push(items, {Reason::kUnrecordedFilterSet, 0, f.name})};
            }
            return eval_filter(*chosen, ctx, items, positive, depth + 1);
          },
          [&](const ir::FilterPrefixes& f) -> FilterEval {
            if (!f.op.is_none() && ctx.options.paper_faithful_skips) {
              // "We also do not handle two rules containing inline prefix
              // sets followed by range operators" (Appendix B).
              return {FilterEvalClass::kSkip, push(items, {Reason::kSkipPrefixSetOp, 0, {}})};
            }
            const bool hit = f.op.is_none() ? f.prefixes.matches(ctx.prefix)
                                            : f.prefixes.matches_with(f.op, ctx.prefix);
            if (hit) return {FilterEvalClass::kMatch, empty_tail(items)};
            return {FilterEvalClass::kNoMatch,
                    positive ? push(items, {Reason::kMatchFilterPrefixes, 0, {}})
                             : empty_tail(items)};
          },
          [&](const ir::FilterAsPath& f) -> FilterEval {
            if (ctx.options.paper_faithful_skips && ctx.corpus.as_path_skipped(f)) {
              return {FilterEvalClass::kSkip,
                      push(items, {Reason::kSkipRegexConstruct, 0, {}})};
            }
            switch (ctx.corpus.match_as_path(f, ctx.path, ctx.peer)) {
              case aspath::RegexMatch::kMatch:
                return {FilterEvalClass::kMatch, empty_tail(items)};
              case aspath::RegexMatch::kNoMatch:
                return {FilterEvalClass::kNoMatch,
                        positive ? push(items, {Reason::kMatchFilterAsPath, 0, {}})
                                 : empty_tail(items)};
              case aspath::RegexMatch::kUnsupported:
                return {FilterEvalClass::kSkip,
                        push(items, {Reason::kSkipRegexConstruct, 0, {}})};
            }
            return {FilterEvalClass::kSkip, empty_tail(items)};
          },
          [&](const ir::FilterCommunity&) -> FilterEval {
            // Communities may be stripped in flight and are not visible in
            // table dumps; the paper conservatively ignores such rules.
            return {FilterEvalClass::kSkip, push(items, {Reason::kSkipCommunityFilter, 0, {}})};
          },
          [&](const ir::FilterAnd& f) -> FilterEval {
            const FilterEval l = eval_filter(*f.left, ctx, items, positive, depth);
            const FilterEval r = eval_filter(*f.right, ctx, items, positive, depth);
            FilterEvalClass cls = FilterEvalClass::kMatch;
            if (l.cls == FilterEvalClass::kNoMatch || r.cls == FilterEvalClass::kNoMatch) {
              cls = FilterEvalClass::kNoMatch;
            } else if (l.cls == FilterEvalClass::kSkip || r.cls == FilterEvalClass::kSkip) {
              cls = FilterEvalClass::kSkip;
            } else if (l.cls == FilterEvalClass::kUnrecorded ||
                       r.cls == FilterEvalClass::kUnrecorded) {
              cls = FilterEvalClass::kUnrecorded;
            }
            if (cls == FilterEvalClass::kMatch) return {cls, truncate(items, l.items.begin)};
            return {cls, append(items, l.items, r.items)};
          },
          [&](const ir::FilterOr& f) -> FilterEval {
            const FilterEval l = eval_filter(*f.left, ctx, items, positive, depth);
            if (l.cls == FilterEvalClass::kMatch) return l;
            const FilterEval r = eval_filter(*f.right, ctx, items, positive, depth);
            if (r.cls == FilterEvalClass::kMatch) {
              return {r.cls, keep_second(items, l.items, r.items)};
            }
            FilterEvalClass cls = FilterEvalClass::kNoMatch;
            if (l.cls == FilterEvalClass::kSkip || r.cls == FilterEvalClass::kSkip) {
              cls = FilterEvalClass::kSkip;
            } else if (l.cls == FilterEvalClass::kUnrecorded ||
                       r.cls == FilterEvalClass::kUnrecorded) {
              cls = FilterEvalClass::kUnrecorded;
            }
            return {cls, append(items, l.items, r.items)};
          },
          [&](const ir::FilterNot& f) -> FilterEval {
            const FilterEval inner = eval_filter(*f.inner, ctx, items, !positive, depth);
            switch (inner.cls) {
              case FilterEvalClass::kMatch:
                return {FilterEvalClass::kNoMatch, truncate(items, inner.items.begin)};
              case FilterEvalClass::kNoMatch:
                return {FilterEvalClass::kMatch, truncate(items, inner.items.begin)};
              default:
                return inner;
            }
          },
          [&](const ir::FilterUnknown&) -> FilterEval {
            return {FilterEvalClass::kSkip, push(items, {Reason::kSkipUnparsedFilter, 0, {}})};
          },
      },
      filter.node);
}

// ---------------------------------------------------------------------------
// Entries (rules, possibly structured)
// ---------------------------------------------------------------------------

/// The winner of adjacent outcomes `a` and `b` (`a_wins` picks it), with
/// the loser's items appended after the winner's when `merge`, else
/// dropped.
RuleOutcome settle(ItemBuffer& items, const RuleOutcome& a, const RuleOutcome& b, bool a_wins,
                   bool merge) {
  if (a_wins) {
    return {a.cls, merge ? append(items, a.items, b.items) : keep(items, a.items)};
  }
  return {b.cls, merge ? append_second_first(items, a.items, b.items)
                       : keep_second(items, a.items, b.items)};
}

template <typename Corpus>
RuleOutcome eval_factor(const ir::PolicyFactor& factor, const EvalContextT<Corpus>& ctx,
                        ItemBuffer& items) {
  const std::size_t begin = items.size();
  // (1) Any of the factor's peerings must cover the remote AS.
  PeeringEval best_peering{PeeringEvalClass::kNoMatch, empty_tail(items)};
  for (const auto& pa : factor.peerings) {
    const PeeringEval p = eval_peering(pa.peering, ctx, items);
    if (p.cls == PeeringEvalClass::kMatch) {
      best_peering = {p.cls, keep_second(items, best_peering.items, p.items)};
      break;
    }
    if (p.cls == PeeringEvalClass::kUnrecorded) best_peering.cls = PeeringEvalClass::kUnrecorded;
    best_peering.items = append(items, best_peering.items, p.items);
  }
  if (best_peering.cls == PeeringEvalClass::kUnrecorded) {
    return {EvalClass::kUnrecorded, best_peering.items};
  }
  if (best_peering.cls == PeeringEvalClass::kNoMatch) {
    return {EvalClass::kNoMatchPeering, best_peering.items};
  }

  // (2) The filter must cover <P, A>; its items alone explain the outcome.
  truncate(items, begin);
  const FilterEval f = eval_filter(factor.filter, ctx, items, /*positive=*/true);
  switch (f.cls) {
    case FilterEvalClass::kMatch:
      return {EvalClass::kMatch, truncate(items, begin)};
    case FilterEvalClass::kSkip:
      return {EvalClass::kSkip, f.items};
    case FilterEvalClass::kUnrecorded:
      return {EvalClass::kUnrecorded, f.items};
    case FilterEvalClass::kNoMatch:
      return {EvalClass::kNoMatchFilter,
              {f.items.begin, push(items, {Reason::kMatchFilter, 0, {}}).end}};
  }
  return {EvalClass::kNoMatchFilter, truncate(items, begin)};
}

template <typename Corpus>
RuleOutcome eval_entry(const ir::Entry& entry, bool mp, const EvalContextT<Corpus>& ctx,
                       ItemBuffer& items) {
  if (!entry.covers_unicast(ctx.prefix.family(), mp)) {
    return {EvalClass::kNotApplicable, empty_tail(items)};
  }
  return std::visit(
      overloaded{
          [&](const ir::EntryTerm& term) -> RuleOutcome {
            RuleOutcome best{EvalClass::kNotApplicable, empty_tail(items)};
            for (const auto& factor : term.factors) {
              best = combine_best(best, eval_factor(factor, ctx, items), items);
              if (best.cls == EvalClass::kMatch) break;
            }
            return best;
          },
          [&](const ir::EntryExcept& e) -> RuleOutcome {
            // Exceptions take precedence: a route matching the RHS uses the
            // RHS policy; an undetermined RHS leaves the whole rule
            // undetermined; otherwise the LHS applies.
            const RuleOutcome rhs = eval_entry(*e.right, mp, ctx, items);
            if (rhs.cls == EvalClass::kMatch || rhs.cls == EvalClass::kSkip ||
                rhs.cls == EvalClass::kUnrecorded) {
              return rhs;
            }
            const RuleOutcome lhs = eval_entry(*e.left, mp, ctx, items);
            return settle(items, rhs, lhs, /*a_wins=*/false, /*merge=*/false);
          },
          [&](const ir::EntryRefine& e) -> RuleOutcome {
            // A refinement matches only when both sides match; a definite
            // non-match on either side decides, then skip/unrecorded.
            const RuleOutcome l = eval_entry(*e.left, mp, ctx, items);
            const RuleOutcome r = eval_entry(*e.right, mp, ctx, items);
            auto rank = [](EvalClass c) {
              switch (c) {
                case EvalClass::kNotApplicable:
                  return 0;
                case EvalClass::kNoMatchPeering:
                  return 1;
                case EvalClass::kNoMatchFilter:
                  return 2;
                case EvalClass::kSkip:
                  return 3;
                case EvalClass::kUnrecorded:
                  return 4;
                case EvalClass::kMatch:
                  return 5;
              }
              return 0;
            };
            // The weaker side decides; unless both match, the stronger
            // side's items follow its own.
            const bool left_weaker = rank(l.cls) <= rank(r.cls);
            const EvalClass weaker = left_weaker ? l.cls : r.cls;
            return settle(items, l, r, left_weaker, /*merge=*/weaker != EvalClass::kMatch);
          },
      },
      entry.node);
}

}  // namespace

RuleOutcome combine_best(RuleOutcome a, RuleOutcome b, ItemBuffer& items) {
  auto rank = [](EvalClass c) {
    switch (c) {
      case EvalClass::kMatch:
        return 0;
      case EvalClass::kSkip:
        return 1;
      case EvalClass::kUnrecorded:
        return 2;
      case EvalClass::kNoMatchFilter:
        return 3;
      case EvalClass::kNoMatchPeering:
        return 4;
      case EvalClass::kNotApplicable:
        return 5;
    }
    return 5;
  };
  auto mismatch = [](EvalClass c) {
    return c == EvalClass::kNoMatchFilter || c == EvalClass::kNoMatchPeering;
  };
  // Mismatch explanations accumulate across rules (Appendix C shows every
  // rule's MatchRemoteAsNum); determined statuses keep their own items.
  return settle(items, a, b, /*a_wins=*/rank(a.cls) <= rank(b.cls),
                /*merge=*/mismatch(a.cls) && mismatch(b.cls));
}

template <typename Corpus>
RuleOutcome evaluate_rule(const ir::Rule& rule, const EvalContextT<Corpus>& ctx,
                          ItemBuffer& items) {
  return eval_entry(rule.entry, rule.mp, ctx, items);
}

template RuleOutcome evaluate_rule<InterpretedCorpus>(
    const ir::Rule&, const EvalContextT<InterpretedCorpus>&, ItemBuffer&);
template RuleOutcome evaluate_rule<compile::CompiledPolicySnapshot>(
    const ir::Rule&, const EvalContextT<compile::CompiledPolicySnapshot>&, ItemBuffer&);

}  // namespace rpslyzer::verify::internal
