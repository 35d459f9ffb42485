"""Exhaustive verification of obvious dominance and related properties.

``verify_osp`` checks the defining quantifier alternation directly: at
every node of bidder *i* that is attainable when *i* plays the
strategy-induced behavior, the worst case of continuing truthfully must
weakly beat the best case of any deviating message, where "worst" and
"best" range over everything the other bidders (and, after a
deviation, bidder *i* too) might do.

Naively that quantifies over behavior profiles, which is doubly
exponential.  Instead, linear passes per (bidder, valuation) over the
protocol's flat node index (``Protocol.flat``: every node at an int
position, a node's children at adjacent positions) compute for every
position k

* ``min_pinned[k]``: the worst utility over continuations where *i*'s
  edges follow the candidate behavior and everyone else is free,
* ``max_free[k]``: the best utility over all continuations, and
* whether k is attainable under that behavior,

so a node's values are a slice of its children's, and the check
compares them across sibling edges.  Witnesses carry two behavior
profiles that replay to exactly the reported utilities; each follows
positions down the same index from the failing node, taking the first
child with the least ``min_pinned`` (the bidder keeping to her behavior
row) or the greatest ``max_free``.
``verify_osp``, ``verify_ir_nnt`` and a caller's own ``realize_rule``
read one record kept on the protocol per (strategies, domains): its
behavior rows, one per (bidder, valuation) built once through
``behavior_from_strategy``, and its realized rule, whose profiles are
played once between them.

All comparisons run on exact integers.  Utilities are rationals, so
every value and payment a check reads is multiplied by one common
scale, the least common multiple of their denominators: the leaf
utilities of one bidder's domain in ``verify_osp``, and the whole rule
in the rule checks.  Scaling by a positive integer keeps every
difference, comparison and tie, so verdicts and witnesses are those of
``Fraction`` arithmetic; a reported utility ``x`` is ``Fraction(x,
scale)``.  The rule checks read a private view of the realized rule,
built once per rule: profiles lie flat in ``sorted(rule.table)`` order,
so bidder ``i``'s unilateral move from index ``a`` to ``alt`` is a step
of ``(alt - a) * stride[i]``, and each bidder's bundles are interned.

Also here: ex-post individual rationality + no-negative-transfers,
weak monotonicity and dominant-strategy checks on realized rules, and
the divergence lemma (profiles sharing a vertex, with strictly ranked
utilities for one bidder, must agree on that bidder's message there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import lcm
from typing import Optional, Sequence

from .protocols import (
    FlatIndex,
    NodeId,
    Protocol,
    RealizedRule,
    Strategy,
    _tabulation,
    behavior_from_strategy,
    play,
    realize_rule,
)
from .valuations import Valuation, format_fraction, valuation_to_json

ZERO = Fraction(0)


@dataclass
class OspWitness:
    """A replayable obvious-dominance violation."""

    bidder: int
    valuation_index: int
    valuation: Valuation
    node: NodeId
    truthful_message: int
    deviating_message: int
    worst_truthful_utility: Fraction
    best_deviating_utility: Fraction
    truthful_profile: list
    deviating_profile: list

    def to_json(self) -> dict:
        def profile_json(profile):
            return [
                {".".join(map(str, u)): msg for u, msg in sorted(table.items())}
                for table in profile
            ]

        return {
            "bidder": self.bidder,
            "valuation_index": self.valuation_index,
            "valuation": valuation_to_json(self.valuation),
            "node": ".".join(map(str, self.node)),
            "truthful_message": self.truthful_message,
            "deviating_message": self.deviating_message,
            "worst_truthful_utility": format_fraction(self.worst_truthful_utility),
            "best_deviating_utility": format_fraction(self.best_deviating_utility),
            "truthful_profile": profile_json(self.truthful_profile),
            "deviating_profile": profile_json(self.deviating_profile),
        }


@dataclass
class OspVerdict:
    status: str  # "pass" or "fail"
    witness: Optional[OspWitness] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        data = {"status": self.status}
        if self.witness is not None:
            data["witness"] = self.witness.to_json()
        return data


@dataclass
class CheckVerdict:
    """Pass/fail result of a named property check."""

    check: str
    status: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"check": self.check, "status": self.status, "details": self.details}


# ---------------------------------------------------------------------------
# exact integer scaling


def _common_scale(amounts) -> int:
    """Least common multiple of the denominators of exact amounts."""
    return lcm(*{x.denominator for x in amounts})


def _scaled(amounts, scale: int) -> list:
    return [x.numerator * (scale // x.denominator) for x in amounts]


def _bidder_columns(outcomes: list, bidder: int, domain) -> tuple:
    """The bidder's side of a list of outcomes, as exact amounts.

    Returns the interned id of the bidder's bundle in each outcome, the
    value of each valuation of ``domain`` on each distinct bundle (one
    row per valuation, one entry per id), and the bidder's payment in
    each outcome.
    """
    bundle_ids: dict = {}
    picks = [
        bundle_ids.setdefault(o.allocation.bundles[bidder], len(bundle_ids)) for o in outcomes
    ]
    values = [[valuation.value(bundle) for bundle in bundle_ids] for valuation in domain]
    return picks, values, [o.payments[bidder] for o in outcomes]


# ---------------------------------------------------------------------------
# obvious dominance


def _leaf_utilities(protocol: Protocol, bidder: int, domain) -> tuple:
    """The bidder's scaled utility at every leaf for each valuation.

    Returns the common scale of the whole domain and a generator of one
    position-indexed list per valuation, in domain order: utility *
    scale at each leaf's position of ``protocol.flat``, 0 at internal
    positions, which the passes fill.  Each valuation is evaluated once
    per distinct bundle of the bidder.
    """
    flat = protocol.flat
    leaves = [k for k, mover in enumerate(flat.mover) if mover < 0]
    outcomes = [protocol.outcome(flat.order[k]) for k in leaves]
    picks, values, payments = _bidder_columns(outcomes, bidder, domain)
    scale = _common_scale(chain(payments, *values))
    paid = _scaled(payments, scale)

    def utilities():
        for row in values:
            worth = _scaled(row, scale)
            utility = [0] * len(flat.order)
            for k, b, p in zip(leaves, picks, paid):
                utility[k] = worth[b] - p
            yield utility

    return scale, utilities()


def _utility_passes(flat: FlatIndex, bidder: int, leaf_utility: list, behavior: list):
    """min-pinned and max-free utilities at every position, deepest first.

    ``behavior`` is the bidder's behavior row; ``leaf_utility`` becomes
    the max-free list.
    """
    min_pinned = list(leaf_utility)
    max_free = leaf_utility
    for k, mover, a, b in flat.walk:
        max_free[k] = max(max_free[a:b])
        if mover == bidder:
            min_pinned[k] = min_pinned[a + behavior[k]]
        else:
            min_pinned[k] = min(min_pinned[a:b])
    return min_pinned, max_free


def _attainable_nodes(flat: FlatIndex, bidder: int, behavior: list) -> list:
    """Per position: does its history agree with the behavior row at
    the bidder's nodes?"""
    attainable = [False] * len(flat.order)
    attainable[0] = True
    for k, mover, a, b in reversed(flat.walk):
        if attainable[k]:
            if mover == bidder:
                attainable[a + behavior[k]] = True
            else:
                attainable[a:b] = [True] * (b - a)
    return attainable


def _witness_profile(
    protocol: Protocol, k: int, message: int, values: list, best, pinned: dict
) -> list:
    """One witness path's behavior profile: a table per bidder of her
    messages on the path.

    The path runs from the root to position k, sends ``message`` there,
    and below it takes the first child with the ``best`` (``min`` or
    ``max``) of ``values``, except at the nodes of a bidder whose
    behavior row ``pinned`` holds, where it follows that row.
    """
    flat = protocol.flat
    order, mover, first = flat.order, flat.mover, flat.first
    forced = order[k] + (message,)
    profile: list = [{} for _ in range(protocol.n)]
    c = 0
    while mover[c] >= 0:
        depth = len(order[c])
        if depth < len(forced):
            j = forced[depth]
        elif mover[c] in pinned:
            j = pinned[mover[c]][c]
        else:
            a = first[c]
            children = range(a, a + len(protocol.messages(order[c])))
            j = best(children, key=values.__getitem__) - a
        profile[mover[c]][order[c]] = j
        c = first[c] + j
    return profile


def verify_osp(
    protocol: Protocol,
    strategies: Sequence[Strategy],
    domains: Sequence[Sequence[Valuation]],
) -> OspVerdict:
    """Check obvious dominance of the strategies over the domain.

    Bidders, then domain valuations, then nodes (shallowest first, then
    lexicographic), then deviating messages are scanned in a fixed
    order, so the reported witness is deterministic.
    """
    tab = _tabulation(protocol, strategies, domains)
    flat = protocol.flat
    for i, domain in enumerate(tab.domains):
        mine = [(k, a, b) for k, mover, a, b in reversed(flat.walk) if mover == i]
        scale, leaf_utilities = _leaf_utilities(protocol, i, domain)
        for v_idx, (valuation, leaf_utility) in enumerate(zip(domain, leaf_utilities)):
            row = tab.row(protocol, i, v_idx)
            min_pinned, max_free = _utility_passes(flat, i, leaf_utility, row)
            attainable = _attainable_nodes(flat, i, row)
            for k, a, b in mine:
                if not attainable[k]:
                    continue
                truthful = row[k]
                worst = min_pinned[a + truthful]
                for dev, best in enumerate(max_free[a:b]):
                    if best > worst and dev != truthful:
                        witness = OspWitness(
                            bidder=i,
                            valuation_index=v_idx,
                            valuation=valuation,
                            node=flat.order[k],
                            truthful_message=truthful,
                            deviating_message=dev,
                            worst_truthful_utility=Fraction(worst, scale),
                            best_deviating_utility=Fraction(best, scale),
                            truthful_profile=_witness_profile(
                                protocol, k, truthful, min_pinned, min, {i: row}
                            ),
                            deviating_profile=_witness_profile(
                                protocol, k, dev, max_free, max, {}
                            ),
                        )
                        return OspVerdict("fail", witness)
    return OspVerdict("pass")


def replay_witness(protocol: Protocol, witness: OspWitness) -> tuple:
    """Recompute the two witness utilities via play (for audits/tests)."""
    out_t, _ = play(protocol, witness.truthful_profile)
    out_d, _ = play(protocol, witness.deviating_profile)
    return (
        out_t.utility(witness.bidder, witness.valuation),
        out_d.utility(witness.bidder, witness.valuation),
    )


# ---------------------------------------------------------------------------
# individual rationality and no negative transfers


def verify_ir_nnt(
    protocol: Protocol,
    strategies: Sequence[Strategy],
    domains: Sequence[Sequence[Valuation]],
) -> CheckVerdict:
    """Ex-post IR over the realized domain product; NNT over all leaves."""
    flat = protocol.flat
    for u, mover in zip(flat.order, flat.mover):
        if mover >= 0:
            continue
        outcome = protocol.outcome(u)
        for i, payment in enumerate(outcome.payments):
            if payment < 0:
                return CheckVerdict(
                    "ir_nnt",
                    "fail",
                    {
                        "failure": "negative_transfer",
                        "leaf": ".".join(map(str, u)),
                        "bidder": i,
                        "payment": format_fraction(payment),
                    },
                )
    view = _rule_view(realize_rule(protocol, strategies, domains))
    for x in range(view.count):
        for i, (stride, size, bundles, values, payments) in enumerate(view.bidders):
            utility = values[x // stride % size][bundles[x]] - payments[x]
            if utility < 0:
                return CheckVerdict(
                    "ir_nnt",
                    "fail",
                    {
                        "failure": "individual_rationality",
                        "profile": view.profile(x),
                        "bidder": i,
                        "utility": format_fraction(Fraction(utility, view.scale)),
                    },
                )
    return CheckVerdict("ir_nnt", "pass")


# ---------------------------------------------------------------------------
# realized-rule properties


@dataclass(frozen=True)
class _RuleView:
    """A realized rule on scaled integers.

    Profile ``x`` is the x-th of the ``count`` profiles of
    ``sorted(rule.table)``, which is ``product`` order.  ``bidders[i]``
    is ``(stride, size, bundles, values, payments)``: bidder i's index in
    profile x is ``x // stride % size``, so moving it from ``a`` to
    ``alt`` moves x by ``(alt - a) * stride``; ``bundles[x]`` interns the
    bidder's bundle at x, ``values[a][b]`` is ``domains[i][a]`` on
    interned bundle b and ``payments[x]`` is the bidder's payment at x,
    all times ``scale``.
    """

    count: int
    bidders: tuple
    scale: int

    def profile(self, x: int) -> list:
        return [x // stride % size for stride, size, *_ in self.bidders]


def _rule_view(rule: RealizedRule) -> _RuleView:
    """The integer view of ``rule``, built on first use and kept on it."""
    if rule._view is not None:
        return rule._view
    sizes = [len(d) for d in rule.domains]
    outcomes = [rule.table[profile] for profile in product(*map(range, sizes))]
    columns = [_bidder_columns(outcomes, i, domain) for i, domain in enumerate(rule.domains)]
    scale = _common_scale(
        chain.from_iterable(chain(payments, *values) for _, values, payments in columns)
    )
    bidders = []
    stride = len(outcomes)
    for size, (bundles, values, payments) in zip(sizes, columns):
        stride //= size
        scaled_values = [_scaled(row, scale) for row in values]
        bidders.append((stride, size, bundles, scaled_values, _scaled(payments, scale)))
    rule._view = _RuleView(len(outcomes), tuple(bidders), scale)
    return rule._view


def verify_weak_monotonicity(rule: RealizedRule) -> CheckVerdict:
    """f_i must not reward lowering one's own relative valuation.

    For each bidder and each unilateral swap v_i -> v_i' with bundles
    S, S': require v_i(S) - v_i(S') >= v_i'(S) - v_i'(S').  The test is
    symmetric in the two indices, and the swap back from the
    alternative's profile comes earlier in sorted order, so only
    alternatives above ``profile[i]`` are scanned: the first failure of
    the full scan always has one.
    """
    view = _rule_view(rule)
    for x in range(view.count):
        for i, (stride, size, bundles, values, _) in enumerate(view.bidders):
            a = x // stride % size
            own = values[a]
            s = bundles[x]
            for alt in range(a + 1, size):
                s_alt = bundles[x + (alt - a) * stride]
                other = values[alt]
                if own[s] - own[s_alt] < other[s] - other[s_alt]:
                    return CheckVerdict(
                        "weak_monotonicity",
                        "fail",
                        {"bidder": i, "profile": view.profile(x), "alternative": alt},
                    )
    return CheckVerdict("weak_monotonicity", "pass")


def verify_dsic(rule: RealizedRule) -> CheckVerdict:
    """Truth-telling beats any in-domain misreport, profile by profile."""
    view = _rule_view(rule)
    for x in range(view.count):
        for i, (stride, size, bundles, values, payments) in enumerate(view.bidders):
            a = x // stride % size
            row = values[a]
            honest = row[bundles[x]] - payments[x]
            for alt in range(size):
                if alt == a:
                    continue
                y = x + (alt - a) * stride
                lied = row[bundles[y]] - payments[y]
                if lied > honest:
                    return CheckVerdict(
                        "dsic",
                        "fail",
                        {
                            "bidder": i,
                            "profile": view.profile(x),
                            "misreport": alt,
                            "honest_utility": format_fraction(Fraction(honest, view.scale)),
                            "misreport_utility": format_fraction(Fraction(lied, view.scale)),
                        },
                    )
    return CheckVerdict("dsic", "pass")


# ---------------------------------------------------------------------------
# divergence lemma


def check_divergence_lemma(
    protocol: Protocol,
    strategies: Sequence[Strategy],
    bidder: int,
    node: NodeId,
    profile_a: Sequence[Valuation],
    profile_b: Sequence[Valuation],
) -> CheckVerdict:
    """Shared-vertex consistency forced by obvious dominance.

    If both strategy-induced plays pass through ``node`` (where
    ``bidder`` acts) and the first profile's bidder strictly prefers
    the second profile's realized outcome (both judged by the first
    profile's valuation), an obviously dominant strategy must send the
    same message at ``node`` under both of the bidder's valuations.
    Returns "consistent"/"violation" when that test applies,
    "not_applicable" when the utilities are not strictly ranked.
    """
    if node not in protocol.nodes:
        raise ValueError(f"{node} is not an internal node")
    if protocol.bidder(node) != bidder:
        raise ValueError(f"bidder {bidder} does not act at {node}")
    plays = []
    for profile in (profile_a, profile_b):
        behaviors = [
            behavior_from_strategy(protocol, j, strategies[j], profile[j])
            for j in range(protocol.n)
        ]
        outcome, path = play(protocol, behaviors)
        plays.append((behaviors, outcome, path))
    for _, _, path in plays:
        if node not in path:
            raise ValueError(f"vertex {node} is not on both realized paths")
    v = profile_a[bidder]
    utility_a = plays[0][1].utility(bidder, v)
    utility_b = plays[1][1].utility(bidder, v)
    details = {
        "node": ".".join(map(str, node)),
        "bidder": bidder,
        "utility_a": format_fraction(utility_a),
        "utility_b": format_fraction(utility_b),
    }
    if not utility_a < utility_b:
        return CheckVerdict("divergence_lemma", "not_applicable", details)
    msg_a = plays[0][0][bidder][node]
    msg_b = plays[1][0][bidder][node]
    details.update({"message_a": msg_a, "message_b": msg_b})
    status = "consistent" if msg_a == msg_b else "violation"
    return CheckVerdict("divergence_lemma", status, details)
