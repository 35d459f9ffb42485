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
behavior rows, one per (bidder, valuation), built for each bidder's
whole domain in one walk over her nodes (``protocols._tabulate``), and
its realized rule, whose profiles are played once between them.

All comparisons run on exact integers.  Utilities are rationals, so
every value and payment a check reads is multiplied by one common
scale, the least common multiple of their denominators
(``valuations._scale_to_ints``): the leaf utilities of one bidder's
domain in ``verify_osp``, and one bidder's side of the rule in the rule
checks.  Scaling by a positive integer keeps every difference,
comparison and tie, so verdicts and witnesses are those of ``Fraction``
arithmetic; a reported utility ``x`` is ``Fraction(x, scale)``.

The rule checks read a private column view of the realized rule, built
once per rule.  Profiles lie flat in ``sorted(rule.table)`` order, so
bidder i's own index moves in steps of ``stride[i]``.  With the other
bidders' reports fixed, her outcomes as her own report runs over her
domain form a deviation column: her interned bundle ids and scaled
payments.  Columns repeat across the others' reports, so the view keeps
each distinct column once, with ``base``, the first profile (own index
0) where it occurs.  IR, weak monotonicity and DSIC test each distinct
column once, through one first-failure scanner: a column failing first
at own index ``a`` fails first at profile ``base + a * stride[i]``, and
the least ``(profile, bidder)`` over all failing columns is the failure
the profile-by-profile scan would report.

Also here: ex-post individual rationality + no-negative-transfers,
weak monotonicity and dominant-strategy checks on realized rules, and
the divergence lemma (profiles sharing a vertex, with strictly ranked
utilities for one bidder, must agree on that bidder's message there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, product
from typing import Optional, Sequence

from .protocols import (
    FlatIndex,
    NodeId,
    Protocol,
    RealizedRule,
    Strategy,
    _id_to_key,
    _own_nodes,
    _tabulate,
    _tabulation,
    _walk,
    play,
    realize_rule,
)
from .valuations import Valuation, _scale_to_ints, format_fraction, valuation_to_json

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
                {_id_to_key(u): msg for u, msg in sorted(table.items())}
                for table in profile
            ]

        return {
            "bidder": self.bidder,
            "valuation_index": self.valuation_index,
            "valuation": valuation_to_json(self.valuation),
            "node": _id_to_key(self.node),
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


def _bidder_side(outcomes: list, bidder: int, domain) -> tuple:
    """The bidder's side of a list of outcomes, on one integer scale.

    Returns ``(scale, picks, values, payments)``: the interned id of the
    bidder's bundle in each outcome, the value of each valuation of
    ``domain`` on each distinct bundle (one row per valuation, one entry
    per id), and the bidder's payment in each outcome, every value and
    payment multiplied by ``scale``.
    """
    bundle_ids: dict = {}
    picks = [
        bundle_ids.setdefault(o.allocation.bundles[bidder], len(bundle_ids)) for o in outcomes
    ]
    values = [[valuation.value(bundle) for bundle in bundle_ids] for valuation in domain]
    payments = [o.payments[bidder] for o in outcomes]
    scale, scaled = _scale_to_ints(chain(payments, *values))
    amounts = iter(scaled)
    paid = list(islice(amounts, len(payments)))
    return scale, picks, [list(islice(amounts, len(bundle_ids))) for _ in values], paid


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
    scale, picks, values, paid = _bidder_side(outcomes, bidder, domain)

    def utilities():
        for worth in values:
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
        mine = _own_nodes(flat, i)
        rows = tab.bidder_rows(protocol, i)
        scale, leaf_utilities = _leaf_utilities(protocol, i, domain)
        for v_idx, (valuation, leaf_utility, row) in enumerate(zip(domain, leaf_utilities, rows)):
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
                        "leaf": _id_to_key(u),
                        "bidder": i,
                        "payment": format_fraction(payment),
                    },
                )
    view = _rule_view(realize_rule(protocol, strategies, domains))
    first = _first_failure(view, _ir_failure)
    if first is not None:
        x, i, utility = first
        return CheckVerdict(
            "ir_nnt",
            "fail",
            {
                "failure": "individual_rationality",
                "profile": view.profile(x),
                "bidder": i,
                "utility": format_fraction(Fraction(utility, view.scale(i))),
            },
        )
    return CheckVerdict("ir_nnt", "pass")


# ---------------------------------------------------------------------------
# realized-rule properties


@dataclass(frozen=True)
class _RuleView:
    """A realized rule as deviation columns on scaled integers.

    Profile ``x`` is the x-th profile of ``sorted(rule.table)``, which
    is ``product`` order.  ``bidders[i]`` is ``(stride, size, values,
    columns, scale)``: bidder i's own index in profile x is ``x //
    stride % size``.  Fixing the other bidders' reports and running her
    own index ``a`` over her domain gives a column: her bundle (interned
    id) and her payment at each ``a``.  ``columns`` maps each distinct
    column ``(bundles, payments)`` to ``base``, the first profile with
    own index 0 where it occurs; the same column at own index ``a`` is
    profile ``base + a * stride``.  ``values[a][b]`` is her ``a``-th
    valuation on interned bundle b.  Her values and payments are times
    her ``scale``.
    """

    bidders: tuple

    def profile(self, x: int) -> list:
        return [x // stride % size for stride, size, *_ in self.bidders]

    def scale(self, bidder: int) -> int:
        return self.bidders[bidder][4]


def _rule_view(rule: RealizedRule) -> _RuleView:
    """The column view of ``rule``, built on first use and kept on it.

    A rule from ``realize_rule`` holds its protocol's leaf objects, so
    outcomes are interned by identity first: each bidder's bundle and
    payment are read once per distinct leaf, and a column is found as a
    strided slice of leaf indices.
    """
    if rule._view is not None:
        return rule._view
    sizes = [len(d) for d in rule.domains]
    outcomes = [rule.table[profile] for profile in product(*map(range, sizes))]
    leaves = list({id(o): o for o in outcomes}.values())
    index: dict = {}
    at = [index.setdefault(id(o), len(index)) for o in outcomes]
    bidders = []
    stride = len(outcomes)
    for i, (size, domain) in enumerate(zip(sizes, rule.domains)):
        stride //= size
        span = stride * size
        scale, picks, values, paid = _bidder_side(leaves, i, domain)
        by_leaves: dict = {}
        for high in range(0, len(outcomes), span):
            for base in range(high, high + stride):
                by_leaves.setdefault(tuple(at[base : base + span : stride]), base)
        columns: dict = {}
        for column, base in by_leaves.items():
            key = (tuple(picks[k] for k in column), tuple(paid[k] for k in column))
            columns.setdefault(key, base)
        bidders.append((stride, size, values, columns, scale))
    rule._view = _RuleView(tuple(bidders))
    return rule._view


def _first_failure(view: _RuleView, test) -> Optional[tuple]:
    """The first failure of a rule check, in the order of the full scan.

    The full scan runs over profiles, then bidders, and fails at the
    first (profile, bidder) whose deviation column fails ``test``.
    ``test(values, bundles, payments)`` runs at most once per distinct
    column and returns None or ``(a, found)`` for the first failing own
    index ``a``.  A column fails first at ``base + a * stride``, so the
    scan's first failure is the least ``(profile, bidder)`` over the
    failing columns.  Returns ``(profile index, bidder, found)`` or
    None.
    """
    first = None
    for i, (stride, _, values, columns, _) in enumerate(view.bidders):
        for (bundles, payments), base in columns.items():
            if first is not None and (base, i) > first[:2]:
                break  # bases only grow, and no profile of a column precedes its base
            hit = test(values, bundles, payments)
            if hit is not None:
                a, found = hit
                x = base + a * stride
                if first is None or (x, i) < first[:2]:
                    first = (x, i, found)
    return first


def _ir_failure(values: list, bundles: tuple, payments: tuple) -> Optional[tuple]:
    """The first own index with negative utility, and that utility."""
    for a, (row, s, p) in enumerate(zip(values, bundles, payments)):
        if row[s] < p:
            return a, row[s] - p
    return None


def _wm_failure(values: list, bundles: tuple, payments: tuple) -> Optional[tuple]:
    """The first own index whose swap to a later index breaks weak
    monotonicity, and that index.

    The test is symmetric in the two indices, so the least failing own
    index fails only against later ones.
    """
    for a, own in enumerate(values):
        s = bundles[a]
        for alt in range(a + 1, len(values)):
            s_alt, other = bundles[alt], values[alt]
            if own[s] - own[s_alt] < other[s] - other[s_alt]:
                return a, alt
    return None


def _dsic_failure(values: list, bundles: tuple, payments: tuple) -> Optional[tuple]:
    """The first own index with a better misreport, and ``(misreport,
    honest utility, misreport utility)`` for the first such misreport."""
    for a, row in enumerate(values):
        utilities = [row[s] - p for s, p in zip(bundles, payments)]
        honest = utilities[a]
        for alt, lied in enumerate(utilities):
            if lied > honest:
                return a, (alt, honest, lied)
    return None


def verify_weak_monotonicity(rule: RealizedRule) -> CheckVerdict:
    """f_i must not reward lowering one's own relative valuation.

    For each bidder and each unilateral swap v_i -> v_i' with bundles
    S, S': require v_i(S) - v_i(S') >= v_i'(S) - v_i'(S').
    """
    view = _rule_view(rule)
    first = _first_failure(view, _wm_failure)
    if first is None:
        return CheckVerdict("weak_monotonicity", "pass")
    x, i, alt = first
    return CheckVerdict(
        "weak_monotonicity",
        "fail",
        {"bidder": i, "profile": view.profile(x), "alternative": alt},
    )


def verify_dsic(rule: RealizedRule) -> CheckVerdict:
    """Truth-telling beats any in-domain misreport, profile by profile."""
    view = _rule_view(rule)
    first = _first_failure(view, _dsic_failure)
    if first is None:
        return CheckVerdict("dsic", "pass")
    x, i, (alt, honest, lied) = first
    scale = view.scale(i)
    return CheckVerdict(
        "dsic",
        "fail",
        {
            "bidder": i,
            "profile": view.profile(x),
            "misreport": alt,
            "honest_utility": format_fraction(Fraction(honest, scale)),
            "misreport_utility": format_fraction(Fraction(lied, scale)),
        },
    )


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

    Each profile is played as ``realize_rule`` plays one: one-valuation
    rows from ``_tabulate``, walked to a leaf.  A leaf id is its path,
    so the play passes ``node`` when the id extends it, and the message
    sent there is the id's next entry.
    """
    if len(strategies) != protocol.n or any(
        len(profile) != protocol.n for profile in (profile_a, profile_b)
    ):
        raise ValueError("need one strategy and one valuation per bidder")
    if node not in protocol.nodes:
        raise ValueError(f"{node} is not an internal node")
    if protocol.bidder(node) != bidder:
        raise ValueError(f"bidder {bidder} does not act at {node}")
    flat = protocol.flat
    leaves = []
    for profile in (profile_a, profile_b):
        rows = [
            _tabulate(protocol, j, strategies[j], (profile[j],))[0]
            for j in range(protocol.n)
        ]
        leaves.append(flat.order[_walk(flat, rows)])
    depth = len(node)
    if any(leaf[:depth] != node for leaf in leaves):
        raise ValueError(f"vertex {node} is not on both realized paths")
    v = profile_a[bidder]
    utility_a = protocol.outcome(leaves[0]).utility(bidder, v)
    utility_b = protocol.outcome(leaves[1]).utility(bidder, v)
    details = {
        "node": _id_to_key(node),
        "bidder": bidder,
        "utility_a": format_fraction(utility_a),
        "utility_b": format_fraction(utility_b),
    }
    if not utility_a < utility_b:
        return CheckVerdict("divergence_lemma", "not_applicable", details)
    msg_a, msg_b = (leaf[depth] for leaf in leaves)
    details.update({"message_a": msg_a, "message_b": msg_b})
    status = "consistent" if msg_a == msg_b else "violation"
    return CheckVerdict("divergence_lemma", status, details)
