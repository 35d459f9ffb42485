"""Exhaustive verification of obvious dominance and related properties.

``verify_osp`` checks the defining quantifier alternation directly: at
every node of bidder *i* that is attainable when *i* plays the
strategy-induced behavior, the worst case of continuing truthfully must
weakly beat the best case of any deviating message, where "worst" and
"best" range over everything the other bidders (and, after a
deviation, bidder *i* too) might do.

Naively that quantifies over behavior profiles, which is doubly
exponential.  Instead the check works on the protocol's flat node index
(``Protocol.flat``: every node at an int position, a node's children at
adjacent positions) and on outcome classes: bidder *i*'s side of a leaf
is a (bundle, payment) pair, and leaves with equal sides form one
class.  Each distinct leaf outcome object is scored once per bidder, so
a tree whose equal outcomes share one object (the serve games intern
theirs) costs the distinct outcomes, not the leaves.  Once per bidder,
one deepest-first walk gives every position k

* ``mask[k]``: the bitmask of the classes of the leaves below k,

and a shallowest-first walk over the subtrees that hold her nodes gives
each of her nodes her nearest node above it and the message toward it.
Once per valuation, a pass over only those subtrees gives

* ``pinned[k]``: the classes reachable from k when *i*'s edges follow
  the candidate behavior and everyone else is free,

and her nodes are attainable when the node above agrees with the
behavior row.  The worst truthful utility at a child is the least class
utility in its pinned mask, the best deviating one the greatest in its
subtree mask, each found once per distinct mask.  Witnesses carry two
behavior profiles that replay to exactly the reported utilities; each
follows positions down the same index from the failing node, taking
the first child with the least pinned utility (the bidder keeping to
her behavior row) or the greatest free one, both read through the
masks.
``verify_osp``, ``verify_ir_nnt`` and a caller's own ``realize_rule``
read one record kept on the protocol per (strategies, domains): its
behavior rows, one per (bidder, valuation), built for each bidder's
whole domain in one walk over her nodes (``protocols._tabulate``), and
its realized rule, whose profiles are played once between them.

All comparisons run on exact integers.  Utilities are rationals, so
every value and payment a check reads is multiplied by one common
scale, the least common multiple of their denominators
(``valuations._scale_to_ints``): one bidder's side of the distinct
leaf outcomes, under her whole domain, in ``verify_osp``, and one
bidder's side of the rule in the rule checks.  Scaling by a positive
integer keeps every difference, comparison and tie, so verdicts and
witnesses are those of ``Fraction`` arithmetic; a reported utility
``x`` is ``Fraction(x, scale)``.

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
from itertools import chain, compress, islice, product
from typing import Optional, Sequence

from .protocols import (
    FlatIndex,
    NodeId,
    Protocol,
    RealizedRule,
    Strategy,
    _id_to_key,
    _tabulate,
    _tabulation,
    _walk,
    play,
    realize_rule,
)
from .valuations import (
    Valuation,
    _check_compatible,
    _scale_to_ints,
    format_fraction,
    valuation_to_json,
)

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


def _outcome_classes(
    flat: FlatIndex, leaves: list, bits: list, count: int, bidder: int
) -> tuple:
    """The bidder's outcome classes below every position, and her nodes.

    ``leaves`` is ``(position, distinct outcome)`` per leaf and
    ``bits[d]`` the bit of outcome d's class, one of ``count``.  Returns
    ``(mask, spans, nodes)``: ``mask[k]`` ORs the class bits of the
    leaves below k, from one deepest-first walk, plus bit ``count`` when
    one of her nodes lies at or below k; ``spans`` is the walk entries
    whose subtree holds one of her nodes, deepest first; ``nodes`` is
    ``(k, first, end, p, j)`` for each of her nodes in ``_own_nodes``
    order, where p is her nearest node above k (-1 at none) and j the
    message toward k there.  Only her nodes and the subtrees above them
    change with her behavior, so the per-valuation passes read ``spans``
    and ``nodes`` alone.
    """
    mask = [0] * len(flat.order)
    for k, d in leaves:
        mask[k] = bits[d]
    hers = 1 << count
    spans = []
    for entry in flat.walk:
        k, mover, a, b = entry
        m = hers if mover == bidder else 0
        for x in mask[a:b]:
            m |= x
        mask[k] = m
        if m & hers:
            spans.append(entry)
    above: dict = {0: (-1, 0)}
    nodes = []
    for k, mover, a, b in reversed(spans):
        if mover == bidder:
            nodes.append((k, a, b) + above[k])
            for j in range(b - a):
                above[a + j] = (k, j)
        else:
            for c in range(a, b):
                above[c] = above[k]
    return mask, spans, nodes


_BITS = bytes.maketrans(b"01", b"\0\1")


def _extreme(best, utility: list, mask: int):
    """``best`` (``min`` or ``max``) of the class utilities in ``mask``.

    The mask's binary digits, lowest first, select the utilities in one
    pass in C, so a mask of many classes costs no shift per class; bits
    past the classes are ignored.
    """
    return best(compress(utility, bin(mask)[:1:-1].encode().translate(_BITS)))


def _witness_profile(
    protocol: Protocol, k: int, message: int, masks: list, utility: list, best, pinned: dict
) -> list:
    """One witness path's behavior profile: a table per bidder of her
    messages on the path.

    The path runs from the root to position k, sends ``message`` there,
    and below it takes the first child with the ``best`` (``min`` or
    ``max``) utility over its classes in ``masks``, except at the nodes
    of a bidder whose behavior row ``pinned`` holds, where it follows
    that row.
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
            j = best(children, key=lambda x: _extreme(best, utility, masks[x])) - a
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
    at = [k for k, mover in enumerate(flat.mover) if mover < 0]
    objects = [protocol.outcome(flat.order[k]) for k in at]
    outcomes = list({id(o): o for o in objects}.values())  # each leaf object once
    index = {id(o): d for d, o in enumerate(outcomes)}
    leaves = [(k, index[id(o)]) for k, o in zip(at, objects)]
    for i, domain in enumerate(tab.domains):
        rows = tab.bidder_rows(protocol, i)
        scale, picks, values, paid = _bidder_side(outcomes, i, domain)
        classes: dict = {}
        bits = [1 << classes.setdefault(pair, len(classes)) for pair in zip(picks, paid)]
        mask, spans, nodes = _outcome_classes(flat, leaves, bits, len(classes), i)
        for v_idx, (valuation, worth, row) in enumerate(zip(domain, values, rows)):
            utility = [worth[b] - p for b, p in classes]
            pinned = list(mask)
            for k, mover, a, b in spans:
                if mover == i:
                    pinned[k] = pinned[a + row[k]]
                else:
                    m = 0
                    for x in pinned[a:b]:
                        m |= x
                    pinned[k] = m
            worst_of: dict = {}
            best_of: dict = {}
            reached = set()
            for k, a, b, p, j in nodes:
                if p >= 0 and (row[p] != j or p not in reached):
                    continue
                reached.add(k)
                truthful = row[k]
                t = pinned[a + truthful]
                worst = worst_of.get(t)
                if worst is None:
                    worst = worst_of[t] = _extreme(min, utility, t)
                for dev, free in enumerate(mask[a:b]):
                    if dev == truthful:
                        continue
                    best = best_of.get(free)
                    if best is None:
                        best = best_of[free] = _extreme(max, utility, free)
                    if best > worst:
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
                                protocol, k, truthful, pinned, utility, min, {i: row}
                            ),
                            deviating_profile=_witness_profile(
                                protocol, k, dev, mask, utility, max, {}
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
    """Ex-post IR over the realized domain product; NNT over all leaves.

    NNT reads each distinct leaf outcome object once, in the order of
    its first leaf in ``flat.order``, and reports that first leaf: the
    leaf and bidder a leaf-by-leaf scan would report.
    """
    _tabulation(protocol, strategies, domains)  # checks the domains first
    flat, leaves = protocol.flat, protocol.leaves
    distinct: dict = {}  # id of each leaf outcome -> (its first leaf, it)
    for u, mover in zip(flat.order, flat.mover):
        if mover < 0:
            outcome = leaves[u]
            if id(outcome) not in distinct:
                distinct[id(outcome)] = (u, outcome)
    for u, outcome in distinct.values():
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
    for j, v in chain(enumerate(profile_a), enumerate(profile_b)):
        _check_compatible(protocol.setting, j, v)
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
