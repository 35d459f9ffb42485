"""Deterministic extensive-form protocols and the ascending-clock builder.

A :class:`Protocol` is a finite tree.  Node identity is the message
history from the root (a tuple of message indices), so path
intersections and divergence vertices reduce to prefix comparisons.
Each internal node names one acting bidder and at least two labelled
messages; each leaf carries an :class:`Outcome`.

Protocols are built by *games*: small state machines exposing the
acting bidder, message list, transition, and the truthful messages of
a batch of valuations per state.  ``materialize`` walks a game
breadth-first into an explicit tree; ``run_game`` plays a single path
directly, which matters because full trees grow exponentially
while one play-out is linear.  Both use the same transition code, so
the tree and the simulation cannot drift apart.

A game may expose a state with a single message.  Such a state is no
decision (Li, AER 2017), so ``materialize`` and ``run_game`` follow its
only child without recording a node or a history entry; a non-leaf
state with no message is an error.  ``materialize`` records each node's
state in ``Protocol.info``, and ``truthful_strategies`` reads it from
there.

The central game here is the generalized ascending auction: a
:class:`GaaSpec` arm (each bidder's base and potential bundle), run by
a :class:`GaaGame` as a price clock rising along a finite grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import prod
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .valuations import (
    CombinatorialSetting,
    MultiUnitSetting,
    Setting,
    Valuation,
    _check_compatible,
    _json_int,
    _json_key,
    _json_list,
    _json_object,
    _json_str,
    as_fraction,
    format_fraction,
    setting_from_json,
    setting_to_json,
)
from .welfare import Allocation, _cap, _refusal, check_allocation_for

ZERO = Fraction(0)

NodeId = tuple  # of message indices
Behavior = Mapping  # NodeId -> message index, for one bidder
Strategy = Callable  # (NodeId, valuations) -> one message index per valuation


@dataclass(frozen=True)
class Outcome:
    """Leaf result: who gets what, who pays what."""

    allocation: Allocation
    payments: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "payments", tuple(as_fraction(p) for p in self.payments)
        )

    def utility(self, bidder: int, valuation: Valuation) -> Fraction:
        return valuation.value(self.allocation.bundles[bidder]) - self.payments[bidder]


def validate_outcome(setting: Setting, n: int, outcome: Outcome) -> None:
    if len(outcome.payments) != n:
        raise ValueError(f"outcome has {len(outcome.payments)} payments for {n} bidders")
    check_allocation_for(setting, n, outcome.allocation)


@dataclass(frozen=True)
class ProtocolNode:
    bidder: int
    messages: tuple[str, ...]


@dataclass(frozen=True)
class FlatIndex:
    """A protocol's nodes at int positions, for the exhaustive tree passes.

    ``Protocol`` lays it out in the breadth-first walk that checks the
    tree.  ``order`` lists every id, internal and leaf, in (depth,
    lexicographic) order; an id's index there is its position k.  In
    this order a node's children sit next to each other: internal node
    k's children are the positions ``first[k]`` to ``first[k] + deg -
    1``, message j at ``first[k] + j``.  ``mover[k]`` is the bidder
    acting at k; a leaf has ``mover`` and ``first`` -1.  ``walk`` is
    ``(k, mover, first, end)`` for every internal node, deepest first
    (within a depth, reverse lexicographic), so children come before
    their parent and ``end = first + deg``; reversed, it runs
    shallowest first.
    """

    order: tuple
    mover: tuple
    first: tuple
    walk: tuple


def _tree_cap() -> int:
    return _cap("OSPCLOCK_TREE_CAP", 2_000_000)


class Protocol:
    """Explicit finite tree with history-tuple node ids.

    ``nodes`` maps internal node ids to (bidder, message labels);
    ``leaves`` maps leaf ids to outcomes.  ``info`` optionally maps node
    ids to builder state (clock price, active set, ...); ``materialize``
    fills it, and ``truthful_strategies`` reads it.

    One breadth-first walk from the root checks the tree and lays it
    out as the flat node index ``flat``; a leaf outcome object shared by
    several leaves is validated once.  The tree is read-only once
    built, so the protocol also keeps one tabulation per (strategies,
    domains) that ``verify_osp``, ``verify_ir_nnt`` and
    ``realize_rule`` all read: each bidder's behavior row per domain
    valuation, built once, and the realized rule, played once.
    """

    def __init__(
        self,
        n: int,
        setting: Setting,
        nodes: Mapping[NodeId, ProtocolNode],
        leaves: Mapping[NodeId, Outcome],
        info: Optional[Mapping[NodeId, object]] = None,
    ) -> None:
        self.n = n
        self.setting = setting
        self.nodes = dict(nodes)
        self.leaves = dict(leaves)
        self.info = dict(info or {})
        # (ids of the strategies, ids of every domain valuation) ->
        # _Tabulation, which holds those objects so no id is reused
        self._tabulations: dict = {}
        if n < 1:
            raise ValueError("protocols need at least one bidder")
        nodes, leaves = self.nodes, self.leaves
        if () not in nodes and () not in leaves:
            raise ValueError("missing root")
        size = len(nodes) + len(leaves)
        cap = _tree_cap()
        if size > cap:
            raise _refusal("OSPCLOCK_TREE_CAP", cap, f"protocol has {size} nodes")
        order: list = [()]
        mover = []
        first = []
        walk = []
        valid: set = set()  # ids of the leaf outcomes checked so far
        for k, u in enumerate(order):  # reaches the children appended below
            node = nodes.get(u)
            if node is None:
                if u not in leaves:
                    raise ValueError(f"node {u[:-1]}: missing child for message {u[-1]}")
                outcome = leaves[u]
                if id(outcome) not in valid:
                    validate_outcome(setting, n, outcome)
                    valid.add(id(outcome))
                mover.append(-1)
                first.append(-1)
                continue
            if u in leaves:
                raise ValueError(f"ids both internal and leaf: {[u]}")
            if not 0 <= node.bidder < n:
                raise ValueError(f"node {u}: bidder {node.bidder} out of range")
            if len(node.messages) < 2:
                raise ValueError(f"node {u}: single-message nodes must be contracted")
            a = len(order)
            order.extend(u + (j,) for j in range(len(node.messages)))
            mover.append(node.bidder)
            first.append(a)
            walk.append((k, node.bidder, a, len(order)))
        if len(order) < size:
            # every walked id is in exactly one table, so some id was not
            # reached; the shortest one's parent was walked, or is no id
            reached = set(order)
            u = min((u for u in chain(nodes, leaves) if u not in reached), key=len)
            if u[:-1] in nodes:
                raise ValueError(f"id {u} exceeds parent's message count")
            raise ValueError(f"unreachable id {u}")
        walk.reverse()
        self.flat = FlatIndex(tuple(order), tuple(mover), tuple(first), tuple(walk))

    # -- navigation ---------------------------------------------------------

    def is_leaf(self, u: NodeId) -> bool:
        return u in self.leaves

    def outcome(self, u: NodeId) -> Outcome:
        return self.leaves[u]

    def bidder(self, u: NodeId) -> int:
        return self.nodes[u].bidder

    def messages(self, u: NodeId) -> tuple[str, ...]:
        return self.nodes[u].messages

    def child(self, u: NodeId, message: int) -> NodeId:
        if not 0 <= message < len(self.nodes[u].messages):
            raise ValueError(f"message {message} out of range at {u}")
        return u + (message,)

    def size(self) -> int:
        return len(self.nodes) + len(self.leaves)

    def bidder_nodes(self, bidder: int) -> list[NodeId]:
        """The bidder's nodes, shallowest first, then lexicographic."""
        return [self.flat.order[k] for k, _, _ in _own_nodes(self.flat, bidder)]


def play(protocol: Protocol, behaviors: Sequence[Behavior]) -> tuple[Outcome, list]:
    """Follow a behavior profile from the root; return outcome and path."""
    if len(behaviors) != protocol.n:
        raise ValueError(f"need one behavior per bidder: got {len(behaviors)} for {protocol.n}")
    u: NodeId = ()
    path = [u]
    while not protocol.is_leaf(u):
        node = protocol.nodes[u]
        try:
            message = behaviors[node.bidder][u]
        except KeyError:
            raise ValueError(
                f"behavior of bidder {node.bidder} undefined at node {u}"
            ) from None
        u = protocol.child(u, message)
        path.append(u)
    return protocol.outcome(u), path


def _own_nodes(flat: FlatIndex, bidder: int) -> list:
    """``(k, first, end)`` for each of the bidder's internal positions,
    shallowest first, then lexicographic: the order of ``flat.order``."""
    return [(k, a, b) for k, mover, a, b in reversed(flat.walk) if mover == bidder]


def _tabulate(
    protocol: Protocol, bidder: int, strategy: Strategy, valuations: Sequence[Valuation]
) -> list:
    """The bidder's behavior row for each valuation, in one walk.

    A row is position-indexed over ``protocol.flat``: the strategy's
    message at each of the bidder's nodes, 0 elsewhere.  The caller has
    checked the valuations against the setting.  The walk visits the
    bidder's nodes shallowest first and calls the strategy once per node
    with every valuation.  The first answer of the wrong length, or
    message out of range, by node and then by valuation, is a
    ``ValueError`` naming the node.
    """
    flat = protocol.flat
    rows = [[0] * len(flat.order) for _ in valuations]
    for k, a, b in _own_nodes(flat, bidder):
        u = flat.order[k]
        degree = b - a
        messages = strategy(u, valuations)
        if len(messages) != len(rows):
            raise ValueError(f"strategy returned {len(messages)} messages at {u}")
        for row, msg in zip(rows, messages):
            if not 0 <= msg < degree:
                raise ValueError(f"strategy returned message {msg} out of range at {u}")
            row[k] = msg
    return rows


def behavior_from_strategy(
    protocol: Protocol, bidder: int, strategy: Strategy, valuation: Valuation
) -> dict:
    """Tabulate a strategy into a total behavior for one bidder.

    The one-valuation view of ``_tabulate``: the bidder's row for
    ``valuation`` as a table from node id to message, once the
    valuation is checked against the setting.  Each call builds a fresh
    table; the checks read the protocol's one tabulation instead.
    """
    _check_compatible(protocol.setting, bidder, valuation)
    (row,) = _tabulate(protocol, bidder, strategy, (valuation,))
    order = protocol.flat.order
    return {order[k]: row[k] for k, _, _ in _own_nodes(protocol.flat, bidder)}


def _walk(flat: FlatIndex, rows: Sequence[list]) -> int:
    """The leaf position reached from the root when bidder i plays
    ``rows[i]``.  Unlike ``play`` it checks nothing: the rows come from
    complete behavior tables whose messages are already in range."""
    first, mover = flat.first, flat.mover
    k = 0
    while mover[k] >= 0:
        k = first[k] + rows[mover[k]][k]
    return k


@dataclass
class RealizedRule:
    """Outcome table over a finite domain product.

    ``table`` is keyed by per-bidder indices into ``domains``.  A rule is
    read-only once built: ``realize_rule`` hands the same rule to every
    caller with the same strategies and domains, and the ``osp`` rule
    checks keep their exact integer view of it in ``_view``.
    """

    domains: tuple[tuple[Valuation, ...], ...]
    table: dict
    _view: object = field(default=None, init=False, repr=False, compare=False)


class _Tabulation:
    """One (strategies, domains) as the checks read it on one tree.

    ``rows[i]`` is bidder i's behavior rows, one per valuation of
    ``domains[i]`` in domain order (None until ``bidder_rows`` builds
    them in one ``_tabulate`` walk), and ``rule`` the realized rule
    (None until ``realize_rule`` plays it).  It holds the objects whose
    ids key it, and not the protocol, so it closes no reference cycle.
    """

    __slots__ = ("strategies", "domains", "rows", "rule")

    def __init__(self, strategies: tuple, domains: tuple) -> None:
        self.strategies = strategies
        self.domains = domains
        self.rows = [None] * len(domains)
        self.rule = None

    def bidder_rows(self, protocol: Protocol, i: int) -> list:
        rows = self.rows[i]
        if rows is None:
            rows = self.rows[i] = _tabulate(protocol, i, self.strategies[i], self.domains[i])
        return rows


def _tabulation(protocol: Protocol, strategies: Sequence, domains: Sequence) -> _Tabulation:
    """The protocol's tabulation of these strategies and domains, by
    the identity of each strategy and domain valuation.  Each domain must
    be non-empty and suit the setting, checked when the record is made."""
    if len(strategies) != protocol.n or len(domains) != protocol.n:
        raise ValueError(
            f"need one strategy and one domain per bidder: got {len(strategies)} "
            f"and {len(domains)} for {protocol.n}"
        )
    doms = tuple(tuple(d) for d in domains)
    if not all(doms):
        raise ValueError("empty domain")
    key = (tuple(map(id, strategies)), tuple(tuple(map(id, d)) for d in doms))
    tab = protocol._tabulations.get(key)
    if tab is None:
        for i, domain in enumerate(doms):
            for v in domain:
                _check_compatible(protocol.setting, i, v)
        tab = protocol._tabulations[key] = _Tabulation(tuple(strategies), doms)
    return tab


def realize_rule(
    protocol: Protocol,
    strategies: Sequence[Strategy],
    domains: Sequence[Sequence[Valuation]],
) -> RealizedRule:
    """Play every profile in the domain product through the strategies.

    Each profile walks the protocol's flat index from the root to its
    leaf on the bidders' behavior rows.  The rule is kept in the
    protocol's tabulation of these strategies and domains (the one
    ``verify_osp`` and ``verify_ir_nnt`` read), so a second call with
    the same objects returns the same rule without playing a profile
    again.
    """
    tab = _tabulation(protocol, strategies, domains)
    if tab.rule is not None:
        return tab.rule
    doms = tab.domains
    total = prod(len(d) for d in doms)
    cap = _cap("OSPCLOCK_PROFILE_CAP", 200_000)
    if total > cap:
        raise _refusal("OSPCLOCK_PROFILE_CAP", cap, f"domain product has {total} profiles")
    rows = [tab.bidder_rows(protocol, i) for i in range(len(doms))]
    flat = protocol.flat
    outcome_at = [protocol.leaves.get(u) for u in flat.order]
    table = {}
    for profile in product(*(range(len(d)) for d in doms)):
        table[profile] = outcome_at[_walk(flat, [rows[i][k] for i, k in enumerate(profile)])]
    tab.rule = RealizedRule(doms, table)
    return tab.rule


# ---------------------------------------------------------------------------
# Games: implicit protocols as state machines


class Game:
    """Interface for deterministic protocol state machines.

    Subclasses define the tree implicitly; ``materialize`` makes it
    explicit and ``run_game`` plays it directly.  States may be any
    immutable value.  A state with exactly one message is a forced move:
    ``materialize`` and ``run_game`` contract it by following message 0,
    so node ids, play histories and ``Protocol.info`` (which
    ``truthful_strategies`` reads) only ever see states with two or more
    messages (or leaves).  A non-leaf state must have at least one
    message.  ``truthful_messages`` is a game's one truthful rule.
    """

    n: int
    setting: Setting

    def root_state(self):
        raise NotImplementedError

    def is_leaf(self, state) -> bool:
        raise NotImplementedError

    def outcome(self, state) -> Outcome:
        raise NotImplementedError

    def bidder(self, state) -> int:
        raise NotImplementedError

    def messages(self, state) -> tuple[str, ...]:
        raise NotImplementedError

    def child(self, state, message: int):
        raise NotImplementedError

    def truthful_messages(self, state, valuations: Sequence[Valuation]) -> list:
        """The acting bidder's truthful message for each valuation, in
        order.  The one truthful rule of a game: it answers the batch at
        once, sharing what the state fixes, and a single play-out asks
        for a batch of one."""
        raise NotImplementedError


def _decision(game: Game, state) -> tuple:
    """Follow forced moves from ``state``.

    Returns the first state that is a leaf or has two or more messages,
    with its message labels (``None`` at a leaf).
    """
    while not game.is_leaf(state):
        labels = game.messages(state)
        if len(labels) > 1:
            return state, labels
        if not labels:
            raise ValueError("game exposed a non-leaf state with no messages")
        state = game.child(state, 0)
    return state, None


def materialize(game: Game) -> Protocol:
    """Breadth-first expansion of a game into an explicit Protocol."""
    cap = _tree_cap()
    nodes: dict = {}
    leaves: dict = {}
    info: dict = {}
    queue = [((), game.root_state())]
    count = 0
    while queue:
        next_queue = []
        for u, state in queue:
            count += 1
            if count > cap:
                raise _refusal("OSPCLOCK_TREE_CAP", cap, f"game tree has over {cap} nodes")
            state, labels = _decision(game, state)
            info[u] = state
            if labels is None:
                leaves[u] = game.outcome(state)
                continue
            nodes[u] = ProtocolNode(game.bidder(state), tuple(labels))
            for k in range(len(labels)):
                next_queue.append((u + (k,), game.child(state, k)))
        queue = next_queue
    return Protocol(game.n, game.setting, nodes, leaves, info)


def run_game(game: Game, valuations: Sequence[Valuation]) -> tuple[Outcome, tuple]:
    """Play one path of a game without building the tree.

    Each acting bidder sends her valuation's truthful message, asked of
    ``game.truthful_messages`` as a batch of one.  Returns the outcome
    and the message history, which is exactly the leaf's node id in the
    materialized tree.
    """
    history: list[int] = []
    limit = _cap("OSPCLOCK_PLAY_CAP", 1_000_000)
    state, labels = _decision(game, game.root_state())
    while labels is not None:
        if len(history) == limit:
            raise _refusal("OSPCLOCK_PLAY_CAP", limit, f"play needs over {limit} steps")
        (msg,) = game.truthful_messages(state, (valuations[game.bidder(state)],))
        if not 0 <= msg < len(labels):
            raise ValueError(f"truthful message {msg} out of range for {len(labels)} messages")
        history.append(msg)
        state, labels = _decision(game, game.child(state, msg))
    return game.outcome(state), tuple(history)


def truthful_strategies(game: Game, protocol: Protocol) -> list:
    """Every bidder's truthful strategy on a tree materialized from
    ``game``: at node u, ``game.truthful_messages`` on the state that
    ``materialize`` recorded in ``protocol.info``.

    The strategy keeps the info map, not the protocol, so a protocol
    whose tabulations hold the strategy is still freed by reference
    counting.
    """
    info = protocol.info

    def strategy(u: NodeId, valuations: Sequence[Valuation]) -> list:
        return game.truthful_messages(info[u], valuations)

    return [strategy] * game.n


# ---------------------------------------------------------------------------
# Generalized ascending auctions


def _bundle_leq(setting: Setting, small, large) -> bool:
    if isinstance(setting, MultiUnitSetting):
        return 0 <= small <= large <= setting.m
    return frozenset(small) <= frozenset(large) <= frozenset(setting.items)


@dataclass(frozen=True)
class GaaSpec:
    """One generalized-ascending-auction arm, checked once when declared.

    Every bidder is guaranteed the base bundle and clocks for the
    potential bundle.  At each price of a :class:`GaaGame`'s grid,
    still-active bidders are polled (highest index first) to stay or
    exit; exits are processed immediately.  The auction ends the moment
    it is feasible to give every remaining active bidder the potential
    bundle alongside the exited bidders' base bundles; winners then pay
    the last grid price that completed a full round, 0 before any (so
    ties resolve at the tied price, in favor of the lowest-index bidder).
    """

    setting: Setting
    base: tuple
    potential: tuple

    def __post_init__(self) -> None:
        base = tuple(self.base)
        potential = tuple(self.potential)
        if isinstance(self.setting, CombinatorialSetting):
            base = tuple(frozenset(b) for b in base)
            potential = tuple(frozenset(p) for p in potential)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "potential", potential)
        if len(base) != len(potential) or not base:
            raise ValueError("need matching non-empty base/potential profiles")
        for i, (b, p) in enumerate(zip(base, potential)):
            if not _bundle_leq(self.setting, b, p):
                raise ValueError(f"bidder {i}: base bundle must lie inside potential")
        if not self.is_feasible(frozenset()):
            raise ValueError("base-bundle profile must be feasible")

    @property
    def n(self) -> int:
        return len(self.base)

    def is_feasible(self, active: frozenset) -> bool:
        chosen = [
            self.potential[i] if i in active else self.base[i] for i in range(self.n)
        ]
        if isinstance(self.setting, MultiUnitSetting):
            return sum(chosen) <= self.setting.m
        taken: set = set()
        for bundle in chosen:
            if bundle & taken:
                return False
            taken |= bundle
        return True

    def marginal(self, bidder: int, valuation: Valuation) -> Fraction:
        """The clock value of the upgrade: v(potential) - v(base)."""
        return valuation.value(self.potential[bidder]) - valuation.value(self.base[bidder])

    def grid_for(self, domains: Sequence[Sequence[Valuation]]) -> tuple:
        """The ``clock_grid`` of the domains' marginals.  One domain per
        bidder of the arm, else a ``ValueError`` naming both counts; a
        valuation the setting cannot hold is a ``ValueError`` naming its
        bidder."""
        if len(domains) != self.n:
            raise ValueError(f"the arm has {self.n} bidders but {len(domains)} domains were given")
        marginals = []
        for i, domain in enumerate(domains):
            for v in domain:
                _check_compatible(self.setting, i, v)
                marginals.append(self.marginal(i, v))
        return clock_grid(marginals)


@dataclass(frozen=True)
class GaaState:
    price_index: int  # the clock price is grid[price_index]
    queue: tuple  # active bidders still to poll at this price, first acts
    active: frozenset


@dataclass(frozen=True)
class GaaLeaf:
    winners: frozenset
    clearing: Fraction


class GaaGame(Game):
    """A :class:`GaaSpec` arm run on a price grid, such as ``grid_for``'s.

    A bidder's truthful move compares the clock price with her marginal
    ``spec.marginal``, which the game finds once per (bidder, valuation)
    in a memo that holds the valuation, so its id is not reused: every
    node of a tabulation and every poll of a play-out reads it there.
    """

    def __init__(self, spec: GaaSpec, grid: Sequence) -> None:
        grid = tuple(as_fraction(p) for p in grid)
        if not grid:
            raise ValueError("price grid is empty")
        if any(p < 0 for p in grid):
            raise ValueError("negative grid price")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        self.spec = spec
        self.grid = grid
        self.n = spec.n
        self.setting = spec.setting
        # per bidder: id of a valuation -> (the valuation, its marginal)
        self._marginals = [{} for _ in range(spec.n)]

    def root_state(self):
        everyone = frozenset(range(self.n))
        if self.spec.is_feasible(everyone):
            return GaaLeaf(everyone, ZERO)
        return GaaState(0, self._poll_order(everyone), everyone)

    @staticmethod
    def _poll_order(active: frozenset) -> tuple:
        return tuple(sorted(active, reverse=True))

    def is_leaf(self, state) -> bool:
        return isinstance(state, GaaLeaf)

    def outcome(self, state) -> Outcome:
        spec = self.spec
        bundles = [
            spec.potential[i] if i in state.winners else spec.base[i]
            for i in range(self.n)
        ]
        payments = [
            state.clearing if i in state.winners else ZERO for i in range(self.n)
        ]
        return Outcome(Allocation(tuple(bundles)), tuple(payments))

    def bidder(self, state) -> int:
        return state.queue[0]

    def messages(self, state) -> tuple[str, ...]:
        return ("stay", "exit")

    def child(self, state, message: int):
        i = state.queue[0]
        rest = state.queue[1:]
        active = state.active
        k = state.price_index
        if message == 1:
            active = active - {i}
            if self.spec.is_feasible(active):
                return GaaLeaf(active, self.grid[k - 1] if k else ZERO)
        if rest:
            return GaaState(k, rest, active)
        # round complete without reaching feasibility: commit the price
        if k + 1 == len(self.grid):
            # grid exhausted; remaining actives are sent to their base
            # bundles unpaid rather than made winners at an uncleared
            # price
            return GaaLeaf(frozenset(), ZERO)
        return GaaState(k + 1, self._poll_order(active), active)

    def truthful_messages(self, state, valuations: Sequence[Valuation]) -> list:
        """Stay (0) while the clock price is at most the marginal, else
        exit (1)."""
        i = state.queue[0]
        memo = self._marginals[i]
        price = self.grid[state.price_index]
        out = []
        for v in valuations:
            hit = memo.get(id(v))
            if hit is None:
                hit = memo[id(v)] = (v, self.spec.marginal(i, v))
            out.append(0 if price <= hit[1] else 1)
        return out


def clock_grid(marginals: Iterable) -> tuple:
    """Price grid reproducing the continuous clock on given marginals.

    Takes all distinct positive marginal values plus a sentinel price
    one above the maximum (1 when no marginal is positive), so every
    bidder has an exact truthful exit point and no bidder stays forever.
    """
    values = sorted({as_fraction(x) for x in marginals if as_fraction(x) > 0})
    top = values[-1] + 1 if values else Fraction(1)
    return tuple(values) + (top,)


# ---------------------------------------------------------------------------
# serialization


def _id_to_key(u: NodeId) -> str:
    return ".".join(str(k) for k in u)


def _key_to_id(key: str, name: str) -> NodeId:
    """A node or leaf key: message indices joined by ``.``, the root ``""``."""
    if key == "":
        return ()
    parts = key.split(".")
    if not all(p.isascii() and p.isdigit() and (p == "0" or p[0] != "0") for p in parts):
        raise ValueError(f"{name} key {key!r} must be message indices joined by '.'")
    return tuple(map(int, parts))


def _allocation_to_json(setting: Setting, alloc: Allocation):
    if isinstance(setting, MultiUnitSetting):
        return list(alloc.bundles)
    return [sorted(b) for b in alloc.bundles]


def _allocation_from_json(setting: Setting, data) -> Allocation:
    bundles = _json_list(data, "allocation")
    if isinstance(setting, MultiUnitSetting):
        return Allocation(tuple(_json_int(q, "allocation") for q in bundles))
    return Allocation(tuple(frozenset(_json_list(b, "allocation")) for b in bundles))


def protocol_to_json(protocol: Protocol) -> dict:
    return {
        "n": protocol.n,
        "setting": setting_to_json(protocol.setting),
        "nodes": {
            _id_to_key(u): {"bidder": node.bidder, "messages": list(node.messages)}
            for u, node in sorted(protocol.nodes.items())
        },
        "leaves": {
            _id_to_key(u): {
                "allocation": _allocation_to_json(protocol.setting, out.allocation),
                "payments": [format_fraction(p) for p in out.payments],
            }
            for u, out in sorted(protocol.leaves.items())
        },
    }


def protocol_from_json(data: Mapping) -> Protocol:
    """Read a protocol document; every malformed field is a ``ValueError``
    naming it."""
    data = _json_object(data, "protocol")
    n = _json_int(_json_key(data, "n", "the protocol"), "n")
    setting = setting_from_json(_json_key(data, "setting", "the protocol"))
    nodes = {}
    for key, raw in _json_object(_json_key(data, "nodes", "the protocol"), "nodes").items():
        name = f"node {key!r}"
        node = _json_object(raw, name)
        labels = _json_list(_json_key(node, "messages", name), "messages")
        nodes[_key_to_id(key, "node")] = ProtocolNode(
            _json_int(_json_key(node, "bidder", name), "bidder"),
            tuple(_json_str(label, "messages") for label in labels),
        )
    leaves = {}
    for key, raw in _json_object(_json_key(data, "leaves", "the protocol"), "leaves").items():
        name = f"leaf {key!r}"
        leaf = _json_object(raw, name)
        payments = _json_list(_json_key(leaf, "payments", name), "payments")
        leaves[_key_to_id(key, "leaf")] = Outcome(
            _allocation_from_json(setting, _json_key(leaf, "allocation", name)),
            tuple(as_fraction(p) for p in payments),
        )
    return Protocol(n, setting, nodes, leaves)
