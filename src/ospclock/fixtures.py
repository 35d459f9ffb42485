"""Named fixtures: adversarial toy protocols and a catalog of instances.

The toys here exist to be *broken*: the sequential sealed-bid
second-price auction is dominant-strategy incentive compatible but not
obviously strategy-proof, and the eager posted price violates
individual rationality.  They give the verifier something to fail on.

The named catalog at the bottom backs the command-line ``--fixture``
flag and the acceptance tests: small instances with hand-checkable
optima, the crowded unit-demand market, the coin-split markets, and
two ready-to-verify games.  Domain-grid builders for sweeping whole
valuation classes live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Sequence

from .experiments import ud_failure_instance
from .mechanisms import grand_bundle_auction
from .protocols import (
    Game,
    Outcome,
    Protocol,
    ProtocolNode,
    materialize,
    truthful_strategies,
)
from .valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    ExplicitValuation,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    UnitDemandValuation,
    Valuation,
    _table_monotone,
    all_bundles,
    check_class,
    make_single_minded,
)
from .welfare import Allocation

F = Fraction


class SealedBidGame(Game):
    """Sequential sealed-bid second-price auction for one unit.

    Bidder 1 reports a value from the grid, then bidder 2 does; the
    higher report (ties to bidder 1) wins the unit at the other's
    report.  DSIC, but famously not obviously strategy-proof: a low
    bidder's deviation to a high report has a best case (the rival
    reported even lower) that beats truth-telling's worst case.
    """

    def __init__(self, values=(0, 1, 2, 3)) -> None:
        self.values = tuple(F(v) for v in values)
        if len(self.values) < 2:
            raise ValueError("need at least two report levels")
        self.n = 2
        self.setting = MultiUnitSetting(1)

    def root_state(self):
        return ()

    def is_leaf(self, state) -> bool:
        return len(state) == 2

    def bidder(self, state) -> int:
        return len(state)

    def messages(self, state) -> tuple:
        return tuple(str(v) for v in self.values)

    def child(self, state, message: int):
        return state + (message,)

    def outcome(self, state) -> Outcome:
        first, second = self.values[state[0]], self.values[state[1]]
        if first >= second:
            return Outcome(Allocation((1, 0)), (second, F(0)))
        return Outcome(Allocation((0, 1)), (F(0), first))

    def truthful_messages(self, state, valuations: Sequence[Valuation]) -> list:
        return [self.values.index(v.value(1)) for v in valuations]

    def domain(self) -> list:
        return [make_single_minded(v, 1, 1) for v in self.values]


def sealed_bid_domains(values=(0, 1, 2, 3)) -> list:
    game = SealedBidGame(values)
    return [game.domain(), game.domain()]


def eager_posted_price_protocol(price=2) -> Protocol:
    """Posted price for one unit; pair with an always-accept strategy
    to manufacture an individual-rationality violation."""
    nodes = {(): ProtocolNode(0, ("accept", "decline"))}
    leaves = {
        (0,): Outcome(Allocation((1,)), (F(price),)),
        (1,): Outcome(Allocation((0,)), (F(0),)),
    }
    return Protocol(1, MultiUnitSetting(1), nodes, leaves)


def negative_transfer_protocol() -> Protocol:
    """A leaf pays a bidder: no-negative-transfers must flag it."""
    nodes = {(): ProtocolNode(0, ("in", "out"))}
    leaves = {
        (0,): Outcome(Allocation((1,)), (F(-1),)),
        (1,): Outcome(Allocation((0,)), (F(0),)),
    }
    return Protocol(1, MultiUnitSetting(1), nodes, leaves)


# ---------------------------------------------------------------------------
# domain-grid builders


def single_minded_domain(m: int, values, demands) -> list:
    """Distinct step valuations with value and demand from the grids."""
    out: list = []
    for x in values:
        for d in demands:
            v = make_single_minded(x, d, m)
            if v not in out:
                out.append(v)
    return out


def decreasing_marginal_domain(m: int, marginal_values) -> list:
    """All valuations whose marginal sequence is non-increasing.

    One valuation per non-increasing length-``m`` sequence over the
    grid; values are the running sums.
    """
    levels = sorted({F(x) for x in marginal_values}, reverse=True)
    out = []
    for marginals in combinations_with_replacement(levels, m):
        values = []
        running = F(0)
        for step in marginals:
            running += step
            values.append(running)
        out.append(MultiUnitValuation(tuple(values)))
    return out


def additive_domain(items, values) -> list:
    items = tuple(items)
    return [
        AdditiveValuation(items, dict(zip(items, combo)))
        for combo in product([F(x) for x in values], repeat=len(items))
    ]


def unit_demand_domain(items, values) -> list:
    items = tuple(items)
    return [
        UnitDemandValuation(items, dict(zip(items, combo)))
        for combo in product([F(x) for x in values], repeat=len(items))
    ]


def explicit_domain(items, values, cls: str = "monotone") -> list:
    """Explicit tables over the grid, filtered to a valuation class.

    Sweeps every assignment of grid values to non-empty bundles, screens
    each raw table for monotonicity, and keeps those whose valuation
    passes :func:`check_class`.
    """
    items = tuple(items)
    bundles = all_bundles(items)[1:]
    out = []
    for combo in product([F(x) for x in values], repeat=len(bundles)):
        table = dict(zip(bundles, combo))
        table[frozenset()] = F(0)
        if _table_monotone(items, table):
            v = ExplicitValuation(items, table)
            if cls == "monotone" or check_class(v, cls):
                out.append(v)
    return out


# ---------------------------------------------------------------------------
# the named catalog


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # "instance" or "game"
    summary: str
    build: Callable


def _flat_market(n: int, m: int) -> Instance:
    vals = tuple(make_single_minded(1, 1, m) for _ in range(n))
    return Instance(MultiUnitSetting(m), vals)


def _i1_ones() -> Instance:
    return _flat_market(4, 4)


def _sm_3bidders() -> Instance:
    vals = (
        make_single_minded(6, 2, 4),
        make_single_minded(5, 3, 4),
        make_single_minded(4, 1, 4),
    )
    return Instance(MultiUnitSetting(4), vals)


def _rb_demo() -> Instance:
    vals = (
        make_single_minded(9, 4, 4),
        make_single_minded(5, 1, 4),
        make_single_minded(4, 1, 4),
    )
    return Instance(MultiUnitSetting(4), vals)


CROSS = ("a", "b")


def _add_cross() -> Instance:
    vals = (
        AdditiveValuation(CROSS, {"a": F(3), "b": F(1)}),
        AdditiveValuation(CROSS, {"a": F(1), "b": F(3)}),
    )
    return Instance(CombinatorialSetting(CROSS), vals)


def _subadd_split() -> Instance:
    # each bidder wants one specific item; the pair is worth no more.
    vals = (
        ExplicitValuation(CROSS, {(): 0, ("a",): 1, ("b",): 0, ("a", "b"): 1}),
        ExplicitValuation(CROSS, {(): 0, ("a",): 0, ("b",): 1, ("a", "b"): 1}),
    )
    return Instance(CombinatorialSetting(CROSS), vals)


def _mono_split() -> Instance:
    # monotone but not subadditive: bidder 0 sees complements.
    vals = (
        ExplicitValuation(CROSS, {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3}),
        ExplicitValuation(CROSS, {(): 0, ("a",): 2, ("b",): 0, ("a", "b"): 2}),
    )
    return Instance(CombinatorialSetting(CROSS), vals)


def _dm_e6() -> Instance:
    vals = (
        MultiUnitValuation((F(3), F(5), F(6))),
        MultiUnitValuation((F(2), F(3), F(3))),
    )
    return Instance(MultiUnitSetting(3), vals)


def _tight_dm_3() -> Instance:
    # the 2/3-tight point for the three-unit deterministic mechanism
    vals = (
        MultiUnitValuation((F(4), F(8), F(12))),
        MultiUnitValuation((F(0), F(0), F(0))),
    )
    return Instance(MultiUnitSetting(3), vals)


def _ud_failure_16() -> Instance:
    return ud_failure_instance(16)


def _sampling_11() -> Instance:
    vals = tuple(make_single_minded(2, 1, 4) for _ in range(5)) + tuple(
        make_single_minded(1, 1, 4) for _ in range(6)
    )
    return Instance(MultiUnitSetting(4), vals)


def _critical_1() -> Instance:
    return Instance(MultiUnitSetting(2), (make_single_minded(5, 1, 2),))


def _sealed_bid_game():
    game = SealedBidGame((0, 1, 2, 3))
    protocol = materialize(game)
    strategies = truthful_strategies(game, protocol)
    return protocol, strategies, sealed_bid_domains((0, 1, 2, 3))


def _grand_gaa_game():
    domains = [
        single_minded_domain(2, values=(0, 1, 2, 3), demands=(1, 2))
        for _ in range(2)
    ]
    game = grand_bundle_auction(2, MultiUnitSetting(2)).branches()[0].game(domains)
    protocol = materialize(game)
    return protocol, truthful_strategies(game, protocol), domains


FIXTURES = {
    fx.name: fx
    for fx in (
        Fixture("i1-ones", "instance", "four unit bidders, four units, all ones", _i1_ones),
        Fixture("sm-3bidders", "instance", "three single-minded bidders, four units", _sm_3bidders),
        Fixture("rb-demo", "instance", "grand-bundle bidder vs two unit bidders", _rb_demo),
        Fixture("add-cross", "instance", "two additive bidders with crossed favorites", _add_cross),
        Fixture("subadd-split", "instance", "subadditive pair splitting the two items", _subadd_split),
        Fixture("mono-split", "instance", "monotone pair, bidder 0 sees complements", _mono_split),
        Fixture("dm-e6", "instance", "decreasing-marginal pair over three units", _dm_e6),
        Fixture("tight-dm-3", "instance", "2/3-tight point of the three-unit mechanism", _tight_dm_3),
        Fixture("ud-failure-16", "instance", "crowded unit-demand market, 16 bidders", _ud_failure_16),
        Fixture("sampling-10", "instance", "ten unit bidders, five units", lambda: _flat_market(10, 5)),
        Fixture("sampling-11", "instance", "five 2-value and six 1-value unit bidders", _sampling_11),
        Fixture("sampling-12", "instance", "twelve unit bidders, six units", lambda: _flat_market(12, 6)),
        Fixture("sampling-200", "instance", "two hundred unit bidders, full supply", lambda: _flat_market(200, 200)),
        Fixture("critical-1", "instance", "single bidder; sampling gate refuses", _critical_1),
        Fixture("sealed-bid-2x2", "game", "sequential second-price auction (not OSP)", _sealed_bid_game),
        Fixture("grand-gaa-2x2", "game", "grand-bundle clock, two bidders, two units", _grand_gaa_game),
    )
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; choose from {', '.join(fixture_names())}"
        ) from None


def load_instance(name: str) -> Instance:
    fx = get_fixture(name)
    if fx.kind != "instance":
        raise ValueError(f"fixture {name!r} is a game, not an instance")
    return fx.build()


def load_game(name: str):
    """Protocol, strategies, and domains for a game fixture."""
    fx = get_fixture(name)
    if fx.kind != "game":
        raise ValueError(f"fixture {name!r} is an instance, not a game")
    return fx.build()
