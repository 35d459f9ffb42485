"""Randomized auction mechanisms as explicit protocol distributions.

Every mechanism here is "universally" obviously strategy-proof: a
probability distribution over deterministic protocols, each of which
is OSP on its own.  A :class:`RandomizedMechanism` therefore exposes

* ``branches()`` — the exact support as labelled
  :class:`SupportElement`s with rational probabilities, when the coin
  space is enumerable;
* ``sample_branch(rng)`` — a seeded draw with a documented coin order,
  for Monte Carlo at scales where enumeration is hopeless (there are
  16! arrival orders);
* per-branch ``outcome(instance)`` — direct truthful simulation, and
  ``game(domains)`` — the extensive-form game for the verifier.

Simulation and verification share each branch's transition code: the
simulated branch is the same game run with singleton report domains,
whose forced reports the protocol layer contracts (see
:class:`~ospclock.protocols.Game`), so the tree and the play-out cannot
disagree.

Sampling: grand-bundle, three-item-dm, random-bundles, m1-2x2, m2-2x2
and m3-2x2 use the default sampler, one ``weighted_index`` over their
branches at the common denominator.  mech1, mech2 and naive-max-price
share one fair-coin split (``_coin_split_mechanism``): one coin per
bidder in ascending order, after an arm coin for mech1's grand-bundle
half.  mech3 draws a descending Fisher-Yates shuffle.  These keep
explicit samplers because their supports grow as 2^n and n! and their
coin orders are documented.

The mechanisms: bundle-size clocks for single-minded bidders, the
sample-and-price mechanisms for single-minded/decreasing-marginal,
additive, and unit-demand bidders, a naive max-sampled-price variant
kept as a cautionary baseline, and the small two-bidder/two-item
mixtures used in lower-bound studies.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Optional, Sequence

from .protocols import (
    GaaGame,
    GaaSpec,
    Game,
    Outcome,
    build_gaa,
    gaa_grid_for_domains,
    game_strategy,
    run_game,
)
from .rng import CounterRng
from .valuations import (
    CombinatorialSetting,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    PerItemValuation,
    Setting,
    UnitDemandValuation,
    Valuation,
    all_bundles,
)
from .welfare import (
    Allocation,
    _cap,
    _refusal,
    opt_restricted,
    opt_value_restricted,
    welfare_of,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# randomized-mechanism carrier


@dataclass
class SupportElement:
    """One deterministic branch of a randomized mechanism.

    ``outcome`` plays the branch game truthfully with singleton report
    domains, so the simulation runs the verified transition code;
    ``shortcut`` may compute the same outcome faster, or return None to
    decline.
    """

    label: str
    probability: Fraction
    game_fn: Callable[[Sequence[Sequence[Valuation]]], Game]
    shortcut: Optional[Callable[[Instance], Optional[Outcome]]] = None

    def outcome(self, instance: Instance) -> Outcome:
        if self.shortcut is not None:
            fast = self.shortcut(instance)
            if fast is not None:
                return fast
        game = self.game([[v] for v in instance.valuations])
        out, _ = run_game(game, instance.valuations)
        return out

    def game(self, domains: Sequence[Sequence[Valuation]]) -> Game:
        return self.game_fn(domains)


class RandomizedMechanism:
    """A distribution over deterministic branches.

    Without ``sample_fn``, ``sample_branch`` draws one
    ``weighted_index`` over ``branches()`` at their common denominator:
    ``below(k)`` for k equiprobable branches, and no word at all for a
    single branch.
    """

    def __init__(
        self,
        name: str,
        setting: Setting,
        n: int,
        branch_count: int,
        branches_fn: Callable[[], list],
        sample_fn: Optional[Callable[[CounterRng], SupportElement]] = None,
        exact_fast: Optional[Callable[[Instance], Optional[Fraction]]] = None,
    ) -> None:
        self.name = name
        self.setting = setting
        self.n = n
        self.branch_count = branch_count
        self._branches_fn = branches_fn
        self._sample_fn = sample_fn
        self._exact_fast = exact_fast
        self._cache: Optional[list] = None
        self._weights: Optional[list] = None

    def branches(self) -> list:
        """The exact support; raises SizeCapError if too large."""
        cap = _cap("OSPCLOCK_SUPPORT_CAP", 50_000)
        if self.branch_count > cap:
            what = f"{self.name} has {self.branch_count} branches"
            raise _refusal("OSPCLOCK_SUPPORT_CAP", cap, what)
        if self._cache is None:
            self._cache = self._branches_fn()
            total = sum((b.probability for b in self._cache), ZERO)
            assert total == ONE, f"{self.name}: probabilities sum to {total}"
        return self._cache

    def sample_branch(self, rng: CounterRng) -> SupportElement:
        if self._sample_fn is not None:
            return self._sample_fn(rng)
        branches = self.branches()
        if self._weights is None:
            denom = math.lcm(*(b.probability.denominator for b in branches))
            self._weights = [int(b.probability * denom) for b in branches]
        return branches[rng.weighted_index(self._weights)]

    def _check_instance(self, instance: Instance) -> None:
        if instance.setting != self.setting or instance.n != self.n:
            raise ValueError(
                f"{self.name} is bound to n={self.n}, {self.setting}; "
                "got an incompatible instance"
            )

    def exact_expected_welfare(self, instance: Instance) -> Fraction:
        """Probability-weighted welfare over the full support, exact."""
        self._check_instance(instance)
        if self._exact_fast is not None:
            fast = self._exact_fast(instance)
            if fast is not None:
                return fast
        total = ZERO
        for branch in self.branches():
            outcome = branch.outcome(instance)
            total += branch.probability * welfare_of(instance, outcome.allocation)
        return total


def sample_run(mech: RandomizedMechanism, instance: Instance, seed: int) -> Outcome:
    """Seeded draw of one branch, played truthfully on the instance."""
    mech._check_instance(instance)
    branch = mech.sample_branch(CounterRng(seed))
    return branch.outcome(instance)


# ---------------------------------------------------------------------------
# clock-auction branches


def _gaa_element(
    label: str,
    probability: Fraction,
    setting: Setting,
    base: tuple,
    potential: tuple,
) -> SupportElement:
    """A clock-auction branch; the grid adapts to instance or domains."""

    def game_fn(domains: Sequence[Sequence[Valuation]]) -> Game:
        grid = gaa_grid_for_domains(base, potential, setting, domains)
        return GaaGame(GaaSpec(setting, base, potential, grid))

    return SupportElement(label, probability, game_fn)


def _grand_element(setting: Setting, n: int, p: Fraction) -> SupportElement:
    """The grand-bundle clock: everyone clocks for the whole supply."""
    if isinstance(setting, MultiUnitSetting):
        base, potential = (0,) * n, (setting.m,) * n
    else:
        base, potential = (frozenset(),) * n, (frozenset(setting.items),) * n
    return _gaa_element("grand-bundle", p, setting, base, potential)


def _grand_mixture(
    name: str, setting: Setting, p, others: Callable[[Fraction], list]
) -> RandomizedMechanism:
    """Two bidders: the grand-bundle clock with probability ``p``.

    The rest of the mass goes to the branches ``others(1 - p)``; a
    branch of probability zero is dropped.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("probability out of range")
    branches = [_grand_element(setting, 2, p)] + others(ONE - p)
    branches = [b for b in branches if b.probability > 0]
    return RandomizedMechanism(name, setting, 2, len(branches), lambda: branches)


def grand_bundle_auction(n: int, setting: Setting) -> RandomizedMechanism:
    """Degenerate mechanism: always the grand-bundle ascending auction."""
    element = _grand_element(setting, n, ONE)
    return RandomizedMechanism("grand-bundle", setting, n, 1, lambda: [element])


def random_bundles(n: int, m: int) -> RandomizedMechanism:
    """Uniformly random bundle size, then a clock for that bundle.

    Bundle sizes are the powers of two below ``m`` plus ``m`` itself,
    preserving the usual ceil(log2 m) + 1 bucket count when ``m`` is
    not a power of two.  At size L the default feasibility rule lets at
    most floor(m / L) bidders win L units each.
    """
    setting = MultiUnitSetting(m)
    sizes = sorted({2 ** j for j in range(max(0, (m - 1).bit_length()))} | {m})
    prob = Fraction(1, len(sizes))

    def branches_fn() -> list:
        return [
            _gaa_element(f"bundle-size={size}", prob, setting, (0,) * n, (size,) * n)
            for size in sizes
        ]

    return RandomizedMechanism("random-bundles", setting, n, len(sizes), branches_fn)


def m1_2x2(p: Fraction = Fraction(1, 2)) -> RandomizedMechanism:
    """Two bidders, two units: grand auction or one fixed single award.

    With probability ``p`` the grand-bundle clock runs; otherwise a
    uniformly chosen bidder is handed one unit outright and the two
    compete in a clock where the fixed bidder's upgrade is the second
    unit.
    """
    setting = MultiUnitSetting(2)

    def fixed_awards(rest: Fraction) -> list:
        return [
            _gaa_element("fixed-award-0", rest / 2, setting, (1, 0), (2, 1)),
            _gaa_element("fixed-award-1", rest / 2, setting, (0, 1), (1, 2)),
        ]

    return _grand_mixture("m1-2x2", setting, p, fixed_awards)


def _fixed_award_elements(items: tuple, probability: Fraction) -> list:
    """The four (bidder, item) fixed-award clock branches for 2 items."""
    setting = CombinatorialSetting(items)
    a, b = items
    out = []
    for bidder, award in ((0, a), (0, b), (1, a), (1, b)):
        other = b if award == a else a
        if bidder == 0:
            base = (frozenset({award}), frozenset())
            potential = (frozenset(items), frozenset({other}))
        else:
            base = (frozenset(), frozenset({award}))
            potential = (frozenset({other}), frozenset(items))
        out.append(
            _gaa_element(
                f"fixed-award-{bidder}-{award}", probability, setting, base, potential
            )
        )
    return out


def m2_2x2(items: tuple = ("a", "b")) -> RandomizedMechanism:
    """Uniform fixed award of one item, clock for the remaining item.

    Four equiprobable branches (bidder x item); the awarded bidder's
    clock upgrade is the second item, the other bidder clocks for the
    free item.
    """
    setting = CombinatorialSetting(tuple(items))

    def elements() -> list:
        return _fixed_award_elements(setting.items, Fraction(1, 4))

    return RandomizedMechanism("m2-2x2", setting, 2, 4, elements)


def m3_2x2(p: Fraction = Fraction(1, 3), items: tuple = ("a", "b")) -> RandomizedMechanism:
    """Grand-bundle clock with probability ``p``, else a random fixed award."""
    setting = CombinatorialSetting(tuple(items))
    return _grand_mixture(
        "m3-2x2", setting, p, lambda rest: _fixed_award_elements(setting.items, rest / 4)
    )


DEFAULT_THREE_ITEM_GRID = (ONE, Fraction(2), Fraction(3), Fraction(4), Fraction(5))


def three_item_dm(grid: tuple = DEFAULT_THREE_ITEM_GRID):
    """Two bidders, three units: one unit each, clock for the third.

    Deterministic (a single protocol): each bidder starts with one
    guaranteed unit and the clock sells the upgrade to two units; ties
    go to bidder 1 as everywhere else.  The default grid covers
    marginal values 0..4.  Returns (protocol, strategies).
    """
    spec = GaaSpec(MultiUnitSetting(3), (1, 1), (2, 2), tuple(grid))
    protocol = build_gaa(spec)
    strategy = game_strategy(GaaGame(spec), protocol)
    return protocol, [strategy, strategy]


def three_item_dm_mechanism() -> RandomizedMechanism:
    setting = MultiUnitSetting(3)
    element = _gaa_element("fixed-pair-clock", ONE, setting, (1, 1), (2, 2))
    return RandomizedMechanism("three-item-dm", setting, 2, 1, lambda: [element])


# ---------------------------------------------------------------------------
# sample-then-serve games


class SampleServeGame(Game):
    """Bidders act one at a time in a fixed order: report, then be served.

    ``state.pos`` indexes ``order``, and ``pos == n`` is terminal.  The
    first ``cut`` bidders only report.  A reporting bidder names the
    index of the valuation in the bidder's declared domain
    (``report:k``); a bidder being served picks from the subclass's
    menu.  Subclasses supply the root state, the transition and the
    menu.  Every state records ``taken`` and ``payments``, aligned with
    the served bidders ``order[cut:]``; ``outcome`` gives each served
    bidder that bundle at that payment, and everyone else the empty
    bundle for nothing.  Forced moves (a singleton domain, an empty
    menu) are single-message states, contracted by the protocol layer.
    """

    def __init__(
        self,
        order: Sequence[int],
        setting: Setting,
        domains: Sequence[Sequence[Valuation]],
        cut: int,
    ) -> None:
        self.order = tuple(order)
        self.n = len(self.order)
        self.setting = setting
        self.domains = [list(d) for d in domains]
        self.cut = cut

    def _reporting(self, state) -> bool:
        return state.pos < self.cut

    def _serve_labels(self, state) -> tuple:
        raise NotImplementedError

    def _serve_choice(self, state, valuation: Valuation) -> int:
        raise NotImplementedError

    def is_leaf(self, state) -> bool:
        return state.pos == self.n

    def outcome(self, state) -> Outcome:
        empty = 0 if isinstance(self.setting, MultiUnitSetting) else frozenset()
        bundles = [empty] * self.n
        payments = [ZERO] * self.n
        served = self.order[self.cut :]
        for bidder, bundle, paid in zip(served, state.taken, state.payments):
            bundles[bidder] = bundle
            payments[bidder] = paid
        return Outcome(Allocation(tuple(bundles)), tuple(payments))

    def bidder(self, state) -> int:
        return self.order[state.pos]

    def messages(self, state) -> tuple:
        if not self._reporting(state):
            return self._serve_labels(state)
        domain = self.domains[self.bidder(state)]
        return tuple(f"report:{k}" for k in range(len(domain)))

    def truthful_message(self, state, valuation: Valuation) -> int:
        if not self._reporting(state):
            return self._serve_choice(state, valuation)
        bidder = self.bidder(state)
        try:
            return self.domains[bidder].index(valuation)
        except ValueError:
            raise ValueError(
                f"bidder {bidder}'s valuation is outside the declared domain"
            ) from None


@dataclass(frozen=True)
class SplitState:
    pos: int
    reports: tuple
    taken: tuple  # bundles, aligned with the served bidders
    payments: tuple  # aligned with taken
    left: object  # the unsold supply: a unit count or an item tuple
    price: object  # set once the serve phase starts


class SplitGame(SampleServeGame):
    """One fair-coin split: the sample reports, the rest are served.

    The sampled bidders (ascending index) each report a valuation and
    are excluded from trade.  When the last of them has reported,
    ``_price`` turns their reported valuations into the price (an
    empty sample is priced at the root).  The remaining bidders
    (ascending) are then served in turn, and ``_serve(state, message)``
    maps a served bidder's message to (bundle, payment, supply left).
    """

    def __init__(
        self,
        sample: Sequence[int],
        n: int,
        setting: Setting,
        domains: Sequence[Sequence[Valuation]],
    ) -> None:
        self.sample = tuple(sorted(sample))
        rest = tuple(i for i in range(n) if i not in self.sample)
        super().__init__(self.sample + rest, setting, domains, len(self.sample))

    def _price(self, reported: list):
        raise NotImplementedError

    def _serve(self, state, message: int) -> tuple:
        raise NotImplementedError

    def root_state(self):
        if isinstance(self.setting, MultiUnitSetting):
            supply = self.setting.m
        else:
            supply = self.setting.items
        price = None if self.sample else self._price([])
        return SplitState(0, (), (), (), supply, price)

    def child(self, state, message: int):
        if self._reporting(state):
            pos = state.pos + 1
            reports = state.reports + (message,)
            price = None
            if pos == self.cut < self.n:  # the serve phase starts
                price = self._price(
                    [self.domains[b][k] for b, k in zip(self.sample, reports)]
                )
            return SplitState(pos, reports, (), (), state.left, price)
        bundle, paid, left = self._serve(state, message)
        return SplitState(
            state.pos + 1,
            state.reports,
            state.taken + (bundle,),
            state.payments + (paid,),
            left,
            state.price,
        )


def _coin_split_mechanism(
    name: str,
    setting: Setting,
    n: int,
    game_fn: Callable[[tuple, Sequence[Sequence[Valuation]]], Game],
    grand_arm: bool,
    exact_fast: Optional[Callable[[Instance], Optional[Fraction]]] = None,
) -> RandomizedMechanism:
    """Fair coins split the bidders into a sample and the served rest.

    ``game_fn(sample, domains)`` builds the game of one split.  Each
    bidder flips one coin, in ascending index order, and 0 sends the
    bidder into the sample.  With ``grand_arm`` an arm coin comes
    first: 0 runs the grand-bundle clock, 1 the split.  The support is
    the grand-bundle branch (if any), then the 2^n samples by bitmask.
    """
    head = [_grand_element(setting, n, Fraction(1, 2))] if grand_arm else []
    prob = Fraction(1, 2 ** (n + len(head)))

    def element(sample: tuple) -> SupportElement:
        label = "sample=" + (",".join(map(str, sample)) if sample else "-")
        return SupportElement(label, prob, lambda domains: game_fn(sample, domains))

    def branches_fn() -> list:
        return head + [
            element(tuple(i for i in range(n) if mask >> i & 1))
            for mask in range(2 ** n)
        ]

    def sample_fn(rng: CounterRng) -> SupportElement:
        if head and rng.below(2) == 0:
            return head[0]
        return element(tuple(i for i in range(n) if rng.below(2) == 0))

    return RandomizedMechanism(
        name, setting, n, len(head) + 2 ** n, branches_fn, sample_fn, exact_fast
    )


def _single_item_menu(items) -> list:
    """Nothing, then each of ``items`` alone: the single-item shopping menu."""
    return [frozenset()] + [frozenset({j}) for j in items]


def _best_item(valuation: Valuation, unsold: tuple, prices: dict) -> tuple:
    """The unsold item of highest surplus, earliest on ties, and its surplus.

    Returns (None, None) when nothing is unsold.
    """
    best_item = None
    best_u = None
    for j in unsold:
        u = valuation.value({j}) - prices[j]
        if best_u is None or u > best_u:
            best_item, best_u = j, u
    return best_item, best_u


# ---------------------------------------------------------------------------
# sample-and-price for multi-unit bidders (Mechanism 1 shape)


def preferred_quantity(v: MultiUnitValuation, remaining: int, price: Fraction) -> int:
    """Utility-maximizing quantity at a linear per-unit price.

    Ties break to the smaller quantity, so a bidder never buys into
    exactly zero utility.  For decreasing-marginal valuations this
    equals the greedy rule "keep adding units while the marginal beats
    the price".
    """
    best_q = 0
    best_u = ZERO
    for q in range(1, remaining + 1):
        u = v.value(q) - price * q
        if u > best_u:
            best_q, best_u = q, u
    return best_q


class PartitionSaleGame(SplitGame):
    """Discard-and-learn sale for one fair-coin partition.

    The optimum welfare O of the sample alone prices every unit at
    O / (10 m), and the remaining bidders buy their preferred
    quantities while supply lasts.
    """

    def __init__(
        self,
        sample: Sequence[int],
        n: int,
        m: int,
        domains: Sequence[Sequence[Valuation]],
    ) -> None:
        super().__init__(sample, n, MultiUnitSetting(m), domains)

    def _price(self, reported: list) -> Fraction:
        if not reported:
            return ZERO
        sample_opt = opt_value_restricted(Instance(self.setting, tuple(reported)))
        return sample_opt / (10 * self.setting.m)

    def _serve(self, state, message: int) -> tuple:
        return message, state.price * message, state.left - message

    def _serve_labels(self, state) -> tuple:
        return tuple(f"take:{q}" for q in range(state.left + 1))

    def _serve_choice(self, state, valuation: Valuation) -> int:
        return preferred_quantity(valuation, state.left, state.price)


def _partition_sale_mechanism(name: str, n: int, m: int) -> RandomizedMechanism:
    return _coin_split_mechanism(
        name,
        MultiUnitSetting(m),
        n,
        lambda sample, domains: PartitionSaleGame(sample, n, m, domains),
        grand_arm=True,
    )


def mech1_single_minded(n: int, m: int) -> RandomizedMechanism:
    """Half grand-bundle clock, half discard-and-learn unit pricing.

    Designed for single-minded bidders; the canonical buyer behavior
    (preferred quantity, ties down) is well-defined for any monotone
    multi-unit valuation, so the registry also serves this mechanism
    as ``mech1-decreasing-marginals``.
    """
    return _partition_sale_mechanism("mech1-single-minded", n, m)


# ---------------------------------------------------------------------------
# sample-and-max-price for combinatorial bidders (Mechanism 2 shape)


class MaxPricePartitionGame(SplitGame):
    """Per-item prices set to the sampled bidders' maxima.

    Item j is priced at the highest sampled value, remembering the
    smallest sampled index attaining it.  The remaining bidders then
    shop: in ``bundle`` mode each takes every unsold item whose price
    they beat (or meet, when their index precedes the price-setter's);
    in ``single`` mode each takes at most one item by the same test,
    preferring higher surplus then earlier items.
    """

    def __init__(
        self,
        sample: Sequence[int],
        items: tuple,
        n: int,
        domains: Sequence[Sequence[Valuation]],
        mode: str = "bundle",
    ) -> None:
        if mode not in ("bundle", "single"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        super().__init__(sample, n, CombinatorialSetting(tuple(items)), domains)

    def _price(self, reported: list) -> tuple:
        """Item prices and their setters; an empty sample prices at 0."""
        prices = {}
        setters = {}
        for j in self.setting.items:
            per = [v.value({j}) for v in reported]
            prices[j] = max(per, default=ZERO)
            setters[j] = self.sample[per.index(prices[j])] if per else -1
        return prices, setters

    def _menu(self, state: SplitState) -> list:
        if self.mode == "bundle":
            return all_bundles(state.left)
        return _single_item_menu(state.left)

    def _serve(self, state, message: int) -> tuple:
        bundle = self._menu(state)[message]
        prices, _ = state.price
        paid = sum((prices[j] for j in bundle), ZERO)
        return bundle, paid, tuple(j for j in state.left if j not in bundle)

    def _serve_labels(self, state) -> tuple:
        return tuple(
            "+".join(sorted(bundle)) if bundle else "none"
            for bundle in self._menu(state)
        )

    def _wants(self, buyer: int, valuation: Valuation, item: str, state) -> bool:
        prices, setters = state.price
        value = valuation.value({item})
        return value > prices[item] or (value == prices[item] and buyer < setters[item])

    def _serve_choice(self, state, valuation: Valuation) -> int:
        buyer = self.bidder(state)
        menu = self._menu(state)
        if self.mode == "bundle":
            take = frozenset(
                j for j in state.left if self._wants(buyer, valuation, j, state)
            )
            return menu.index(take)
        item, surplus = _best_item(valuation, state.left, state.price[0])
        if surplus is not None and surplus >= 0 and self._wants(
            buyer, valuation, item, state
        ):
            return menu.index(frozenset({item}))
        return 0


def mech2_additive(n: int, items: Sequence[str]) -> RandomizedMechanism:
    """Fair-coin sample, max-sampled-value item prices, bundle shopping.

    The intended bidders are additive, for whom per-item shopping is
    exactly preferred-bundle shopping.
    """
    setting = CombinatorialSetting(tuple(items))
    return _coin_split_mechanism(
        "mech2-additive",
        setting,
        n,
        lambda sample, domains: MaxPricePartitionGame(
            sample, setting.items, n, domains, "bundle"
        ),
        grand_arm=False,
    )


def naive_max_price_ud(n: int, items: Sequence[str]) -> RandomizedMechanism:
    """The same sampled max pricing applied to unit-demand bidders.

    Kept as a baseline to show why unit-demand needs opportunity-cost
    prices: on crowded instances the max-sampled price lets only a
    vanishing fraction of bidders buy.
    """
    setting = CombinatorialSetting(tuple(items))
    return _coin_split_mechanism(
        "naive-max-price",
        setting,
        n,
        lambda sample, domains: MaxPricePartitionGame(
            sample, setting.items, n, domains, "single"
        ),
        grand_arm=False,
        exact_fast=_naive_constant_rows_exact,
    )


def _constant_integer_rows(instance: Instance, kind: type) -> Optional[list]:
    """Per-bidder value if every bidder is a ``kind`` valuation that
    prices all items equally at an integer, else None."""
    rows = []
    for v in instance.valuations:
        if not isinstance(v, kind) or v.constant is None or v.constant.denominator != 1:
            return None
        rows.append(v.constant.numerator)
    return rows


def _naive_constant_rows_exact(instance: Instance) -> Optional[Fraction]:
    """Closed-form support expectation for constant-row instances.

    Enumerates all 2^n partitions with integer arithmetic; each buyer
    takes one (interchangeable) item while supply lasts.  Additive and
    unit-demand rows value a single item alike, so both qualify.  As in
    the game, the first sampled bidder sets the price, and only a
    strictly higher sampled value replaces her.
    """
    rows = _constant_integer_rows(instance, PerItemValuation)
    if rows is None:
        return None
    n, m = instance.n, instance.m
    total = 0
    for mask in range(1 << n):
        price = 0
        setter = -1
        for i in range(n):
            if mask >> i & 1 and (setter < 0 or rows[i] > price):
                price, setter = rows[i], i
        left = m
        welfare = 0
        for i in range(n):
            if mask >> i & 1 or left == 0:
                continue
            if rows[i] > price or (rows[i] == price and i < setter):
                welfare += rows[i]
                left -= 1
        total += welfare
    return Fraction(total, 1 << n)


# ---------------------------------------------------------------------------
# sampled serial pricing for unit-demand bidders (Mechanism 3 shape)


def arrivals_discarded(n: int) -> int:
    """How many of the first arrivals are observed without trading."""
    return math.floor(n / math.e)


def _memoized(memo: dict, key: tuple, held, solve: Callable[[], object]):
    """``solve()``, computed once per ``key``.

    ``key`` names objects by id; the entry keeps ``held``, those
    objects, alive with it, so no id in a live key can be reused.
    """
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (held, solve())
    return hit[1]


@dataclass(frozen=True)
class ArrivalState:
    pos: int
    reporting: bool
    reports: tuple  # (bidder, message) in processing order
    taken: tuple  # bundles, aligned with served positions
    payments: tuple  # aligned with taken
    unsold: tuple


class ArrivalPricingGame(SampleServeGame):
    """Process bidders in a fixed arrival order with learned prices.

    The first floor(n/e) arrivals only report.  Each later arrival
    faces per-item prices equal to the welfare the observed bidders
    lose if that item disappears — OPT(S, M) - OPT(S, M minus the
    item) — takes an available item of positive surplus (highest
    surplus, then earliest item), settles exact zero surplus by the
    canonical optimum (take the earliest zero-surplus item only if the
    canonical optimum over S plus herself assigns it to her), then
    reports and joins S.  The last arrival's report is skipped: nobody
    is left to price against it.

    Markets are solved once per memo, which ``mech3_unit_demand`` shares
    among all its branch games (a game built directly gets its own).
    The prices depend only on which valuations were reported and on the
    unsold items, and the canonical optimum only on the valuations in
    bidder-index order and the unsold items, so both are keyed by
    valuation ids; each entry holds the valuations it is keyed by, so
    no id is reused while the entry lives.
    """

    def __init__(
        self,
        order: Sequence[int],
        items: tuple,
        domains: Sequence[Sequence[Valuation]],
        _memo: Optional[dict] = None,
    ) -> None:
        self.items = tuple(items)
        super().__init__(
            order,
            CombinatorialSetting(self.items),
            domains,
            arrivals_discarded(len(order)),
        )
        self._prices: dict = {}  # (reports, unsold) -> this game's prices
        self._memo = {} if _memo is None else _memo

    # -- bookkeeping --------------------------------------------------------

    def _price_vector(self, reports: tuple, unsold: tuple) -> dict:
        """Opportunity-cost prices, looked up per game by (reports,
        unsold) and solved once per memo for each (reported valuations,
        unsold) market."""
        key = (reports, unsold)
        prices = self._prices.get(key)
        if prices is None:
            reported = [self.domains[b][msg] for b, msg in reports]
            market = ("prices", tuple(sorted(map(id, reported))), unsold)
            prices = self._prices[key] = _memoized(
                self._memo, market, reported, lambda: self._solve_prices(reported, unsold)
            )
        return prices

    def _solve_prices(self, reported: list, unsold: tuple) -> dict:
        if not reported or not unsold:
            return {j: ZERO for j in unsold}
        inst = Instance(self.setting, tuple(reported))
        base = opt_value_restricted(inst, items=unsold)
        prices = {}
        for j in unsold:
            rest = tuple(x for x in unsold if x != j)
            prices[j] = base - opt_value_restricted(inst, items=rest)
        return prices

    def _canonical_assigns(
        self, reports: tuple, unsold: tuple, bidder: int, valuation, item: str
    ) -> bool:
        """Does the canonical optimum give ``item`` to ``bidder``?

        The canonical instance contains the observed bidders plus this
        one, ordered by original index (the global tie-break order).
        """
        entries = [(b, self.domains[b][msg]) for b, msg in reports]
        entries.append((bidder, valuation))
        entries.sort(key=lambda e: e[0])
        valuations = tuple(v for _, v in entries)
        bundles = _memoized(
            self._memo,
            ("optimum", tuple(map(id, valuations)), unsold),
            valuations,
            lambda: opt_restricted(Instance(self.setting, valuations), items=unsold)
            .witness.bundles,
        )
        position = [b for b, _ in entries].index(bidder)
        return item in bundles[position]

    def _reporting(self, state) -> bool:
        return state.reporting

    def _menu(self, state: ArrivalState) -> list:
        return _single_item_menu(state.unsold)

    def root_state(self):
        return ArrivalState(0, 0 < self.cut, (), (), (), self.items)

    def child(self, state, message: int):
        if state.reporting:
            pos = state.pos + 1
            return ArrivalState(
                pos,
                pos < self.cut,
                state.reports + ((self.bidder(state), message),),
                state.taken,
                state.payments,
                state.unsold,
            )
        bundle = self._menu(state)[message]
        if bundle:
            prices = self._price_vector(state.reports, state.unsold)
            paid = sum((prices[j] for j in bundle), ZERO)
        else:
            paid = ZERO
        # the last arrival's report is inconsequential: skip it
        last = state.pos == self.n - 1
        return ArrivalState(
            self.n if last else state.pos,
            True,
            state.reports,
            state.taken + (bundle,),
            state.payments + (paid,),
            tuple(j for j in state.unsold if j not in bundle),
        )

    def _serve_labels(self, state) -> tuple:
        return ("none",) + state.unsold

    def _serve_choice(self, state, valuation: Valuation) -> int:
        prices = self._price_vector(state.reports, state.unsold)
        item, surplus = _best_item(valuation, state.unsold, prices)
        if surplus is None or surplus < 0:
            return 0
        if surplus > 0 or self._canonical_assigns(
            state.reports, state.unsold, self.bidder(state), valuation, item
        ):
            return self._menu(state).index(frozenset({item}))
        return 0


def _mech3_fast_outcome(instance: Instance, rows: list, order: tuple) -> Outcome:
    """Constant-row shortcut for one arrival order, integer arithmetic.

    ``rows`` is ``_constant_integer_rows(instance, UnitDemandValuation)``.
    When every unit-demand bidder values all items equally, prices are
    uniform across items (top-t minus top-(t-1) sums of observed
    values, t capped at availability), so a buying arrival just takes
    the earliest unsold item.
    """
    n = instance.n
    cut = arrivals_discarded(n)
    observed: list = []  # ascending; top values live at the tail

    bundles = [frozenset()] * n
    payments = [ZERO] * n
    unsold = list(instance.items)
    for pos, bidder in enumerate(order):
        value = rows[bidder]
        if pos >= cut and unsold:
            a = len(unsold)
            t = min(len(observed), a)
            t2 = min(len(observed), a - 1)
            price = sum(observed[len(observed) - t :]) - sum(
                observed[len(observed) - t2 :]
            )
            surplus = value - price
            take = False
            if surplus > 0:
                take = True
            elif surplus == 0:
                # canonical optimum over observed + this bidder: the
                # matched set is the top-a of (value desc, index asc);
                # she gets the earliest unsold item exactly when she
                # is the smallest-index matched bidder
                pool = sorted(
                    [(rows[b], b) for b in order[:pos]] + [(value, bidder)],
                    key=lambda e: (-e[0], e[1]),
                )
                matched = min(b for _, b in pool[:a])
                take = matched == bidder
            if take:
                item = unsold.pop(0)
                bundles[bidder] = frozenset({item})
                payments[bidder] = Fraction(price)
        if pos < n - 1:
            bisect.insort(observed, value)
    return Outcome(Allocation(tuple(bundles)), tuple(payments))


def mech3_unit_demand(n: int, items: Sequence[str]) -> RandomizedMechanism:
    """Uniform arrival order, observe floor(n/e), then price-and-serve.

    Sampling draws one uniform permutation (descending Fisher-Yates).
    The exact support has n! branches and is only enumerable for small
    n; Monte Carlo covers the rest.
    """
    setting = CombinatorialSetting(tuple(items))
    count = math.factorial(n)
    prob = Fraction(1, count)
    # one memo for every branch: markets, canonical optima and each
    # instance's constant rows are resolved once per mechanism
    memo: dict = {}

    def shortcut(instance: Instance, order: tuple) -> Optional[Outcome]:
        # the game prices items by the optimum of the reported
        # valuations; the closed form is that optimum for unit-demand
        # rows only, so additive rows are played through the game
        rows = _memoized(
            memo,
            ("rows", id(instance)),
            instance,
            lambda: _constant_integer_rows(instance, UnitDemandValuation),
        )
        return None if rows is None else _mech3_fast_outcome(instance, rows, order)

    def element(order: tuple) -> SupportElement:
        return SupportElement(
            "arrival-order=" + ",".join(map(str, order)),
            prob,
            lambda domains: ArrivalPricingGame(order, setting.items, domains, memo),
            lambda instance: shortcut(instance, order),
        )

    def branches_fn() -> list:
        return [element(order) for order in permutations(range(n))]

    def sample_fn(rng: CounterRng) -> SupportElement:
        return element(tuple(rng.shuffled(range(n))))

    return RandomizedMechanism(
        "mech3-unit-demand", setting, n, count, branches_fn, sample_fn
    )


# ---------------------------------------------------------------------------
# registry


def mechanism_for_instance(name: str, instance: Instance) -> RandomizedMechanism:
    """Build the named mechanism shaped to the given instance."""
    n = instance.n
    multi = instance.multiunit
    if name == "grand-bundle":
        return grand_bundle_auction(n, instance.setting)
    if name == "random-bundles":
        if not multi:
            raise ValueError("random-bundles needs a multi-unit instance")
        return random_bundles(n, instance.m)
    if name in ("mech1-single-minded", "mech1-decreasing-marginals"):
        if not multi:
            raise ValueError("mech1 needs a multi-unit instance")
        return _partition_sale_mechanism(name, n, instance.m)
    if name == "mech2-additive":
        if multi:
            raise ValueError("mech2 needs a combinatorial instance")
        return mech2_additive(n, instance.items)
    if name == "mech3-unit-demand":
        if multi:
            raise ValueError("mech3 needs a combinatorial instance")
        return mech3_unit_demand(n, instance.items)
    if name == "naive-max-price":
        if multi:
            raise ValueError("naive-max-price needs a combinatorial instance")
        return naive_max_price_ud(n, instance.items)
    if name == "m1-2x2":
        if not multi or instance.m != 2 or n != 2:
            raise ValueError("m1-2x2 is bound to 2 bidders and 2 units")
        return m1_2x2()
    if name == "m2-2x2":
        if multi or n != 2 or len(instance.items) != 2:
            raise ValueError("m2-2x2 is bound to 2 bidders and 2 items")
        return m2_2x2(instance.items)
    if name == "m3-2x2":
        if multi or n != 2 or len(instance.items) != 2:
            raise ValueError("m3-2x2 is bound to 2 bidders and 2 items")
        return m3_2x2(items=instance.items)
    if name == "three-item-dm":
        if not multi or instance.m != 3 or n != 2:
            raise ValueError("three-item-dm is bound to 2 bidders and 3 units")
        return three_item_dm_mechanism()
    raise ValueError(f"unknown mechanism {name!r}")


MECHANISM_NAMES = (
    "grand-bundle",
    "random-bundles",
    "mech1-single-minded",
    "mech1-decreasing-marginals",
    "mech2-additive",
    "mech3-unit-demand",
    "naive-max-price",
    "m1-2x2",
    "m2-2x2",
    "m3-2x2",
    "three-item-dm",
)
