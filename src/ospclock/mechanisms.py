"""Randomized auction mechanisms as explicit protocol distributions.

Every mechanism here is "universally" obviously strategy-proof: a
probability distribution over deterministic protocols, each of which
is OSP on its own.  A :class:`RandomizedMechanism` therefore exposes

* ``branches()`` — the exact support as :class:`SupportElement`s with
  rational probabilities, when the coin space is enumerable;
* ``exact_expected_welfare(instance)`` — exact, by summing the support,
  or by a closed form that lists no branch: the max-price sale
  (``_max_price_exact``; mech2 on additive or constant unit-demand rows,
  naive-max-price on constant rows) conditions on the price-setter
  (``_setter_expectation``), at O(n^2) per column, so it answers at any n;
* ``sample_branch(rng)`` — a seeded draw with a documented coin order,
  for Monte Carlo at scales where enumeration is hopeless (there are
  16! arrival orders);
* per-branch ``outcome(instance)`` — direct truthful simulation,
  ``welfare(instance)`` — its welfare, and ``game(domains)`` — the
  extensive-form game for the verifier.

There is one branch type: a branch is its coins (a clock arm's name, a
split's sample, an arrival order) plus the mechanism's shared builder.
Simulation and verification share each branch's transition code: the
simulated branch is the same game run with singleton report domains,
whose forced reports the protocol layer contracts (see
:class:`~ospclock.protocols.Game`), so the tree and the play-out cannot
disagree.  Every outcome comes from that play; a branch shortcut (mech3
on constant rows) answers the branch's welfare only, and so does a serve
game's script walk (``SampleServeGame.truthful_welfare``), which steps
through the same price rule, serving rules and truthful picks as the
tree but reads no menu label and builds no outcome.

Sampling: grand-bundle, three-item-dm, random-bundles, m1-2x2, m2-2x2
and m3-2x2 use the default sampler, one ``weighted_index`` over their
branches at the common denominator.  mech1, mech2 and naive-max-price
share one fair-coin split (``_coin_split_mechanism``): one coin per
bidder in ascending order, after an arm coin for mech1's grand-bundle
half; each split's script is built from the mechanism's n.  mech3
draws a descending Fisher-Yates shuffle.  These keep explicit samplers
because their supports grow as 2^n and n! and their coin orders are
documented.

The mechanisms: bundle-size clocks for single-minded bidders, the
sample-and-price mechanisms for single-minded/decreasing-marginal,
additive, and unit-demand bidders, a naive max-sampled-price variant
kept as a cautionary baseline, and the small two-bidder/two-item
mixtures used in lower-bound studies.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import permutations
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .protocols import (
    GaaGame,
    GaaSpec,
    Game,
    Outcome,
    materialize,
    run_game,
    truthful_strategies,
)
from .rng import CounterRng
from .valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    PerItemValuation,
    Setting,
    UnitDemandValuation,
    Valuation,
    _check_compatible,
    _scale_to_ints,
    all_bundles,
)
from .welfare import (
    Allocation,
    _cap,
    _opt_items,
    _refusal,
    _solve,
    welfare_of,
)

ZERO = Fraction(0)
ONE = Fraction(1)
Number = Union[int, Fraction]  # an exact welfare


# ---------------------------------------------------------------------------
# randomized-mechanism carrier


class SupportElement:
    """One deterministic branch: its coins plus the mechanism's shared builder.

    ``key`` is the coins that name the branch (a clock arm's name, a
    split's sample, an arrival order); within a mechanism keys and
    labels match one to one.  The functions are shared by all branches
    of a kind: ``build(key, domains)`` makes the game, ``name(key)`` the
    label, formatted only when read, and ``shortcut(instance, key)``, if
    any, may compute the branch's welfare faster, as an exact int or
    Fraction, or return None to decline; it never builds an outcome.

    ``outcome`` always plays the branch game truthfully with singleton
    report domains, so every outcome comes from the verified transition
    code.  ``welfare`` is the one entry for a branch's welfare: the
    shortcut's number when it answers; else it builds the branch game
    once, with singleton report domains, and a serve game walks its
    script to the welfare (``SampleServeGame.truthful_welfare``), while
    any other game, such as a clock, is played by ``run_game`` and its
    outcome valued by ``welfare_of``.
    """

    __slots__ = ("key", "probability", "build", "name", "shortcut")

    def __init__(
        self,
        key,
        probability: Fraction,
        build: Callable[[object, Sequence[Sequence[Valuation]]], Game],
        name: Callable[[object], str],
        shortcut: Optional[Callable[[Instance, object], Optional[Number]]] = None,
    ) -> None:
        self.key = key
        self.probability = probability
        self.build = build
        self.name = name
        self.shortcut = shortcut

    @property
    def label(self) -> str:
        return self.name(self.key)

    def outcome(self, instance: Instance) -> Outcome:
        game = self.game([[v] for v in instance.valuations])
        return run_game(game, instance.valuations)[0]

    def welfare(self, instance: Instance) -> Number:
        if self.shortcut is not None:
            fast = self.shortcut(instance, self.key)
            if fast is not None:
                return fast
        game = self.game([[v] for v in instance.valuations])
        if isinstance(game, SampleServeGame):
            return game.truthful_welfare(instance.valuations)
        return welfare_of(instance, run_game(game, instance.valuations)[0].allocation)

    def game(self, domains: Sequence[Sequence[Valuation]]) -> Game:
        return self.build(self.key, domains)


def _support_cap() -> int:
    return _cap("OSPCLOCK_SUPPORT_CAP", 50_000)


class RandomizedMechanism:
    """A distribution over deterministic branches.

    Without ``sample_fn``, ``sample_branch`` draws one
    ``weighted_index`` over ``branches()`` at their common denominator:
    ``below(k)`` for k equiprobable branches, and no word at all for a
    single branch.  A ``sample_fn`` builds the drawn branch from its
    coins, so a drawn branch is a ``SupportElement`` like any other.
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

    @property
    def enumerable(self) -> bool:
        """Whether ``branches()`` lists the support (OSPCLOCK_SUPPORT_CAP)."""
        return self.branch_count <= _support_cap()

    def branches(self) -> list:
        """The exact support; raises SizeCapError if too large."""
        cap = _support_cap()
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
            _, self._weights = _scale_to_ints(b.probability for b in branches)
        return branches[rng.weighted_index(self._weights)]

    def _check_instance(self, instance: Instance) -> None:
        if instance.setting != self.setting or instance.n != self.n:
            raise ValueError(
                f"{self.name} is bound to n={self.n}, {self.setting}; "
                "got an incompatible instance"
            )

    def exact_expected_welfare(self, instance: Instance) -> Fraction:
        """Exact expected welfare: the closed form ``exact_fast`` when it
        answers, else the probability-weighted sum over the full support."""
        self._check_instance(instance)
        if self._exact_fast is not None:
            fast = self._exact_fast(instance)
            if fast is not None:
                return fast
        total = ZERO
        for branch in self.branches():
            total += branch.probability * branch.welfare(instance)
        return total


def sample_run(mech: RandomizedMechanism, instance: Instance, seed: int) -> Outcome:
    """Seeded draw of one branch, played truthfully on the instance."""
    mech._check_instance(instance)
    branch = mech.sample_branch(CounterRng(seed))
    return branch.outcome(instance)


# ---------------------------------------------------------------------------
# clock-auction branches


def _clock_branches(setting: Setting, arms: list) -> list:
    """Clock-auction branches from ``(name, probability, base, potential)`` arms.

    A branch's key is its arm's name, which is also its label.  Each
    arm's ``GaaSpec`` is checked once, here; a branch game runs it on
    the grid its domains need.  An arm of probability zero is dropped.
    """
    specs = {name: GaaSpec(setting, base, potential) for name, _, base, potential in arms}

    def build(name: str, domains: Sequence[Sequence[Valuation]]) -> Game:
        spec = specs[name]
        return GaaGame(spec, spec.grid_for(domains))

    return [SupportElement(name, p, build, str) for name, p, _, _ in arms if p > 0]


def _clock_mechanism(name: str, setting: Setting, n: int, arms: list) -> RandomizedMechanism:
    branches = _clock_branches(setting, arms)
    return RandomizedMechanism(name, setting, n, len(branches), lambda: branches)


def _grand_arm(setting: Setting, n: int, p: Fraction) -> tuple:
    """The grand-bundle clock: everyone clocks for the whole supply."""
    if isinstance(setting, MultiUnitSetting):
        return "grand-bundle", p, (0,) * n, (setting.m,) * n
    return "grand-bundle", p, (frozenset(),) * n, (frozenset(setting.items),) * n


def _grand_mixture(
    name: str, setting: Setting, p, others: Callable[[Fraction], list]
) -> RandomizedMechanism:
    """Two bidders: the grand-bundle clock with probability ``p``.

    The rest of the mass goes to the arms ``others(1 - p)``; a branch
    of probability zero is dropped.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("probability out of range")
    return _clock_mechanism(name, setting, 2, [_grand_arm(setting, 2, p)] + others(ONE - p))


def grand_bundle_auction(n: int, setting: Setting) -> RandomizedMechanism:
    """Degenerate mechanism: always the grand-bundle ascending auction."""
    return _clock_mechanism("grand-bundle", setting, n, [_grand_arm(setting, n, ONE)])


def random_bundles(n: int, m: int) -> RandomizedMechanism:
    """Uniformly random bundle size, then a clock for that bundle.

    Bundle sizes are the powers of two below ``m`` plus ``m`` itself,
    preserving the usual ceil(log2 m) + 1 bucket count when ``m`` is
    not a power of two.  At size L the default feasibility rule lets at
    most floor(m / L) bidders win L units each.
    """
    sizes = sorted({2 ** j for j in range(max(0, (m - 1).bit_length()))} | {m})
    prob = Fraction(1, len(sizes))
    arms = [(f"bundle-size={size}", prob, (0,) * n, (size,) * n) for size in sizes]
    return _clock_mechanism("random-bundles", MultiUnitSetting(m), n, arms)


def m1_2x2(p: Fraction = Fraction(1, 2)) -> RandomizedMechanism:
    """Two bidders, two units: grand auction or one fixed single award.

    With probability ``p`` the grand-bundle clock runs; otherwise a
    uniformly chosen bidder is handed one unit outright and the two
    compete in a clock where the fixed bidder's upgrade is the second
    unit.
    """

    def fixed_awards(rest: Fraction) -> list:
        return [
            ("fixed-award-0", rest / 2, (1, 0), (2, 1)),
            ("fixed-award-1", rest / 2, (0, 1), (1, 2)),
        ]

    return _grand_mixture("m1-2x2", MultiUnitSetting(2), p, fixed_awards)


def _fixed_award_arms(items: tuple, probability: Fraction) -> list:
    """The four (bidder, item) fixed-award clock arms for 2 items."""
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
        out.append((f"fixed-award-{bidder}-{award}", probability, base, potential))
    return out


def m2_2x2(items: tuple = ("a", "b")) -> RandomizedMechanism:
    """Uniform fixed award of one item, clock for the remaining item.

    Four equiprobable branches (bidder x item); the awarded bidder's
    clock upgrade is the second item, the other bidder clocks for the
    free item.
    """
    setting = CombinatorialSetting(tuple(items))
    arms = _fixed_award_arms(setting.items, Fraction(1, 4))
    return _clock_mechanism("m2-2x2", setting, 2, arms)


def m3_2x2(p: Fraction = Fraction(1, 3), items: tuple = ("a", "b")) -> RandomizedMechanism:
    """Grand-bundle clock with probability ``p``, else a random fixed award."""
    setting = CombinatorialSetting(tuple(items))
    return _grand_mixture(
        "m3-2x2", setting, p, lambda rest: _fixed_award_arms(setting.items, rest / 4)
    )


DEFAULT_THREE_ITEM_GRID = (ONE, Fraction(2), Fraction(3), Fraction(4), Fraction(5))

# three units, one guaranteed to each of two bidders, a clock for the
# third: the setting and the one arm of the fixed-pair clock
_FIXED_PAIR_CLOCK = (MultiUnitSetting(3), ("fixed-pair-clock", ONE, (1, 1), (2, 2)))


def three_item_dm(grid: tuple = DEFAULT_THREE_ITEM_GRID):
    """Two bidders, three units: one unit each, clock for the third.

    Deterministic (a single protocol): each bidder starts with one
    guaranteed unit and the clock sells the upgrade to two units; ties
    go to bidder 1 as everywhere else.  The default grid covers
    marginal values 0..4.  Returns (protocol, strategies).
    """
    setting, (_, _, base, potential) = _FIXED_PAIR_CLOCK
    game = GaaGame(GaaSpec(setting, base, potential), grid)
    protocol = materialize(game)
    return protocol, truthful_strategies(game, protocol)


def three_item_dm_mechanism() -> RandomizedMechanism:
    setting, arm = _FIXED_PAIR_CLOCK
    return _clock_mechanism("three-item-dm", setting, 2, [arm])


# ---------------------------------------------------------------------------
# sample-then-serve games


class ServeState(NamedTuple):
    step: int  # index into the script; len(script) is terminal
    reports: tuple  # (bidder, message) pairs, in script order
    taken: tuple  # bundles, aligned with the serve steps
    payments: tuple  # aligned with taken
    left: object  # the unsold supply: a unit count or an item tuple
    price: object  # None on a report step, else the serve step's price


class SampleServeGame(Game):
    """A script of steps: some bidders report, the rest are served.

    ``script`` is a tuple of ``(bidder, serves)`` steps played in order.
    A report step (``serves`` false) has the bidder name the index of a
    valuation in the bidder's declared domain (``report:k``); a serve
    step has the bidder pick from the subclass's menu.  A fair-coin
    split reports its sample in ascending order, then serves the rest of
    the mechanism's n bidders (``_split_script``, built by
    ``_coin_split_mechanism``); mech3 reports its first floor(n/e)
    arrivals, then serves and hears each later arrival in turn
    (``_arrival_script``).

    Prices come from one rule (``_step_price``): a serve step that opens
    the script or follows a report is priced by ``_price(reports,
    left)``, the reports so far and the unsold supply; a serve step that
    follows a serve keeps its price.  ``state.price`` is None exactly on
    report steps.
    ``_serve_labels`` and ``_serve_choices`` give a served bidder's menu
    and the truthful pick of each valuation in a batch,
    ``_serve(state, message)`` maps a pick to (bundle, payment, supply
    left), and ``outcome`` gives each served bidder that bundle at that
    payment, and everyone else the empty bundle for nothing.  Outcomes
    are interned per game: leaves with the same bundles and the same
    payment objects (keyed by the bundles and each payment's ``id``)
    share one ``Outcome``, and the memo entry holds those payments, so
    no id in a live key is reused.  A tree then holds one leaf object
    per distinct outcome wherever equal payments are one object, which
    the protocol and ``verify_osp`` read once per object.  Forced
    moves (a singleton domain, an empty menu) are single-message states,
    contracted by the protocol layer.

    ``truthful_welfare`` walks the same steps for one truthful play:
    ``child``'s price rule, serving rules and truthful picks, with no
    state carried between steps, no menu labels and no outcome.

    Prices are computed from reported valuations directly, without
    ``Instance``'s checks, so the game checks its domains when it is
    built: one per bidder of the script, else a ``ValueError`` naming
    both counts, and each against the setting, a foreign valuation
    refused with its bidder named.  This is the one bidder-count check
    of every serve game: a script names every bidder of its mechanism.
    """

    def __init__(
        self,
        script: Sequence[tuple],
        setting: Setting,
        domains: Sequence[Sequence[Valuation]],
    ) -> None:
        self._bidders = tuple(b for b, _ in script)
        bidders = len(set(self._bidders))
        if len(domains) != bidders:
            raise ValueError(
                f"the script has {bidders} bidders but {len(domains)} domains were given"
            )
        for i, domain in enumerate(domains):
            for v in domain:
                _check_compatible(setting, i, v)
        self.n = len(domains)
        self.setting = setting
        self.domains = domains
        self._supply = setting.m if isinstance(setting, MultiUnitSetting) else setting.items
        # one flag per step, and a report-like sentinel for the leaf
        self._serves = tuple(s for _, s in script) + (False,)
        self._served = tuple(b for b, s in script if s)
        self._end = len(script)
        # bidder -> {id of a domain entry: index of its first equal entry}
        self._report_at: dict = {}
        # bidder -> her report step's labels, one per domain entry
        self._report_labels: dict = {}
        # (taken, ids of payments) -> (payments, their shared Outcome)
        self._outcomes: dict = {}

    def _price(self, reports: tuple, left):
        raise NotImplementedError

    def _serve(self, state: ServeState, message: int) -> tuple:
        raise NotImplementedError

    def _serve_labels(self, state: ServeState) -> tuple:
        raise NotImplementedError

    def _serve_choices(self, state: ServeState, valuations: Sequence[Valuation]) -> list:
        raise NotImplementedError

    def _reports(self, bidder: int, valuations: Sequence[Valuation]) -> list:
        """The truthful report of each valuation: the index of its first
        equal entry in the bidder's domain.

        Entries are found by identity through an index built once per
        bidder, which records each entry's first equal index; any other
        valuation falls back to the domain's ``index``.
        """
        domain = self.domains[bidder]
        at = self._report_at.get(bidder)
        if at is None:
            at = self._report_at[bidder] = {id(v): domain.index(v) for v in domain}
        out = []
        for v in valuations:
            k = at.get(id(v))
            if k is None:
                try:
                    k = domain.index(v)
                except ValueError:
                    raise ValueError(
                        f"bidder {bidder}'s valuation is outside the declared domain"
                    ) from None
            out.append(k)
        return out

    def _step_price(self, step: int, reports: tuple, left, price):
        """The price of script step ``step``, given the step before it
        had ``price`` (None before the first step): None on a report
        step; on a serve step, ``price`` if the step before served, else
        ``_price(reports, left)``."""
        if not self._serves[step]:
            return None
        if price is None:
            return self._price(reports, left)
        return price

    def root_state(self) -> ServeState:
        supply = self._supply
        return ServeState(0, (), (), (), supply, self._step_price(0, (), supply, None))

    def child(self, state: ServeState, message: int) -> ServeState:
        step = state.step + 1
        if state.price is None:
            reports = state.reports + ((self._bidders[state.step], message),)
            taken, payments, left = state.taken, state.payments, state.left
        else:
            bundle, paid, left = self._serve(state, message)
            reports = state.reports
            taken = state.taken + (bundle,)
            payments = state.payments + (paid,)
        price = self._step_price(step, reports, left, state.price)
        return ServeState(step, reports, taken, payments, left, price)

    def truthful_welfare(self, valuations: Sequence[Valuation]) -> Fraction:
        """The welfare of the truthful play on ``valuations``, one per
        bidder, each in its bidder's domain.

        The script is walked on local variables, with ``child``'s rules:
        a report step appends the bidder's ``_reports``; a serve step asks
        ``_serve_choices`` for a batch of one and ``_serve`` for the
        bundle and the unsold supply, and adds the bundle's value; each
        step is priced by ``_step_price``.  A forced move is asked too,
        and its one truthful message is the 0 that the tree follows.  The
        serving rules read a state's step, reports, unsold supply and
        price, so the state they are handed leaves what was taken empty.
        The sum skips empty bundles and starts from ``ZERO``, as
        ``welfare_of`` does, so it is the same Fraction.
        """
        reports: tuple = ()
        left = self._supply
        price = self._step_price(0, reports, left, None)
        total = ZERO
        for step, bidder in enumerate(self._bidders):
            v = valuations[bidder]
            if price is None:
                reports += ((bidder, self._reports(bidder, (v,))[0]),)
            else:
                state = ServeState(step, reports, (), (), left, price)
                (message,) = self._serve_choices(state, (v,))
                bundle, _, left = self._serve(state, message)
                if bundle:
                    total += v.value(bundle)
            price = self._step_price(step + 1, reports, left, price)
        return total

    def is_leaf(self, state: ServeState) -> bool:
        return state.step == self._end

    def outcome(self, state: ServeState) -> Outcome:
        key = (state.taken, tuple(map(id, state.payments)))
        return _memoized(self._outcomes, key, state.payments, lambda: self._new_outcome(state))

    def _new_outcome(self, state: ServeState) -> Outcome:
        empty = 0 if isinstance(self.setting, MultiUnitSetting) else frozenset()
        bundles = [empty] * self.n
        payments = [ZERO] * self.n
        for bidder, bundle, paid in zip(self._served, state.taken, state.payments):
            bundles[bidder] = bundle
            payments[bidder] = paid
        return Outcome(Allocation(tuple(bundles)), tuple(payments))

    def bidder(self, state: ServeState) -> int:
        return self._bidders[state.step]

    def messages(self, state: ServeState) -> tuple:
        if state.price is not None:
            return self._serve_labels(state)
        bidder = self._bidders[state.step]
        labels = self._report_labels.get(bidder)
        if labels is None:
            domain = self.domains[bidder]
            labels = self._report_labels[bidder] = tuple(
                f"report:{k}" for k in range(len(domain))
            )
        return labels

    def truthful_messages(self, state: ServeState, valuations: Sequence[Valuation]) -> list:
        if state.price is not None:
            return self._serve_choices(state, valuations)
        return self._reports(self._bidders[state.step], valuations)


def _split_script(sample: Sequence[int], n: int) -> tuple:
    """The sample reports in ascending order, then the rest are served."""
    reports = tuple((b, False) for b in sorted(sample))
    return reports + tuple((b, True) for b in range(n) if b not in sample)


def _sample_label(sample: tuple) -> str:
    return "sample=" + (",".join(map(str, sample)) if sample else "-")


def _coin_split_mechanism(
    name: str,
    setting: Setting,
    n: int,
    build: Callable[[tuple, Sequence[Sequence[Valuation]]], Game],
    grand_arm: bool,
    exact_fast: Optional[Callable[[Instance], Optional[Fraction]]] = None,
) -> RandomizedMechanism:
    """Fair coins split the bidders into a sample and the served rest.

    ``build(script, domains)`` builds the game of one split, whose
    script is ``_split_script(sample, n)`` for the mechanism's n, so
    the game refuses domains for any other count.  Each
    bidder flips one coin, in ascending index order, and 0 sends the
    bidder into the sample; the n coins are one ``coin_mask(n)``.  With
    ``grand_arm`` an arm coin comes first: 0 runs the grand-bundle
    clock, 1 the split.  The support is the grand-bundle branch (if
    any), then the 2^n samples by bitmask.
    """
    head = []
    if grand_arm:
        head = _clock_branches(setting, [_grand_arm(setting, n, Fraction(1, 2))])
    prob = Fraction(1, 2 ** (n + len(head)))

    def split_game(sample: tuple, domains: Sequence[Sequence[Valuation]]) -> Game:
        return build(_split_script(sample, n), domains)

    def element(mask: int) -> SupportElement:
        sample = tuple(i for i in range(n) if mask >> i & 1)
        return SupportElement(sample, prob, split_game, _sample_label)

    def branches_fn() -> list:
        return head + [element(mask) for mask in range(2 ** n)]

    def sample_fn(rng: CounterRng) -> SupportElement:
        if head and rng.below(2) == 0:
            return head[0]
        return element(rng.coin_mask(n))

    return RandomizedMechanism(
        name, setting, n, len(head) + 2 ** n, branches_fn, sample_fn, exact_fast
    )


class ItemSaleGame(SampleServeGame):
    """A sample-then-serve game that sells items at per-item prices.

    ``state.price`` maps each unsold item to its price.  A served
    bidder picks from a menu of unsold bundles: with ``bundles`` every
    subset, smallest first, labelled by its items joined with ``+``;
    otherwise nothing, then each unsold item alone, labelled by its
    name.  The empty bundle is labelled ``none`` and free; a single
    item costs its price object itself, and a larger bundle the sum of
    its items' prices.
    """

    bundles = False

    def _menu(self, state: ServeState) -> list:
        if self.bundles:
            return all_bundles(state.left)
        return [frozenset()] + [frozenset({j}) for j in state.left]

    def _serve_labels(self, state: ServeState) -> tuple:
        if self.bundles:
            return tuple("+".join(sorted(b)) if b else "none" for b in self._menu(state))
        return ("none",) + state.left

    def _serve(self, state: ServeState, message: int) -> tuple:
        if self.bundles:
            bundle = self._menu(state)[message]
        elif message:
            bundle = frozenset((state.left[message - 1],))
        else:
            bundle = frozenset()
        if len(bundle) == 1:
            (item,) = bundle
            paid = state.price[item]
        else:
            paid = sum((state.price[j] for j in bundle), ZERO)
        return bundle, paid, tuple(j for j in state.left if j not in bundle)


def _best_item(valuation: Valuation, unsold: tuple, prices: dict) -> tuple:
    """The unsold item of highest surplus, earliest on ties, and its surplus.

    A per-item valuation's single-item values are its ``per_item``
    table; any other valuation is asked ``value({j})``.  Returns
    (None, None) when nothing is unsold.
    """
    if isinstance(valuation, PerItemValuation):
        single = valuation.per_item
    else:
        single = {j: valuation.value({j}) for j in unsold}
    best_item = None
    best_u = None
    for j in unsold:
        u = single[j] - prices[j]
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


class PartitionSaleGame(SampleServeGame):
    """Discard-and-learn sale for one fair-coin partition.

    The optimum welfare O of the sample alone prices every unit at
    O / (10 m), and the remaining bidders buy their preferred
    quantities while supply lasts.
    """

    def _price(self, reports: tuple, left: int) -> Fraction:
        reported = tuple(self.domains[b][k] for b, k in reports)
        return _solve(self.setting, reported)[0] / (10 * self.setting.m)

    def _serve(self, state: ServeState, message: int) -> tuple:
        return message, state.price * message, state.left - message

    def _serve_labels(self, state: ServeState) -> tuple:
        return tuple(f"take:{q}" for q in range(state.left + 1))

    def _serve_choices(self, state: ServeState, valuations: Sequence[Valuation]) -> list:
        return [preferred_quantity(v, state.left, state.price) for v in valuations]


def _partition_sale_mechanism(name: str, n: int, m: int) -> RandomizedMechanism:
    setting = MultiUnitSetting(m)

    def build(script: tuple, domains: Sequence[Sequence[Valuation]]) -> Game:
        return PartitionSaleGame(script, setting, domains)

    return _coin_split_mechanism(name, setting, n, build, grand_arm=True)


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


class MaxPricePartitionGame(ItemSaleGame):
    """Per-item prices set to the sampled bidders' maxima.

    Item j is priced at the highest sampled value; its price-setter is
    the first sampled bidder to report that value (-1 for an empty
    sample, which prices every item at 0).  The remaining bidders then
    shop: with ``bundles`` each takes every unsold item whose price they
    beat (or meet, when their index precedes the price-setter's);
    without, each takes at most one item by the same test, preferring
    higher surplus then earlier items.
    """

    def __init__(
        self,
        script: Sequence[tuple],
        setting: CombinatorialSetting,
        domains: Sequence[Sequence[Valuation]],
        bundles: bool,
    ) -> None:
        self.bundles = bundles
        super().__init__(script, setting, domains)

    def _price(self, reports: tuple, left: tuple) -> dict:
        reported = [self.domains[b][k] for b, k in reports]
        return {
            j: max((v.value({j}) for v in reported), default=ZERO)
            for j in self.setting.items
        }

    def _wants(self, state: ServeState, valuation: Valuation, item: str) -> bool:
        value = valuation.value({item})
        price = state.price[item]
        if value != price:
            return value > price
        # an exact tie goes to her only if she precedes the price-setter
        setter = next(
            (b for b, k in state.reports if self.domains[b][k].value({item}) == price), -1
        )
        return self.bidder(state) < setter

    def _serve_choices(self, state: ServeState, valuations: Sequence[Valuation]) -> list:
        left = state.left
        if self.bundles:
            menu = self._menu(state)
            return [
                menu.index(frozenset(j for j in left if self._wants(state, v, j)))
                for v in valuations
            ]
        out = []
        for v in valuations:
            item, surplus = _best_item(v, left, state.price)
            wants = surplus is not None and surplus >= 0 and self._wants(state, v, item)
            out.append(1 + left.index(item) if wants else 0)
        return out


def _setter_expectation(column: Sequence[Number], k: int) -> Number:
    """2^n times the expected sum of the values of the first ``k``
    bidders, in index order, who want one item priced by a fair-coin
    sample's maximum; ``column`` holds each bidder's value for it.

    Conditioning on the price-setter makes every term closed.  The empty
    sample (weight 1) prices the item at 0 and leaves no setter, so the
    wanters are the bidders of positive value.  Otherwise the setter s is
    the first sampled bidder of the highest sampled value: s is sampled
    and every bidder of F_s = {i : c_i > c_s, or c_i = c_s and i < s} is
    served, with the other n - 1 - |F_s| coins free.  The wanters are
    then exactly F_s, since a served bidder wants the item when she
    beats the price, or meets it and precedes s; a zero-valued member
    takes a unit at price 0.  F_s is the set of bidders before s in
    (value desc, index asc) order, so one pass over that order, adding
    one bidder at a time, gives every setter's term, summed by Horner's
    rule over the weights 2^(n-1-|F_s|).
    """
    total = 0
    forced: list = []  # F_s in ascending index order
    for s in sorted(range(len(column)), key=lambda i: (-column[i], i)):
        total = 2 * total + sum(column[i] for i in forced[:k])
        bisect.insort(forced, s)
    return total + sum([c for c in column if c > 0][:k])


def _constant_rows(instance: Instance, kind: type) -> Optional[list]:
    """Each bidder's constant, if every bidder is a ``kind`` valuation
    that values all items equally, else None."""
    rows = [v.constant if isinstance(v, kind) else None for v in instance.valuations]
    return None if None in rows else rows


def _max_price_exact(instance: Instance, bundles: bool) -> Optional[Fraction]:
    """The max-price sale's expected welfare in closed form, or None.

    With ``bundles`` (mech2) each item's first wanter in serving order
    takes it.  On additive rows an item's wanters and its welfare depend
    on its column only, so the expectation is one setter term per item.
    On constant unit-demand rows every item has the same price and
    setter, so the first wanter takes the whole unsold supply and is
    worth her constant.  Without ``bundles`` (naive max-price) each
    buyer takes one interchangeable item while supply lasts, so on
    constant rows the welfare is the first m wanters' values; additive
    and unit-demand rows value a single item alike, so both qualify.
    """
    vals = instance.valuations
    if bundles and all(isinstance(v, AdditiveValuation) for v in vals):
        total = sum(
            _setter_expectation([v.per_item[j] for v in vals], 1) for j in instance.items
        )
    else:
        rows = _constant_rows(instance, UnitDemandValuation if bundles else PerItemValuation)
        if rows is None:
            return None
        total = _setter_expectation(rows, 1 if bundles else instance.m)
    return Fraction(total, 1 << instance.n)


def _max_price_mechanism(
    name: str, n: int, items: Sequence[str], bundles: bool
) -> RandomizedMechanism:
    setting = CombinatorialSetting(tuple(items))

    def build(script: tuple, domains: Sequence[Sequence[Valuation]]) -> Game:
        return MaxPricePartitionGame(script, setting, domains, bundles)

    def exact_fast(instance: Instance) -> Optional[Fraction]:
        return _max_price_exact(instance, bundles)

    return _coin_split_mechanism(
        name, setting, n, build, grand_arm=False, exact_fast=exact_fast
    )


def mech2_additive(n: int, items: Sequence[str]) -> RandomizedMechanism:
    """Fair-coin sample, max-sampled-value item prices, bundle shopping.

    The intended bidders are additive, for whom per-item shopping is
    exactly preferred-bundle shopping.  On additive or constant
    unit-demand rows the expectation is ``_max_price_exact``'s closed
    form.
    """
    return _max_price_mechanism("mech2-additive", n, items, True)


def naive_max_price_ud(n: int, items: Sequence[str]) -> RandomizedMechanism:
    """The same sampled max pricing applied to unit-demand bidders.

    Kept as a baseline to show why unit-demand needs opportunity-cost
    prices: on crowded instances the max-sampled price lets only a
    vanishing fraction of bidders buy.
    """
    return _max_price_mechanism("naive-max-price", n, items, False)


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


def _arrival_script(order: Sequence[int]) -> tuple:
    """The first floor(n/e) arrivals report; each later one is served,
    then reports.  The last arrival's report is dropped: nobody is left
    to price against it."""
    cut = arrivals_discarded(len(order))
    script = [(b, False) for b in order[:cut]]
    for b in order[cut:]:
        script += [(b, True), (b, False)]
    return tuple(script[:-1])


class ArrivalPricingGame(ItemSaleGame):
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
    unsold items, so they are keyed by the sorted valuation ids.  Every
    solve goes through the witness memo (``_witness``), once per (ids of
    the bidders in index order, items): pricing U asks for W(U) and each
    W(U minus j), where W(X) is the optimum and canonical witness of S,
    the observed bidders in index order, on X.  A served valuation's
    best item depends only on it and the market's price dict, so it is
    keyed by both ids.  Each entry holds the objects it is keyed by, so
    no id is reused while the entry lives.  Price values are interned
    through the same memo, keyed by value, so equal prices of every
    market are one object, and a served bidder's payment for one item is
    that object: the game's interned outcomes are then one per distinct
    outcome value.

    A zero-surplus tie in an all-unit-demand market is read off those
    witnesses, with no solve that includes her (``_tie_answers``); any
    other market solves S plus her.
    """

    def __init__(
        self,
        order: Sequence[int],
        setting: CombinatorialSetting,
        domains: Sequence[Sequence[Valuation]],
        memo: Optional[dict] = None,
    ) -> None:
        super().__init__(_arrival_script(order), setting, domains)
        self._memo = {} if memo is None else memo

    def _price(self, reports: tuple, left: tuple) -> dict:
        """Opportunity-cost prices, solved once per memo for each
        (reported valuations, unsold) market."""
        reported = [self.domains[b][k] for b, k in reports]
        market = ("prices", tuple(sorted(map(id, reported))), left)
        return _memoized(
            self._memo, market, reported, lambda: self._solve_prices(reports, left)
        )

    def _solve_prices(self, reports: tuple, unsold: tuple) -> dict:
        observed = tuple(self.domains[b][k] for b, k in sorted(reports))
        base = self._witness(observed, unsold)[0]
        prices = {}
        for j in unsold:
            rest = tuple(x for x in unsold if x != j)
            price = base - self._witness(observed, rest)[0]
            # one object per price value; the entry holds nothing by id
            prices[j] = self._memo.setdefault(("price", price), ((), price))[1]
        return prices

    def _witness(self, valuations: tuple, items: tuple) -> tuple:
        """``_opt_items(valuations, items)``, the bidders in index order:
        the optimum and each bundle of its canonical witness, solved
        once per memo."""
        return _memoized(
            self._memo,
            ("witness", tuple(map(id, valuations)), items),
            valuations,
            lambda: _opt_items(valuations, items),
        )

    def _tie_answers(self, state: ServeState, ties: list) -> list:
        """For each ``(valuation, item, zero)`` tie at this serve state:
        does the canonical optimum over S (the observed bidders, in index
        order) plus the served bidder give her ``item``, her earliest
        zero-surplus item?  ``zero`` is her zero-surplus items if she is
        unit-demand, else None.  If S and she are all unit-demand, the
        answer is read off S's witnesses (``_earliest_wins``) and kept
        per (S, her slot, unsold items, ``zero``); any other market
        solves S plus her.
        """
        bidder = self.bidder(state)
        reported = sorted(state.reports)  # one report per bidder
        slot = bisect.bisect(reported, (bidder,))
        observed = tuple(self.domains[b][k] for b, k in reported)
        left, memo = state.left, self._memo
        unit_demand = all(isinstance(v, UnitDemandValuation) for v in observed)
        answers = []
        for valuation, item, zero in ties:
            if zero is None or not unit_demand:
                market = observed[:slot] + (valuation,) + observed[slot:]
                answers.append(item in self._witness(market, left)[1][slot])
            elif not slot:
                answers.append(True)
            else:
                key = ("tie", tuple(map(id, observed)), slot, left, zero)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = (observed, self._earliest_wins(observed, slot, left, zero))
                answers.append(hit[1])
        return answers

    def _earliest_wins(self, observed: tuple, slot: int, unsold: tuple, zero: tuple) -> bool:
        """Does the canonical optimum over the unit-demand S (``observed``)
        plus her, at ``slot``, give her the first of her zero-surplus
        items Z (``zero``, earliest first) on the unsold items U?

        Her best surplus is 0, so OPT(S + her) = OPT(S), and the optima
        of S + her are S's optima on U with her unmatched and, for each
        j in Z, her on j with S optimal on U minus j.  The canonical
        witness is lexicographic by bidder index, items ranked by their
        position in U and none last, so the bidders below her settle
        first, on the best slot-prefix of W(U) and of each W(U minus j),
        where W(X) is S's witness on X, and then her earliest item wins.
        """
        rank = {frozenset((j,)): r for r, j in enumerate(unsold)}
        rank[frozenset()] = len(unsold)

        def prefix(j: Optional[str]) -> list:  # W(U minus j)'s first slot ranks
            bundles = self._witness(observed, tuple(x for x in unsold if x != j))[1]
            return [rank[b] for b in bundles[:slot]]

        mine = prefix(zero[0])
        return mine <= prefix(None) and all(mine <= prefix(j) for j in zero[1:])

    def _serve_choices(self, state: ServeState, valuations: Sequence[Valuation]) -> list:
        # every serve step follows a report (or opens the script), so its
        # price dict is the memo's for one market and its keys are the
        # unsold items: the pair fixes the best item, the sign of its
        # surplus, the message that takes it and, on a unit-demand tie,
        # her zero-surplus items (``_memoized``, unrolled)
        memo, price, left = self._memo, state.price, state.left
        out = []
        ties = None  # (position, (valuation, item, zero)) of each zero-surplus tie
        for v in valuations:
            key = ("best", id(v), id(price))
            hit = memo.get(key)
            if hit is None:
                item, surplus = _best_item(v, left, price)
                zero = None
                if surplus is None or surplus < 0:
                    choice = (item, -1, 0, zero)
                else:
                    if not surplus and isinstance(v, UnitDemandValuation):
                        zero = tuple(j for j in left if v.per_item[j] == price[j])
                    choice = (item, 1 if surplus else 0, 1 + left.index(item), zero)
                hit = memo[key] = ((v, price), choice)
            item, sign, take, zero = hit[1]
            if not sign:
                if ties is None:
                    ties = []
                ties.append((len(out), (v, item, zero)))
            out.append(take)
        if ties:
            answers = self._tie_answers(state, [tie for _, tie in ties])
            for (k, _), takes in zip(ties, answers):
                if not takes:
                    out[k] = 0
        return out


def _constant_row_ranking(instance: Instance) -> Optional[tuple]:
    """The constant-row kernel's view of an instance, or None.

    None unless every bidder is a unit-demand valuation that prices all
    items equally.  Otherwise ``(rows, rank, value_at, bidder_at, m,
    cut, scale)``: ``rows`` the constants times ``scale``, as ints on one
    common scale (``_scale_to_ints``), each bidder's ``rank`` in (value
    desc, index asc) order, that order's values and bidders, the item
    count and ``arrivals_discarded(n)``.
    """
    constants = _constant_rows(instance, UnitDemandValuation)
    if constants is None:
        return None
    scale, rows = _scale_to_ints(constants)
    bidder_at = sorted(range(len(rows)), key=lambda i: (-rows[i], i))
    rank = [0] * len(rows)
    for r, i in enumerate(bidder_at):
        rank[i] = r
    value_at = [rows[i] for i in bidder_at]
    return rows, rank, value_at, bidder_at, instance.m, arrivals_discarded(len(rows)), scale


def _mech3_fast_welfare(ranking: tuple, order: tuple) -> Number:
    """Constant-row welfare of one arrival order, integer arithmetic.

    ``ranking`` is ``_constant_row_ranking(instance)``.  When every
    unit-demand bidder values all items equally, prices are uniform
    across items: with a items unsold, the a-th highest observed value,
    or 0 while fewer than a bidders are observed.  So only who buys
    matters, and the welfare is the sum of the buyers' rows.  Ranks
    stand in for (value, index) pairs, so the sorted list of the
    arrivals so far holds plain ints.  The sum is divided by the rows'
    scale once, so integer rows give an int.
    """
    rows, rank, value_at, bidder_at, m, cut, scale = ranking
    seen: list = []  # ranks of the pos arrivals so far, best first
    sold = welfare = 0
    for pos, bidder in enumerate(order):
        a = m - sold
        if not a:
            break
        value = rows[bidder]
        if pos >= cut:
            price = value_at[seen[a - 1]] if pos >= a else 0
            if value == price:
                # canonical optimum over observed + this bidder: the
                # matched set is the top-a of (value desc, index asc),
                # and she gets the earliest unsold item exactly when
                # she is its smallest index.  Every one of the top a
                # observed is worth at least the price, her value, so
                # that holds exactly when each has a larger index.
                take = all(bidder_at[r] > bidder for r in seen[:a])
            else:
                take = value > price
            if take:
                sold += 1
                welfare += value
        bisect.insort(seen, rank[bidder])
    return welfare if scale == 1 else Fraction(welfare, scale)


def _arrival_label(order: tuple) -> str:
    return "arrival-order=" + ",".join(map(str, order))


def mech3_unit_demand(n: int, items: Sequence[str]) -> RandomizedMechanism:
    """Uniform arrival order, observe floor(n/e), then price-and-serve.

    Sampling draws one uniform permutation (descending Fisher-Yates),
    and the drawn order is the branch's key: on constant rows the kernel
    answers its welfare with no label read and no game built.  The
    exact support has n! branches and is only enumerable for small n;
    Monte Carlo covers the rest.
    """
    setting = CombinatorialSetting(tuple(items))
    count = math.factorial(n)
    prob = Fraction(1, count)
    # one memo for every branch: markets, canonical optima and each
    # instance's constant-row ranking are resolved once per mechanism
    memo: dict = {}

    def build(order: tuple, domains: Sequence[Sequence[Valuation]]) -> Game:
        return ArrivalPricingGame(order, setting, domains, memo)

    def shortcut(instance: Instance, order: tuple) -> Optional[Number]:
        # the game prices items by the optimum of the reported
        # valuations; the kernel is that optimum for unit-demand rows
        # only, so additive rows are played through the game, and so is
        # a wrong bidder count, which the game refuses
        ranking = _memoized(
            memo,
            ("rows", id(instance)),
            instance,
            lambda: _constant_row_ranking(instance) if instance.n == n else None,
        )
        return None if ranking is None else _mech3_fast_welfare(ranking, order)

    def element(order: tuple) -> SupportElement:
        return SupportElement(order, prob, build, _arrival_label, shortcut)

    def branches_fn() -> list:
        return [element(order) for order in permutations(range(n))]

    def sample_fn(rng: CounterRng) -> SupportElement:
        return element(tuple(rng.shuffled(range(n))))

    return RandomizedMechanism(
        "mech3-unit-demand", setting, n, count, branches_fn, sample_fn
    )


# ---------------------------------------------------------------------------
# registry


# name -> (setting kind, fixed (bidders, units or items) or None, builder);
# a kind of None takes either setting.  The CLI offers the names in this order.
_REGISTRY: dict = {
    "grand-bundle": (None, None, lambda i: grand_bundle_auction(i.n, i.setting)),
    "random-bundles": ("multi-unit", None, lambda i: random_bundles(i.n, i.m)),
    "mech1-single-minded": ("multi-unit", None, lambda i: mech1_single_minded(i.n, i.m)),
    "mech1-decreasing-marginals": (
        "multi-unit",
        None,
        lambda i: _partition_sale_mechanism("mech1-decreasing-marginals", i.n, i.m),
    ),
    "mech2-additive": ("combinatorial", None, lambda i: mech2_additive(i.n, i.items)),
    "mech3-unit-demand": ("combinatorial", None, lambda i: mech3_unit_demand(i.n, i.items)),
    "naive-max-price": ("combinatorial", None, lambda i: naive_max_price_ud(i.n, i.items)),
    "m1-2x2": ("multi-unit", (2, 2), lambda i: m1_2x2()),
    "m2-2x2": ("combinatorial", (2, 2), lambda i: m2_2x2(i.items)),
    "m3-2x2": ("combinatorial", (2, 2), lambda i: m3_2x2(items=i.items)),
    "three-item-dm": ("multi-unit", (2, 3), lambda i: three_item_dm_mechanism()),
}

MECHANISM_NAMES = tuple(_REGISTRY)


def mechanism_for_instance(name: str, instance: Instance) -> RandomizedMechanism:
    """Build the named mechanism shaped to the given instance."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown mechanism {name!r}")
    kind, shape, build = _REGISTRY[name]
    has = "multi-unit" if instance.multiunit else "combinatorial"
    if shape is not None and (has, (instance.n, instance.m)) != (kind, shape):
        goods = "units" if kind == "multi-unit" else "items"
        raise ValueError(f"{name} is bound to {shape[0]} bidders and {shape[1]} {goods}")
    if kind not in (None, has):
        raise ValueError(f"{name} needs a {kind} instance")
    return build(instance)
