"""Distributional evaluation and the hardness/benchmark fixtures.

Approximation guarantees here are always stated against the exact
optimum: either profile-by-profile over a finite distribution (with
the expectation taken over per-profile ratios), by full enumeration of
a mechanism's coin space, or by seeded Monte Carlo with a plain
standard-error band when enumeration is out of reach.

The module also hosts the adversarial families used to show the
guarantees are tight: the single-minded two-bidder distribution on
which no grand-bundle-style clock beats 5/6, its additive and
unit-demand two-item cousins, and the crowded unit-demand market where
max-sampled-price selling collapses but opportunity-cost pricing keeps
a 1/e share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Union

from .mechanisms import RandomizedMechanism, SupportElement
from .rng import CounterRng
from .valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    Instance,
    MultiUnitSetting,
    Setting,
    UnitDemandValuation,
    Valuation,
    _scale_to_ints,
    make_single_minded,
)
from .welfare import _solve, opt, opt_value_restricted, unit_step_values

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# profile distributions and ratio reports


@dataclass(frozen=True)
class ProfileEntry:
    label: str
    probability: Fraction
    valuations: tuple


@dataclass(frozen=True)
class ProfileDistribution:
    """A finite distribution over valuation profiles of one setting."""

    setting: Setting
    entries: tuple

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("distribution needs at least one profile")
        total = sum((e.probability for e in entries), ZERO)
        if total != ONE:
            raise ValueError(f"profile probabilities sum to {total}, not 1")
        n = len(entries[0].valuations)
        for e in entries:
            if len(e.valuations) != n:
                raise ValueError("profiles disagree on the number of bidders")
            Instance(self.setting, tuple(e.valuations))  # validates shapes

    @property
    def n(self) -> int:
        return len(self.entries[0].valuations)

    def instance(self, label: str) -> Instance:
        for e in self.entries:
            if e.label == label:
                return Instance(self.setting, tuple(e.valuations))
        raise KeyError(label)


@dataclass(frozen=True)
class ProfileRow:
    label: str
    probability: Fraction
    welfare: Fraction
    opt: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class RatioReport:
    """Welfare summary; exact unless ``stderr`` is set.

    ``ratio`` is the headline number: the probability-weighted mean of
    per-profile ratios for distributional reports, welfare/OPT for a
    single instance.  ``trials`` doubles as the number of instances
    inspected for search reports.
    """

    expected_welfare: Fraction
    opt: Fraction
    ratio: Fraction
    stderr: Optional[float] = None
    trials: Optional[int] = None
    breakdown: tuple = field(default_factory=tuple)

    @property
    def exact(self) -> bool:
        return self.stderr is None

    @property
    def ci(self) -> Optional[float]:
        """Half-width of the 3-sigma band around ``ratio``."""
        return None if self.stderr is None else 3 * self.stderr


def eval_on_distribution(
    subject: Union[RandomizedMechanism, SupportElement], dist: ProfileDistribution
) -> RatioReport:
    """Exact expected approximation ratio over a profile distribution.

    Accepts a randomized mechanism (its exact expected welfare) or one
    of its support branches (that branch's welfare); a deterministic
    clock is evaluated as its one-branch mechanism, such as
    ``three_item_dm_mechanism()``.  Every profile must have positive
    optimal welfare.
    """
    rows = []
    for entry in dist.entries:
        instance = Instance(dist.setting, tuple(entry.valuations))
        best = opt(instance).value
        if best == 0:
            raise ValueError(f"profile {entry.label!r} has zero optimal welfare")
        if isinstance(subject, RandomizedMechanism):
            welfare = subject.exact_expected_welfare(instance)
        else:
            welfare = subject.welfare(instance)
        rows.append(
            ProfileRow(entry.label, entry.probability, welfare, best, welfare / best)
        )
    return RatioReport(
        expected_welfare=sum((r.probability * r.welfare for r in rows), ZERO),
        opt=sum((r.probability * r.opt for r in rows), ZERO),
        ratio=sum((r.probability * r.ratio for r in rows), ZERO),
        breakdown=tuple(rows),
    )


def mc_ratio(
    mech: RandomizedMechanism, instance: Instance, trials: int, seed: int
) -> RatioReport:
    """Monte Carlo estimate of welfare/OPT from seeded branch draws.

    All draws come from one counter-based stream, so the estimate is a
    pure function of (mechanism, instance, trials, seed).  Every trial
    draws its branch, but a branch is deterministic and its key (its
    coins) names it, so on an enumerable support (``mech.enumerable``)
    each distinct key is played once.  A support past the cap, such as
    mech3's n! arrival orders, seldom repeats a key, so there every
    trial plays its branch and no memo grows with the trial count.  No
    trial reads a label.

    The branch welfares are summed exactly, on a plain int while every
    one is an integer, and divided once by ``trials * OPT``.  Each
    trial's squared ratio for the standard error comes from one
    correctly rounded int division, which equals ``float(welfare / OPT)``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    mech._check_instance(instance)
    best = opt(instance).value
    if best == 0:
        raise ValueError("instance has zero optimal welfare")
    rng = CounterRng(seed)
    best_num, best_den = best.numerator, best.denominator
    total = 0  # exact welfare sum; an int while every welfare is one
    total_sq = 0.0
    memo = mech.enumerable
    welfares: dict = {}  # branch key -> welfare; stays empty unless memo
    for _ in range(trials):
        branch = mech.sample_branch(rng)
        if memo:
            key = branch.key
            welfare = welfares.get(key)
            if welfare is None:
                welfare = welfares[key] = branch.welfare(instance)
        else:
            welfare = branch.welfare(instance)
        num, den = welfare.numerator, welfare.denominator
        total += num if den == 1 else welfare
        ratio = (num * best_den) / (den * best_num)
        total_sq += ratio * ratio
    mean = Fraction(total) / (trials * best)
    variance = max(total_sq / trials - float(mean) ** 2, 0.0)
    stderr = math.sqrt(variance / trials)
    return RatioReport(
        expected_welfare=mean * best,
        opt=best,
        ratio=mean,
        stderr=stderr,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# fair-coin sampling behavior


@dataclass(frozen=True)
class SamplingReport:
    """How often a fair-coin split keeps both halves valuable."""

    probability: Union[Fraction, float]
    exact: bool
    trials: Optional[int]
    opt: Fraction
    ratio_threshold: Fraction


def _check_share(name: str, share: Fraction) -> None:
    if not 0 < share <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {share}")


def sampling_lemma_experiment(
    instance: Instance,
    trials: int,
    seed: int,
    critical_threshold: Fraction = Fraction(1, 100),
    ratio_threshold: Fraction = Fraction(1, 5),
) -> SamplingReport:
    """Probability that both halves of a random split carry OPT/5.

    Splits every bidder by a fair coin into (S, U) and measures
    P[OPT(S) >= OPT * t and OPT(U) >= OPT * t] for t = 1/5.  Exact by
    enumerating all 2^n partitions when n <= 12, Monte Carlo
    otherwise, drawing each split as one ``coin_mask``.  Refuses
    instances where some bidder is critical (grand bundle worth a
    ``critical_threshold`` share of OPT): the guarantee simply fails
    there, a lone pivotal bidder lands on one side only.  Both
    thresholds must lie in (0, 1].

    Markets where every bidder wants just one unit get a closed form.
    The values are scaled to ints once, by the lcm of their
    denominators, and grouped into value classes, highest value first:
    ``(value, members, size)`` with ``members`` a bitmask of bidders.  A
    side's optimum is its top-m sum, read off one popcount of the split
    mask per class, and compared with the scaled bar; the critical gate
    compares the scaled values with the scaled, rounded-up cut.  A trial
    costs O(classes) integer operations, so hundreds of bidders stay
    cheap.
    """
    _check_share("critical_threshold", critical_threshold)
    _check_share("ratio_threshold", ratio_threshold)
    n = instance.n
    steps = unit_step_values(instance.valuations) if instance.multiunit else None
    if steps is not None:
        m = instance.m
        scale, scaled = _scale_to_ints(steps)
        members: dict = {}  # scaled value -> bitmask of its bidders
        for i, x in enumerate(scaled):
            members[x] = members.get(x, 0) | 1 << i
        # (value, members, size), highest value first; zero adds nothing
        classes = [
            (x, members[x], members[x].bit_count())
            for x in sorted(members, reverse=True)
            if x
        ]

        def top_sums(mask: int) -> tuple[int, int]:
            """Each side's top-m sum, inside ``mask`` and outside it."""
            left_in = left_out = m
            top_in = top_out = 0
            for value, bits, size in classes:
                k = (mask & bits).bit_count()
                take = min(k, left_in)
                top_in += take * value
                left_in -= take
                take = min(size - k, left_out)
                top_out += take * value
                left_out -= take
                if not (left_in or left_out):
                    break
            return top_in, top_out

        total = top_sums(-1)[0]  # every bidder on the inside
        best = Fraction(total, scale)
        need = math.ceil(ratio_threshold * total)  # the bar, scaled

        def joint(mask: int) -> bool:
            top_in, top_out = top_sums(mask)
            return top_in >= need and top_out >= need

        cut = math.ceil(critical_threshold * total)  # the critical share, scaled
        critical = next((i for i, x in enumerate(scaled) if x >= cut), None)
    else:
        best = opt(instance).value
        setting, vals = instance.setting, instance.valuations

        def joint(mask: int) -> bool:
            inside = [v for i, v in enumerate(vals) if mask >> i & 1]
            outside = [v for i, v in enumerate(vals) if not mask >> i & 1]
            return _solve(setting, inside)[0] >= bar and _solve(setting, outside)[0] >= bar

        share = critical_threshold * best
        critical = next(
            (i for i in range(n) if instance.grand_bundle_value(i) >= share), None
        )

    if critical is not None:
        raise ValueError(
            f"bidder {critical} is critical at threshold {critical_threshold}; "
            "the split guarantee does not apply"
        )
    bar = best * ratio_threshold

    if n <= 12:
        hits = sum(1 for mask in range(1 << n) if joint(mask))
        return SamplingReport(
            Fraction(hits, 1 << n), True, None, best, ratio_threshold
        )
    if trials <= 0:
        raise ValueError("trials must be positive for Monte Carlo")
    rng = CounterRng(seed)
    hits = sum(1 for _ in range(trials) if joint(rng.coin_mask(n)))
    return SamplingReport(hits / trials, False, trials, best, ratio_threshold)


# ---------------------------------------------------------------------------
# hard distributions


def _check_k(k: int) -> int:
    k = int(k)
    if k < 2:
        raise ValueError("k must be at least 2")
    return k


def hard_dist_mua_sm(k: int, m: int = 2) -> ProfileDistribution:
    """Two single-minded bidders that punish grand-bundle selling.

    Mixes a symmetric low-value profile (where splitting the supply
    doubles welfare) with four lopsided profiles (where the grand
    bundle is optimal).  Any mechanism committed to selling everything
    as one lot loses half the value on the symmetric profile, capping
    its expected ratio at 5/6 — and the profile weights make 5/6 the
    exact ceiling for every k >= 2.
    """
    k = _check_k(k)
    if m < 2:
        raise ValueError("needs at least two units")
    unit_small = make_single_minded(1, 1, m)
    unit_large = make_single_minded(k * k + 1, 1, m)
    grand_small = make_single_minded(k * k, m, m)
    grand_large = make_single_minded(k ** 4, m, m)
    entries = (
        ProfileEntry("profile-1", Fraction(1, 3), (unit_small, unit_small)),
        ProfileEntry("profile-2", Fraction(1, 6), (grand_small, unit_small)),
        ProfileEntry("profile-3", Fraction(1, 6), (unit_large, grand_large)),
        ProfileEntry("profile-4", Fraction(1, 6), (unit_small, grand_small)),
        ProfileEntry("profile-5", Fraction(1, 6), (grand_large, unit_large)),
    )
    return ProfileDistribution(MultiUnitSetting(m), entries)


CROSS_ITEMS = ("a", "b")


def _single_item(kind: str, item: str, value) -> Valuation:
    table = {j: Fraction(value) if j == item else ZERO for j in CROSS_ITEMS}
    cls = AdditiveValuation if kind == "additive" else UnitDemandValuation
    return cls(CROSS_ITEMS, table)


def cross_valuation_sets(kind: str, k: int) -> tuple[dict, dict]:
    """The seven-valuation menus behind the two-item hard distributions.

    Bidder 0 leans on item a, bidder 1 on item b, with magnitudes 1,
    k, k^2, k^4 and one two-item valuation apiece; the menus are
    mirror images.
    """
    k = _check_k(k)
    if kind not in ("additive", "unit_demand"):
        raise ValueError(f"unknown kind {kind!r}")
    cls = AdditiveValuation if kind == "additive" else UnitDemandValuation
    menu0 = {
        "a-one": _single_item(kind, "a", 1),
        "a-mid": _single_item(kind, "a", k * k),
        "a-large": _single_item(kind, "a", k ** 4),
        "b-small": _single_item(kind, "b", k),
        "b-mid": _single_item(kind, "b", k * k),
        "b-large": _single_item(kind, "b", k ** 4),
        "both": cls(CROSS_ITEMS, {"a": Fraction(2 * k + 3), "b": Fraction(2 * k + 1)}),
    }
    menu1 = {
        "b-one": _single_item(kind, "b", 1),
        "b-mid": _single_item(kind, "b", k * k),
        "b-large": _single_item(kind, "b", k ** 4),
        "a-small": _single_item(kind, "a", k),
        "a-mid": _single_item(kind, "a", k * k),
        "a-large": _single_item(kind, "a", k ** 4),
        "both": cls(CROSS_ITEMS, {"a": Fraction(2 * k + 1), "b": Fraction(2 * k + 3)}),
    }
    return menu0, menu1


def _hard_dist_cross(kind: str, k: int) -> ProfileDistribution:
    menu0, menu1 = cross_valuation_sets(kind, k)
    entries = (
        ProfileEntry("profile-1", Fraction(1, 4), (menu0["a-one"], menu1["b-one"])),
        ProfileEntry("profile-2", Fraction(1, 8), (menu0["a-mid"], menu1["a-large"])),
        ProfileEntry("profile-3", Fraction(1, 8), (menu0["b-large"], menu1["b-mid"])),
        ProfileEntry("profile-4", Fraction(1, 8), (menu0["b-mid"], menu1["b-large"])),
        ProfileEntry("profile-5", Fraction(1, 8), (menu0["a-large"], menu1["a-mid"])),
        ProfileEntry("profile-6", Fraction(1, 8), (menu0["b-small"], menu1["b-one"])),
        ProfileEntry("profile-7", Fraction(1, 8), (menu0["a-one"], menu1["a-small"])),
    )
    return ProfileDistribution(CombinatorialSetting(CROSS_ITEMS), entries)


def hard_dist_additive(k: int) -> ProfileDistribution:
    """Two additive bidders contesting two items; ceiling 7/8."""
    return _hard_dist_cross("additive", k)


def hard_dist_unit_demand(k: int) -> ProfileDistribution:
    """Two unit-demand bidders contesting two items; ceiling 7/8."""
    return _hard_dist_cross("unit_demand", k)


# ---------------------------------------------------------------------------
# the crowded unit-demand market


def ud_failure_instance(n: int) -> Instance:
    """sqrt(n) bidders value every item at 2, the rest at 1; m = n.

    The optimum seats everyone (n + sqrt(n)); any price keyed to the
    maximum sampled value shuts out the low bidders, so revenue-style
    pricing wastes almost everything while opportunity-cost pricing
    keeps a constant fraction.
    """
    root = math.isqrt(n)
    if root * root != n:
        raise ValueError(f"{n} is not a perfect square")
    width = max(2, len(str(n - 1)))
    items = tuple(f"j{t:0{width}d}" for t in range(n))
    high = {j: Fraction(2) for j in items}
    low = {j: ONE for j in items}
    vals = tuple(
        UnitDemandValuation(items, high if i < root else low) for i in range(n)
    )
    return Instance(CombinatorialSetting(items), vals)


# ---------------------------------------------------------------------------
# aggregation and search


def yao_aggregate(
    reports: Sequence[RatioReport], weights: Optional[Sequence[Fraction]] = None
) -> Fraction:
    """Worst per-profile ratio of a mixture of mechanisms.

    Each report must carry a breakdown over the same profiles.  The
    returned minimum is never larger than the weight-averaged expected
    ratio (a mixture cannot beat its average), which is what makes
    per-distribution ceilings transfer to randomized mechanisms.
    """
    if not reports:
        raise ValueError("need at least one report")
    if weights is None:
        weights = [Fraction(1, len(reports))] * len(reports)
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(reports) or sum(weights, ZERO) != ONE:
        raise ValueError("weights must match the reports and sum to 1")
    labels = [row.label for row in reports[0].breakdown]
    for rep in reports:
        if [row.label for row in rep.breakdown] != labels:
            raise ValueError("reports cover different profiles")
    per_profile = []
    for idx, label in enumerate(labels):
        mixed = sum(
            (w * rep.breakdown[idx].ratio for w, rep in zip(weights, reports)), ZERO
        )
        per_profile.append(mixed)
    worst = min(per_profile)
    average = sum(
        (w * rep.ratio for w, rep in zip(weights, reports)), ZERO
    )
    assert worst <= average
    return worst


@dataclass(frozen=True)
class InstanceGrid:
    """Cartesian product of per-bidder valuation menus."""

    setting: Setting
    domains: tuple

    def __post_init__(self) -> None:
        domains = tuple(tuple(d) for d in self.domains)
        object.__setattr__(self, "domains", domains)
        if not domains or any(not d for d in domains):
            raise ValueError("every bidder needs a non-empty menu")

    @property
    def count(self) -> int:
        total = 1
        for d in self.domains:
            total *= len(d)
        return total

    def instances(self):
        for valuations in product(*self.domains):
            yield Instance(self.setting, valuations)

    def sample(self, rng: CounterRng) -> Instance:
        return Instance(
            self.setting,
            tuple(d[rng.below(len(d))] for d in self.domains),
        )


def worst_case_search(
    mech: RandomizedMechanism,
    grid: InstanceGrid,
    budget: int,
    seed: int = 0,
) -> tuple[Optional[Instance], RatioReport]:
    """Grid (or seeded-sample) probe for the mechanism's worst ratio.

    Exhaustive when the grid fits the budget, otherwise ``budget``
    seeded draws.  Zero-OPT instances are skipped.  Best-effort: the
    result is a floor certificate for the instances visited, never an
    upper-bound proof.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if grid.count <= budget:
        candidates = grid.instances()
    else:
        rng = CounterRng(seed)
        candidates = (grid.sample(rng) for _ in range(budget))
    worst: Optional[tuple] = None
    evaluated = 0
    for instance in candidates:
        best = opt_value_restricted(instance)
        if best == 0:
            continue
        evaluated += 1
        ratio = mech.exact_expected_welfare(instance) / best
        if worst is None or ratio < worst[0]:
            worst = (ratio, instance, best)
    if worst is None:
        return None, RatioReport(ZERO, ZERO, ZERO, trials=0)
    ratio, instance, best = worst
    return instance, RatioReport(
        expected_welfare=ratio * best,
        opt=best,
        ratio=ratio,
        trials=evaluated,
    )
