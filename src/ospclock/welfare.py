"""Exact optimal-welfare computation with canonical witnesses.

``opt`` solves an ``Instance``, whose constructor checks every
valuation against the setting.  Behind it, ``_solve(setting,
valuations)`` is the one setting dispatch: it hands a list of
valuations to the multi-unit DP or to ``_opt_items``, the
valuation-class dispatch over an item tuple, and checks nothing.
mech1's unit price and the sampling lemma call it on lists of
valuations, and mech3's prices call ``_opt_items`` on the unsold items;
each game checks its domains when it is built.  The solvers:

* multi-unit: dynamic program over (bidder suffix, units remaining);
  single-minded bidders (``MultiUnitValuation.single_minded``, decided
  once when the valuation is built) contribute only the candidate
  quantities ``{0, d}``, which makes the same DP a 0/1 knapsack; the
  all-unit-demand case (every bidder single-minded with d=1)
  short-circuits to a top-``m`` sum so sampling experiments with
  hundreds of bidders stay cheap.
* additive: each item goes to the smallest-index bidder of maximum
  value for it (the "i*_j" rule), independently per item.
* unit-demand: one exact integer assignment solve whose tie digits
  make the canonical witness its unique maximum; when every bidder
  values all items alike (``PerItemValuation.constant``) the optimum
  and that same witness come in closed form, with no solve.
* explicit or mixed combinatorial: DP over (bidder suffix, item mask).

Ties are broken canonically per solver so every caller sees one fixed
witness:

* multi-unit DP: lexicographically smallest quantity vector (earlier
  bidders prefer fewer units when indifferent);
* additive: the i*_j rule, items always assigned (zero-value items go
  to bidder 0);
* unit-demand: bidder-major — bidder 0 takes the earliest item (in
  universe order) consistent with optimality, preferring being matched
  over unmatched, then bidder 1 on what remains, and so on;
* mask DP: bidder-major, each bidder takes the numerically smallest
  bundle bitmask consistent with optimality (so the empty bundle when
  indifferent).

``brute_force_opt`` enumerates every feasible allocation and exists to
cross-check the solvers in tests; it keeps the first maximizer in its
fixed enumeration order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .valuations import (
    AdditiveValuation,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    Setting,
    UnitDemandValuation,
    _scale_to_ints,
)

ZERO = Fraction(0)


class SizeCapError(Exception):
    """The requested computation exceeds a configured size cap."""


def _cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _brute_cap() -> int:
    """The exhaustive-sweep cap: brute-force allocations, search menus."""
    return _cap("OSPCLOCK_BRUTE_CAP", 2_000_000)


def _opt_cap() -> int:
    """The exact-optimum cap: mask-DP steps, multi-unit value slots."""
    return _cap("OSPCLOCK_OPT_CAP", 30_000_000)


def _refusal(name: str, cap: int, what: str) -> SizeCapError:
    """Refuse a request over the cap read from ``name``, naming ``name``."""
    return SizeCapError(f"{what}; cap {cap} (override with {name})")


@dataclass(frozen=True)
class Allocation:
    """One bundle per bidder: a quantity (multi-unit) or an item set."""

    bundles: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundles", tuple(self.bundles))


@dataclass(frozen=True)
class OptResult:
    value: Fraction
    witness: Allocation


def check_allocation_for(setting, n: int, alloc: Allocation) -> None:
    """Raise ValueError unless the allocation is feasible in the setting."""
    if len(alloc.bundles) != n:
        raise ValueError(f"allocation has {len(alloc.bundles)} bundles for {n} bidders")
    if isinstance(setting, MultiUnitSetting):
        total = 0
        for q in alloc.bundles:
            if not isinstance(q, int) or q < 0:
                raise ValueError(f"bad quantity {q!r}")
            total += q
        if total > setting.m:
            raise ValueError(f"{total} units allocated but only {setting.m} exist")
    else:
        seen: set = set()
        universe = set(setting.items)
        for b in alloc.bundles:
            bundle = frozenset(b)
            if not bundle <= universe:
                raise ValueError(f"bundle {sorted(bundle)} outside the item universe")
            if bundle & seen:
                raise ValueError("bundles overlap")
            seen |= bundle


def welfare_of(instance: Instance, alloc: Allocation) -> Fraction:
    """Total value of an allocation (validates feasibility first).

    Empty bundles are skipped: every valuation class prices the empty
    bundle, or quantity 0, at 0.
    """
    check_allocation_for(instance.setting, instance.n, alloc)
    total = ZERO
    for v, b in zip(instance.valuations, alloc.bundles):
        if b:
            total += v.value(b)
    return total


# ---------------------------------------------------------------------------
# Multi-unit solvers


def _candidate_quantities(v: MultiUnitValuation, limit: int) -> list[int]:
    sm = v.single_minded
    if sm is not None:
        return [0] if sm.d > limit or sm.x == 0 else [0, sm.d]
    return list(range(limit + 1))


def _opt_multiunit(
    valuations: Sequence[MultiUnitValuation], capacity: int
) -> tuple[Fraction, list[int]]:
    """Suffix DP; returns (value, lexicographically smallest quantities)."""
    n = len(valuations)
    values = unit_step_values(valuations)
    if values is not None:
        return _opt_all_unit_step(values, capacity)
    # dp[i][r] = best welfare for bidders i.. with r units left
    dp = [[ZERO] * (capacity + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        v = valuations[i]
        for r in range(capacity + 1):
            best = ZERO
            for q in _candidate_quantities(v, r):
                got = v.value(q) + dp[i + 1][r - q]
                if got > best:
                    best = got
            dp[i][r] = best
    quantities: list[int] = []
    r = capacity
    for i in range(n):
        v = valuations[i]
        target = dp[i][r]
        for q in _candidate_quantities(v, r):
            if v.value(q) + dp[i + 1][r - q] == target:
                quantities.append(q)
                r -= q
                break
        else:  # pragma: no cover - DP bookkeeping guarantees a hit
            raise AssertionError("witness reconstruction failed")
    return dp[0][capacity], quantities


def unit_step_values(valuations: Sequence[MultiUnitValuation]) -> Optional[list]:
    """Each bidder's value for one unit when every bidder wants just one
    unit, else None.

    Reads each valuation's recorded ``single_minded`` step: a bidder
    qualifies with a step at d = 1, which the all-zero vector records
    as (0, 1).
    """
    values = []
    for v in valuations:
        sm = v.single_minded
        if sm is None or sm.d != 1:
            return None
        values.append(sm.x)
    return values


def _opt_all_unit_step(values: Sequence[Fraction], capacity: int) -> tuple[Fraction, list[int]]:
    """All bidders want a single unit: take the top-``capacity`` values.

    Reproduces the DP's lex-min witness: when values tie at the cutoff,
    later bidders are served (a lex-min quantity vector gives earlier
    bidders 0 when indifferent).
    """
    order = sorted(
        (i for i, x in enumerate(values) if x > 0),
        key=lambda i: (-values[i], -i),
    )
    chosen = order[:capacity]
    value = sum((values[i] for i in chosen), ZERO)
    quantities = [0] * len(values)
    for i in chosen:
        quantities[i] = 1
    return value, quantities


# ---------------------------------------------------------------------------
# Additive solver


def _opt_additive(
    valuations: Sequence[AdditiveValuation], items: Sequence[str]
) -> tuple[Fraction, list]:
    """Assign each item to its smallest-index maximum bidder.

    Returns the total and each bidder's bundle; every item is assigned,
    a zero-value item to bidder 0.
    """
    total = ZERO
    owned: list = [set() for _ in valuations]
    for j in items:
        column = [v.per_item[j] for v in valuations]
        best = max(column)
        total += best
        owned[column.index(best)].add(j)
    return total, [frozenset(b) for b in owned]


# ---------------------------------------------------------------------------
# Unit-demand solvers


def _hungarian_max(weight: Sequence[Sequence[int]]) -> tuple[int, list[Optional[int]]]:
    """Maximum-weight assignment of rows to distinct columns.

    Exact Jonker-Volgenant style shortest augmenting paths over
    integers, solved on the rectangle with its shorter side as rows.
    Every weight must be positive, so a maximum matches the shorter side
    in full.  Returns the maximum total weight and each row's column,
    ``None`` for a row left unmatched.
    """
    transposed = len(weight) > len(weight[0])
    short = [list(col) for col in zip(*weight)] if transposed else weight
    nr, nc = len(short), len(short[0])
    big = max(max(row) for row in short)
    # Minimize cost = big - weight.  The potentials keep every reduced
    # cost below 2 * big, so 2 * big stands for infinity.
    cost = [[big - w for w in row] for row in short]
    infinity = 2 * big
    # potentials and column matching, 1-indexed internally
    u = [0] * (nr + 1)
    v = [0] * (nc + 1)
    match = [0] * (nc + 1)  # match[col] = row
    for r in range(1, nr + 1):
        match[0] = r
        j0 = 0
        minv = [infinity] * (nc + 1)
        prev = [0] * (nc + 1)
        used = [False] * (nc + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = infinity
            j1 = 0
            for j in range(1, nc + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    prev[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(nc + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = prev[j0]
            match[j0] = match[j1]
            j0 = j1
    cols: list[Optional[int]] = [None] * len(weight)
    for j in range(1, nc + 1):
        if match[j]:
            r, c = (j - 1, match[j] - 1) if transposed else (match[j] - 1, j - 1)
            cols[r] = c
    return sum(weight[r][c] for r, c in enumerate(cols) if c is not None), cols


def _ud_opt(
    valuations: Sequence[UnitDemandValuation], items: Sequence[str]
) -> tuple[Fraction, list[Optional[str]]]:
    """Optimal value and the bidder-major canonical witness.

    One integer assignment solve: values are scaled to integers and
    shifted above n tie digits in base m+1, bidder i's digit
    ``m - rank`` at position n-1-i, where rank is the index of the
    bidder's item in ``items`` (m when unmatched).  The tie digits sum
    below one unit of value, so every maximum is a welfare optimum;
    among optima they rank bidder 0 first and earlier items first, so
    the maximum is unique and is the canonical witness.
    """
    n, m = len(valuations), len(items)
    scale, scaled = _scale_to_ints(v.per_item[j] for v in valuations for j in items)
    base = m + 1
    shift = base**n
    weight = [
        [scaled[i * m + c] * shift + (m - c) * base ** (n - 1 - i) for c in range(m)]
        for i in range(n)
    ]
    total, cols = _hungarian_max(weight)
    assigned = [None if c is None else items[c] for c in cols]
    return Fraction(total // shift, scale), assigned


def _ud_constant_opt(
    constants: Sequence[Fraction], items: Sequence[str]
) -> tuple[Fraction, list[Optional[str]]]:
    """``_ud_opt`` when bidder i values every item at ``constants[i]``.

    The optimum seats the top min(n, m) bidders in (value desc, index
    asc) order, the ones the tie digits prefer, and the digits hand the
    seated bidders, in index order, the items in order.
    """
    ranked = sorted(range(len(constants)), key=lambda i: -constants[i])  # stable
    seated = sorted(ranked[: len(items)])
    assigned: list[Optional[str]] = [None] * len(constants)
    for i, j in zip(seated, items):
        assigned[i] = j
    return sum((constants[i] for i in seated), ZERO), assigned


# ---------------------------------------------------------------------------
# General combinatorial solver (mask DP)


def _bundle_values(v, items: Sequence[str]) -> list[Fraction]:
    vals = []
    for mask in range(1 << len(items)):
        bundle = frozenset(items[j] for j in range(len(items)) if mask >> j & 1)
        vals.append(v.value(bundle))
    return vals


def _opt_mask_dp(
    valuations: Sequence, items: Sequence[str]
) -> tuple[Fraction, list[frozenset]]:
    n = len(valuations)
    m = len(items)
    cap = _opt_cap()
    work = max(n, 1) * 3 ** m
    if work > cap:
        raise _refusal(
            "OSPCLOCK_OPT_CAP", cap, f"mask DP needs ~{work} steps for n={n}, m={m}"
        )
    values = [_bundle_values(v, items) for v in valuations]
    full = (1 << m) - 1
    dp = [[ZERO] * (full + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        vi = values[i]
        nxt = dp[i + 1]
        row = dp[i]
        for mask in range(full + 1):
            best = vi[0] + nxt[mask]
            sub = mask
            while sub:
                got = vi[sub] + nxt[mask ^ sub]
                if got > best:
                    best = got
                sub = (sub - 1) & mask
            row[mask] = best
    bundles: list[frozenset] = []
    mask = full
    for i in range(n):
        vi = values[i]
        target = dp[i][mask]
        # smallest bitmask attaining the optimum (empty bundle first)
        pick = None
        candidates = [0]
        sub = mask
        while sub:
            candidates.append(sub)
            sub = (sub - 1) & mask
        for sub in sorted(candidates):
            if vi[sub] + dp[i + 1][mask ^ sub] == target:
                pick = sub
                break
        assert pick is not None
        bundles.append(frozenset(items[j] for j in range(m) if pick >> j & 1))
        mask ^= pick
    return dp[0][full], bundles


# ---------------------------------------------------------------------------
# Public API


def _opt_items(valuations: Sequence, items: Sequence[str]) -> tuple[Fraction, list]:
    """The combinatorial optimum of ``valuations`` over ``items``, and each
    valuation's bundle in the canonical witness.

    The valuation-class dispatch behind ``_solve``; mech3's prices call
    it on the unsold items.  It checks nothing: ``items`` must be
    distinct items of the valuations' universe, in universe order, and
    the valuations are the bidders in index order.
    """
    if not valuations or not items:
        return ZERO, [frozenset()] * len(valuations)
    if all(isinstance(v, AdditiveValuation) for v in valuations):
        return _opt_additive(valuations, items)
    if all(isinstance(v, UnitDemandValuation) for v in valuations):
        constants = [v.constant for v in valuations]
        if None in constants:
            value, assigned = _ud_opt(valuations, items)
        else:
            value, assigned = _ud_constant_opt(constants, items)
        return value, [frozenset() if j is None else frozenset({j}) for j in assigned]
    return _opt_mask_dp(valuations, items)


def _solve(setting: Setting, valuations: Sequence) -> tuple[Fraction, list]:
    """The optimum of ``valuations`` in ``setting``, and each valuation's
    bundle (a unit count or an item set) in the canonical witness.

    The one setting dispatch.  It checks nothing: every valuation must
    be of the setting's kind, over its units or its item universe.
    """
    if isinstance(setting, MultiUnitSetting):
        return _opt_multiunit(valuations, setting.m)
    return _opt_items(valuations, setting.items)


def opt(instance: Instance) -> OptResult:
    """Exact optimal welfare with the canonical witness."""
    value, bundles = _solve(instance.setting, instance.valuations)
    return OptResult(value, Allocation(tuple(bundles)))


def opt_value_restricted(instance: Instance) -> Fraction:
    """The optimal value of ``opt(instance)``, without its witness."""
    return _solve(instance.setting, instance.valuations)[0]


def brute_force_opt(instance: Instance) -> OptResult:
    """Independent exhaustive oracle (tests only; small instances).

    Enumerates every feasible allocation in a fixed order and keeps the
    first maximizer, so its witness tie-breaking is its own.
    """
    cap = _brute_cap()
    n, m = instance.n, instance.m
    if instance.multiunit:
        # quantity vectors with sum <= m, lexicographic order
        est = (m + 1) ** n
        if est > cap:
            raise _refusal("OSPCLOCK_BRUTE_CAP", cap, f"brute force needs {est} vectors")
        best: Optional[tuple[Fraction, tuple[int, ...]]] = None

        def rec(i: int, left: int, acc: list[int], total: Fraction) -> None:
            nonlocal best
            if i == n:
                if best is None or total > best[0]:
                    best = (total, tuple(acc))
                return
            for q in range(left + 1):
                acc.append(q)
                rec(i + 1, left - q, acc, total + instance.valuations[i].value(q))
                acc.pop()

        rec(0, m, [], ZERO)
        assert best is not None
        return OptResult(best[0], Allocation(best[1]))

    est = (n + 1) ** m
    if est > cap:
        raise _refusal("OSPCLOCK_BRUTE_CAP", cap, f"brute force needs {est} assignments")
    items = instance.items
    best_c: Optional[tuple[Fraction, tuple[frozenset, ...]]] = None
    # owners[j] in 0..n-1 assigns item j; n leaves it unallocated
    for owners in product(range(n + 1), repeat=m):
        bundles = [set() for _ in range(n)]
        for j, owner in enumerate(owners):
            if owner < n:
                bundles[owner].add(items[j])
        total = ZERO
        for i in range(n):
            total += instance.valuations[i].value(bundles[i])
        if best_c is None or total > best_c[0]:
            best_c = (total, tuple(frozenset(b) for b in bundles))
    assert best_c is not None
    return OptResult(best_c[0], Allocation(best_c[1]))

