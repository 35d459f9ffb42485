"""Tests for the exact welfare oracle.

`brute_force_opt` is the independent reference: it enumerates every
feasible allocation, so agreement with `opt` across solver routes is
the core correctness check here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospclock import welfare
from ospclock.mechanisms import m2_2x2, three_item_dm
from ospclock.protocols import (
    GaaGame,
    GaaSpec,
    materialize,
    protocol_from_json,
    protocol_to_json,
    realize_rule,
    run_game,
)
from ospclock.valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    ExplicitValuation,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    UnitDemandValuation,
    all_bundles,
    make_single_minded,
)
from ospclock.welfare import (
    Allocation,
    OptResult,
    SizeCapError,
    _opt_items,
    _opt_multiunit,
    _solve,
    brute_force_opt,
    check_allocation_for,
    opt,
    opt_value_restricted,
    welfare_of,
)

F = Fraction


def sm_instance(specs, m):
    return Instance(
        MultiUnitSetting(m), tuple(make_single_minded(x, d, m) for x, d in specs)
    )


# ---------------------------------------------------------------------------
# frozen examples


def test_knapsack_three_bidders():
    inst = sm_instance([(5, 2), (4, 1), (3, 1)], m=3)
    result = opt(inst)
    assert result.value == 9
    assert result.witness.bundles == (2, 1, 0)
    assert brute_force_opt(inst).value == 9


def test_two_unit_demand_ones_share_the_units():
    inst = sm_instance([(1, 1), (1, 1)], m=2)
    result = opt(inst)
    assert result.value == 2
    assert result.witness.bundles == (1, 1)


def test_single_bidder_takes_everything():
    v = MultiUnitValuation((F(1), F(4), F(4)))
    inst = Instance(MultiUnitSetting(3), (v,))
    result = opt(inst)
    assert result.value == 4
    assert result.witness.bundles == (2,)  # smallest quantity attaining v(M)


def test_restricted_to_nobody_is_zero():
    assert _solve(MultiUnitSetting(1), ()) == (0, [])
    assert _solve(CombinatorialSetting(("a",)), ()) == (0, [])


def test_unit_demand_restriction_prices_an_item():
    """Value drop from removing one item gives a per-item price of 3."""
    items = ("a", "b")
    inst = Instance(
        CombinatorialSetting(items),
        (
            UnitDemandValuation(items, {"a": 9, "b": 9}),
            UnitDemandValuation(items, {"a": 5, "b": 2}),
        ),
    )
    with_both = _opt_items(inst.valuations[1:], ("a", "b"))[0]
    without_a = _opt_items(inst.valuations[1:], ("b",))[0]
    assert (with_both, without_a) == (5, 2)
    assert with_both - without_a == 3


def test_restriction_to_everything_is_vacuous():
    items = ("a", "b", "c")
    inst = Instance(
        CombinatorialSetting(items),
        (
            AdditiveValuation(items, {"a": 2, "b": 0, "c": 1}),
            AdditiveValuation(items, {"a": 2, "b": 3, "c": 1}),
        ),
    )
    value, bundles = _opt_items(inst.valuations, items)
    assert OptResult(value, Allocation(tuple(bundles))) == opt(inst)


def test_additive_items_go_to_first_maximum_bidder():
    items = ("a", "b")
    inst = Instance(
        CombinatorialSetting(items),
        (
            AdditiveValuation(items, {"a": 3, "b": 0}),
            AdditiveValuation(items, {"a": 3, "b": 0}),
        ),
    )
    result = opt(inst)
    # both items tie (a at 3, b at 0) so both go to bidder 0
    assert result.witness.bundles == (frozenset({"a", "b"}), frozenset())
    assert result.value == 3


def test_disjoint_unit_demand_favorites():
    items = ("a", "b")
    inst = Instance(
        CombinatorialSetting(items),
        (
            UnitDemandValuation(items, {"a": 1, "b": 0}),
            UnitDemandValuation(items, {"a": 0, "b": 1}),
        ),
    )
    assert brute_force_opt(inst).value == 2
    assert opt(inst).value == 2


def test_all_zero_brute_force():
    inst = sm_instance([(0, 1), (0, 1)], m=2)
    assert brute_force_opt(inst).value == 0


# ---------------------------------------------------------------------------
# solver routes vs brute force


@st.composite
def multiunit_instances(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    vals = []
    for _ in range(n):
        raw = sorted(
            draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
        )
        vals.append(MultiUnitValuation(tuple(F(x) for x in raw)))
    return Instance(MultiUnitSetting(m), tuple(vals))


@st.composite
def combinatorial_instances(draw, kinds=("additive", "unit_demand", "explicit")):
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    items = tuple(f"i{k}" for k in range(m))
    vals = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        per_item = {
            j: F(draw(st.integers(min_value=0, max_value=4))) for j in items
        }
        if kind == "additive":
            vals.append(AdditiveValuation(items, per_item))
        elif kind == "unit_demand":
            vals.append(UnitDemandValuation(items, per_item))
        else:
            base = UnitDemandValuation(items, per_item)
            bump = F(draw(st.integers(min_value=0, max_value=3)))
            table = {
                b: base.value(b) + (bump if len(b) == m and m > 1 else 0)
                for b in all_bundles(items)
            }
            vals.append(ExplicitValuation(items, table))
    return Instance(CombinatorialSetting(items), tuple(vals))


@given(multiunit_instances())
@settings(max_examples=60)
def test_multiunit_opt_equals_brute_force(inst):
    fast = opt(inst)
    slow = brute_force_opt(inst)
    assert fast.value == slow.value
    assert welfare_of(inst, fast.witness) == fast.value


def test_unit_step_fast_path_gives_the_dp_witness_on_ties(monkeypatch):
    """``_opt_all_unit_step`` stands in for the multi-unit DP when every
    bidder wants one unit: on seeded rows with tied values, switching
    the fast path off gives the same value and the same lex-min
    witness."""
    rng = random.Random(47)
    grid = (0, 1, 2, F(5, 2))
    rows = []
    for _ in range(400):
        m = rng.randint(1, 4)
        n = rng.randint(1, 7)
        rows.append(([make_single_minded(rng.choice(grid), 1, m) for _ in range(n)], m))
    assert all(welfare.unit_step_values(vals) is not None for vals, _ in rows)
    fast = [_opt_multiunit(vals, m) for vals, m in rows]
    monkeypatch.setattr(welfare, "unit_step_values", lambda valuations: None)
    assert [_opt_multiunit(vals, m) for vals, m in rows] == fast

    def tied_at_cutoff(vals, quantities):
        kept = {v.value(1) for v, q in zip(vals, quantities) if q}
        return any(not q and v.value(1) in kept for v, q in zip(vals, quantities))

    assert sum(tied_at_cutoff(vals, w) for (vals, _), (_, w) in zip(rows, fast)) > 50


@given(combinatorial_instances())
@settings(max_examples=60)
def test_combinatorial_opt_equals_brute_force(inst):
    fast = opt(inst)
    slow = brute_force_opt(inst)
    assert fast.value == slow.value
    assert welfare_of(inst, fast.witness) == fast.value


@given(combinatorial_instances(kinds=("unit_demand",)))
@settings(max_examples=60)
def test_matching_solver_equals_brute_force(inst):
    assert opt(inst).value == brute_force_opt(inst).value


@given(multiunit_instances(), st.integers(min_value=0, max_value=7))
@settings(max_examples=40)
def test_bidder_partition_is_subadditive(inst, split_bits):
    """Splitting bidders into two groups never beats pooling them."""
    left = [v for i, v in enumerate(inst.valuations) if split_bits >> i & 1]
    right = [v for i, v in enumerate(inst.valuations) if not split_bits >> i & 1]
    total = opt(inst).value
    assert _solve(inst.setting, left)[0] + _solve(inst.setting, right)[0] >= total


@given(multiunit_instances())
@settings(max_examples=40)
def test_restriction_is_monotone(inst):
    full = opt(inst).value
    fewer_bidders = _solve(inst.setting, inst.valuations[:-1])[0]
    fewer_items = _opt_multiunit(inst.valuations, inst.m - 1)[0]
    assert fewer_bidders <= full
    assert fewer_items <= full


@given(combinatorial_instances())
@settings(max_examples=40)
def test_value_only_path_agrees(inst):
    assert opt_value_restricted(inst) == opt(inst).value


def _ud_brute_value(vals, items) -> Fraction:
    """``brute_force_opt`` of unit-demand rows over a subset of items."""
    if not vals or not items:
        return F(0)
    rows = tuple(UnitDemandValuation(items, {j: v.per_item[j] for j in items}) for v in vals)
    return brute_force_opt(Instance(CombinatorialSetting(items), rows)).value


def canonical_ud_witness(inst, bidders, items):
    """The bidder-major canonical optimum, from its definition.

    Bidder by bidder, take the earliest remaining item with which the
    later bidders can still reach the optimum; otherwise take nothing.
    """
    vals = [inst.valuations[i] for i in bidders]
    remaining = [j for j in inst.items if j in items]
    best = need = _ud_brute_value(vals, remaining)
    bundles = [frozenset()] * inst.n
    for k, i in enumerate(bidders):
        for j in remaining:
            rest = [x for x in remaining if x != j]
            if vals[k].per_item[j] + _ud_brute_value(vals[k + 1 :], rest) == need:
                bundles[i] = frozenset({j})
                need -= vals[k].per_item[j]
                remaining = rest
                break
    return best, Allocation(tuple(bundles))


def test_unit_demand_witness_matches_definition():
    """``_opt_items`` gives the canonical witness, on constant rows (the
    closed form) as on varied ones (the assignment solve)."""
    rng = random.Random(2026)
    for trial in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        items = tuple("abc"[:m])
        constant = trial % 3 == 0
        vals = []
        for _ in range(n):
            row = [F(rng.choice([0, 0, 1, 2, 2, 3]), rng.choice([1, 1, 2])) for _ in items]
            if constant:
                row = [row[0]] * m
            vals.append(UnitDemandValuation(items, dict(zip(items, row))))
        inst = Instance(CombinatorialSetting(items), tuple(vals))
        bidders = sorted(rng.sample(range(n), rng.randint(1, n)))
        sub = sorted(rng.sample(items, rng.randint(1, m)))
        value, packed = _opt_items([vals[i] for i in bidders], sub)
        bundles = [frozenset()] * n
        for i, bundle in zip(bidders, packed):
            bundles[i] = bundle
        assert (value, Allocation(tuple(bundles))) == canonical_ud_witness(inst, bidders, sub)


def _ud_constant_opt(rows, items):
    """Closed-form matching for constant-row unit-demand bidders.

    Matched bidders are the ``min(n, m)`` best by (value desc, index
    asc); they receive ``items`` in order by ascending bidder index.
    This is the bidder-major canonical witness because the items are
    interchangeable.
    """
    t = min(len(rows), len(items))
    chosen = sorted(sorted(range(len(rows)), key=lambda i: (-rows[i], i))[:t])
    assigned = [None] * len(rows)
    for pos, i in enumerate(chosen):
        assigned[i] = items[pos]
    return sum((rows[i] for i in chosen), F(0)), assigned


def test_constant_row_witness_matches_the_closed_form():
    """On constant rows ``_opt_items`` and ``opt`` give the closed form's
    value and witness: zero values, ties and denominators 1-3, fewer and
    more bidders than items, restricted and unrestricted."""
    rng = random.Random(1403)
    shapes = set()
    for _ in range(600):
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        items = tuple("abcde"[:m])
        rows = [F(rng.choice([0, 0, 1, 2, 2, 3]), rng.randint(1, 3)) for _ in range(n)]
        vals = tuple(UnitDemandValuation(items, dict.fromkeys(items, x)) for x in rows)
        inst = Instance(CombinatorialSetting(items), vals)
        restricted = rng.random() >= 0.25
        if restricted:
            ids = sorted(rng.sample(range(n), rng.randint(1, n)))
            picked = rng.sample(items, rng.randint(1, m))
            chosen = [j for j in items if j in picked]
            got, packed = _opt_items([vals[i] for i in ids], chosen)
            result = [frozenset()] * n
            for i, bundle in zip(ids, packed):
                result[i] = bundle
        else:
            ids, chosen = list(range(n)), list(items)
            best = opt(inst)
            got, result = best.value, list(best.witness.bundles)
        value, assigned = _ud_constant_opt([rows[i] for i in ids], chosen)
        bundles = [frozenset()] * n
        for i, j in zip(ids, assigned):
            if j is not None:
                bundles[i] = frozenset({j})
        assert (got, result) == (value, bundles)
        shapes.add((restricted, (len(ids) > len(chosen)) - (len(ids) < len(chosen))))
    assert shapes == {(r, c) for r in (False, True) for c in (-1, 0, 1)}


def test_constant_row_closed_form_matches_the_assignment_solve():
    """``welfare._ud_constant_opt`` against the general solve ``_ud_opt``,
    value and witness, on every item subset in universe order (the way
    mech3 passes its unsold items), and its value against brute force on
    every subset of up to three items."""
    rng = random.Random(3407)
    shapes = set()
    for _ in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 5)
        items = tuple("abcde"[:m])
        rows = [F(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2, 3])) for _ in range(n)]
        vals = tuple(UnitDemandValuation(items, dict.fromkeys(items, x)) for x in rows)
        for mask in range(1, 1 << m):
            chosen = tuple(j for k, j in enumerate(items) if mask >> k & 1)
            got = welfare._ud_constant_opt(rows, chosen)
            assert got == welfare._ud_opt(vals, chosen), (rows, chosen)
            if len(chosen) <= 3:  # brute force grows as (n + 1) ** len(chosen)
                assert got[0] == _ud_brute_value(vals, chosen), (rows, chosen)
            shapes.add((n > len(chosen)) - (n < len(chosen)))
    assert shapes == {-1, 0, 1}


# ---------------------------------------------------------------------------
# allocation plumbing and caps


def test_check_allocation_rejects_overallocation():
    inst = sm_instance([(1, 1), (1, 1)], m=2)
    with pytest.raises(ValueError):
        check_allocation_for(inst.setting, inst.n, Allocation((2, 1)))


def test_check_allocation_rejects_overlap():
    items = ("a", "b")
    inst = Instance(
        CombinatorialSetting(items),
        (
            AdditiveValuation(items, {"a": 1, "b": 1}),
            AdditiveValuation(items, {"a": 1, "b": 1}),
        ),
    )
    with pytest.raises(ValueError):
        check_allocation_for(
            inst.setting, inst.n, Allocation((frozenset({"a"}), frozenset({"a"})))
        )
    # disjoint is fine
    check_allocation_for(inst.setting, inst.n, Allocation((frozenset({"a"}), frozenset({"b"}))))


def test_brute_force_cap(monkeypatch):
    monkeypatch.setenv("OSPCLOCK_BRUTE_CAP", "10")
    inst = sm_instance([(1, 1)] * 4, m=4)
    with pytest.raises(SizeCapError):
        brute_force_opt(inst)


def test_mask_dp_cap(monkeypatch):
    monkeypatch.setenv("OSPCLOCK_OPT_CAP", "10")
    items = ("a", "b", "c")
    table = {b: F(len(b)) for b in all_bundles(items)}
    inst = Instance(
        CombinatorialSetting(items), (ExplicitValuation(items, table),) * 2
    )
    with pytest.raises(SizeCapError):
        opt(inst)


def _three_unit_clock():
    return GaaGame(GaaSpec(MultiUnitSetting(3), (1, 1), (2, 2)), (F(1), F(2), F(3)))


def _explicit_pair():
    items = ("a", "b", "c")
    table = {b: F(len(b)) for b in all_bundles(items)}
    return Instance(CombinatorialSetting(items), (ExplicitValuation(items, table),) * 2)


def _play_clock():
    # both bidders stay in the clock for six steps
    bidders = (MultiUnitValuation((F(2), F(5), F(5))),) * 2
    run_game(_three_unit_clock(), bidders)


def _profiles_of_clock():
    protocol, strategies = three_item_dm()
    domain = [make_single_minded(x, 1, 3) for x in (1, 2)]
    realize_rule(protocol, strategies, [domain, domain])


# each site that refuses a request: (variable, low value, the request);
# the tree cap guards materialization and explicit protocols, the
# brute-force cap both settings
CAP_SITES = {
    "support": ("OSPCLOCK_SUPPORT_CAP", "1", lambda: m2_2x2().branches()),
    "tree-materialize": ("OSPCLOCK_TREE_CAP", "3", lambda: materialize(_three_unit_clock())),
    "tree-protocol": (
        "OSPCLOCK_TREE_CAP",
        "3",
        lambda data=protocol_to_json(materialize(_three_unit_clock())): protocol_from_json(data),
    ),
    "play": ("OSPCLOCK_PLAY_CAP", "2", _play_clock),
    "profile": ("OSPCLOCK_PROFILE_CAP", "1", _profiles_of_clock),
    "brute-multiunit": (
        "OSPCLOCK_BRUTE_CAP", "10", lambda: brute_force_opt(sm_instance([(1, 1)] * 4, m=4))
    ),
    "brute-combinatorial": (
        "OSPCLOCK_BRUTE_CAP", "10", lambda: brute_force_opt(_explicit_pair())
    ),
    "opt": ("OSPCLOCK_OPT_CAP", "10", lambda: opt(_explicit_pair())),
}


@pytest.mark.parametrize("site", sorted(CAP_SITES))
def test_every_cap_refusal_names_its_variable(monkeypatch, site):
    name, low, request = CAP_SITES[site]
    request()  # within the default caps
    monkeypatch.setenv(name, low)
    with pytest.raises(SizeCapError) as refused:
        request()
    assert f"(override with {name})" in str(refused.value)
    assert f"cap {low}" in str(refused.value)


def test_unit_demand_zero_value_match_is_canonical():
    """Bidder 0 is matched even at zero value when that stays optimal."""
    items = ("a", "b")
    inst = Instance(
        CombinatorialSetting(items),
        (
            UnitDemandValuation(items, {"a": 1, "b": 0}),
            UnitDemandValuation(items, {"a": 5, "b": 2}),
        ),
    )
    result = opt(inst)
    assert result.value == 5
    assert result.witness.bundles == (frozenset({"b"}), frozenset({"a"}))


# ---------------------------------------------------------------------------
# welfare_of skips empty bundles


def _seeded_valuations(rng, items, m):
    """One valuation of every class: multi-unit, additive, unit-demand
    and an explicit table."""
    per_item = {j: F(rng.randint(0, 5), rng.randint(1, 3)) for j in items}
    weight = {j: rng.randint(0, 3) for j in items}
    monotone = {b: F(sum(weight[j] for j in b) + len(b) // 2) for b in all_bundles(items)}
    steps = sorted(F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m))
    return (
        MultiUnitValuation(tuple(steps)),
        AdditiveValuation(items, per_item),
        UnitDemandValuation(items, per_item),
        ExplicitValuation(items, monotone),
    )


def test_every_valuation_class_prices_the_empty_bundle_at_zero():
    rng = random.Random(41)
    items = ("a", "b", "c")
    for _ in range(20):
        multi, *combinatorial = _seeded_valuations(rng, items, 3)
        assert multi.value(0) == 0
        for v in combinatorial:
            assert v.value(frozenset()) == 0, v
    with pytest.raises(ValueError, match="empty bundle"):
        table = {b: F(1) for b in all_bundles(("a",))}
        ExplicitValuation(("a",), table)


def test_welfare_of_equals_the_plain_sum_over_every_bundle():
    """Skipping empty bundles changes no total: on seeded feasible
    allocations welfare_of is the sum of every bidder's value."""
    rng = random.Random(43)
    items = ("a", "b", "c")
    for _ in range(60):
        multi, *combinatorial = _seeded_valuations(rng, items, 4)
        vals = tuple(rng.choice(combinatorial) for _ in range(rng.randint(1, 4)))
        inst = Instance(CombinatorialSetting(items), vals)
        owner = [rng.randrange(-1, len(vals)) for _ in items]  # -1: unsold
        bundles = tuple(
            frozenset(j for j, o in zip(items, owner) if o == i) for i in range(len(vals))
        )
        assert welfare_of(inst, Allocation(bundles)) == sum(
            (v.value(b) for v, b in zip(vals, bundles)), F(0)
        )
        k = rng.randint(1, 4)
        qs = [0] * k
        for _ in range(rng.randint(0, 4)):
            qs[rng.randrange(k)] += 1
        inst = Instance(MultiUnitSetting(4), (multi,) * k)
        assert welfare_of(inst, Allocation(tuple(qs))) == sum(
            (multi.value(q) for q in qs), F(0)
        )
