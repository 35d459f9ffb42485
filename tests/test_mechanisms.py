"""Unit tests for the randomized mechanisms and their branch games."""

import gc
import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ospclock import mechanisms, protocols
from ospclock.experiments import (
    ProfileDistribution,
    ProfileEntry,
    eval_on_distribution,
    mc_ratio,
    ud_failure_instance,
)
from ospclock.fixtures import (
    additive_domain,
    fixture_names,
    get_fixture,
    load_instance,
    unit_demand_domain,
)
from ospclock.mechanisms import (
    MECHANISM_NAMES,
    ArrivalPricingGame,
    MaxPricePartitionGame,
    PartitionSaleGame,
    RandomizedMechanism,
    _constant_rows,
    _max_price_exact,
    _split_script,
    arrivals_discarded,
    grand_bundle_auction,
    m1_2x2,
    m2_2x2,
    m3_2x2,
    mech1_single_minded,
    mech2_additive,
    mech3_unit_demand,
    mechanism_for_instance,
    naive_max_price_ud,
    preferred_quantity,
    random_bundles,
    sample_run,
    three_item_dm,
    three_item_dm_mechanism,
)
from ospclock.osp import verify_dsic, verify_ir_nnt, verify_osp, verify_weak_monotonicity
from ospclock.protocols import (
    materialize,
    play,
    protocol_to_json,
    realize_rule,
    run_game,
    truthful_strategies,
)
from ospclock.rng import CounterRng
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
from ospclock.welfare import SizeCapError, _opt_items, opt, welfare_of

ITEMS = ("a", "b")


def sm_instance(*params, m):
    vals = tuple(make_single_minded(x, d, m) for x, d in params)
    return Instance(MultiUnitSetting(m), vals)


def additive(a, b):
    return AdditiveValuation(ITEMS, {"a": F(a), "b": F(b)})


def unit_demand(a, b):
    return UnitDemandValuation(ITEMS, {"a": F(a), "b": F(b)})


def flat_unit_demand(items, c):
    return UnitDemandValuation(items, {j: F(c) for j in items})


def constant_row_instances(count, seed=11, values=(0, 1, 2, 3)):
    """Seeded constant-row instances: 1-5 bidders over 1-4 items, each
    worth one of ``values`` (zeros included), all additive, all
    unit-demand, or mixed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        items = tuple("wxyz"[:m])
        kinds = rng.choice(
            [(AdditiveValuation,), (UnitDemandValuation,), (AdditiveValuation, UnitDemandValuation)]
        )
        vals = tuple(
            rng.choice(kinds)(items, {j: F(c) for j in items})
            for c in [rng.choice(values) for _ in range(n)]
        )
        out.append(Instance(CombinatorialSetting(items), vals))
    return out


def game_expected_welfare(mech, inst):
    """Probability-weighted welfare of the branch games, no shortcut."""
    total = F(0)
    for branch in mech.branches():
        game = branch.game([[v] for v in inst.valuations])
        outcome, _ = run_game(game, inst.valuations)
        total += branch.probability * welfare_of(inst, outcome.allocation)
    return total


# ---------------------------------------------------------------------------
# expected welfare on frozen instances


def test_random_bundles_demo():
    inst = sm_instance((9, 4), (5, 1), (4, 1), m=4)
    mech = random_bundles(3, 4)
    assert [b.label for b in mech.branches()] == [
        "bundle-size=1",
        "bundle-size=2",
        "bundle-size=4",
    ]
    welfares = [welfare_of(inst, b.outcome(inst).allocation) for b in mech.branches()]
    assert welfares == [F(9), F(9), F(9)]
    assert mech.exact_expected_welfare(inst) == F(9)
    assert opt(inst).value == F(9)


def test_random_bundles_grand_branch_charges_clock_price():
    inst = sm_instance((9, 4), (5, 1), (4, 1), m=4)
    branch = random_bundles(3, 4).branches()[-1]
    out = branch.outcome(inst)
    # the whole supply goes to the big bidder at the last rival's exit
    assert out.allocation.bundles == (4, 0, 0)
    assert out.payments == (F(5), F(0), F(0))


def test_random_bundles_bucket_ladder():
    assert [b.label for b in random_bundles(2, 1).branches()] == ["bundle-size=1"]
    assert len(random_bundles(2, 8).branches()) == 4  # 1, 2, 4, 8
    assert [b.label for b in random_bundles(2, 6).branches()] == [
        "bundle-size=1",
        "bundle-size=2",
        "bundle-size=4",
        "bundle-size=6",
    ]


def test_mech1_uniform_unit_demanders():
    # four bidders each wanting one unit for 10, four units on sale
    inst = sm_instance(*[(10, 1)] * 4, m=4)
    mech = mech1_single_minded(4, 4)
    assert mech.branch_count == 1 + 16
    assert mech.exact_expected_welfare(inst) == F(15)
    assert opt(inst).value == F(40)


def test_mech1_sale_prices_at_sample_opt_over_10m():
    inst = sm_instance((10, 1), (3, 1), m=2)
    mech = mech1_single_minded(2, 2)
    by_label = {b.label: b for b in mech.branches()}
    out = by_label["sample=0"].outcome(inst)
    # O = 10, so each unit costs 10 / 20
    assert out.allocation.bundles == (0, 1)
    assert out.payments == (F(0), F(1, 2))
    out = by_label["sample=0,1"].outcome(inst)
    assert out.allocation.bundles == (0, 0)


def test_mech1_buyers_never_buy_zero_utility():
    # price exactly exhausts the buyer's value: O = 10 -> unit price 1/2
    inst = sm_instance((10, 1), (F(1, 2), 1), m=2)
    branch = {b.label: b for b in mech1_single_minded(2, 2).branches()}["sample=0"]
    out = branch.outcome(inst)
    assert out.allocation.bundles == (0, 0)


def test_preferred_quantity_breaks_ties_down():
    flat = MultiUnitValuation((F(5), F(5), F(5)))
    assert preferred_quantity(flat, 3, F(0)) == 1
    assert preferred_quantity(flat, 3, F(5)) == 0
    climb = MultiUnitValuation((F(2), F(4), F(6)))
    # every quantity yields zero surplus at price 2; ties go down to 0
    assert preferred_quantity(climb, 3, F(2)) == 0
    assert preferred_quantity(climb, 3, F(1)) == 3
    assert preferred_quantity(climb, 2, F(1)) == 2


@given(
    marginals=st.lists(
        st.integers(min_value=0, max_value=6), min_size=1, max_size=5
    ).map(lambda xs: sorted(xs, reverse=True)),
    price=st.integers(min_value=0, max_value=7),
)
def test_preferred_quantity_is_greedy_for_decreasing_marginals(marginals, price):
    values = []
    total = F(0)
    for step in marginals:
        total += step
        values.append(total)
    v = MultiUnitValuation(tuple(values))
    greedy = sum(1 for step in marginals if step > price)
    assert preferred_quantity(v, v.m, F(price)) == greedy


def test_mech2_crossed_interests():
    inst = Instance(CombinatorialSetting(ITEMS), (additive(3, 0), additive(0, 3)))
    mech = mech2_additive(2, ITEMS)
    welfares = {
        b.label: welfare_of(inst, b.outcome(inst).allocation) for b in mech.branches()
    }
    assert welfares == {
        "sample=-": F(6),
        "sample=0": F(3),
        "sample=1": F(3),
        "sample=0,1": F(0),
    }
    assert mech.exact_expected_welfare(inst) == F(3)


def test_mech2_equal_value_goes_to_lower_index():
    # bidder 1 sets price a=2; buyer 0 matches it and has the lower index
    inst = Instance(
        CombinatorialSetting(ITEMS),
        (additive(2, 2), additive(2, 0), additive(0, 2)),
    )
    branch = {b.label: b for b in mech2_additive(3, ITEMS).branches()}["sample=1"]
    out = branch.outcome(inst)
    assert out.allocation.bundles[0] == frozenset(ITEMS)
    assert out.payments[0] == F(2)
    assert out.allocation.bundles[2] == frozenset()


def test_mech2_empty_sample_sells_everything_free():
    inst = Instance(
        CombinatorialSetting(ITEMS), (additive(2, 2), additive(2, 0), additive(0, 2))
    )
    branch = {b.label: b for b in mech2_additive(3, ITEMS).branches()}["sample=-"]
    out = branch.outcome(inst)
    assert out.allocation.bundles[0] == frozenset(ITEMS)
    assert out.payments == (F(0), F(0), F(0))


# ---------------------------------------------------------------------------
# the 2x2 mixtures


def test_m1_2x2_two_unit_demanders():
    inst = sm_instance((4, 1), (3, 1), m=2)
    mech = m1_2x2()
    welfares = [welfare_of(inst, b.outcome(inst).allocation) for b in mech.branches()]
    assert welfares == [F(4), F(7), F(7)]
    assert mech.exact_expected_welfare(inst) == F(11, 2)


def test_m1_2x2_probability_knob():
    inst = sm_instance((4, 1), (3, 1), m=2)
    assert m1_2x2(F(1)).exact_expected_welfare(inst) == F(4)
    assert m1_2x2(F(0)).exact_expected_welfare(inst) == F(7)
    with pytest.raises(ValueError):
        m1_2x2(F(3, 2))


def test_m1_2x2_refuses_a_ticket_wider_than_one_word():
    """p = 1/2**70 puts the branch weights over 2**71, a ticket no 64-bit
    word can serve: sample_branch refuses it instead of rejecting every
    word forever."""
    rng = CounterRng(0)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        m1_2x2(F(1, 2**70)).sample_branch(rng)
    assert rng.counter == 0


def test_m2_2x2_symmetric_unit_demand():
    inst = Instance(CombinatorialSetting(ITEMS), (unit_demand(1, 1), unit_demand(1, 1)))
    mech = m2_2x2()
    for branch in mech.branches():
        assert welfare_of(inst, branch.outcome(inst).allocation) == F(2)
    assert mech.exact_expected_welfare(inst) == F(2) == opt(inst).value


SPLIT = (
    ExplicitValuation(
        ITEMS,
        {frozenset(): F(0), frozenset("a"): F(1), frozenset("b"): F(0),
         frozenset(ITEMS): F(1)},
    ),
    ExplicitValuation(
        ITEMS,
        {frozenset(): F(0), frozenset("a"): F(0), frozenset("b"): F(1),
         frozenset(ITEMS): F(1)},
    ),
)


def test_m3_2x2_split_interests_is_tight():
    # one bidder per item; the grand branch wastes half the value and
    # half of the fixed awards land on the wrong item
    inst = Instance(CombinatorialSetting(ITEMS), SPLIT)
    mech = m3_2x2()
    welfares = {
        b.label: welfare_of(inst, b.outcome(inst).allocation) for b in mech.branches()
    }
    assert welfares == {
        "grand-bundle": F(1),
        "fixed-award-0-a": F(2),
        "fixed-award-0-b": F(1),
        "fixed-award-1-a": F(1),
        "fixed-award-1-b": F(2),
    }
    assert mech.exact_expected_welfare(inst) == F(4, 3)
    assert opt(inst).value == F(2)


def test_m2_2x2_split_interests_is_tight():
    inst = Instance(CombinatorialSetting(ITEMS), SPLIT)
    assert m2_2x2().exact_expected_welfare(inst) == F(3, 2)


def test_three_item_dm_trace():
    v0 = MultiUnitValuation((F(3), F(5), F(6)))
    v1 = MultiUnitValuation((F(2), F(3), F(3)))
    inst = Instance(MultiUnitSetting(3), (v0, v1))
    protocol, strategies = three_item_dm()
    behaviors = [
        {
            node: strategies[i](node, [inst.valuations[i]])[0]
            for node in protocol.bidder_nodes(i)
        }
        for i in range(2)
    ]
    outcome, _ = play(protocol, behaviors)
    assert outcome.allocation.bundles == (2, 1)
    assert outcome.payments == (F(1), F(0))
    assert welfare_of(inst, outcome.allocation) == F(7) == opt(inst).value
    mech = three_item_dm_mechanism()
    assert mech.exact_expected_welfare(inst) == F(7)


# ---------------------------------------------------------------------------
# arrival pricing (unit-demand)


def test_arrivals_discarded():
    assert [arrivals_discarded(n) for n in (1, 2, 3, 4, 8, 16)] == [0, 0, 1, 1, 2, 5]


def test_mech3_identical_anonymous_values():
    items = ("x", "y", "z")
    vals = tuple(flat_unit_demand(items, c) for c in (3, 2, 1))
    inst = Instance(CombinatorialSetting(items), vals)
    mech = mech3_unit_demand(3, items)
    welfares = {
        b.label: welfare_of(inst, b.outcome(inst).allocation) for b in mech.branches()
    }
    assert welfares == {
        "arrival-order=0,1,2": F(2),
        "arrival-order=0,2,1": F(3),
        "arrival-order=1,0,2": F(3),
        "arrival-order=1,2,0": F(4),
        "arrival-order=2,0,1": F(5),
        "arrival-order=2,1,0": F(5),
    }
    assert mech.exact_expected_welfare(inst) == F(11, 3)


def fractional_unit_demand_instances(count, seed):
    """Seeded constant unit-demand rows in halves and thirds: 1-5
    bidders over 1-3 items, zeros and ties included."""
    values = tuple(F(k, d) for d in (2, 3) for k in range(7))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        items = ("x", "y", "z")[:m]
        vals = tuple(flat_unit_demand(items, rng.choice(values)) for _ in range(n))
        out.append(Instance(CombinatorialSetting(items), vals))
    return out


def test_mech3_fast_path_matches_game():
    """Each arrival order's shortcut welfare is welfare_of of its game's
    outcome, on a flat market and on seeded constant rows (additive
    rows, where the shortcut declines, zeros included, and unit-demand
    rows in halves and thirds); so is the expectation."""
    items = ("x", "y", "z")
    flat = Instance(
        CombinatorialSetting(items), tuple(flat_unit_demand(items, c) for c in (3, 2, 2))
    )
    fractional = fractional_unit_demand_instances(60, 5)
    assert sum(any(v.constant.denominator != 1 for v in i.valuations) for i in fractional) >= 40
    for inst in (flat, *constant_row_instances(60), *fractional):
        mech = mech3_unit_demand(inst.n, inst.items)
        answers = _constant_rows(inst, UnitDemandValuation) is not None
        for branch in mech.branches():
            game = branch.game([[v] for v in inst.valuations])
            played, _ = run_game(game, inst.valuations)
            welfare = welfare_of(inst, played.allocation)
            fast = branch.shortcut(inst, branch.key)
            assert fast == (welfare if answers else None), (inst, branch.label)
            assert branch.welfare(inst) == welfare, (inst, branch.label)
        assert mech.exact_expected_welfare(inst) == game_expected_welfare(mech, inst)


def test_mech3_kernel_answers_fractional_constant_rows_under_monte_carlo(monkeypatch):
    """On ``ud_failure_instance(16)`` with every value halved, the
    kernel answers each drawn order with no game built, and ``mc_ratio``
    reports what the played games give with the shortcut declining."""
    base = ud_failure_instance(16)
    halved = Instance(
        base.setting, tuple(flat_unit_demand(base.items, v.constant / 2) for v in base.valuations)
    )
    def refuse(*args):
        raise AssertionError("a game was built")

    with monkeypatch.context() as patch:
        patch.setattr(mechanisms, "ArrivalPricingGame", refuse)
        fast = mc_ratio(mech3_unit_demand(16, base.items), halved, 20, 3)
    monkeypatch.setattr(mechanisms, "_constant_row_ranking", lambda instance: None)
    played = mc_ratio(mech3_unit_demand(16, base.items), halved, 20, 3)
    assert (fast.ratio, fast.stderr) == (played.ratio, played.stderr)
    assert fast.ratio == F(99, 200)


def test_every_branch_outcome_is_its_game(monkeypatch):
    """With every shortcut patched to raise, each branch's outcome is
    its game's play, for every registry mechanism on every catalog
    instance whose support it can enumerate; with no shortcut, each
    branch's welfare is that play's welfare, so a serve game's script
    walk (``truthful_welfare``) agrees with ``run_game`` and
    ``welfare_of`` on every branch."""

    def refuse(instance, key):
        raise AssertionError("a branch outcome consulted its shortcut")

    played = set()
    for fixture in fixture_names():
        if get_fixture(fixture).kind != "instance":
            continue
        inst = load_instance(fixture)
        for name in MECHANISM_NAMES:
            try:
                mech = mechanism_for_instance(name, inst)
            except ValueError:
                continue
            if not mech.enumerable:
                continue
            for branch in mech.branches():
                monkeypatch.setattr(branch, "shortcut", refuse)
                game = branch.game([[v] for v in inst.valuations])
                expected, _ = run_game(game, inst.valuations)
                assert branch.outcome(inst) == expected, (fixture, name, branch.label)
                monkeypatch.setattr(branch, "shortcut", None)
                welfare = welfare_of(inst, expected.allocation)
                assert branch.welfare(inst) == welfare, (fixture, name, branch.label)
            played.add(name)
    # no catalog instance has two bidders over two units, m1-2x2's shape
    assert played == set(MECHANISM_NAMES) - {"m1-2x2"}


def test_mech3_two_bidders_nobody_observed():
    # floor(2/e) = 0: the first arrival shops at zero prices, the
    # second pays the first's reported opportunity cost
    vals = (unit_demand(5, 2), unit_demand(4, 4))
    inst = Instance(CombinatorialSetting(ITEMS), vals)
    branches = {b.label: b for b in mech3_unit_demand(2, ITEMS).branches()}
    out = branches["arrival-order=0,1"].outcome(inst)
    assert out.allocation.bundles == (frozenset("a"), frozenset("b"))
    assert out.payments == (F(0), F(2))
    out = branches["arrival-order=1,0"].outcome(inst)
    # ties prefer the earlier item, so bidder 1 grabs "a" and prices
    # bidder 0 out of "b"
    assert out.allocation.bundles == (frozenset(), frozenset("a"))


def test_mech3_zero_surplus_follows_canonical_optimum():
    # the second arrival always has zero surplus on the leftover item;
    # she takes it only when the canonical optimum would seat her,
    # i.e. only when her index beats the equal-value first arrival
    items = ("x", "y")
    vals = (flat_unit_demand(items, 2), flat_unit_demand(items, 2))
    inst = Instance(CombinatorialSetting(items), vals)
    branches = {b.label: b for b in mech3_unit_demand(2, items).branches()}
    out = branches["arrival-order=0,1"].outcome(inst)
    assert out.allocation.bundles == (frozenset("x"), frozenset())
    assert welfare_of(inst, out.allocation) == F(2)
    out = branches["arrival-order=1,0"].outcome(inst)
    assert out.allocation.bundles == (frozenset("y"), frozenset("x"))
    assert out.payments == (F(2), F(0))
    assert welfare_of(inst, out.allocation) == F(4)


def value_surplus_best_item(valuation, unsold, prices):
    """``_best_item`` with every surplus read as ``value({j}) - prices[j]``:
    the reference for its per-item read."""
    best_item = best_u = None
    for j in unsold:
        u = valuation.value({j}) - prices[j]
        if best_u is None or u > best_u:
            best_item, best_u = j, u
    return best_item, best_u


def seeded_single_item_valuation(rng, items, kinds=("additive", "unit_demand", "explicit")):
    """An additive, unit-demand or explicit valuation (one of ``kinds``)
    over ``items`` with values in halves and thirds; the explicit table
    is additive plus a bonus per extra item, so monotone but not
    per-item."""
    kind = rng.choice(kinds)
    values = {j: F(rng.randint(0, 4), rng.choice([1, 2, 3])) for j in items}
    if kind == "additive":
        return AdditiveValuation(items, values)
    if kind == "unit_demand":
        return UnitDemandValuation(items, values)
    bonus = F(rng.randint(0, 2))
    table = {}
    for size in range(len(items) + 1):
        for bundle in itertools.combinations(items, size):
            extra = bonus * (size - 1) if size else 0
            table[frozenset(bundle)] = sum((values[j] for j in bundle), F(0)) + extra
    return ExplicitValuation(items, table)


def test_best_item_reads_the_value_of_each_single_item():
    """On seeded markets with additive, unit-demand and explicit
    valuations, fractional prices and forced zero-surplus ties,
    ``_best_item`` picks what ``value({j}) - prices[j]`` picks."""
    rng = random.Random(23)
    items = ("a", "b", "c")
    kinds = set()
    zero = 0
    for _ in range(400):
        v = seeded_single_item_valuation(rng, items)
        kinds.add(type(v).__name__)
        unsold = tuple(j for j in items if rng.random() < 0.8)
        prices = {j: F(rng.randint(0, 8), rng.choice([1, 2, 3, 4])) for j in unsold}
        if unsold and rng.random() < 0.5:
            j = rng.choice(unsold)
            prices[j] = v.value({j})
        expected = value_surplus_best_item(v, unsold, prices)
        assert mechanisms._best_item(v, unsold, prices) == expected, (v, unsold, prices)
        zero += expected[1] == 0
    assert kinds == {"AdditiveValuation", "UnitDemandValuation", "ExplicitValuation"}
    assert zero > 20


def test_mech3_outcomes_match_the_value_surplus_reference(monkeypatch):
    """Every mech3 branch outcome on seeded mixed-kind markets is the one
    the ``value({j})`` surplus gives, zero-surplus ties (settled by the
    canonical optimum) included."""
    rng = random.Random(29)
    items = ("a", "b")
    markets = [
        Instance(
            CombinatorialSetting(items),
            tuple(seeded_single_item_valuation(rng, items) for _ in range(3)),
        )
        for _ in range(12)
    ]

    def outcomes():
        return [
            [branch.outcome(inst) for branch in mech3_unit_demand(3, items).branches()]
            for inst in markets
        ]

    fast = outcomes()
    ties = []

    def reference(valuation, unsold, prices):
        found = value_surplus_best_item(valuation, unsold, prices)
        ties.append(found[1] == 0)
        return found

    monkeypatch.setattr(mechanisms, "_best_item", reference)
    assert outcomes() == fast
    assert any(ties)


def test_mech3_branches_cap():
    mech = mech3_unit_demand(16, tuple(f"i{k}" for k in range(16)))
    assert mech.branch_count == 20922789888000
    with pytest.raises(SizeCapError):
        mech.branches()


def test_naive_fast_expectation_matches_branches():
    items = ("x", "y", "z")
    vals = tuple(flat_unit_demand(items, c) for c in (3, 2, 1))
    inst = Instance(CombinatorialSetting(items), vals)
    mech = naive_max_price_ud(3, items)
    generic = sum(
        (
            b.probability * welfare_of(inst, b.outcome(inst).allocation)
            for b in mech.branches()
        ),
        F(0),
    )
    assert _max_price_exact(inst, False) == generic == mech.exact_expected_welfare(inst)
    # seeded constant rows, additive rows, zeros and fractions included
    fractional = constant_row_instances(60, 12, (0, 1, 2, 3, F(5, 2), F(7, 3)))
    for inst in constant_row_instances(60) + fractional:
        mech = naive_max_price_ud(inst.n, inst.items)
        assert _max_price_exact(inst, False) is not None
        assert mech.exact_expected_welfare(inst) == game_expected_welfare(mech, inst), inst


def test_naive_fast_path_lets_a_zero_sample_set_the_price():
    # bidders 0 and 2 value nothing; when 2 is sampled alone she sets
    # the price 0, and bidder 0 (a lower index) buys at that price
    items = ("x", "y", "z")
    inst = Instance(
        CombinatorialSetting(items),
        tuple(flat_unit_demand(items, c) for c in (0, 3, 0, 1, 3)),
    )
    mech = naive_max_price_ud(5, items)
    assert _max_price_exact(inst, False) == F(73, 32) == game_expected_welfare(mech, inst)


def test_naive_fast_declines_varied_rows():
    inst = Instance(CombinatorialSetting(ITEMS), (unit_demand(2, 1), unit_demand(1, 1)))
    assert _max_price_exact(inst, False) is None


# ---------------------------------------------------------------------------
# mech2's closed form: conditioning on the price-setter

MAX_PRICE_VALUES = (F(0), F(1), F(1), F(2), F(3), F(5, 2))


def seeded_max_price_instances(count, seed, row):
    """Seeded markets of 1-8 bidders over 1-3 items; ``row(rng, items)``
    draws one bidder from ``MAX_PRICE_VALUES``, so ties, zeros and
    fractions all occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 8), rng.randint(1, 3)
        items = ("x", "y", "z")[:m]
        vals = tuple(row(rng, items) for _ in range(n))
        out.append(Instance(CombinatorialSetting(items), vals))
    return out


def test_mech2_closed_form_matches_the_branch_games_on_additive_rows():
    def row(rng, items):
        return AdditiveValuation(items, {j: rng.choice(MAX_PRICE_VALUES) for j in items})

    for inst in seeded_max_price_instances(200, 5, row):
        mech = mech2_additive(inst.n, inst.items)
        assert _max_price_exact(inst, True) == game_expected_welfare(mech, inst), inst


def test_max_price_closed_forms_match_the_branch_games_on_constant_unit_demand_rows():
    """mech2 and naive-max-price answer every market, fractional rows too."""

    def row(rng, items):
        return flat_unit_demand(items, rng.choice(MAX_PRICE_VALUES))

    instances = seeded_max_price_instances(60, 9, row)
    assert any(F(0) in (v.constant for v in inst.valuations) for inst in instances)
    fractional = 0
    for inst in instances:
        mech = mech2_additive(inst.n, inst.items)
        assert _max_price_exact(inst, True) == game_expected_welfare(mech, inst), inst
        naive = naive_max_price_ud(inst.n, inst.items)
        assert _max_price_exact(inst, False) == game_expected_welfare(naive, inst), inst
        fractional += any(v.constant.denominator != 1 for v in inst.valuations)
    assert fractional >= 20


def test_mech2_closed_form_declines_other_rows():
    mixed = (additive(1, 1), flat_unit_demand(ITEMS, 1))
    varied = (unit_demand(2, 1), unit_demand(1, 1))
    table = {b: F(len(b)) for b in all_bundles(ITEMS)}
    explicit = (ExplicitValuation(ITEMS, table),) * 2
    for vals in (mixed, varied, explicit):
        assert _max_price_exact(Instance(CombinatorialSetting(ITEMS), vals), True) is None


def test_mech2_on_one_late_valued_bidder_is_a_quarter_plus_two_to_the_minus_n():
    """The column (0, ..., 0, 1) gives exactly 1/4 + 2^-n for n >= 2.

    The empty sample sells to the last bidder, and of the setters only
    bidder 0 leaves her first in line; every other sample with a setter
    gives the item to a zero-valued bidder.  A lone bidder is served only
    by the empty sample, so n = 1 gives 1/2.  Criterion 03's floor of 1/4
    is therefore an infimum that no finite instance attains.
    """
    items = ("x",)
    for n in range(1, 65):
        vals = tuple(AdditiveValuation(items, {"x": F(i == n - 1)}) for i in range(n))
        welfare = mech2_additive(n, items).exact_expected_welfare(
            Instance(CombinatorialSetting(items), vals)
        )
        assert welfare == (F(1, 2) if n == 1 else F(1, 4) + F(1, 2**n)), n


def formula_additive_instance(n, m):
    """Bidder i values item t at ((i + 1)(t + 2) mod 23) / 2."""
    items = tuple(f"j{t:02d}" for t in range(m))
    vals = tuple(
        AdditiveValuation(items, {j: F((i + 1) * (t + 2) % 23, 2) for t, j in enumerate(items)})
        for i in range(n)
    )
    return Instance(CombinatorialSetting(items), vals)


def test_mech2_closed_form_plays_no_branch(monkeypatch):
    """200 additive bidders over 20 items: 2^200 branches, answered
    without listing one or building a game."""

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form enumerated or built a game")

    monkeypatch.setattr(RandomizedMechanism, "branches", refuse)
    monkeypatch.setattr(mechanisms, "MaxPricePartitionGame", refuse)
    inst = formula_additive_instance(200, 20)
    welfare = mech2_additive(200, inst.items).exact_expected_welfare(inst)
    assert welfare == F(
        5267601334341272483085251659546217427028063525466012927, 2**175
    )
    assert opt(inst).value == 220


@pytest.mark.parametrize(
    "n, mech2, naive",
    [
        (16, F(1), F(126975, 2**16)),
        (25, F(1), F(66060287, 2**25)),
        (100, F(1), F(2534063260417173422718507286527, 2**100)),
    ],
    ids=["n16", "n25", "n100"],
)
def test_max_price_closed_forms_on_the_crowded_market(n, mech2, naive):
    inst = ud_failure_instance(n)
    assert mech2_additive(n, inst.items).exact_expected_welfare(inst) == mech2
    assert naive_max_price_ud(n, inst.items).exact_expected_welfare(inst) == naive


@pytest.mark.parametrize("row", ["varied unit-demand", "explicit"])
def test_mech2_past_the_support_cap_still_refuses_other_rows(row):
    items = ("a", "b")
    if row == "explicit":
        table = {b: F(len(b)) for b in all_bundles(items)}
        vals = (ExplicitValuation(items, table),) * 16
    else:
        vals = (unit_demand(2, 1),) * 15 + (unit_demand(1, 1),)
    mech = mech2_additive(16, items)
    with pytest.raises(SizeCapError, match="OSPCLOCK_SUPPORT_CAP"):
        mech.exact_expected_welfare(Instance(CombinatorialSetting(items), vals))


# ---------------------------------------------------------------------------
# every branch of every mechanism is an OSP protocol


def small_sm_domain(values, m):
    out = []
    for x in values:
        for d in range(1, m + 1):
            v = make_single_minded(x, d, m)
            if v not in out:
                out.append(v)
    return out


MECHS_WITH_DOMAINS = [
    (random_bundles(2, 2), [small_sm_domain((0, 1, 2), 2)] * 2),
    (mech1_single_minded(2, 2), [small_sm_domain((0, 1, 2), 2)] * 2),
    (m1_2x2(), [small_sm_domain((0, 1, 2), 2)] * 2),
    (
        mech2_additive(2, ITEMS),
        [[additive(x, y) for x in range(3) for y in range(3)]] * 2,
    ),
    (
        naive_max_price_ud(2, ITEMS),
        [[unit_demand(x, y) for x in range(3) for y in range(3)]] * 2,
    ),
    (
        mech3_unit_demand(2, ITEMS),
        [[unit_demand(x, y) for x in range(3) for y in range(3)]] * 2,
    ),
    (
        m2_2x2(),
        [[unit_demand(x, y) for x in range(3) for y in range(3)]] * 2,
    ),
    (
        m3_2x2(),
        [[unit_demand(x, y) for x in range(3) for y in range(3)]] * 2,
    ),
]


@pytest.mark.parametrize(
    "mech,domains", MECHS_WITH_DOMAINS, ids=lambda x: getattr(x, "name", "")
)
def test_every_branch_is_osp_and_ir(mech, domains):
    for branch in mech.branches():
        game = branch.game(domains)
        protocol = materialize(game)
        strategies = truthful_strategies(game, protocol)
        assert verify_osp(protocol, strategies, domains).passed, branch.label
        assert verify_ir_nnt(protocol, strategies, domains).passed, branch.label


def test_tree_play_matches_direct_outcome():
    # the materialized branch game and the singleton-domain simulation
    # must tell the same story
    inst = Instance(
        CombinatorialSetting(ITEMS), (additive(2, 1), additive(1, 2))
    )
    domains = [[additive(x, y) for x in range(3) for y in range(3)]] * 2
    for branch in mech2_additive(2, ITEMS).branches():
        game = branch.game(domains)
        outcome, _ = run_game(game, inst.valuations)
        assert outcome == branch.outcome(inst)


# ---------------------------------------------------------------------------
# sampling


def test_probabilities_sum_to_one():
    for mech, _ in MECHS_WITH_DOMAINS:
        total = sum((b.probability for b in mech.branches()), F(0))
        assert total == F(1)


def test_sample_run_goldens_mech1():
    inst = sm_instance((4, 2), (3, 1), m=2)
    mech = mech1_single_minded(2, 2)
    got = [sample_run(mech, inst, seed) for seed in (0, 1, 2)]
    assert [o.allocation.bundles for o in got] == [(0, 1), (2, 0), (2, 0)]
    assert [o.payments for o in got] == [
        (F(0), F(1, 5)),
        (F(3, 10), F(0)),
        (F(3), F(0)),
    ]


def test_sample_run_goldens_mech2():
    inst = Instance(CombinatorialSetting(ITEMS), (additive(3, 1), additive(1, 2)))
    mech = mech2_additive(2, ITEMS)
    got = [sample_run(mech, inst, seed) for seed in (0, 1, 2)]
    assert [o.allocation.bundles[0] for o in got] == [
        frozenset("a"),
        frozenset(ITEMS),
        frozenset(),
    ]
    assert [o.payments[0] for o in got] == [F(1), F(0), F(0)]


def test_sample_run_goldens_mech3():
    items = ("a", "b", "c")
    vals = tuple(flat_unit_demand(items, c) for c in (3, 2, 1))
    inst = Instance(CombinatorialSetting(items), vals)
    mech = mech3_unit_demand(3, items)
    got = [sample_run(mech, inst, seed) for seed in (0, 1, 2)]
    assert [o.allocation.bundles for o in got] == [
        (frozenset("a"), frozenset("b"), frozenset()),
        (frozenset(), frozenset("a"), frozenset()),
        (frozenset("a"), frozenset("b"), frozenset()),
    ]
    assert got[0].payments == (F(0), F(1), F(0))


def test_sampling_frequencies_track_probabilities():
    from collections import Counter

    mech = m3_2x2()
    counts = Counter(
        mech.sample_branch(CounterRng(seed)).label for seed in range(3000)
    )
    assert abs(counts["grand-bundle"] / 3000 - 1 / 3) < 0.03
    for label in counts:
        if label != "grand-bundle":
            assert abs(counts[label] / 3000 - 1 / 6) < 0.03


def test_sample_run_rejects_type_mismatch():
    inst = sm_instance((4, 1), (3, 1), m=2)
    with pytest.raises(ValueError, match="incompatible"):
        sample_run(mech1_single_minded(2, 3), inst, 0)


# ---------------------------------------------------------------------------
# registry


def test_mechanism_for_instance_round_trip():
    inst = sm_instance((4, 1), (3, 1), m=2)
    assert mechanism_for_instance("m1-2x2", inst).name == "m1-2x2"
    assert mechanism_for_instance("grand-bundle", inst).name == "grand-bundle"
    assert mechanism_for_instance("random-bundles", inst).name == "random-bundles"
    comb = Instance(CombinatorialSetting(ITEMS), (unit_demand(1, 1), unit_demand(1, 1)))
    assert mechanism_for_instance("mech3-unit-demand", comb).name == "mech3-unit-demand"
    with pytest.raises(ValueError, match="multi-unit"):
        mechanism_for_instance("random-bundles", comb)
    with pytest.raises(ValueError, match="unknown mechanism"):
        mechanism_for_instance("mystery", inst)
    # every CLI name builds a mechanism that reports that same name
    shaped = dict.fromkeys(
        ("mech2-additive", "mech3-unit-demand", "naive-max-price", "m2-2x2", "m3-2x2"),
        comb,
    )
    shaped["three-item-dm"] = sm_instance((4, 1), (3, 1), m=3)
    for name in MECHANISM_NAMES:
        assert mechanism_for_instance(name, shaped.get(name, inst)).name == name


# the shape each registry name refuses to leave, as its refusal names it
REGISTRY_SHAPES = {
    "grand-bundle": None,
    "random-bundles": "needs a multi-unit instance",
    "mech1-single-minded": "needs a multi-unit instance",
    "mech1-decreasing-marginals": "needs a multi-unit instance",
    "mech2-additive": "needs a combinatorial instance",
    "mech3-unit-demand": "needs a combinatorial instance",
    "naive-max-price": "needs a combinatorial instance",
    "m1-2x2": "is bound to 2 bidders and 2 units",
    "m2-2x2": "is bound to 2 bidders and 2 items",
    "m3-2x2": "is bound to 2 bidders and 2 items",
    "three-item-dm": "is bound to 2 bidders and 3 units",
}


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_registry_refuses_mis_shaped_instances(name):
    """Each name refuses the other setting kind, and a fixed-shape name
    also a wrong bidder count, with a message that starts with the name
    and names the shape it needs."""
    multi = sm_instance((4, 1), (3, 1), m=2)
    comb = _comb(2)
    shape = REGISTRY_SHAPES[name]
    if shape is None:
        # grand-bundle clocks either kind of supply
        assert {mechanism_for_instance(name, i).name for i in (multi, comb)} == {name}
        return
    wrong = [comb if "unit" in shape else multi]
    if name in ("m1-2x2", "three-item-dm"):
        wrong.append(sm_instance((4, 1), (3, 1), (2, 1), m=2 if name == "m1-2x2" else 3))
    elif "bound" in shape:
        wrong.append(_comb(3))
    for inst in wrong:
        with pytest.raises(ValueError) as refused:
            mechanism_for_instance(name, inst)
        message = str(refused.value)
        assert message.startswith(f"{name} ") and shape in message, message


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_branch_games_refuse_foreign_domains(name):
    """Every branch game of every name, built on a two-bidder instance
    of its kind and fixed size, refuses domains of the other setting
    kind with a ``ValueError`` naming bidder 0, not a bare
    ``TypeError``: clock branches as the serve games do."""
    multi = sm_instance((4, 1), (3, 1), m=3 if name == "three-item-dm" else 2)
    kinds = [multi, _comb(2)]
    if REGISTRY_SHAPES[name] is not None:
        kinds = [multi if "unit" in REGISTRY_SHAPES[name] else _comb(2)]
    for inst in kinds:
        foreign = _comb(2) if inst.multiunit else multi
        domains = [[v] for v in foreign.valuations]
        for branch in mechanism_for_instance(name, inst).branches():
            with pytest.raises(ValueError, match="^bidder 0: "):
                branch.game(domains)


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_branches_refuse_an_instance_with_one_bidder_too_many(name):
    """Every branch of every name, built on a two-bidder instance of its
    kind and fixed size, refuses a three-bidder instance of that kind in
    ``outcome``, ``welfare`` and ``eval_on_distribution`` with a
    ``ValueError`` naming both counts: no bare ``IndexError`` and no
    silent three-bidder answer, mech3's constant-row kernel included."""
    m = 3 if name == "three-item-dm" else 2
    pairs = [
        (sm_instance((4, 1), (3, 1), m=m), sm_instance((4, 1), (3, 1), (2, 1), m=m)),
        (_comb(2), _comb(3)),
    ]
    if REGISTRY_SHAPES[name] is not None:
        pairs = pairs[:1] if "unit" in REGISTRY_SHAPES[name] else pairs[1:]
    for inst, bigger in pairs:
        entry = ProfileEntry("three", F(1), bigger.valuations)
        dist = ProfileDistribution(bigger.setting, (entry,))
        for branch in mechanism_for_instance(name, inst).branches():
            for call in (
                branch.outcome,
                branch.welfare,
                lambda i, b=branch: eval_on_distribution(b, dist),
            ):
                with pytest.raises(ValueError, match="has 2 bidders but 3 domains"):
                    call(bigger)


def test_clock_arms_are_checked_once_per_mechanism(monkeypatch):
    """A clock mechanism checks each arm's ``GaaSpec`` when it is made;
    its branch games run those specs, so building games makes none."""
    cases = [
        (m3_2x2(), [[unit_demand(x, 1)] for x in (2, 3)]),
        (random_bundles(3, 4), [[make_single_minded(x, 2, 4)] for x in (1, 2, 3)]),
    ]
    made = []
    real = protocols.GaaSpec.__post_init__
    monkeypatch.setattr(
        protocols.GaaSpec, "__post_init__", lambda spec: made.append(spec) or real(spec)
    )
    for mech, domains in cases:
        branches = mech.branches()
        for k in range(100):
            branches[k % len(branches)].game(domains)
    assert made == []


def test_branch_labels_are_unique():
    """Monte Carlo plays each sampled key once, so keys and labels each
    name one branch, and match one to one."""
    two = sm_instance((4, 1), (3, 1), m=2)
    three = sm_instance((4, 1), (3, 2), (2, 1), m=3)
    comb = {
        n: Instance(CombinatorialSetting(ITEMS), (unit_demand(1, 1),) * n) for n in (2, 3)
    }
    shaped = {
        "m1-2x2": [two],
        "three-item-dm": [sm_instance((4, 1), (3, 1), m=3)],
        "m2-2x2": [comb[2]],
        "m3-2x2": [comb[2]],
    }
    for name in ("mech2-additive", "mech3-unit-demand", "naive-max-price"):
        shaped[name] = list(comb.values())
    for name in MECHANISM_NAMES:
        for inst in shaped.get(name, [two, three]):
            branches = mechanism_for_instance(name, inst).branches()
            labels = [b.label for b in branches]
            assert len(set(labels)) == len({b.key for b in branches}) == len(labels), (
                name,
                inst.n,
            )


UD_VALUES = ((0, 1), (1, 1), (2, 0), (1, 2))


def _serve_states(game, proto) -> list:
    return [s for s in proto.info.values() if not game.is_leaf(s) and s.price is not None]


def test_item_sale_serves_each_menu_entry():
    """On every serve state of the catalog mech2, naive max-price and
    mech3 trees, message k serves the menu's k-th bundle and leaves the
    rest of the unsold items, in per-item mode as in bundle mode."""
    values = (0, 1, 2)
    cases = [
        (mech2_additive(2, ITEMS), additive_domain(ITEMS, values)),
        (naive_max_price_ud(2, ITEMS), unit_demand_domain(ITEMS, values)),
        (mech3_unit_demand(3, ITEMS), unit_demand_domain(ITEMS, values)[:6]),
    ]
    served = set()
    for mech, domain in cases:
        for branch in mech.branches():
            game = branch.game([domain] * mech.n)
            for state in _serve_states(game, materialize(game)):
                menu = game._menu(state)
                assert len(menu) == len(game.messages(state))
                for k, bundle in enumerate(menu):
                    got, _, left = game._serve(state, k)
                    assert got == bundle, (mech.name, branch.label, state, k)
                    assert left == tuple(j for j in state.left if j not in bundle)
                    served.add((mech.name, game.bundles))
    assert served == {
        ("mech2-additive", True),
        ("naive-max-price", False),
        ("mech3-unit-demand", False),
    }


def test_arrival_price_cache_matches_fresh_games():
    """Every serve state's price, read from the shared memo, equals a fresh
    mechanism's solve of its market."""
    domains = [[unit_demand(a, b) for a, b in UD_VALUES]] * 3
    for k, branch in enumerate(mech3_unit_demand(3, ITEMS).branches()):
        game = branch.game(domains)
        proto = materialize(game)
        assert verify_osp(proto, truthful_strategies(game, proto), domains).passed
        serve = _serve_states(game, proto)
        assert serve
        for state in serve:
            fresh = mech3_unit_demand(3, ITEMS).branches()[k].game(domains)
            assert not fresh._memo
            assert state.price == fresh._price(state.reports, state.left)


def test_mech3_branch_games_solve_each_market_once(monkeypatch):
    """The branch games of one mechanism share their markets' solves.

    A price market asks for 1 + |unsold| witnesses of the observed
    bidders in index order, W(U) and each W(U minus j); the memo solves
    each (observed, items) witness at most once; and on unit-demand
    domains no solve includes the served bidder's valuation: every solve
    is of some serve state's observed bidders alone.
    """
    markets, asked, solves = [], [], []
    solve_prices = ArrivalPricingGame._solve_prices
    witness = ArrivalPricingGame._witness
    solver = mechanisms._opt_items

    def counted_prices(self, reports, unsold):
        ordered = tuple(id(self.domains[b][k]) for b, k in sorted(reports))
        markets.append((tuple(sorted(ordered)), unsold))
        start = len(asked)
        prices = solve_prices(self, reports, unsold)
        rests = [tuple(x for x in unsold if x != j) for j in unsold]
        assert asked[start:] == [(ordered, items) for items in [unsold] + rests]
        return prices

    def counted_witness(self, valuations, items):
        asked.append((tuple(map(id, valuations)), items))
        return witness(self, valuations, items)

    def counted_solver(valuations, items):
        solves.append((tuple(map(id, valuations)), items))
        return solver(valuations, items)

    monkeypatch.setattr(ArrivalPricingGame, "_solve_prices", counted_prices)
    monkeypatch.setattr(ArrivalPricingGame, "_witness", counted_witness)
    monkeypatch.setattr(mechanisms, "_opt_items", counted_solver)
    domains = [[unit_demand(a, b) for a, b in UD_VALUES]] * 3
    observed = set()
    serves = ties = 0
    for branch in mech3_unit_demand(3, ITEMS).branches():
        game = branch.game(domains)
        proto = materialize(game)
        assert verify_osp(proto, truthful_strategies(game, proto), domains).passed
        for state in _serve_states(game, proto):
            serves += 1
            observed.add(tuple(id(domains[b][k]) for b, k in sorted(state.reports)))
            prices = state.price
            ties += any(
                max(v.per_item[j] - prices[j] for j in state.left) == 0
                for v in domains[game.bidder(state)]
            )
    assert markets and ties
    assert len(markets) == len(set(markets))
    assert len(solves) == len(set(solves))
    assert {ids for ids, _ in solves} <= observed
    # the games priced more serve states than markets were solved: they shared them
    assert serves > len(markets)


def _checked_ties(monkeypatch) -> list:
    """Check every zero-surplus tie against a direct solve.

    Each answer of ``_tie_answers`` is compared with whether
    ``_opt_items`` over the observed bidders plus the served one, in
    index order, on the unsold items, gives her the item; the returned
    list gets one ``(valuation classes, slot, answer)`` per tie.
    """
    seen = []
    real = ArrivalPricingGame._tie_answers

    def checked(self, state, ties):
        answers = real(self, state, ties)
        bidder = self.bidder(state)
        reported = sorted(state.reports)
        slot = sum(1 for b, _ in reported if b < bidder)
        observed = [self.domains[b][k] for b, k in reported]
        for (valuation, item, _), got in zip(ties, answers, strict=True):
            valuations = observed[:slot] + [valuation] + observed[slot:]
            want = item in _opt_items(valuations, state.left)[1][slot]
            assert got == want, (state, valuation, item)
            seen.append((frozenset(type(v).__name__ for v in valuations), slot, got))
        return answers

    monkeypatch.setattr(ArrivalPricingGame, "_tie_answers", checked)
    return seen


def _tabulate_mech3(n: int, items: tuple, domains: list) -> None:
    """Every truthful row of every branch tree, which asks each serve
    state about each valuation of its bidder's domain."""
    for branch in mech3_unit_demand(n, items).branches():
        game = branch.game(domains)
        proto = materialize(game)
        tab = protocols._tabulation(proto, truthful_strategies(game, proto), domains)
        for i in range(n):
            tab.bidder_rows(proto, i)


UD = frozenset({"UnitDemandValuation"})


def test_mech3_ties_on_the_catalog_trees_match_the_direct_solve(monkeypatch):
    """On the verify-catalog and criterion 01 mech3 trees, every
    zero-surplus tie read off the observed bidders' witnesses is the
    direct solve's answer."""
    ties = _checked_ties(monkeypatch)
    for values, size in (((0, 1, 2), 6), ((0, 1, 2, 3), 16)):
        domain = unit_demand_domain(ITEMS, values)[:size]
        _tabulate_mech3(3, ITEMS, [domain] * 3)
    answers = {got for kinds, slot, got in ties if slot}
    assert {kinds for kinds, _, _ in ties} == {UD}
    assert answers == {True, False}


def test_mech3_ties_on_seeded_domains_match_the_direct_solve(monkeypatch):
    """On seeded unit-demand domains with fractional levels (n <= 4,
    m <= 3), and on additive, explicit monotone and mixed-class domains,
    every zero-surplus tie is the direct solve's answer; the unit-demand
    ties are read off witnesses, the others solved directly."""
    ties = _checked_ties(monkeypatch)
    rng = random.Random(41)
    kinds = ("unit_demand", "additive", "explicit")
    cases = [("unit_demand",)] * 8 + [(k,) for k in kinds[1:]] * 2 + [kinds] * 6
    for draw in cases:
        n = rng.choice((3, 4))
        items = ("a", "b", "c")[: rng.choice((2, 3))]
        domains = [
            [seeded_single_item_valuation(rng, items, draw) for _ in range(rng.choice((2, 3)))]
            for _ in range(n)
        ]
        _tabulate_mech3(n, items, domains)
    unit = [got for kinds, slot, got in ties if kinds == UD and slot]
    other = [got for kinds, slot, got in ties if kinds != UD and slot]
    assert set(unit) == set(other) == {True, False}
    assert {kinds for kinds, _, _ in ties} > {
        UD,
        frozenset({"AdditiveValuation"}),
        frozenset({"ExplicitValuation"}),
    }


def test_mech3_script_walk_is_the_played_welfare_through_ties(monkeypatch):
    """On seeded integer unit-demand markets over the grid 0..2, n = 4
    and n = 5, with constant rows and with varied ones, every arrival
    order's welfare with the shortcut off (the script walk) is its
    played outcome's, and the walks meet zero-surplus ties on each kind
    of market, every tie checked against a direct solve."""
    ties = _checked_ties(monkeypatch)
    rng = random.Random(35)
    walked_ties = set()
    for n in (4, 5):
        for constant in (True, False):
            for _ in range(2):
                items = ("a", "b", "c")[: rng.choice((2, 3))]
                if constant:
                    rows = [[rng.randint(0, 2)] * len(items) for _ in range(n)]
                else:
                    rows = [[rng.randint(0, 2) for _ in items] for _ in range(n)]
                vals = tuple(
                    UnitDemandValuation(items, {j: F(x) for j, x in zip(items, row)})
                    for row in rows
                )
                inst = Instance(CombinatorialSetting(items), vals)
                singletons = [[v] for v in vals]
                for branch in mech3_unit_demand(n, items).branches():
                    monkeypatch.setattr(branch, "shortcut", None)
                    start = len(ties)
                    welfare = branch.welfare(inst)
                    if len(ties) > start:
                        walked_ties.add((n, constant))
                    outcome, _ = run_game(branch.game(singletons), vals)
                    assert welfare == welfare_of(inst, outcome.allocation), (rows, branch.key)
    assert walked_ties == {(4, True), (4, False), (5, True), (5, False)}
    assert {got for _, slot, got in ties if slot} == {True, False}


def test_branch_welfare_builds_its_game_once(monkeypatch):
    """One ``welfare`` call builds its branch game once.  A serve branch
    (a mech1 split, a mech3 arrival order) walks that game's script, with
    no ``run_game`` and no ``welfare_of``; a clock branch (grand-bundle)
    plays that same game and values its outcome."""
    multi = sm_instance((3, 1), (2, 2), m=2)
    varied = Instance(
        CombinatorialSetting(ITEMS), (unit_demand(2, 1), unit_demand(1, 2), unit_demand(0, 2))
    )
    cases = [
        (mech1_single_minded(2, 2).branches()[2], multi, 0),
        (mech3_unit_demand(3, ITEMS).branches()[0], varied, 0),
        (grand_bundle_auction(2, MultiUnitSetting(2)).branches()[0], multi, 1),
    ]
    assert [type(b.key) for b, _, _ in cases] == [tuple, tuple, str]
    for branch, inst, plays in cases:
        expected = welfare_of(inst, branch.outcome(inst).allocation)
        builds, played, valued = [], [], []

        def counted(key, domains, build=branch.build):
            builds.append(key)
            return build(key, domains)

        def counted_run(game, valuations, run=run_game):
            played.append(game)
            return run(game, valuations)

        def counted_welfare(instance, alloc, welfare=welfare_of):
            valued.append(alloc)
            return welfare(instance, alloc)

        monkeypatch.setattr(branch, "build", counted)
        monkeypatch.setattr(mechanisms, "run_game", counted_run)
        monkeypatch.setattr(mechanisms, "welfare_of", counted_welfare)
        assert branch.welfare(inst) == expected
        assert builds == [branch.key]
        assert len(played) == len(valued) == plays
        monkeypatch.undo()


def test_mech3_best_item_runs_once_per_valuation_and_market(monkeypatch):
    """Across one mechanism's branch trees a served valuation's best item
    is found once per market price dict, and every tabulated row is the
    one a game with its own memo tabulates."""
    calls = []
    best_item = mechanisms._best_item

    def counted(valuation, unsold, prices):
        calls.append((valuation, prices))
        return best_item(valuation, unsold, prices)

    def tabulated(game) -> list:
        proto = materialize(game)
        tab = protocols._tabulation(proto, truthful_strategies(game, proto), domains)
        return [tab.bidder_rows(proto, i) for i in range(proto.n)], proto

    monkeypatch.setattr(mechanisms, "_best_item", counted)
    domains = [[unit_demand(a, b) for a, b in UD_VALUES]] * 3
    tables = {}
    serves = 0
    for branch in mech3_unit_demand(3, ITEMS).branches():
        game = branch.game(domains)
        tables[branch.key], proto = tabulated(game)
        serves += len(_serve_states(game, proto))
    keys = [(id(v), id(prices)) for v, prices in calls]
    assert calls and len(keys) == len(set(keys))
    # the trees asked for more best items than were computed: they shared them
    assert serves * len(domains[0]) > len(calls)
    monkeypatch.undo()
    for branch in mech3_unit_demand(3, ITEMS).branches():
        game = ArrivalPricingGame(branch.key, CombinatorialSetting(ITEMS), domains, memo=None)
        assert tabulated(game)[0] == tables[branch.key], branch.label


def test_mech3_report_is_the_first_equal_domain_entry():
    """A report step answers the index of the first domain entry equal to
    the valuation: for an equal copy that is not the entry itself, and
    in a domain that holds two equal valuations, alone or in a batch."""
    a, b, a_again = unit_demand(2, 1), unit_demand(0, 1), unit_demand(2, 1)
    copy = unit_demand(0, 1)
    assert a == a_again and a is not a_again and copy == b and copy is not b
    domains = [[a, b, a_again], [b, a], [a, b]]
    game = ArrivalPricingGame((0, 1, 2), CombinatorialSetting(ITEMS), domains)
    root = game.root_state()
    assert root.price is None and game.bidder(root) == 0
    assert game.truthful_messages(root, [a, b, a_again, copy]) == [0, 1, 0, 1]
    assert [game.truthful_messages(root, [v]) for v in (a_again, copy)] == [[0], [1]]
    stranger = unit_demand(3, 3)
    outside = "bidder 0's valuation is outside the declared domain"
    with pytest.raises(ValueError, match=outside):
        game.truthful_messages(root, [stranger])
    with pytest.raises(ValueError, match=outside):
        game.truthful_messages(root, [a, stranger])


def test_mech3_refuses_a_domain_over_other_items():
    """The market solves check nothing, so the game checks its domains
    when it is built, naming the bidder."""
    other = UnitDemandValuation(("a", "c"), {"a": F(1), "c": F(2)})
    domains = [[unit_demand(1, 2)], [unit_demand(0, 1), other], [unit_demand(2, 2)]]
    with pytest.raises(ValueError, match="bidder 1: item universe mismatch"):
        ArrivalPricingGame((0, 1, 2), CombinatorialSetting(ITEMS), domains)


def _tree_record(game, domains) -> tuple:
    """The serialized tree, the four verdicts and the realized rule."""
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    rule = realize_rule(proto, strategies, domains)
    verdicts = (
        verify_osp(proto, strategies, domains),
        verify_ir_nnt(proto, strategies, domains),
        verify_weak_monotonicity(rule),
        verify_dsic(rule),
    )
    tree = json.dumps(protocol_to_json(proto), sort_keys=True)
    return tree, [json.dumps(v.to_json(), sort_keys=True) for v in verdicts], rule.table


def _fresh_record(label, domains) -> tuple:
    """A branch game of a mechanism built for this branch alone."""
    fresh = {b.label: b for b in mech3_unit_demand(3, ITEMS).branches()}
    return _tree_record(fresh[label].game(domains), domains)


def test_mech3_branch_order_does_not_change_the_games():
    domains = [[unit_demand(a, b) for a, b in UD_VALUES]] * 3
    labels = [b.label for b in mech3_unit_demand(3, ITEMS).branches()]
    expected = {label: _fresh_record(label, domains) for label in labels}
    shuffled = list(range(len(labels)))
    random.Random(5).shuffle(shuffled)
    for order in (list(reversed(range(len(labels)))), shuffled):
        branches = mech3_unit_demand(3, ITEMS).branches()
        for k in order:
            branch = branches[k]
            got = _tree_record(branch.game(domains), domains)
            assert got == expected[branch.label], branch.label


def _check_shared_against_fresh(mech, values) -> set:
    """Every branch of ``mech`` on ``values`` against fresh mechanisms;
    returns the ids of the domain's valuations."""
    domains = [[unit_demand(a, b) for a, b in values]] * 3
    for branch in mech.branches():
        got = _tree_record(branch.game(domains), domains)
        assert got == _fresh_record(branch.label, domains), branch.label
    return set(map(id, domains[0]))


def test_mech3_memo_ids_outlive_dropped_domains():
    """Dropped domains stay alive in the memo, so new ones get new ids."""
    mech = mech3_unit_demand(3, ITEMS)
    first = _check_shared_against_fresh(mech, UD_VALUES)
    gc.collect()
    second = _check_shared_against_fresh(mech, ((1, 0), (2, 1), (0, 2), (2, 2)))
    assert not first & second
    memo = mech.branches()[0].game([[unit_demand(0, 0)]] * 3)._memo
    held = {id(v) for key, entry in memo.items() if key[0] != "rows" for v in entry[0]}
    assert first <= held and second <= held


def test_mech3_shortcut_resolves_rows_once_per_instance(monkeypatch):
    calls = []
    rows = mechanisms._constant_row_ranking

    def counted_rows(instance):
        calls.append(instance)
        return rows(instance)

    monkeypatch.setattr(mechanisms, "_constant_row_ranking", counted_rows)
    flat = Instance(
        CombinatorialSetting(ITEMS), tuple(flat_unit_demand(ITEMS, c) for c in (3, 2, 2, 1))
    )
    mixed = Instance(CombinatorialSetting(ITEMS), (unit_demand(1, 2),) * 4)
    mech = mech3_unit_demand(4, ITEMS)
    for inst in (flat, mixed, flat):
        assert mech.exact_expected_welfare(inst) == game_expected_welfare(mech, inst)
        mc_ratio(mech, inst, 50, 3)
    assert calls == [flat, mixed]


def test_grand_bundle_combinatorial():
    inst = Instance(CombinatorialSetting(ITEMS), SPLIT)
    mech = grand_bundle_auction(2, inst.setting)
    out = mech.branches()[0].outcome(inst)
    assert out.allocation.bundles[0] == frozenset(ITEMS)
    assert mech.exact_expected_welfare(inst) == F(1)


# ---------------------------------------------------------------------------
# pins: sampler streams and branch-game trees, frozen byte for byte


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SAMPLER_PINS = [
    ("grand-bundle", lambda: grand_bundle_auction(2, MultiUnitSetting(2)), "fb74e4b1b05189e8"),
    ("three-item-dm", three_item_dm_mechanism, "37127bfc934137c8"),
    ("random-bundles-m1", lambda: random_bundles(2, 1), "fdd27ac0363af4e4"),
    ("random-bundles-m2", lambda: random_bundles(2, 2), "522f0ccedb8ffb49"),
    ("random-bundles-m3", lambda: random_bundles(2, 3), "ef58ffeb06ac7873"),
    ("random-bundles-m5", lambda: random_bundles(2, 5), "490e869554837da8"),
    ("random-bundles-m8", lambda: random_bundles(2, 8), "f75f74c588df2e0d"),
    ("m1-2x2-p0", lambda: m1_2x2(F(0)), "2ae11ef7e4655c0f"),
    ("m1-2x2-default", m1_2x2, "07cdd75b93c7eeba"),
    ("m1-2x2-p1", lambda: m1_2x2(F(1)), "fb74e4b1b05189e8"),
    ("m2-2x2", m2_2x2, "bb31ff5ee410da21"),
    ("m3-2x2-p0", lambda: m3_2x2(F(0)), "bb31ff5ee410da21"),
    ("m3-2x2-default", m3_2x2, "cfe59c3426c61588"),
    ("m3-2x2-p1", lambda: m3_2x2(F(1)), "fb74e4b1b05189e8"),
    ("mech1-n2", lambda: mech1_single_minded(2, 2), "3bf3bf281be28034"),
    ("mech1-n3", lambda: mech1_single_minded(3, 3), "4cd594d3a49379cc"),
    ("mech2-n2", lambda: mech2_additive(2, ITEMS), "10d78beb1c74f60a"),
    ("mech2-n3", lambda: mech2_additive(3, ITEMS), "e6b966d3c5ebe1d4"),
    ("naive-max-price-n3", lambda: naive_max_price_ud(3, ITEMS), "e6b966d3c5ebe1d4"),
    ("mech3-n3", lambda: mech3_unit_demand(3, ITEMS), "d20c157845782951"),
    ("mech3-n4", lambda: mech3_unit_demand(4, ITEMS), "b214478e43975545"),
    ("mech3-n16", lambda: mech3_unit_demand(16, ITEMS), "f24a930c329da405"),
    ("mech3-n64", lambda: mech3_unit_demand(64, ITEMS), "795d05247aae30a3"),
]


@pytest.mark.parametrize(
    "build,expected", [p[1:] for p in SAMPLER_PINS], ids=[p[0] for p in SAMPLER_PINS]
)
def test_sampler_stream_pins(build, expected):
    # the branch drawn and the words consumed, for seeds 0..63
    mech = build()
    draws = []
    for seed in range(64):
        rng = CounterRng(seed)
        label = mech.sample_branch(rng).label
        draws.append(f"{label}@{rng.counter}")
    assert _digest(";".join(draws)) == expected


# one shaping instance per registry name; the digest covers every
# (label, probability) of the support, in order
SUPPORT_PINS = [
    ("grand-bundle", lambda: sm_instance((4, 1), (3, 2), (2, 1), m=3), "c4bf4d024bc42d44"),
    ("random-bundles", lambda: sm_instance((4, 1), (3, 2), (2, 1), m=3), "7ec8b134f0807859"),
    ("mech1-single-minded", lambda: sm_instance((4, 1), (3, 2), (2, 1), m=3), "2c3cb9630a2d7449"),
    ("mech1-decreasing-marginals", lambda: sm_instance((4, 1), (3, 1), m=2), "83744bc1e4748124"),
    ("mech2-additive", lambda: _comb(3), "4c6066d2dc923fcf"),
    ("mech3-unit-demand", lambda: _comb(3), "726b42d73ddff90e"),
    ("naive-max-price", lambda: _comb(3), "4c6066d2dc923fcf"),
    ("m1-2x2", lambda: sm_instance((4, 1), (3, 1), m=2), "2f97810a697661ee"),
    ("m2-2x2", lambda: _comb(2), "ff8513f71da19504"),
    ("m3-2x2", lambda: _comb(2), "2d9d755a75667a2c"),
    ("three-item-dm", lambda: sm_instance((4, 1), (3, 1), m=3), "ff63197aa6438c09"),
]


def _comb(n):
    return Instance(CombinatorialSetting(ITEMS), (unit_demand(1, 1),) * n)


def test_support_pins_cover_every_name():
    assert [p[0] for p in SUPPORT_PINS] == list(MECHANISM_NAMES)


@pytest.mark.parametrize(
    "name,build,expected", SUPPORT_PINS, ids=[p[0] for p in SUPPORT_PINS]
)
def test_support_pins(name, build, expected):
    branches = mechanism_for_instance(name, build()).branches()
    text = ";".join(f"{b.label}:{b.probability}" for b in branches)
    assert _digest(text) == expected


def _sm(x, d):
    return make_single_minded(x, d, 2)


def _ud1(x):
    return UnitDemandValuation(("a",), {"a": F(x)})


SM3 = [_sm(1, 1), _sm(2, 1), _sm(3, 2)]
ADD3 = [additive(1, 0), additive(2, 1), additive(0, 2)]
UD3 = [unit_demand(1, 0), unit_demand(2, 1), unit_demand(1, 1)]
UNITS2 = MultiUnitSetting(2)
COMB = CombinatorialSetting(ITEMS)

# each tree has singleton-domain bidders and a serve phase that can run
# out of supply, so forced moves occur in both phases
GAME_PINS = [
    (
        "sale-mixed",
        lambda: PartitionSaleGame(_split_script((0, 2), 4), UNITS2, [SM3, SM3, [_sm(2, 2)], SM3]),
        "28:173f9733c23ae1e5",
    ),
    (
        "sale-no-sample",
        lambda: PartitionSaleGame(_split_script((), 3), UNITS2, [SM3, [_sm(1, 1)], SM3]),
        "16:31d065de86740a8b",
    ),
    (
        "sale-all-sampled",
        lambda: PartitionSaleGame(_split_script((0, 1), 2), UNITS2, [SM3, [_sm(1, 1)]]),
        "4:78f7c875efb09d3f",
    ),
    (
        "max-price-bundle",
        lambda: MaxPricePartitionGame(
            _split_script((1, 2), 4), COMB, [ADD3, ADD3, [additive(1, 1)], ADD3], bundles=True
        ),
        "40:0a801bd72d1a4307",
    ),
    (
        "max-price-single",
        lambda: MaxPricePartitionGame(
            _split_script((0, 1), 5),
            COMB,
            [UD3, [unit_demand(2, 2)], UD3, UD3, UD3],
            bundles=False,
        ),
        "67:92428fd1aa71e1fc",
    ),
    (
        "arrival-3",
        lambda: ArrivalPricingGame((2, 0, 1), COMB, [[unit_demand(1, 2)], UD3, UD3]),
        "34:60b5de25f9105039",
    ),
    (
        "arrival-4-one-item",
        lambda: ArrivalPricingGame(
            (1, 3, 0, 2),
            CombinatorialSetting(("a",)),
            [[_ud1(1)], [_ud1(2)], [_ud1(x) for x in (0, 1, 2)], [_ud1(x) for x in (0, 1, 2)]],
        ),
        "21:cc66ee669034fdba",
    ),
    (
        # nobody is discarded: the root is a serve step
        "arrival-2-no-reports",
        lambda: ArrivalPricingGame((1, 0), COMB, [UD3, UD3]),
        "34:e06ab596cbdc31dc",
    ),
    (
        "arrival-1",
        lambda: ArrivalPricingGame((0,), COMB, [UD3]),
        "4:c28bffd9769acfe3",
    ),
    (
        # an empty sample is priced at the root
        "max-price-bundle-no-sample",
        lambda: MaxPricePartitionGame(_split_script((), 2), COMB, [ADD3, ADD3], bundles=True),
        "13:5e8df8d8bdf72dec",
    ),
    (
        "max-price-single-no-sample",
        lambda: MaxPricePartitionGame(_split_script((), 3), COMB, [UD3] * 3, bundles=False),
        "22:c3dec8c1dd794640",
    ),
]


@pytest.mark.parametrize(
    "build,expected", [p[1:] for p in GAME_PINS], ids=[p[0] for p in GAME_PINS]
)
def test_branch_game_tree_pins(build, expected):
    protocol = materialize(build())
    text = json.dumps(protocol_to_json(protocol), sort_keys=True)
    assert f"{protocol.size()}:{_digest(text)}" == expected


OVER_AC = UnitDemandValuation(("a", "c"), {"a": F(1), "c": F(2)})

# (name, build from domains, the domain of bidders 0 and 2, bidder 1's
# foreign valuation); bidder 1 is served in every game
FOREIGN_DOMAINS = [
    (
        "sale-3-units",
        lambda d: PartitionSaleGame(_split_script((0,), 3), UNITS2, d),
        SM3,
        make_single_minded(1, 1, 3),
    ),
    (
        "sale-items",
        lambda d: PartitionSaleGame(_split_script((0,), 3), UNITS2, d),
        SM3,
        unit_demand(1, 2),
    ),
    (
        "max-price-bundle-units",
        lambda d: MaxPricePartitionGame(_split_script((0,), 3), COMB, d, bundles=True),
        ADD3,
        _sm(1, 1),
    ),
    (
        "max-price-bundle-items",
        lambda d: MaxPricePartitionGame(_split_script((0,), 3), COMB, d, bundles=True),
        ADD3,
        OVER_AC,
    ),
    (
        "max-price-single-units",
        lambda d: MaxPricePartitionGame(_split_script((0,), 3), COMB, d, bundles=False),
        UD3,
        _sm(1, 1),
    ),
    (
        "max-price-single-items",
        lambda d: MaxPricePartitionGame(_split_script((0,), 3), COMB, d, bundles=False),
        UD3,
        OVER_AC,
    ),
    ("arrival-units", lambda d: ArrivalPricingGame((0, 1, 2), COMB, d), UD3, _sm(1, 1)),
]


@pytest.mark.parametrize(
    "build,domain,foreign", [f[1:] for f in FOREIGN_DOMAINS], ids=[f[0] for f in FOREIGN_DOMAINS]
)
def test_every_serve_game_refuses_a_foreign_domain_when_built(build, domain, foreign):
    """A valuation of the wrong kind, unit count or item universe is
    refused when the game is built, with its bidder named."""
    with pytest.raises(ValueError, match="^bidder 1: "):
        build([domain, domain + [foreign], domain])


def _replayed_state(game, u):
    """The game state node id ``u`` reaches from the root, following
    every single-message state's only child."""

    def contract(state):
        while not game.is_leaf(state) and len(game.messages(state)) == 1:
            state = game.child(state, 0)
        return state

    state = contract(game.root_state())
    for msg in u:
        state = contract(game.child(state, msg))
    return state


@pytest.mark.parametrize(
    "build", [p[1] for p in GAME_PINS], ids=[p[0] for p in GAME_PINS]
)
def test_replayed_strategy_matches_tree_states(build):
    # replaying a node id through the game, contracting forced moves,
    # reaches the state materialize recorded, so the tree strategy
    # plays what the game would
    game = build()
    protocol = materialize(game)
    strategy = truthful_strategies(game, protocol)[0]
    for u in protocol.nodes:
        state = _replayed_state(game, u)
        assert state == protocol.info[u]
        domain = game.domains[protocol.bidder(u)]
        assert [strategy(u, [v])[0] for v in domain] == game.truthful_messages(state, domain)
