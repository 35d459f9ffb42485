"""Unit tests for the randomized mechanisms and their branch games."""

import gc
import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ospclock import mechanisms
from ospclock.experiments import mc_ratio
from ospclock.mechanisms import (
    MECHANISM_NAMES,
    ArrivalPricingGame,
    MaxPricePartitionGame,
    PartitionSaleGame,
    _constant_integer_rows,
    _mech3_fast_outcome,
    _naive_constant_rows_exact,
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
    game_strategy,
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
    make_single_minded,
)
from ospclock.welfare import SizeCapError, opt, welfare_of

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


def constant_row_instances(count, seed=11):
    """Seeded constant-row instances: 1-5 bidders over 1-4 items, integer
    values 0-3 with zeros, all additive, all unit-demand, or mixed."""
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
            for c in [rng.randint(0, 3) for _ in range(n)]
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
            node: strategies[i](inst.valuations[i], node)
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


def test_mech3_fast_path_matches_game():
    items = ("x", "y", "z")
    vals = tuple(flat_unit_demand(items, c) for c in (3, 2, 2))
    inst = Instance(CombinatorialSetting(items), vals)
    rows = _constant_integer_rows(inst, UnitDemandValuation)
    for branch in mech3_unit_demand(3, items).branches():
        order = tuple(
            int(t) for t in branch.label.split("=")[1].split(",")
        )
        fast = _mech3_fast_outcome(inst, rows, order)
        game = ArrivalPricingGame(order, items, [[v] for v in vals])
        slow, _ = run_game(game, vals)
        assert fast.allocation.bundles == slow.allocation.bundles
        assert fast.payments == slow.payments
    # seeded constant rows, additive rows and zeros included: each
    # arrival order's outcome, and the expectation, is the game's
    for inst in constant_row_instances(60):
        mech = mech3_unit_demand(inst.n, inst.items)
        for branch in mech.branches():
            game = branch.game([[v] for v in inst.valuations])
            slow, _ = run_game(game, inst.valuations)
            fast = branch.outcome(inst)
            assert fast.allocation == slow.allocation, (inst, branch.label)
            assert fast.payments == slow.payments, (inst, branch.label)
        assert mech.exact_expected_welfare(inst) == game_expected_welfare(mech, inst)


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
    assert _naive_constant_rows_exact(inst) == generic == mech.exact_expected_welfare(inst)
    # seeded constant rows, additive rows and zeros included
    for inst in constant_row_instances(60):
        mech = naive_max_price_ud(inst.n, inst.items)
        assert _naive_constant_rows_exact(inst) is not None
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
    assert _naive_constant_rows_exact(inst) == F(73, 32) == game_expected_welfare(mech, inst)


def test_naive_fast_declines_varied_rows():
    inst = Instance(CombinatorialSetting(ITEMS), (unit_demand(2, 1), unit_demand(1, 1)))
    assert _naive_constant_rows_exact(inst) is None


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


def test_branch_labels_are_unique():
    """Monte Carlo plays each sampled label once, so a label names one branch."""
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
            labels = [b.label for b in mechanism_for_instance(name, inst).branches()]
            assert len(set(labels)) == len(labels), (name, inst.n)


UD_VALUES = ((0, 1), (1, 1), (2, 0), (1, 2))


def test_arrival_price_cache_matches_fresh_games():
    """Every serve state's cached prices equal a fresh mechanism's solve."""
    domains = [[unit_demand(a, b) for a, b in UD_VALUES]] * 3
    for k, branch in enumerate(mech3_unit_demand(3, ITEMS).branches()):
        game = branch.game(domains)
        proto = materialize(game)
        assert verify_osp(proto, truthful_strategies(game, proto), domains).passed
        serve = [s for s in proto.info.values() if not game.is_leaf(s) and not s.reporting]
        assert serve
        for state in serve:
            key = (state.reports, state.unsold)
            assert key in game._prices
            fresh = mech3_unit_demand(3, ITEMS).branches()[k].game(domains)
            assert game._price_vector(*key) == fresh._price_vector(*key)


def test_mech3_branch_games_solve_each_market_once(monkeypatch):
    """The branch games of one mechanism share their markets' solves."""
    solves, optima = [], []
    solve_prices = ArrivalPricingGame._solve_prices
    restricted = mechanisms.opt_restricted

    def counted_solve(self, reported, unsold):
        solves.append((tuple(sorted(map(id, reported))), unsold))
        return solve_prices(self, reported, unsold)

    def counted_opt(inst, items=None):
        optima.append((tuple(map(id, inst.valuations)), items))
        return restricted(inst, items=items)

    monkeypatch.setattr(ArrivalPricingGame, "_solve_prices", counted_solve)
    monkeypatch.setattr(mechanisms, "opt_restricted", counted_opt)
    domains = [[unit_demand(a, b) for a, b in UD_VALUES]] * 3
    lookups = 0
    for branch in mech3_unit_demand(3, ITEMS).branches():
        game = branch.game(domains)
        proto = materialize(game)
        assert verify_osp(proto, truthful_strategies(game, proto), domains).passed
        lookups += len(game._prices)
    assert solves and optima
    assert len(solves) == len(set(solves))
    assert len(optima) == len(set(optima))
    # the games looked up more markets than were solved: they shared them
    assert lookups > len(solves)


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
    rows = mechanisms._constant_integer_rows

    def counted_rows(instance, kind):
        calls.append(instance)
        return rows(instance, kind)

    monkeypatch.setattr(mechanisms, "_constant_integer_rows", counted_rows)
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

# each tree has singleton-domain bidders and a serve phase that can run
# out of supply, so forced moves occur in both phases
GAME_PINS = [
    (
        "sale-mixed",
        lambda: PartitionSaleGame((0, 2), 4, 2, [SM3, SM3, [_sm(2, 2)], SM3]),
        "28:173f9733c23ae1e5",
    ),
    (
        "sale-no-sample",
        lambda: PartitionSaleGame((), 3, 2, [SM3, [_sm(1, 1)], SM3]),
        "16:31d065de86740a8b",
    ),
    (
        "sale-all-sampled",
        lambda: PartitionSaleGame((0, 1), 2, 2, [SM3, [_sm(1, 1)]]),
        "4:78f7c875efb09d3f",
    ),
    (
        "max-price-bundle",
        lambda: MaxPricePartitionGame(
            (1, 2), ITEMS, 4, [ADD3, ADD3, [additive(1, 1)], ADD3]
        ),
        "40:0a801bd72d1a4307",
    ),
    (
        "max-price-single",
        lambda: MaxPricePartitionGame(
            (0, 1), ITEMS, 5, [UD3, [unit_demand(2, 2)], UD3, UD3, UD3], "single"
        ),
        "67:92428fd1aa71e1fc",
    ),
    (
        "arrival-3",
        lambda: ArrivalPricingGame((2, 0, 1), ITEMS, [[unit_demand(1, 2)], UD3, UD3]),
        "34:60b5de25f9105039",
    ),
    (
        "arrival-4-one-item",
        lambda: ArrivalPricingGame(
            (1, 3, 0, 2),
            ("a",),
            [[_ud1(1)], [_ud1(2)], [_ud1(x) for x in (0, 1, 2)], [_ud1(x) for x in (0, 1, 2)]],
        ),
        "21:cc66ee669034fdba",
    ),
]


@pytest.mark.parametrize(
    "build,expected", [p[1:] for p in GAME_PINS], ids=[p[0] for p in GAME_PINS]
)
def test_branch_game_tree_pins(build, expected):
    protocol = materialize(build())
    text = json.dumps(protocol_to_json(protocol), sort_keys=True)
    assert f"{protocol.size()}:{_digest(text)}" == expected


@pytest.mark.parametrize(
    "build", [p[1] for p in GAME_PINS], ids=[p[0] for p in GAME_PINS]
)
def test_replayed_strategy_matches_tree_states(build):
    # replaying a node id through the game contracts the same forced
    # moves that materialize did
    game = build()
    protocol = materialize(game)
    from_tree = game_strategy(game, protocol)
    replayed = game_strategy(game)
    for u in protocol.nodes:
        for v in game.domains[protocol.bidder(u)]:
            assert replayed(v, u) == from_tree(v, u)
