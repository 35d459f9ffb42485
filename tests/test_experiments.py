"""Tests for distributional evaluation, sampling splits, and search."""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospclock.experiments import (
    InstanceGrid,
    ProfileDistribution,
    ProfileEntry,
    eval_on_distribution,
    hard_dist_additive,
    hard_dist_mua_sm,
    hard_dist_unit_demand,
    mc_ratio,
    sampling_lemma_experiment,
    ud_failure_instance,
    worst_case_search,
    yao_aggregate,
)
from ospclock.fixtures import unit_demand_domain
from ospclock.mechanisms import (
    SupportElement,
    grand_bundle_auction,
    m1_2x2,
    m2_2x2,
    m3_2x2,
    mech2_additive,
    mech3_unit_demand,
    naive_max_price_ud,
    three_item_dm,
    three_item_dm_mechanism,
)
from ospclock.rng import CounterRng
from ospclock.valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    ExplicitValuation,
    Instance,
    MultiUnitSetting,
    check_class,
    make_single_minded,
)
from ospclock.welfare import opt, welfare_of

ITEMS = ("a", "b")
SETTING_2x2 = CombinatorialSetting(ITEMS)


def additive(a, b):
    return AdditiveValuation(ITEMS, {"a": F(a), "b": F(b)})


def flat_market(n, m, value=1):
    vals = tuple(make_single_minded(value, 1, m) for _ in range(n))
    return Instance(MultiUnitSetting(m), vals)


def explicit(vx, vy, vxy):
    return ExplicitValuation(ITEMS, {(): 0, ("a",): vx, ("b",): vy, ("a", "b"): vxy})


# ---------------------------------------------------------------------------
# profile distributions


def test_distribution_rejects_bad_probabilities():
    v = make_single_minded(1, 1, 2)
    with pytest.raises(ValueError, match="sum to"):
        ProfileDistribution(
            MultiUnitSetting(2),
            (ProfileEntry("only", F(1, 2), (v, v)),),
        )


def test_distribution_rejects_ragged_profiles():
    v = make_single_minded(1, 1, 2)
    with pytest.raises(ValueError, match="number of bidders"):
        ProfileDistribution(
            MultiUnitSetting(2),
            (
                ProfileEntry("pair", F(1, 2), (v, v)),
                ProfileEntry("solo", F(1, 2), (v,)),
            ),
        )


def test_distribution_instance_lookup():
    dist = hard_dist_mua_sm(2)
    inst = dist.instance("profile-1")
    assert opt(inst).value == 2
    with pytest.raises(KeyError):
        dist.instance("profile-9")
    assert dist.n == 2


# ---------------------------------------------------------------------------
# the exact 5/6 ceiling for grand-bundle selling


@pytest.mark.parametrize("k", [2, 5, 10, 100])
def test_grand_bundle_hits_five_sixths_exactly(k):
    """The ceiling is 5/6 for every k: the tail profiles are built so
    the grand clock is optimal on all of them, and the symmetric profile
    always loses exactly half."""
    mech = grand_bundle_auction(2, MultiUnitSetting(2))
    rep = eval_on_distribution(mech, hard_dist_mua_sm(k))
    assert rep.ratio == F(5, 6)
    assert tuple(r.ratio for r in rep.breakdown) == (F(1, 2), 1, 1, 1, 1)
    assert rep.exact
    assert rep.ci is None


def test_grand_bundle_report_is_internally_consistent():
    rep = eval_on_distribution(
        grand_bundle_auction(2, MultiUnitSetting(2)), hard_dist_mua_sm(3)
    )
    assert rep.expected_welfare == sum(
        (r.probability * r.welfare for r in rep.breakdown), F(0)
    )
    assert all(r.ratio == r.welfare / r.opt for r in rep.breakdown)


@pytest.mark.parametrize("k,expected", [(2, F(51, 64)), (5, F(473, 625))])
def test_m1_2x2_stays_below_the_ceiling(k, expected):
    rep = eval_on_distribution(m1_2x2(), hard_dist_mua_sm(k))
    assert rep.ratio == expected
    assert rep.ratio <= F(5, 6)
    assert rep.breakdown[0].ratio == F(3, 4)


def test_eval_is_linear_over_the_support():
    dist = hard_dist_mua_sm(2)
    mech = m1_2x2()
    whole = eval_on_distribution(mech, dist)
    mixed = sum(
        (b.probability * eval_on_distribution(b, dist).ratio for b in mech.branches()),
        F(0),
    )
    assert whole.ratio == mixed


def test_eval_accepts_protocol_strategy_pairs():
    v1 = make_single_minded(4, 1, 3)
    v2 = make_single_minded(3, 1, 3)
    dist = ProfileDistribution(
        MultiUnitSetting(3), (ProfileEntry("only", F(1), (v1, v2)),)
    )
    rep = eval_on_distribution(three_item_dm(), dist)
    assert rep.ratio == 1


def test_eval_refuses_zero_opt_profiles():
    zero = make_single_minded(0, 1, 2)
    dist = ProfileDistribution(
        MultiUnitSetting(2), (ProfileEntry("dead", F(1), (zero, zero)),)
    )
    with pytest.raises(ValueError, match="zero optimal welfare"):
        eval_on_distribution(m1_2x2(), dist)


# ---------------------------------------------------------------------------
# hard distribution families


def test_hard_dist_parameter_gates():
    with pytest.raises(ValueError):
        hard_dist_mua_sm(1)
    with pytest.raises(ValueError):
        hard_dist_mua_sm(2, m=1)
    with pytest.raises(ValueError):
        hard_dist_additive(0)


@pytest.mark.parametrize("k", [2, 5])
def test_hard_dist_additive_opt_values(k):
    dist = hard_dist_additive(k)
    assert len(dist.entries) == 7
    assert opt(dist.instance("profile-1")).value == 2
    assert opt(dist.instance("profile-2")).value == k ** 4


@pytest.mark.parametrize("k,p6_opt", [(2, 2), (5, 5)])
def test_hard_dist_unit_demand_opt_values(k, p6_opt):
    dist = hard_dist_unit_demand(k)
    # profile-6 pits values k and 1 on the same item; opt takes the k.
    assert opt(dist.instance("profile-6")).value == p6_opt
    for entry in dist.entries:
        for v in entry.valuations:
            assert check_class(v, "unit_demand")


# ---------------------------------------------------------------------------
# Monte Carlo ratios


def test_mc_ratio_input_gates():
    inst = flat_market(2, 2)
    mech = m1_2x2()
    with pytest.raises(ValueError, match="positive"):
        mc_ratio(mech, inst, trials=0, seed=0)
    dead = flat_market(2, 2, value=0)
    with pytest.raises(ValueError, match="zero optimal welfare"):
        mc_ratio(mech, dead, trials=10, seed=0)


def test_mc_ratio_deterministic_mechanism_has_zero_variance():
    inst = Instance(
        MultiUnitSetting(3),
        (make_single_minded(4, 1, 3), make_single_minded(3, 1, 3)),
    )
    rep = mc_ratio(three_item_dm_mechanism(), inst, trials=50, seed=0)
    assert rep.ratio == 1
    assert rep.stderr == 0.0
    assert not rep.exact
    assert rep.ci == 0.0
    assert rep.trials == 50


def test_mc_ratio_is_a_pure_function_of_the_seed():
    inst = Instance(SETTING_2x2, (additive(3, 1), additive(2, 4)))
    mech = mech2_additive(2, ITEMS)
    a = mc_ratio(mech, inst, trials=100, seed=9)
    b = mc_ratio(mech, inst, trials=100, seed=9)
    assert (a.ratio, a.stderr) == (b.ratio, b.stderr)
    c = mc_ratio(mech, inst, trials=100, seed=10)
    assert c.ratio != a.ratio or c.stderr != a.stderr


def test_mc_ratio_plays_each_label_once_and_draws_every_trial():
    """The per-label memo leaves the stream and the estimate as they were."""
    inst = Instance(SETTING_2x2, (additive(3, 1), additive(2, 4)))
    mech = mech2_additive(2, ITEMS)
    best = opt(inst).value
    rng = CounterRng(9)
    ratios = []
    for _ in range(100):
        branch = mech.sample_branch(rng)
        ratios.append(welfare_of(inst, branch.outcome(inst).allocation) / best)
    mean = sum(ratios, F(0)) / 100
    total_sq = 0.0
    for r in ratios:
        total_sq += float(r) * float(r)
    stderr = math.sqrt(max(total_sq / 100 - float(mean) ** 2, 0.0) / 100)

    draw = mock.Mock(wraps=mech.sample_branch)
    with mock.patch.object(mech, "sample_branch", draw), mock.patch.object(
        SupportElement, "outcome", autospec=True, side_effect=SupportElement.outcome
    ) as play:
        rep = mc_ratio(mech, inst, trials=100, seed=9)
    assert (rep.ratio, rep.stderr) == (mean, stderr)
    assert draw.call_count == 100
    labels = {call.args[0].label for call in play.call_args_list}
    assert play.call_count == len(labels) == len(mech.branches())


def test_mc_ratio_brackets_the_exact_value():
    inst = Instance(SETTING_2x2, (additive(3, 1), additive(2, 4)))
    mech = mech2_additive(2, ITEMS)
    exact = mech.exact_expected_welfare(inst) / opt(inst).value
    rep = mc_ratio(mech, inst, trials=400, seed=7)
    assert abs(float(rep.ratio) - float(exact)) <= 3 * rep.stderr + 1e-12


def test_mech3_beats_naive_on_the_crowded_market():
    """Opportunity-cost pricing holds roughly half the optimum where
    max-sampled-price selling collapses below a tenth."""
    inst = ud_failure_instance(16)
    rep = mc_ratio(mech3_unit_demand(16, inst.items), inst, trials=2000, seed=0)
    assert rep.ratio == F(5019, 10000)
    assert float(rep.ratio) >= 1 / math.e - 3 * rep.stderr

    naive = naive_max_price_ud(16, inst.items)
    exact = naive.exact_expected_welfare(inst)
    assert exact == F(126975, 65536)
    assert exact / opt(inst).value <= F(4, 10)


# ---------------------------------------------------------------------------
# fair-coin sampling splits


def test_sampling_exact_enumeration_small_flat_markets():
    # 12 bidders, 6 units: both halves clear OPT/5 unless one side has
    # fewer than two bidders.
    rep = sampling_lemma_experiment(
        flat_market(12, 6), trials=0, seed=0, critical_threshold=F(1, 3)
    )
    assert rep.exact
    assert rep.probability == F(4070, 4096)
    assert rep.opt == 6
    assert rep.trials is None

    rep = sampling_lemma_experiment(
        flat_market(10, 5), trials=0, seed=0, critical_threshold=F(1, 3)
    )
    assert rep.probability == F(511, 512)


def test_sampling_exact_mixed_values():
    # five bidders at 2, six at 1, four units: a side fails only when it
    # holds no 2-bidder and at most one 1-bidder, and the two failure
    # events are disjoint.
    vals = tuple(make_single_minded(2, 1, 4) for _ in range(5)) + tuple(
        make_single_minded(1, 1, 4) for _ in range(6)
    )
    inst = Instance(MultiUnitSetting(4), vals)
    rep = sampling_lemma_experiment(
        inst, trials=0, seed=0, critical_threshold=F(1, 3)
    )
    assert rep.probability == F(1017, 1024)
    assert rep.opt == 8


def test_sampling_gate_refuses_critical_bidders():
    with pytest.raises(ValueError, match="critical"):
        sampling_lemma_experiment(
            Instance(MultiUnitSetting(2), (make_single_minded(5, 1, 2),)),
            trials=0,
            seed=0,
        )
    # at the default 1/100 threshold no dozen-bidder market can pass:
    # someone always carries at least a 1/12 share of the optimum.
    with pytest.raises(ValueError, match="critical"):
        sampling_lemma_experiment(flat_market(12, 6), trials=0, seed=0)


def test_sampling_gate_matches_on_both_code_paths():
    inst = flat_market(12, 6)
    with mock.patch("ospclock.experiments._unit_step_values", return_value=None):
        with pytest.raises(ValueError, match="critical"):
            sampling_lemma_experiment(inst, trials=0, seed=0)
        generic = sampling_lemma_experiment(
            inst, trials=0, seed=0, critical_threshold=F(1, 3)
        )
    assert generic.probability == F(4070, 4096)


def test_sampling_monte_carlo_needs_trials():
    with pytest.raises(ValueError, match="trials"):
        sampling_lemma_experiment(
            flat_market(13, 6), trials=0, seed=0, critical_threshold=F(1, 3)
        )


def test_sampling_monte_carlo_matches_binomial_tail():
    """200 unit bidders, 200 units: OPT(S) is just |S|, so the joint
    event is a central binomial band whose mass is astronomically close
    to one."""
    inst = flat_market(200, 200)
    rep = sampling_lemma_experiment(inst, trials=2000, seed=0)
    assert not rep.exact
    assert rep.trials == 2000
    tail = F(sum(math.comb(200, s) for s in range(40, 161)), 2 ** 200)
    assert tail > F(1, 2)
    assert rep.probability == 1.0
    assert abs(rep.probability - float(tail)) < 0.05


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=6),
    m=st.integers(min_value=1, max_value=4),
)
def test_sampling_fast_path_agrees_with_generic(values, m):
    """The top-m closed form and the welfare-oracle route are the same
    experiment: equal exact probabilities, and they refuse together."""
    vals = tuple(make_single_minded(x, 1, m) for x in values)
    inst = Instance(MultiUnitSetting(m), vals)
    threshold = F(1)
    try:
        fast = sampling_lemma_experiment(
            inst, trials=0, seed=0, critical_threshold=threshold
        )
    except ValueError:
        fast = None
    with mock.patch("ospclock.experiments._unit_step_values", return_value=None):
        try:
            generic = sampling_lemma_experiment(
                inst, trials=0, seed=0, critical_threshold=threshold
            )
        except ValueError:
            generic = None
    if fast is None:
        assert generic is None
    else:
        assert generic is not None
        assert fast.probability == generic.probability
        assert fast.opt == generic.opt


# ---------------------------------------------------------------------------
# the crowded unit-demand market


def test_ud_failure_instance_shape():
    inst = ud_failure_instance(16)
    assert inst.n == 16
    assert inst.items[:3] == ("j00", "j01", "j02")
    assert inst.items[-1] == "j15"
    assert opt(inst).value == 20
    highs = [v for v in inst.valuations if v.per_item["j00"] == 2]
    assert len(highs) == 4


def test_ud_failure_instance_edges():
    assert opt(ud_failure_instance(1)).value == 2
    assert ud_failure_instance(100).items[-1] == "j99"
    with pytest.raises(ValueError, match="perfect square"):
        ud_failure_instance(12)


# ---------------------------------------------------------------------------
# mixture aggregation


def test_yao_aggregate_uniform_mixture():
    dist = hard_dist_mua_sm(2)
    g = eval_on_distribution(grand_bundle_auction(2, MultiUnitSetting(2)), dist)
    m1 = eval_on_distribution(m1_2x2(), dist)
    # profile-1 is the bottleneck: (1/2 + 3/4) / 2.
    assert yao_aggregate([g, m1]) == F(5, 8)
    assert yao_aggregate([g, m1], weights=[F(1), F(0)]) == F(1, 2)


def test_yao_aggregate_validates_inputs():
    dist = hard_dist_mua_sm(2)
    g = eval_on_distribution(grand_bundle_auction(2, MultiUnitSetting(2)), dist)
    with pytest.raises(ValueError, match="at least one"):
        yao_aggregate([])
    with pytest.raises(ValueError, match="sum to 1"):
        yao_aggregate([g, g], weights=[F(1, 2), F(1, 3)])
    other = eval_on_distribution(m1_2x2(), hard_dist_mua_sm(3))
    same_labels = yao_aggregate([g, other])  # labels align across k
    assert same_labels <= min(g.ratio, other.ratio)


def test_yao_aggregate_rejects_mismatched_profiles():
    dist = hard_dist_mua_sm(2)
    g = eval_on_distribution(grand_bundle_auction(2, MultiUnitSetting(2)), dist)
    crossed = eval_on_distribution(m2_2x2(), hard_dist_additive(2))
    with pytest.raises(ValueError, match="different profiles"):
        yao_aggregate([g, crossed])


# ---------------------------------------------------------------------------
# instance grids and worst-case search


def test_instance_grid_odometer_order():
    d0 = [additive(0, 0), additive(0, 1)]
    d1 = [additive(0, 0), additive(0, 1), additive(0, 2)]
    grid = InstanceGrid(SETTING_2x2, (d0, d1))
    assert grid.count == 6
    seq = [
        tuple(v.per_item["b"] for v in inst.valuations) for inst in grid.instances()
    ]
    # last bidder varies fastest
    assert seq == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    sampled = grid.sample(CounterRng(0))
    assert tuple(v.per_item["b"] for v in sampled.valuations) == (1, 0)


def test_instance_grid_rejects_empty_menus():
    with pytest.raises(ValueError, match="non-empty"):
        InstanceGrid(SETTING_2x2, ([], [additive(1, 1)]))


def test_worst_case_search_mech2_over_additive_grid():
    dom = [additive(x, y) for x in range(5) for y in range(5)]
    grid = InstanceGrid(SETTING_2x2, (dom, dom))
    inst, rep = worst_case_search(mech2_additive(2, ITEMS), grid, budget=10_000)
    assert rep.ratio == F(5, 16)
    assert rep.ratio >= F(1, 4)
    assert rep.trials == 624  # the all-zero instance is skipped
    assert inst is not None and opt(inst).value == 4


def test_worst_case_search_m3_2x2_is_tight_at_two_thirds():
    menu = [
        explicit(vx, vy, vxy)
        for vx in range(3)
        for vy in range(3)
        for vxy in range(3)
        if vxy >= max(vx, vy)
    ]
    assert len(menu) == 14
    grid = InstanceGrid(SETTING_2x2, (menu, menu))
    inst, rep = worst_case_search(m3_2x2(), grid, budget=10_000)
    assert rep.ratio == F(2, 3)
    assert rep.trials == 195


def test_worst_case_search_m2_2x2_is_tight_at_three_quarters():
    menu = [
        explicit(vx, vy, vxy)
        for vx in range(3)
        for vy in range(3)
        for vxy in range(3)
        if vxy >= max(vx, vy)
    ]
    menu = [v for v in menu if check_class(v, "subadditive")]
    grid = InstanceGrid(SETTING_2x2, (menu, menu))
    inst, rep = worst_case_search(m2_2x2(), grid, budget=10_000)
    assert rep.ratio == F(3, 4)
    assert rep.trials == 99


class _FreshMech3:
    """mech3 rebuilt for every instance, so no market is shared."""

    def exact_expected_welfare(self, instance):
        return mech3_unit_demand(instance.n, instance.items).exact_expected_welfare(instance)


def test_worst_case_search_mech3_shared_memo_matches_fresh_mechanisms():
    menu = unit_demand_domain(ITEMS, range(3))
    grid = InstanceGrid(SETTING_2x2, (menu,) * 3)
    shared = worst_case_search(mech3_unit_demand(3, ITEMS), grid, budget=10_000)
    fresh = worst_case_search(_FreshMech3(), grid, budget=10_000)
    assert shared[1].trials == grid.count - 1  # the all-zero instance is skipped
    assert shared[0] is not None
    assert shared == fresh


def test_worst_case_search_sampled_mode_is_seeded():
    dom = [additive(x, y) for x in range(5) for y in range(5)]
    grid = InstanceGrid(SETTING_2x2, (dom, dom))
    a = worst_case_search(mech2_additive(2, ITEMS), grid, budget=50, seed=3)
    b = worst_case_search(mech2_additive(2, ITEMS), grid, budget=50, seed=3)
    assert a[1].ratio == b[1].ratio
    assert a[1].trials <= 50


def test_worst_case_search_edge_cases():
    dom = [additive(0, 0)]
    grid = InstanceGrid(SETTING_2x2, (dom, dom))
    inst, rep = worst_case_search(mech2_additive(2, ITEMS), grid, budget=5)
    assert inst is None
    assert rep.trials == 0
    with pytest.raises(ValueError, match="budget"):
        worst_case_search(mech2_additive(2, ITEMS), grid, budget=0)
