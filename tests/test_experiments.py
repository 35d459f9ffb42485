"""Tests for distributional evaluation, sampling splits, and search."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospclock.experiments import (
    InstanceGrid,
    ProfileDistribution,
    ProfileEntry,
    SamplingReport,
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
from ospclock.fixtures import fixture_names, get_fixture, load_instance, unit_demand_domain
from ospclock.mechanisms import (
    MECHANISM_NAMES,
    SampleServeGame,
    SupportElement,
    grand_bundle_auction,
    m1_2x2,
    m2_2x2,
    m3_2x2,
    mech1_single_minded,
    mech2_additive,
    mech3_unit_demand,
    mechanism_for_instance,
    naive_max_price_ud,
    three_item_dm_mechanism,
)
from ospclock.rng import CounterRng
from ospclock.valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    ExplicitValuation,
    Instance,
    MultiUnitSetting,
    UnitDemandValuation,
    check_class,
    make_single_minded,
)
from ospclock.welfare import opt, unit_step_values, welfare_of

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


def test_eval_takes_the_three_item_clock_as_its_mechanism():
    v1 = make_single_minded(4, 1, 3)
    v2 = make_single_minded(3, 1, 3)
    dist = ProfileDistribution(
        MultiUnitSetting(3), (ProfileEntry("only", F(1), (v1, v2)),)
    )
    rep = eval_on_distribution(three_item_dm_mechanism(), dist)
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
    """The per-key memo leaves the stream and the estimate as they were,
    and plays each branch, by its label, once."""
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
        SupportElement, "welfare", autospec=True, side_effect=SupportElement.welfare
    ) as play:
        rep = mc_ratio(mech, inst, trials=100, seed=9)
    assert (rep.ratio, rep.stderr) == (mean, stderr)
    assert draw.call_count == 100
    labels = {call.args[0].label for call in play.call_args_list}
    assert play.call_count == len(labels) == len(mech.branches())


def test_mc_ratio_past_the_support_cap_plays_every_trial(monkeypatch):
    """With the support cap below the support size, mc_ratio keeps no
    per-key memo: every trial plays its branch, and the estimate is
    the memoized one."""
    inst = Instance(SETTING_2x2, (additive(3, 1), additive(2, 4)))
    mech = mech2_additive(2, ITEMS)
    memoized = mc_ratio(mech, inst, trials=100, seed=9)
    monkeypatch.setenv("OSPCLOCK_SUPPORT_CAP", str(mech.branch_count - 1))
    assert not mech.enumerable
    with mock.patch.object(
        SupportElement, "welfare", autospec=True, side_effect=SupportElement.welfare
    ) as play:
        rep = mc_ratio(mech, inst, trials=100, seed=9)
    assert (rep.ratio, rep.stderr) == (memoized.ratio, memoized.stderr)
    assert play.call_count == 100


def test_mc_ratio_on_the_crowded_market_never_calls_welfare_of():
    """mech3's constant-row shortcut hands mc_ratio each branch's
    welfare, so no trial formats a label, builds a serve game
    (``SampleServeGame``) or re-values an allocation."""
    inst = ud_failure_instance(16)
    expected = mc_ratio(mech3_unit_demand(16, inst.items), inst, trials=300, seed=5)
    with mock.patch(
        "ospclock.mechanisms.welfare_of", side_effect=AssertionError
    ) as in_mechanisms, mock.patch(
        "ospclock.mechanisms._arrival_label", side_effect=AssertionError
    ) as labels, mock.patch(
        "ospclock.mechanisms.SampleServeGame.__init__", side_effect=AssertionError
    ) as games:
        rep = mc_ratio(mech3_unit_demand(16, inst.items), inst, trials=300, seed=5)
    patched = (in_mechanisms, labels, games)
    assert [p.call_count for p in patched] == [0, 0, 0]
    assert rep == expected


def general_unit_demand(n: int, seed: int) -> Instance:
    """Seeded unit-demand rows over two items, values 0..3, so most rows
    value the items unequally and mech3 leaves its constant-row kernel."""
    rng = random.Random(seed)
    vals = tuple(
        UnitDemandValuation(ITEMS, {j: F(rng.randint(0, 3)) for j in ITEMS}) for _ in range(n)
    )
    return Instance(SETTING_2x2, vals)


def test_mc_ratio_on_general_rows_sets_up_one_rule_set_per_instance(monkeypatch):
    """On general mech3 rows every trial walks the instance's rule set:
    ``mc_ratio`` builds one ``ArrivalRules`` per instance, however many
    batches and trials, and no ``SampleServeGame`` at all, and its
    estimate is the one the per-order games give."""
    from ospclock import mechanisms

    first, second = general_unit_demand(6, 3), general_unit_demand(6, 4)
    for inst in (first, second):
        assert mechanisms._constant_rows(inst, UnitDemandValuation) is None
    games = mech3_unit_demand(6, ITEMS)
    for branch in games.branches():
        branch.shortcut = None
    expected = [mc_ratio(games, inst, 40, 2) for inst in (first, second)]
    made = []

    class Counted(mechanisms.ArrivalRules):
        def __init__(self, setting, domains, memo):
            made.append(domains)
            super().__init__(setting, domains, memo)

    def refuse(*args):
        raise AssertionError("a game was built")

    monkeypatch.setattr(mechanisms, "ArrivalRules", Counted)
    monkeypatch.setattr(mechanisms.SampleServeGame, "__init__", refuse)
    mech = mech3_unit_demand(6, ITEMS)
    for seed in (2, 2, 5):
        for k, inst in enumerate((first, second)):
            rep = mc_ratio(mech, inst, 40, seed)
            if seed == 2:
                assert rep == expected[k]
    assert [[v for (v,) in domains] for domains in made] == [
        list(first.valuations),
        list(second.valuations),
    ]


def test_mc_ratio_of_a_split_builds_no_game(monkeypatch):
    """Each drawn mech1 split walks its script on a rule set of the
    instance, so 40 trials on ``sampling-200`` build no serve game and
    report what the played games gave: 181/800 of OPT."""

    def refuse(*args):
        raise AssertionError("a game was built")

    monkeypatch.setattr(SampleServeGame, "__init__", refuse)
    rep = mc_ratio(mech1_single_minded(200, 200), load_instance("sampling-200"), 40, seed=5)
    assert (rep.ratio, rep.stderr) == (F(181, 800), 0.038837703169729274)


def test_mc_ratio_past_the_support_cap_brackets_the_dp():
    """Nine general unit-demand bidders over two items: 9! orders are past
    the support cap, so only Monte Carlo samples them, and the seeded
    estimate lies within 3 stderr of the DP's exact value."""
    inst = general_unit_demand(9, 9)
    mech = mech3_unit_demand(9, ITEMS)
    assert not mech.enumerable
    assert sum(v.per_item["a"] != v.per_item["b"] for v in inst.valuations) >= 5
    exact = mech.exact_expected_welfare(inst) / opt(inst).value
    rep = mc_ratio(mech, inst, 400, 3)
    assert exact == F(56899, 90720)
    assert abs(float(rep.ratio - exact)) <= 3 * rep.stderr


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


def fraction_mc_reference(mech, instance, trials, seed):
    """``mc_ratio``'s (ratio, stderr) as a per-trial ``Fraction`` loop:
    each trial's ratio is divided out, summed and squared on its own,
    and an enumerable support's ratios are memoized by label.  The
    reference for the single exact division and the per-key memo."""
    best = opt(instance).value
    rng = CounterRng(seed)
    total = F(0)
    total_sq = 0.0
    ratios = {}
    for _ in range(trials):
        branch = mech.sample_branch(rng)
        ratio = ratios.get(branch.label) if mech.enumerable else None
        if ratio is None:
            ratio = branch.welfare(instance) / best
            if mech.enumerable:
                ratios[branch.label] = ratio
        total += ratio
        total_sq += float(ratio) * float(ratio)
    mean = total / trials
    variance = max(total_sq / trials - float(mean) ** 2, 0.0)
    return mean, math.sqrt(variance / trials)


LARGE_FIXTURES = ("sampling-200", "ud-failure-16")


def _catalog_fit(name):
    """The first catalog instance the named mechanism fits, skipping the
    two large ones; m1-2x2 fits none, so it gets two bidders over two units."""
    for fixture in fixture_names():
        if get_fixture(fixture).kind != "instance" or fixture in LARGE_FIXTURES:
            continue
        inst = load_instance(fixture)
        try:
            return mechanism_for_instance(name, inst), inst
        except ValueError:
            continue
    inst = Instance(
        MultiUnitSetting(2), (make_single_minded(4, 1, 2), make_single_minded(3, 2, 2))
    )
    return mechanism_for_instance(name, inst), inst


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_mc_ratio_equals_the_fraction_reference_on_the_catalog(name, seed):
    mech, inst = _catalog_fit(name)
    rep = mc_ratio(mech, inst, 60, seed)
    assert (rep.ratio, rep.stderr) == fraction_mc_reference(mech, inst, 60, seed)


def test_mc_ratio_refuses_a_mis_shaped_instance():
    """``mc_ratio`` checks the instance before it draws, as
    ``exact_expected_welfare`` does, so mech3's constant-row kernel and
    mech2's games never index past a smaller instance."""
    items = ud_failure_instance(16).items
    small = ud_failure_instance(9)
    for mech in (mech3_unit_demand(16, items), mech2_additive(16, items)):
        for run in (mech.exact_expected_welfare, lambda inst: mc_ratio(mech, inst, 5, 1)):
            with pytest.raises(ValueError, match="is bound to n=16"):
                run(small)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_ratio_equals_the_fraction_reference_past_the_support_cap(seed):
    inst = ud_failure_instance(16)
    mech = mech3_unit_demand(16, inst.items)
    assert not mech.enumerable
    rep = mc_ratio(mech, inst, 200, seed)
    assert (rep.ratio, rep.stderr) == fraction_mc_reference(mech, inst, 200, seed)


@pytest.mark.parametrize("capped", [False, True], ids=["memo", "past-cap"])
def test_mc_ratio_equals_the_fraction_reference_on_fractional_welfare(monkeypatch, capped):
    """Unit-demand values with denominators 2, 3 and 5 give branch
    welfares that are not integers, so the exact sum leaves the int."""
    items = ("a", "b")
    rows = ((F(3, 2), F(3, 2)), (F(7, 3), F(1, 5)), (F(5, 2), F(5, 2)), (F(1, 3), F(9, 5)))
    inst = Instance(
        CombinatorialSetting(items),
        tuple(UnitDemandValuation(items, dict(zip(items, row))) for row in rows),
    )
    mech = mech3_unit_demand(len(rows), items)
    assert any(b.welfare(inst).denominator != 1 for b in mech.branches())
    if capped:
        monkeypatch.setenv("OSPCLOCK_SUPPORT_CAP", str(mech.branch_count - 1))
    assert mech.enumerable is not capped
    for seed in range(3):
        rep = mc_ratio(mech, inst, 80, seed)
        assert (rep.ratio, rep.stderr) == fraction_mc_reference(mech, inst, 80, seed)


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


def test_sampling_gate_refuses_a_single_bidder():
    """A lone bidder's grand bundle is the whole optimum, critical at
    any threshold up to 1."""
    inst = Instance(MultiUnitSetting(2), (make_single_minded(3, 1, 2),))
    for threshold in (F(1, 100), F(1)):
        with pytest.raises(ValueError, match="bidder 0 is critical"):
            sampling_lemma_experiment(inst, trials=0, seed=0, critical_threshold=threshold)


def test_sampling_gate_refuses_identical_grand_bundle_bidders():
    """Eight bidders who each want all three units: every one's grand
    bundle is worth the whole optimum, so even the top threshold refuses."""
    inst = Instance(MultiUnitSetting(3), (make_single_minded(1, 3, 3),) * 8)
    for threshold in (F(1, 100), F(1)):
        with pytest.raises(ValueError, match="bidder 0 is critical"):
            sampling_lemma_experiment(inst, trials=0, seed=0, critical_threshold=threshold)


def test_sampling_gate_passes_unit_bidders_small_against_many():
    """200 unit bidders over 200 units: each holds 1/200 of the optimum,
    below the default 1/100 threshold and exactly at a 1/200 one."""
    inst = flat_market(200, 200)
    assert sampling_lemma_experiment(inst, trials=20, seed=0).opt == 200
    with pytest.raises(ValueError, match="bidder 0 is critical at threshold 1/200"):
        sampling_lemma_experiment(inst, trials=20, seed=0, critical_threshold=F(1, 200))


def test_sampling_gate_matches_on_both_code_paths():
    inst = flat_market(12, 6)
    with mock.patch("ospclock.experiments.unit_step_values", return_value=None):
        with pytest.raises(ValueError, match="critical"):
            sampling_lemma_experiment(inst, trials=0, seed=0)
        generic = sampling_lemma_experiment(
            inst, trials=0, seed=0, critical_threshold=F(1, 3)
        )
    assert generic.probability == F(4070, 4096)


# 30 unit bidders over 8 units: four positive value classes with mixed
# denominators and a zero class, interleaved by bidder index.  A side
# of a fair split holds about 12 positive bidders, so the 8-unit cap
# binds on both sides.
CLASS_MARKET = Instance(
    MultiUnitSetting(8),
    tuple(
        make_single_minded([F(7, 3), F(3, 2), F(1), F(5, 6), F(0)][i % 5], 1, 8)
        for i in range(30)
    ),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_class_path_matches_the_generic_path_under_monte_carlo(seed):
    """The per-class popcount and the welfare-oracle route draw the same
    splits and count the same hits."""
    run = lambda: sampling_lemma_experiment(  # noqa: E731
        CLASS_MARKET, 200, seed, critical_threshold=F(1, 2), ratio_threshold=F(3, 4)
    )
    fast = run()
    with mock.patch("ospclock.experiments.unit_step_values", return_value=None):
        generic = run()
    assert not fast.exact and fast.trials == 200
    assert fast.opt == generic.opt == 17  # six at 7/3 and two at 3/2
    assert 0 < fast.probability < 1
    assert fast.probability == generic.probability


def test_sampling_gate_rounds_the_scaled_cut_up():
    """Thirteen bidders: twelve at 1 and bidder 5 at 3/2, so OPT = 27/2
    and the values scale by 2.  At 1/9 bidder 5 sits exactly on the
    threshold and is critical; just above it nobody is.  At 5/54 the
    scaled cut is 2.5: bidder 5 (3) is critical and the 1-bidders (2)
    are not, which a rounded-down cut would miss.  Both code paths
    agree."""
    steps = [F(3, 2) if i == 5 else F(1) for i in range(13)]
    inst = Instance(MultiUnitSetting(13), tuple(make_single_minded(x, 1, 13) for x in steps))
    for patched in (False, True):
        with mock.patch(
            "ospclock.experiments.unit_step_values",
            **({"return_value": None} if patched else {"wraps": unit_step_values}),
        ):
            for threshold in (F(1, 9), F(5, 54)):
                with pytest.raises(ValueError, match=f"bidder 5 is critical at threshold {threshold}"):
                    sampling_lemma_experiment(inst, 20, 0, critical_threshold=threshold)
            rep = sampling_lemma_experiment(inst, 20, 0, critical_threshold=F(1, 9) + F(1, 10**6))
            assert rep.opt == F(27, 2) and rep.trials == 20


def test_large_fixture_runs_solve_no_matching_and_read_no_grand_bundle():
    """The two Monte Carlo workloads do integer work only: mech3 on
    ``ud-failure-16`` solves its constant-row optimum in closed form,
    with no assignment solve, and ``sampling-200`` gates on scaled ints,
    with no ``grand_bundle_value``.  Each seeded result is unchanged."""
    ud = load_instance("ud-failure-16")
    expected = {
        0: (F(497, 1000), 0.006114282005635982),
        1: (F(751, 1500), 0.005577467897545188),
        2: (F(184, 375), 0.005761686995753654),
    }
    with mock.patch("ospclock.welfare._hungarian_max", side_effect=AssertionError):
        for seed, pinned in expected.items():
            rep = mc_ratio(mech3_unit_demand(16, ud.items), ud, 150, seed)
            assert (rep.ratio, rep.stderr) == pinned, seed
    flat = load_instance("sampling-200")
    with mock.patch.object(Instance, "grand_bundle_value", side_effect=AssertionError):
        for seed in (0, 1, 2):
            rep = sampling_lemma_experiment(flat, 60, seed)
            assert rep == SamplingReport(1.0, False, 60, F(200), F(1, 5)), seed


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


STEP_VALUES = st.builds(
    F, st.integers(min_value=0, max_value=9), st.sampled_from([1, 1, 2, 3, 4, 6])
)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(STEP_VALUES, min_size=2, max_size=6),
    m=st.integers(min_value=1, max_value=4),
    share=st.sampled_from([F(1, 5), F(1, 3), F(1, 2), F(1)]),
)
def test_sampling_fast_path_agrees_with_generic(values, m, share):
    """The top-m closed form and the welfare-oracle route are the same
    experiment: equal exact probabilities, and they refuse together.
    Steps carry mixed denominators, so the closed form's int scaling
    and its rounded-up bar are exercised."""
    vals = tuple(make_single_minded(x, 1, m) for x in values)
    inst = Instance(MultiUnitSetting(m), vals)
    threshold = F(1)
    try:
        fast = sampling_lemma_experiment(
            inst, trials=0, seed=0, critical_threshold=threshold, ratio_threshold=share
        )
    except ValueError:
        fast = None
    with mock.patch("ospclock.experiments.unit_step_values", return_value=None):
        try:
            generic = sampling_lemma_experiment(
                inst, trials=0, seed=0, critical_threshold=threshold, ratio_threshold=share
            )
        except ValueError:
            generic = None
    if fast is None:
        assert generic is None
    else:
        assert generic is not None
        assert fast.probability == generic.probability
        assert fast.opt == generic.opt


def fraction_sampling_reference(instance, trials, seed, critical_threshold, ratio_threshold):
    """The unit-step split experiment on Fraction sums, one ``below(2)``
    per coin: the reference for the scaled-int kernel and ``coin_mask``."""
    n, m = instance.n, instance.m
    steps = [v.single_minded.x for v in instance.valuations]
    by_value = sorted(range(n), key=lambda i: -steps[i])

    def restricted_opt(member):
        got_in = got_out = 0
        top_in = top_out = F(0)
        for i in by_value:
            if got_in == m and got_out == m:
                break
            if member(i):
                if got_in < m:
                    top_in += steps[i]
                    got_in += 1
            elif got_out < m:
                top_out += steps[i]
                got_out += 1
        return top_in, top_out

    best, _ = restricted_opt(lambda i: True)
    if any(steps[i] >= critical_threshold * best for i in range(n)):
        return None
    bar = best * ratio_threshold

    def joint(mask):
        top_s, top_u = restricted_opt(lambda i: mask >> i & 1)
        return top_s >= bar and top_u >= bar

    if n <= 12:
        hits = sum(1 for mask in range(1 << n) if joint(mask))
        return SamplingReport(F(hits, 1 << n), True, None, best, ratio_threshold)
    rng = CounterRng(seed)
    hits = 0
    for _ in range(trials):
        mask = 0
        for i in range(n):
            if rng.below(2) == 0:
                mask |= 1 << i
        if joint(mask):
            hits += 1
    return SamplingReport(hits / trials, False, trials, best, ratio_threshold)


def test_sampling_int_kernel_matches_the_fraction_reference():
    """Exact probabilities for n <= 12 and equal seeded reports for
    13 <= n <= 60, on markets with mixed-denominator steps and zeros."""
    rnd = random.Random(2024)
    steps = [F(0), F(1), F(2), F(5, 2), F(7, 3), F(3, 4), F(19, 2)]
    for k in range(48):
        n = rnd.randint(2, 12) if k % 2 else rnd.randint(13, 60)
        m = rnd.randint(1, n)
        inst = Instance(
            MultiUnitSetting(m),
            tuple(make_single_minded(rnd.choice(steps), 1, m) for _ in range(n)),
        )
        critical = rnd.choice([F(1, 2), F(1)])
        share = rnd.choice([F(1, 5), F(2, 5), F(1, 2)])
        ref = fraction_sampling_reference(inst, 70, k, critical, share)
        if ref is None:
            with pytest.raises(ValueError, match="critical"):
                sampling_lemma_experiment(inst, 70, k, critical, share)
            continue
        assert sampling_lemma_experiment(inst, 70, k, critical, share) == ref, k


@pytest.mark.parametrize("name", ["critical_threshold", "ratio_threshold"])
@pytest.mark.parametrize("value", [F(0), F(-1, 2), F(-1), F(2), F(101, 100)])
def test_sampling_refuses_thresholds_outside_the_unit_interval(name, value):
    inst = flat_market(13, 6)
    with pytest.raises(ValueError, match=name):
        sampling_lemma_experiment(inst, trials=10, seed=0, **{name: value})
    # the interval's closed end is a valid share
    ok = {"critical_threshold": F(1), name: F(1)}
    assert sampling_lemma_experiment(inst, trials=10, seed=0, **ok).trials == 10


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
