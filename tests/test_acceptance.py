"""End-to-end acceptance sweep: one test and one printed verdict per claim.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
each test also asserts, so a red verdict is a red test.  The sweeps are
sized to finish in well under the per-claim runtime targets on a laptop:
the whole file is a few minutes, dominated by the permutation trees of
the unit-demand mechanism and the 10^5-trial Monte Carlo run.
"""

import itertools
import math
import time
from fractions import Fraction as F
from functools import lru_cache

from ospclock.experiments import (
    eval_on_distribution,
    hard_dist_mua_sm,
    mc_ratio,
    sampling_lemma_experiment,
    ud_failure_instance,
)
from ospclock.fixtures import (
    additive_domain,
    decreasing_marginal_domain,
    explicit_domain,
    load_game,
    load_instance,
    single_minded_domain,
    unit_demand_domain,
)
from ospclock.mechanisms import (
    grand_bundle_auction,
    m1_2x2,
    m2_2x2,
    m3_2x2,
    mech1_single_minded,
    mech2_additive,
    mech3_unit_demand,
    naive_max_price_ud,
    random_bundles,
    three_item_dm,
)
from ospclock.osp import (
    check_divergence_lemma,
    replay_witness,
    verify_dsic,
    verify_ir_nnt,
    verify_osp,
    verify_weak_monotonicity,
)
from ospclock.protocols import (
    behavior_from_strategy,
    materialize,
    play,
    realize_rule,
    truthful_strategies,
)
from ospclock.rng import CounterRng
from ospclock.valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    make_single_minded,
)
from ospclock.welfare import brute_force_opt, opt, opt_value_restricted, welfare_of

ITEMS2 = ("a", "b")
GRID3 = tuple(range(4))


def _verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {title}: {status}{suffix}")
    assert ok, f"criterion {num:02d} {title}: {status}{suffix}"


def _worst_exact_ratio(mech, domain):
    """Exhaustive worst expected-welfare / OPT over a shared domain."""
    worst = None
    for profile in itertools.product(domain, repeat=mech.n):
        inst = Instance(mech.setting, profile)
        best = opt_value_restricted(inst)
        if best == 0:
            continue
        ratio = mech.exact_expected_welfare(inst) / best
        worst = ratio if worst is None else min(worst, ratio)
    return worst


@lru_cache(maxsize=1)
def _verified_games():
    """Every support tree that must verify cleanly, built once.

    Returned as (label, protocol, strategies, domains) tuples; the
    verification test walks them and the realized-rule test reuses the
    same list, so whichever test runs first pays the build cost.
    """
    sm2 = single_minded_domain(2, GRID3, (1, 2))
    sm4 = single_minded_domain(4, GRID3, range(1, 5))
    add = additive_domain(ITEMS2, GRID3)
    ud = unit_demand_domain(ITEMS2, GRID3)
    sub = explicit_domain(ITEMS2, GRID3, "subadditive")
    mono = explicit_domain(ITEMS2, GRID3, "monotone")

    entries = [
        (grand_bundle_auction(2, MultiUnitSetting(2)), sm2),
        (random_bundles(3, 4), sm4),
        (mech1_single_minded(2, 2), sm2),
        (mech2_additive(2, ITEMS2), add),
        (mech3_unit_demand(3, ITEMS2), ud),
        (m1_2x2(), sm2),
        (m2_2x2(), sub),
        (m3_2x2(), mono),
    ]
    games = []
    for mech, dom in entries:
        domains = [dom] * mech.n
        for el in mech.branches():
            game = el.game(domains)
            proto = materialize(game)
            strats = truthful_strategies(game, proto)
            games.append((f"{mech.name}/{el.label}", proto, strats, domains))
    proto, strats = three_item_dm()
    dm3 = decreasing_marginal_domain(3, GRID3)
    games.append(("three-item-dm", proto, strats, [dm3, dm3]))
    return games


# ---------------------------------------------------------------------------
# 1. every mechanism in the catalog verifies; the sealed-bid control fails


def test_criterion_01_verification_suite():
    t0 = time.monotonic()
    failures = []
    for label, proto, strats, domains in _verified_games():
        if not verify_osp(proto, strats, domains).passed:
            failures.append(f"{label}: dominance")
        if not verify_ir_nnt(proto, strats, domains).passed:
            failures.append(f"{label}: participation")

    proto, strats, domains = load_game("sealed-bid-2x2")
    verdict = verify_osp(proto, strats, domains)
    if verdict.passed:
        failures.append("sealed-bid-2x2: expected a failure")
    else:
        truthful, deviating = replay_witness(proto, verdict.witness)
        if not truthful < deviating:
            failures.append("sealed-bid-2x2: witness did not replay")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    detail = (
        "; ".join(failures)
        if failures
        else f"{len(_verified_games())} trees clean, sealed-bid witness "
        f"replayed, {elapsed:.1f}s"
    )
    _verdict(1, "dominance/participation verification suite", ok, detail)


# ---------------------------------------------------------------------------
# 2. the grand-bundle clock hits its 5/6 ceiling exactly at every scale


def test_criterion_02_grand_bundle_exact_five_sixths():
    mech = grand_bundle_auction(2, MultiUnitSetting(2))
    ok = True
    for k in (2, 5, 10, 100):
        rep = eval_on_distribution(mech, hard_dist_mua_sm(k))
        ok = ok and rep.exact and rep.ratio == F(5, 6)
        ok = ok and tuple(r.ratio for r in rep.breakdown) == (F(1, 2), 1, 1, 1, 1)
    _verdict(
        2,
        "grand-bundle expected ratio is exactly 5/6",
        ok,
        "k in {2, 5, 10, 100}, breakdown (1/2, 1, 1, 1, 1)",
    )


# ---------------------------------------------------------------------------
# 3. additive split-and-price: welfare floor and per-item winner probability


def _additive_sweep(n: int, hi: int):
    """Worst ratio and worst chance the canonical winner keeps an item.

    The canonical winner of item j is the lowest-index bidder with the
    maximum value for j; items nobody values are skipped (any assignment
    of them is optimal, so the claim says nothing there).
    """
    mech = mech2_additive(n, ITEMS2)
    branches = mech.branches()
    setting = CombinatorialSetting(ITEMS2)
    levels = [F(v) for v in range(hi + 1)]
    vals = [
        AdditiveValuation(ITEMS2, dict(zip(ITEMS2, per)))
        for per in itertools.product(levels, repeat=2)
    ]
    worst_ratio = None
    worst_prob = None
    count = 0
    for profile in itertools.product(vals, repeat=n):
        inst = Instance(setting, profile)
        best = opt_value_restricted(inst)
        if best == 0:
            continue
        count += 1
        star = {}
        for j in ITEMS2:
            column = [v.per_item[j] for v in profile]
            top = max(column)
            star[j] = column.index(top) if top > 0 else None
        welfare = F(0)
        win = {j: F(0) for j in ITEMS2}
        for el in branches:
            out = el.outcome(inst)
            welfare += el.probability * welfare_of(inst, out.allocation)
            for j, owner in star.items():
                if owner is not None and j in out.allocation.bundles[owner]:
                    win[j] += el.probability
        ratio = welfare / best
        worst_ratio = ratio if worst_ratio is None else min(worst_ratio, ratio)
        for j, owner in star.items():
            if owner is not None:
                worst_prob = win[j] if worst_prob is None else min(worst_prob, win[j])
    return count, worst_ratio, worst_prob


def test_criterion_03_additive_quarter_floors():
    t0 = time.monotonic()
    count2, ratio2, prob2 = _additive_sweep(2, 4)
    count3, ratio3, prob3 = _additive_sweep(3, 3)
    ok = (
        min(ratio2, ratio3) >= F(1, 4)
        and min(prob2, prob3) >= F(1, 4)
    )
    elapsed = time.monotonic() - t0
    _verdict(
        3,
        "additive split-and-price floor OPT/4",
        ok and elapsed < 300.0,
        f"worst ratios {ratio2}, {ratio3}; worst item-to-winner probability "
        f"{min(prob2, prob3)}; {count2 + count3} instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. the three hand-built 2x2 lotteries meet their floors


def test_criterion_04_two_by_two_floors():
    w1 = _worst_exact_ratio(m1_2x2(), single_minded_domain(2, range(5), (1, 2)))
    w2 = _worst_exact_ratio(m2_2x2(), explicit_domain(ITEMS2, GRID3, "subadditive"))
    w3 = _worst_exact_ratio(m3_2x2(), explicit_domain(ITEMS2, GRID3, "monotone"))
    ok = w1 >= F(3, 4) and w2 >= F(3, 4) and w3 >= F(2, 3)
    _verdict(
        4,
        "2x2 lottery floors 3/4, 3/4, 2/3",
        ok,
        f"worst ratios {w1} (single-minded), {w2} (subadditive), {w3} (monotone)",
    )


# ---------------------------------------------------------------------------
# 5. the deterministic three-unit clock keeps two thirds of the optimum


def test_criterion_05_three_unit_clock_floor():
    proto, strategies = three_item_dm()
    domain = decreasing_marginal_domain(3, range(5))
    setting = MultiUnitSetting(3)
    worst = None
    for profile in itertools.product(domain, repeat=2):
        inst = Instance(setting, profile)
        best = opt_value_restricted(inst)
        if best == 0:
            continue
        behaviors = [
            behavior_from_strategy(proto, i, strategies[i], v)
            for i, v in enumerate(profile)
        ]
        outcome, _ = play(proto, behaviors)
        ratio = welfare_of(inst, outcome.allocation) / best
        worst = ratio if worst is None else min(worst, ratio)
    _verdict(
        5,
        "three-unit clock floor 2/3",
        worst >= F(2, 3),
        f"worst ratio {worst} over {len(domain) ** 2} marginal profiles",
    )


# ---------------------------------------------------------------------------
# 6. random bundle sizes lose at most the 3*ceil(log2 m) factor


def test_criterion_06_random_bundles_log_floor():
    details = []
    ok = True
    for m in (2, 4, 8):
        floor = F(1, 3 * math.ceil(math.log2(m)))
        worst = _worst_exact_ratio(
            random_bundles(2, m), single_minded_domain(m, range(6), range(1, m + 1))
        )
        rng = CounterRng(6)
        for n in (3, 4, 5):
            mech = random_bundles(n, m)
            for _ in range(25):
                profile = tuple(
                    make_single_minded(rng.below(6), 1 + rng.below(m), m)
                    for _ in range(n)
                )
                inst = Instance(MultiUnitSetting(m), profile)
                best = opt_value_restricted(inst)
                if best == 0:
                    continue
                worst = min(worst, mech.exact_expected_welfare(inst) / best)
        ok = ok and worst >= floor
        details.append(f"m={m}: {worst} >= {floor}")
    _verdict(6, "random-bundles floor OPT/(3*ceil(log2 m))", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. the sampled-price clock never drops below OPT/400 (and stays far above)


def test_criterion_07_sampled_price_clock_floor():
    t0 = time.monotonic()
    worst = _worst_exact_ratio(
        mech1_single_minded(2, 2), single_minded_domain(2, GRID3, (1, 2))
    )

    rng = CounterRng(11)
    mech = mech1_single_minded(8, 6)
    for _ in range(20):
        profile = tuple(
            make_single_minded(rng.below(10), 1 + rng.below(6), 6) for _ in range(8)
        )
        inst = Instance(MultiUnitSetting(6), profile)
        best = opt_value_restricted(inst)
        if best == 0:
            continue
        worst = min(worst, mech.exact_expected_welfare(inst) / best)

    rng = CounterRng(5)
    mech = mech1_single_minded(3, 3)
    for _ in range(150):
        profile = []
        for _ in range(3):
            marginals = sorted((rng.below(5) for _ in range(3)), reverse=True)
            profile.append(
                MultiUnitValuation(tuple(itertools.accumulate(F(x) for x in marginals)))
            )
        inst = Instance(MultiUnitSetting(3), tuple(profile))
        best = opt_value_restricted(inst)
        if best == 0:
            continue
        worst = min(worst, mech.exact_expected_welfare(inst) / best)

    elapsed = time.monotonic() - t0
    _verdict(
        7,
        "sampled-price clock floor OPT/400",
        worst >= F(1, 400),
        f"empirical worst ratio {worst} (~{float(worst):.4f}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. a fair random split keeps a fifth of the optimum on both sides


def test_criterion_08_split_survival_probability():
    expected = {
        "sampling-10": F(511, 512),
        "sampling-11": F(1017, 1024),
        "sampling-12": F(2035, 2048),
    }
    ok = True
    details = []
    for name, probability in expected.items():
        rep = sampling_lemma_experiment(
            load_instance(name), trials=0, seed=0, critical_threshold=F(1, 3)
        )
        ok = ok and rep.exact and rep.probability == probability
        ok = ok and rep.probability >= F(1, 2)
        details.append(f"{name}: {rep.probability}")
    _verdict(8, "random-split survival probability >= 1/2", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. opportunity-cost pricing clears ~1/e where max-price selling collapses


def test_criterion_09_unit_demand_pricing_gap():
    t0 = time.monotonic()
    inst = ud_failure_instance(16)
    best = opt(inst).value

    rep = mc_ratio(mech3_unit_demand(16, inst.items), inst, trials=100_000, seed=0)
    serial_ok = float(rep.ratio) >= 1 / math.e - 3 * rep.stderr

    naive = naive_max_price_ud(16, inst.items).exact_expected_welfare(inst) / best
    naive_ok = naive <= F(4, 10)

    elapsed = time.monotonic() - t0
    _verdict(
        9,
        "opportunity-cost pricing beats max-price selling",
        serial_ok and naive_ok and elapsed < 60.0,
        f"serial-order mc ratio {float(rep.ratio):.4f} >= 1/e - 3*stderr; "
        f"naive exact ratio {float(naive):.4f} <= 0.4; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. the structured welfare oracle agrees with brute force everywhere


def _mu_general_domain(m: int, hi: int):
    """All monotone per-quantity value tuples with levels in 0..hi."""
    levels = [F(v) for v in range(hi + 1)]
    return [
        MultiUnitValuation(tup)
        for tup in itertools.combinations_with_replacement(levels, m)
    ]


def test_criterion_10_oracle_equivalence():
    t0 = time.monotonic()
    abc = ("a", "b", "c")
    slices = [
        (MultiUnitSetting(3), 2, _mu_general_domain(3, 3)),
        (MultiUnitSetting(2), 3, _mu_general_domain(2, 3)),
        (MultiUnitSetting(4), 3, single_minded_domain(4, GRID3, range(1, 5))),
        (MultiUnitSetting(4), 2, decreasing_marginal_domain(4, GRID3)),
        (CombinatorialSetting(ITEMS2), 3, additive_domain(ITEMS2, GRID3)),
        (CombinatorialSetting(abc), 2, additive_domain(abc, range(3))),
        (CombinatorialSetting(ITEMS2), 3, unit_demand_domain(ITEMS2, GRID3)),
        (CombinatorialSetting(ITEMS2), 2, explicit_domain(ITEMS2, GRID3, "monotone")),
    ]
    total = 0
    mismatch = None
    for setting, n, domain in slices:
        for profile in itertools.product(domain, repeat=n):
            inst = Instance(setting, profile)
            if opt(inst).value != brute_force_opt(inst).value:
                mismatch = inst
                break
            total += 1
        if mismatch is not None:
            break
    elapsed = time.monotonic() - t0
    detail = (
        f"first mismatch: {mismatch}"
        if mismatch is not None
        else f"{total} instances across {len(slices)} domain slices, {elapsed:.1f}s"
    )
    _verdict(10, "structured optimum equals brute force", mismatch is None, detail)


# ---------------------------------------------------------------------------
# 11. realized rules are monotone and DSIC; shared vertices force agreement


def _divergence_census():
    """Exhaustive shared-vertex audit of the two-unit grand-bundle clock.

    Over a four-valuation domain, check every ordered profile pair at
    every vertex the two truthful plays share: whenever the first
    profile's bidder strictly prefers the second play's outcome, the
    dominant strategy must send the same message at that vertex.
    """
    domain = [
        make_single_minded(1, 1, 2),
        make_single_minded(5, 1, 2),
        make_single_minded(4, 2, 2),
        make_single_minded(16, 2, 2),
    ]
    mech = grand_bundle_auction(2, MultiUnitSetting(2))
    domains = [list(domain), list(domain)]
    game = mech.branches()[0].game(domains)
    proto = materialize(game)
    strats = truthful_strategies(game, proto)
    assert verify_osp(proto, strats, domains).passed

    profiles = list(itertools.product(domain, repeat=2))
    on_path = []
    for profile in profiles:
        behaviors = [
            behavior_from_strategy(proto, j, strats[j], profile[j]) for j in range(2)
        ]
        _, path = play(proto, behaviors)
        on_path.append(set(path))

    counts = {"consistent": 0, "violation": 0, "not_applicable": 0}
    pairs = itertools.product(zip(profiles, on_path), repeat=2)
    for (profile_a, nodes_a), (profile_b, nodes_b) in pairs:
        shared = nodes_a & nodes_b
        for bidder in range(2):
            for node in proto.bidder_nodes(bidder):
                if node not in shared:
                    continue
                res = check_divergence_lemma(
                    proto, strats, bidder, node, list(profile_a), list(profile_b)
                )
                counts[res.status] += 1
    return counts


def test_criterion_11_realized_rule_structure():
    t0 = time.monotonic()
    failures = []
    for label, proto, strats, domains in _verified_games():
        rule = realize_rule(proto, strats, domains)
        if not verify_weak_monotonicity(rule).passed:
            failures.append(f"{label}: weak monotonicity")
        if not verify_dsic(rule).passed:
            failures.append(f"{label}: dsic")

    counts = _divergence_census()
    if counts["violation"]:
        failures.append(f"{counts['violation']} shared-vertex violations")
    if not counts["consistent"]:
        failures.append("shared-vertex audit never applied")

    elapsed = time.monotonic() - t0
    ok = not failures
    detail = (
        "; ".join(failures)
        if failures
        else f"{len(_verified_games())} realized rules monotone+DSIC; "
        f"divergence audit {counts['consistent']} consistent / "
        f"{counts['not_applicable']} not applicable, {elapsed:.1f}s"
    )
    _verdict(11, "realized rules: monotone, DSIC, shared-vertex consistent", ok, detail)
