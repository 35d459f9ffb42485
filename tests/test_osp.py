"""Tests for the obvious-dominance verifier and related checks."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospclock.fixtures import (
    SealedBidGame,
    eager_posted_price_protocol,
    negative_transfer_protocol,
    sealed_bid_domains,
)
from ospclock.osp import (
    CheckVerdict,
    check_divergence_lemma,
    replay_witness,
    verify_dsic,
    verify_ir_nnt,
    verify_osp,
    verify_weak_monotonicity,
)
from ospclock.protocols import (
    GaaGame,
    GaaSpec,
    Outcome,
    RealizedRule,
    behavior_from_strategy,
    gaa_grid_for_domains,
    materialize,
    realize_rule,
    truthful_strategies,
)
from ospclock.valuations import (
    AdditiveValuation,
    MultiUnitSetting,
    MultiUnitValuation,
    UnitDemandValuation,
    format_fraction,
    make_single_minded,
)
from ospclock.welfare import Allocation

F = Fraction


def sm(x, d=1, m=2):
    return make_single_minded(x, d, m)


def grand_gaa(domains, m=2):
    n = len(domains)
    setting = MultiUnitSetting(m)
    base = (0,) * n
    potential = (m,) * n
    grid = gaa_grid_for_domains(base, potential, setting, domains)
    spec = GaaSpec(setting, base, potential, grid)
    game = GaaGame(spec)
    proto = materialize(game)
    return proto, game, truthful_strategies(game, proto)


# ---------------------------------------------------------------------------
# verify_osp


def test_clock_auction_is_obviously_strategy_proof():
    domains = [[sm(x) for x in range(4)]] * 2
    proto, _, strategies = grand_gaa(domains)
    assert verify_osp(proto, strategies, domains).passed


def test_single_bidder_posted_price_is_osp():
    proto = eager_posted_price_protocol(price=2)

    def honest(valuation, node):
        return 0 if valuation.value(1) >= 2 else 1

    domains = [[sm(x, 1, 1) for x in range(4)]]
    assert verify_osp(proto, [honest], domains).passed


def test_sealed_bid_fails_with_replayable_witness():
    """Sequential second-price bidding is DSIC but not OSP.

    The first failure in scan order: value 1 truthfully reports 1 and
    can end up with nothing (worst case 0), while underreporting 0
    still wins at price 0 when the rival also reports 0 (best case 1).
    """
    game = SealedBidGame((0, 1, 2, 3))
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    domains = sealed_bid_domains()
    verdict = verify_osp(proto, strategies, domains)
    assert not verdict.passed
    w = verdict.witness
    assert (w.bidder, w.node) == (0, ())
    assert (w.valuation_index, w.truthful_message, w.deviating_message) == (1, 1, 0)
    assert (w.worst_truthful_utility, w.best_deviating_utility) == (F(0), F(1))
    assert replay_witness(proto, w) == (F(0), F(1))


def test_witness_serializes_to_json():
    game = SealedBidGame((0, 1))
    proto = materialize(game)
    verdict = verify_osp(proto, truthful_strategies(game, proto), sealed_bid_domains((0, 1)))
    assert not verdict.passed
    data = verdict.to_json()
    assert data["status"] == "fail"
    assert set(data["witness"]) >= {
        "bidder",
        "node",
        "truthful_message",
        "deviating_message",
        "worst_truthful_utility",
        "best_deviating_utility",
    }


@given(
    values=st.lists(st.integers(0, 2), min_size=2, max_size=4, unique=True),
    potentials=st.lists(st.integers(0, 2), min_size=2, max_size=2),
    bases=st.lists(st.integers(0, 1), min_size=2, max_size=2),
)
@settings(max_examples=30, deadline=None)
def test_every_clock_auction_passes(values, potentials, bases):
    """Truthful clocking is obviously dominant in any of these auctions."""
    setting = MultiUnitSetting(2)
    bases = [min(b, p) for b, p in zip(bases, potentials)]
    if sum(bases) > 2:
        return
    domains = [
        [sm(x, 1, 2) for x in sorted(values)] for _ in range(2)
    ]
    grid = gaa_grid_for_domains(tuple(bases), tuple(potentials), setting, domains)
    spec = GaaSpec(setting, tuple(bases), tuple(potentials), grid)
    game = GaaGame(spec)
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    assert verify_osp(proto, strategies, domains).passed
    assert verify_ir_nnt(proto, strategies, domains).passed


# ---------------------------------------------------------------------------
# IR / NNT


def test_gaa_is_ex_post_ir_and_nnt():
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, _, strategies = grand_gaa(domains)
    assert verify_ir_nnt(proto, strategies, domains).passed


def test_negative_payment_leaf_is_flagged():
    proto = negative_transfer_protocol()
    verdict = verify_ir_nnt(proto, [lambda v, u: 1], [[sm(0, 1, 1)]])
    assert not verdict.passed
    assert verdict.details["failure"] == "negative_transfer"
    assert verdict.details["leaf"] == "0"


def test_eager_buyer_violates_ir():
    proto = eager_posted_price_protocol(price=2)
    always_buy = lambda valuation, node: 0  # noqa: E731
    domains = [[sm(0, 1, 1), sm(3, 1, 1)]]
    verdict = verify_ir_nnt(proto, [always_buy], domains)
    assert not verdict.passed
    assert verdict.details["failure"] == "individual_rationality"
    assert verdict.details["bidder"] == 0


# ---------------------------------------------------------------------------
# realized-rule checks


def test_osp_fixture_is_dsic_and_weakly_monotone():
    """Obvious dominance implies the plain dominant-strategy properties."""
    domains = [[sm(x) for x in range(4)]] * 2
    proto, _, strategies = grand_gaa(domains)
    assert verify_osp(proto, strategies, domains).passed
    rule = realize_rule(proto, strategies, domains)
    assert verify_dsic(rule).passed
    assert verify_weak_monotonicity(rule).passed


def test_sealed_bid_is_dsic_but_not_osp():
    game = SealedBidGame((0, 1, 2, 3))
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    domains = sealed_bid_domains()
    assert not verify_osp(proto, strategies, domains).passed
    rule = realize_rule(proto, strategies, domains)
    assert verify_dsic(rule).passed
    assert verify_weak_monotonicity(rule).passed


def test_anti_monotone_rule_fails():
    """Award the unit only to low values: weak monotonicity breaks."""
    proto = eager_posted_price_protocol(price=0)

    def contrarian(valuation, node):
        return 0 if valuation.value(1) <= 1 else 1

    domains = [[sm(x, 1, 1) for x in range(4)]]
    rule = realize_rule(proto, [contrarian], domains)
    assert not verify_weak_monotonicity(rule).passed
    assert not verify_dsic(rule).passed


def test_constant_rule_is_weakly_monotone():
    proto = eager_posted_price_protocol(price=0)
    domains = [[sm(x, 1, 1) for x in range(4)]]
    rule = realize_rule(proto, [lambda v, u: 1], domains)
    assert verify_weak_monotonicity(rule).passed


def _profile_with(profile, position, value):
    return profile[:position] + (value,) + profile[position + 1 :]


def reference_weak_monotonicity(rule):
    """The full scan over every alternative, straight from the definition."""
    for profile in sorted(rule.table):
        for i in range(len(rule.domains)):
            v = rule.domains[i][profile[i]]
            s = rule.table[profile].allocation.bundles[i]
            for alt in range(len(rule.domains[i])):
                if alt == profile[i]:
                    continue
                w = rule.domains[i][alt]
                s_alt = rule.table[_profile_with(profile, i, alt)].allocation.bundles[i]
                if v.value(s) - v.value(s_alt) < w.value(s) - w.value(s_alt):
                    return CheckVerdict(
                        "weak_monotonicity",
                        "fail",
                        {"bidder": i, "profile": list(profile), "alternative": alt},
                    )
    return CheckVerdict("weak_monotonicity", "pass")


def reference_dsic(rule):
    """Utilities through ``Outcome.utility``, every misreport scanned."""
    for profile in sorted(rule.table):
        for i in range(len(rule.domains)):
            v = rule.domains[i][profile[i]]
            honest = rule.table[profile].utility(i, v)
            for alt in range(len(rule.domains[i])):
                if alt == profile[i]:
                    continue
                lied = rule.table[_profile_with(profile, i, alt)].utility(i, v)
                if lied > honest:
                    return CheckVerdict(
                        "dsic",
                        "fail",
                        {
                            "bidder": i,
                            "profile": list(profile),
                            "misreport": alt,
                            "honest_utility": format_fraction(honest),
                            "misreport_utility": format_fraction(lied),
                        },
                    )
    return CheckVerdict("dsic", "pass")


def random_rule(rng, combinatorial):
    """A small rule with arbitrary outcomes over random domains."""
    n = rng.randint(1, 3)
    sizes = [rng.randint(2, 3) for _ in range(n)]
    if combinatorial:
        items = ("a", "b")
        bundles = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]

        def valuation():
            kind = rng.choice((AdditiveValuation, UnitDemandValuation))
            return kind(items, {j: rng.randint(0, 3) for j in items})

    else:
        bundles = [0, 1, 2]

        def valuation():
            return MultiUnitValuation(tuple(sorted(rng.randint(0, 3) for _ in range(2))))

    domains = tuple(tuple(valuation() for _ in range(k)) for k in sizes)
    table = {
        profile: Outcome(
            Allocation(tuple(rng.choice(bundles) for _ in range(n))),
            tuple(Fraction(rng.randint(0, 6), 2) for _ in range(n)),
        )
        for profile in itertools.product(*(range(k) for k in sizes))
    }
    return RealizedRule(domains, table)


@pytest.mark.parametrize("combinatorial", [False, True], ids=["multiunit", "combinatorial"])
def test_rule_checks_match_the_full_scan(combinatorial):
    """Same status and witness details as the reference scans."""
    rng = random.Random(f"rule-checks:{combinatorial}")
    statuses = {"weak_monotonicity": [], "dsic": []}
    for _ in range(400):
        rule = random_rule(rng, combinatorial)
        for check, reference in (
            (verify_weak_monotonicity, reference_weak_monotonicity),
            (verify_dsic, reference_dsic),
        ):
            expected = reference(rule)
            assert check(rule) == expected
            statuses[expected.check].append(expected.status)
    for seen in statuses.values():
        assert seen.count("fail") > len(seen) // 2
        assert "pass" in seen


# ---------------------------------------------------------------------------
# behavior tables shared on the protocol


def test_shared_behavior_tables_match_fresh_protocols():
    """Two strategy lists on one protocol give the fresh-protocol results."""
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, game, truthful = grand_gaa(domains)

    def always_stay(valuation, node):
        return 0

    stay = [always_stay] * 2

    def checks(protocol, strategies):
        return (
            verify_osp(protocol, strategies, domains),
            verify_ir_nnt(protocol, strategies, domains),
            realize_rule(protocol, strategies, domains),
        )

    def fresh(deviate):
        protocol = materialize(game)
        return checks(protocol, stay if deviate else truthful_strategies(game, protocol))

    shared = [checks(proto, s) for s in (truthful, stay, truthful)]
    assert shared == [fresh(False), fresh(True), fresh(False)]
    assert shared[0][0].passed and shared[0][1].passed
    assert not shared[1][0].passed
    assert shared[0][2] != shared[1][2]


def test_behavior_table_is_not_served_to_a_reused_valuation_id():
    """The protocol keeps each tabulated valuation alive, so its id stays taken."""
    proto, _, strategies = grand_gaa([[sm(x) for x in range(4)]] * 2)
    strategy = strategies[0]
    for x in range(4):
        table = behavior_from_strategy(proto, 0, strategy, sm(x))
        valuation = sm(x)
        assert table == {u: strategy(valuation, u) for u in proto.bidder_nodes(0)}
    valuation = sm(3)
    ref = weakref.ref(valuation)
    behavior_from_strategy(proto, 1, strategy, valuation)
    del valuation
    gc.collect()
    assert ref() is not None


# ---------------------------------------------------------------------------
# divergence lemma


def mua_sm_family(k=10, m=2):
    return {
        "one": sm(1, 1, m),
        "ONE": sm(k * k + 1, 1, m),
        "all": sm(k * k, m, m),
        "ALL": sm(k ** 4, m, m),
    }


def test_divergence_lemma_on_clock_auction():
    fam = mua_sm_family()
    domains = [list(fam.values())] * 2
    proto, _, strategies = grand_gaa(domains)
    verdict = check_divergence_lemma(
        proto,
        strategies,
        bidder=0,
        node=(0,),
        profile_a=(fam["ONE"], fam["ALL"]),
        profile_b=(fam["one"], fam["one"]),
    )
    assert verdict.status == "consistent"
    assert verdict.details["utility_a"] == "0/1"
    assert verdict.details["utility_b"] == "100/1"


def test_divergence_lemma_not_applicable_without_strict_gain():
    fam = mua_sm_family()
    domains = [list(fam.values())] * 2
    proto, _, strategies = grand_gaa(domains)
    verdict = check_divergence_lemma(
        proto,
        strategies,
        bidder=0,
        node=(0,),
        profile_a=(fam["one"], fam["one"]),
        profile_b=(fam["ONE"], fam["ALL"]),
    )
    assert verdict.status == "not_applicable"


def test_divergence_lemma_catches_non_osp_protocol():
    """The sealed-bid auction violates the shared-vertex consistency."""
    game = SealedBidGame((0, 1, 2, 3))
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    vals = [sm(x, 1, 1) for x in range(4)]
    verdict = check_divergence_lemma(
        proto,
        strategies,
        bidder=0,
        node=(),
        profile_a=(vals[1], vals[2]),
        profile_b=(vals[2], vals[0]),
    )
    assert verdict.status == "violation"


def test_divergence_lemma_requires_shared_vertex():
    game = SealedBidGame((0, 1, 2, 3))
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    vals = [sm(x, 1, 1) for x in range(4)]
    with pytest.raises(ValueError, match="not on both"):
        check_divergence_lemma(
            proto,
            strategies,
            bidder=1,
            node=(0,),
            profile_a=(vals[1], vals[2]),
            profile_b=(vals[2], vals[0]),
        )
    with pytest.raises(ValueError, match="does not act"):
        check_divergence_lemma(
            proto, strategies, bidder=1, node=(), profile_a=(vals[0], vals[0]),
            profile_b=(vals[1], vals[1]),
        )
