"""Tests for the obvious-dominance verifier and related checks."""

import collections
import gc
import itertools
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospclock import osp, protocols
from ospclock.fixtures import (
    SealedBidGame,
    additive_domain,
    decreasing_marginal_domain,
    eager_posted_price_protocol,
    explicit_domain,
    load_game,
    negative_transfer_protocol,
    sealed_bid_domains,
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
    random_bundles,
    three_item_dm,
)
from ospclock.osp import (
    CheckVerdict,
    OspVerdict,
    OspWitness,
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
    Protocol,
    ProtocolNode,
    RealizedRule,
    behavior_from_strategy,
    materialize,
    play,
    protocol_from_json,
    realize_rule,
    run_game,
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
    spec = GaaSpec(setting, base, potential)
    game = GaaGame(spec, spec.grid_for(domains))
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

    def honest(u, valuations):
        return [0 if v.value(1) >= 2 else 1 for v in valuations]

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
    spec = GaaSpec(setting, tuple(bases), tuple(potentials))
    game = GaaGame(spec, spec.grid_for(domains))
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
    verdict = verify_ir_nnt(proto, [lambda u, vs: [1] * len(vs)], [[sm(0, 1, 1)]])
    assert not verdict.passed
    assert verdict.details["failure"] == "negative_transfer"
    assert verdict.details["leaf"] == "0"


def test_eager_buyer_violates_ir():
    proto = eager_posted_price_protocol(price=2)
    always_buy = lambda u, vs: [0] * len(vs)  # noqa: E731
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

    def contrarian(u, valuations):
        return [0 if v.value(1) <= 1 else 1 for v in valuations]

    domains = [[sm(x, 1, 1) for x in range(4)]]
    rule = realize_rule(proto, [contrarian], domains)
    assert not verify_weak_monotonicity(rule).passed
    assert not verify_dsic(rule).passed


def test_constant_rule_is_weakly_monotone():
    proto = eager_posted_price_protocol(price=0)
    domains = [[sm(x, 1, 1) for x in range(4)]]
    rule = realize_rule(proto, [lambda u, vs: [1] * len(vs)], domains)
    assert verify_weak_monotonicity(rule).passed


def _profile_with(profile, position, value):
    return profile[:position] + (value,) + profile[position + 1 :]


def reference_weak_monotonicity(rule, bidders=None):
    """The full scan over every alternative, straight from the definition;
    ``bidders`` limits it to those bidders."""
    for profile in sorted(rule.table):
        for i in range(len(rule.domains)) if bidders is None else bidders:
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


def reference_dsic(rule, bidders=None):
    """Utilities through ``Outcome.utility``, every misreport scanned;
    ``bidders`` limits the scan to those bidders."""
    for profile in sorted(rule.table):
        for i in range(len(rule.domains)) if bidders is None else bidders:
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


ITEMS = ("a", "b")
BUNDLES = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]


def random_amount(rng, top=3):
    """An integer or a fraction with denominator 2, 3 or 5, in [0, top]."""
    den = rng.choice((1, 1, 2, 3, 5))
    return Fraction(rng.randint(0, top * den), den)


def random_valuation(rng, combinatorial):
    if combinatorial:
        kind = rng.choice((AdditiveValuation, UnitDemandValuation))
        return kind(ITEMS, {j: random_amount(rng) for j in ITEMS})
    return MultiUnitValuation(tuple(sorted(random_amount(rng) for _ in range(2))))


def random_outcome(rng, n, combinatorial):
    bundles = BUNDLES if combinatorial else [0, 1, 2]
    return Outcome(
        Allocation(tuple(rng.choice(bundles) for _ in range(n))),
        tuple(random_amount(rng) for _ in range(n)),
    )


def random_domains(rng, combinatorial, sizes):
    return tuple(tuple(random_valuation(rng, combinatorial) for _ in range(k)) for k in sizes)


def random_rule(rng, combinatorial):
    """A small rule with arbitrary outcomes over random domains.

    Values and payments mix denominators 1, 2, 3 and 5, so the exact
    checks cannot get by on integers.
    """
    n = rng.randint(1, 3)
    sizes = [rng.randint(2, 3) for _ in range(n)]
    domains = random_domains(rng, combinatorial, sizes)
    table = {
        profile: random_outcome(rng, n, combinatorial)
        for profile in itertools.product(*(range(k) for k in sizes))
    }
    return RealizedRule(domains, table)


def repeating_rule(rng, combinatorial):
    """2-3 bidders with 3-5 valuations each, every outcome drawn from a
    pool of two to four random ones, so that a bidder's deviation
    columns (her outcomes as her own report runs over her domain) repeat
    across the other bidders' reports."""
    n = rng.randint(2, 3)
    sizes = [rng.randint(3, 5) for _ in range(n)]
    domains = random_domains(rng, combinatorial, sizes)
    pool = [random_outcome(rng, n, combinatorial) for _ in range(rng.randint(2, 4))]
    table = {profile: rng.choice(pool) for profile in itertools.product(*map(range, sizes))}
    return RealizedRule(domains, table)


def hard_cases(verdict, reference_on):
    """The first-failure cases of a rule-check verdict that the column
    scan must order right: "off_base" when the failing profile does not
    give the failing bidder her first valuation, "lower_bidder_later"
    when a lower bidder also fails, necessarily at a later profile.
    ``reference_on(bidders)`` is the reference scan of those bidders."""
    if "profile" not in verdict.details:
        return set()
    i, profile = verdict.details["bidder"], verdict.details["profile"]
    cases = set()
    if profile[i] != 0:
        cases.add("off_base")
    if i > 0 and not reference_on(range(i)).passed:
        cases.add("lower_bidder_later")
    return cases


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


@pytest.mark.parametrize("combinatorial", [False, True], ids=["multiunit", "combinatorial"])
def test_rule_checks_report_the_first_failure_of_the_full_scan(combinatorial):
    """On rules whose deviation columns repeat, the same verdicts and
    details as the reference scans, with both orderings that a scan of
    distinct columns could get wrong among the failures."""
    rng = random.Random(f"first-failure:{combinatorial}")
    seen = {"weak_monotonicity": set(), "dsic": set()}
    for _ in range(300):
        rule = repeating_rule(rng, combinatorial)
        for check, reference in (
            (verify_weak_monotonicity, reference_weak_monotonicity),
            (verify_dsic, reference_dsic),
        ):
            expected = reference(rule)
            assert check(rule) == expected
            seen[expected.check] |= {expected.status} | hard_cases(
                expected, lambda bidders: reference(rule, bidders)
            )
    for cases in seen.values():
        assert {"fail", "off_base", "lower_bidder_later"} <= cases


# ---------------------------------------------------------------------------
# the exact verifiers against Fraction references on whole trees


def _by_depth(ids):
    return sorted(ids, key=lambda u: (len(u), u))


def reference_utility_passes(protocol, bidder, valuation, behavior):
    """min-pinned and max-free utilities of every node, on Fractions."""
    min_pinned = {}
    max_free = {}
    for u in reversed(_by_depth(list(protocol.nodes) + list(protocol.leaves))):
        if protocol.is_leaf(u):
            util = protocol.outcome(u).utility(bidder, valuation)
            min_pinned[u] = util
            max_free[u] = util
            continue
        children = [u + (k,) for k in range(len(protocol.messages(u)))]
        max_free[u] = max(max_free[c] for c in children)
        if protocol.bidder(u) == bidder:
            min_pinned[u] = min_pinned[u + (behavior[u],)]
        else:
            min_pinned[u] = min(min_pinned[c] for c in children)
    return min_pinned, max_free


def reference_witness(protocol, i, v_idx, valuation, behavior, u, truthful, dev, passes):
    min_pinned, max_free = passes

    def descend(w, pick):
        steps = []
        while not protocol.is_leaf(w):
            k = pick(w, range(len(protocol.messages(w))))
            steps.append((w, k))
            w = w + (k,)
        return steps

    def pinned(w, ks):
        if protocol.bidder(w) == i:
            return behavior[w]
        return min(ks, key=lambda k: (min_pinned[w + (k,)], k))

    def free(w, ks):
        return min(ks, key=lambda k: (-max_free[w + (k,)], k))

    def profile(steps):
        out = [dict() for _ in range(protocol.n)]
        for w, k in steps:
            out[protocol.bidder(w)][w] = k
        return out

    prefix = [(u[:t], u[t]) for t in range(len(u))]
    return OspWitness(
        bidder=i,
        valuation_index=v_idx,
        valuation=valuation,
        node=u,
        truthful_message=truthful,
        deviating_message=dev,
        worst_truthful_utility=min_pinned[u + (truthful,)],
        best_deviating_utility=max_free[u + (dev,)],
        truthful_profile=profile(prefix + [(u, truthful)] + descend(u + (truthful,), pinned)),
        deviating_profile=profile(prefix + [(u, dev)] + descend(u + (dev,), free)),
    )


def reference_verify_osp(protocol, strategies, domains):
    """verify_osp on Fractions: bidders, valuations, attainable nodes of
    the bidder (shallowest first, then lexicographic), deviations."""
    for i in range(protocol.n):
        for v_idx, valuation in enumerate(domains[i]):
            behavior = behavior_from_strategy(protocol, i, strategies[i], valuation)
            passes = reference_utility_passes(protocol, i, valuation, behavior)
            min_pinned, max_free = passes
            attainable = {()}
            for u in _by_depth(protocol.nodes):
                if u not in attainable:
                    continue
                messages = range(len(protocol.messages(u)))
                if protocol.bidder(u) != i:
                    attainable.update(u + (k,) for k in messages)
                    continue
                truthful = behavior[u]
                attainable.add(u + (truthful,))
                for dev in messages:
                    if dev != truthful and max_free[u + (dev,)] > min_pinned[u + (truthful,)]:
                        witness = reference_witness(
                            protocol, i, v_idx, valuation, behavior, u, truthful, dev, passes
                        )
                        return OspVerdict("fail", witness)
    return OspVerdict("pass")


def reference_ir(protocol, strategies, domains, bidders=None):
    """NNT over every leaf, then IR through ``Outcome.utility``;
    ``bidders`` limits the IR scan to those bidders."""
    for u in _by_depth(protocol.leaves):
        for i, payment in enumerate(protocol.outcome(u).payments):
            if payment < 0:
                return CheckVerdict(
                    "ir_nnt",
                    "fail",
                    {
                        "failure": "negative_transfer",
                        "leaf": ".".join(map(str, u)),
                        "bidder": i,
                        "payment": format_fraction(payment),
                    },
                )
    rule = realize_rule(protocol, strategies, domains)
    for profile in sorted(rule.table):
        for i in range(protocol.n) if bidders is None else bidders:
            utility = rule.table[profile].utility(i, domains[i][profile[i]])
            if utility < 0:
                return CheckVerdict(
                    "ir_nnt",
                    "fail",
                    {
                        "failure": "individual_rationality",
                        "profile": list(profile),
                        "bidder": i,
                        "utility": format_fraction(utility),
                    },
                )
    return CheckVerdict("ir_nnt", "pass")


def random_allocation(rng, n, combinatorial):
    if combinatorial:
        owners = {j: rng.randrange(-1, n) for j in ITEMS}
        return [sorted(j for j in ITEMS if owners[j] == i) for i in range(n)]
    left = 2
    out = []
    for _ in range(n):
        q = rng.randint(0, left)
        out.append(q)
        left -= q
    return out


def random_tree(rng, n, combinatorial):
    """A random tree through ``protocol_from_json``: fractional payments
    (denominators 1, 2, 3, 5) and, in one tree of eight, a few negative."""
    nodes, leaves = {}, {}
    negative = rng.random() < 0.125

    def grow(u):
        key = ".".join(map(str, u))
        if len(u) == 4 or (u and rng.random() < 0.35):
            payments = [
                random_amount(rng) - (1 if negative and rng.random() < 0.1 else 0)
                for _ in range(n)
            ]
            leaves[key] = {
                "allocation": random_allocation(rng, n, combinatorial),
                "payments": [format_fraction(p) for p in payments],
            }
            return
        width = rng.randint(2, 3)
        nodes[key] = {"bidder": rng.randrange(n), "messages": [f"m{k}" for k in range(width)]}
        for k in range(width):
            grow(u + (k,))

    grow(())
    setting = {"items": list(ITEMS)} if combinatorial else {"multiunit": 2}
    return protocol_from_json({"n": n, "setting": setting, "nodes": nodes, "leaves": leaves})


def random_strategy(rng, protocol, bidder, domain):
    """A pure strategy: random messages, or (half the time) the message
    with the best free continuation, so single-bidder trees can pass."""
    greedy = rng.random() < 0.5
    table = {}
    mine = protocol.bidder_nodes(bidder)
    for k, valuation in enumerate(domain):
        _, max_free = reference_utility_passes(protocol, bidder, valuation, dict.fromkeys(mine, 0))
        for u in mine:
            messages = range(len(protocol.messages(u)))
            if greedy:
                table[k, u] = min(messages, key=lambda m: (-max_free[u + (m,)], m))
            else:
                table[k, u] = rng.choice(messages)

    def strategy(u, valuations):
        return [table[domain.index(v), u] for v in valuations]

    return strategy


def tree_cases():
    """Seeded random trees, the sealed-bid control and a clock auction
    on fractional single-minded values."""
    rng = random.Random("exact-tree-checks")
    cases = []
    for _ in range(160):
        combinatorial = rng.random() < 0.5
        n = rng.randint(1, 3)
        protocol = random_tree(rng, n, combinatorial)
        domains = [
            [random_valuation(rng, combinatorial) for _ in range(rng.randint(1, 3))]
            for _ in range(n)
        ]
        strategies = [random_strategy(rng, protocol, i, domains[i]) for i in range(n)]
        cases.append((protocol, strategies, domains))
    cases.append(load_game("sealed-bid-2x2"))
    domains = [
        [sm(x) for x in (0, F(1, 2), F(4, 3), F(12, 5))],
        [sm(x, 2) for x in (F(1, 3), 1, F(7, 2))],
    ]
    proto, _, strategies = grand_gaa(domains)
    cases.append((proto, strategies, domains))
    return cases


def shared_leaves(protocol):
    """The same tree with its leaves re-pointed at one ``Outcome`` object
    per equal outcome value."""
    shared: dict = {}
    leaves = {u: shared.setdefault(o, o) for u, o in protocol.leaves.items()}
    return Protocol(protocol.n, protocol.setting, protocol.nodes, leaves, protocol.info)


def test_verify_osp_matches_the_fraction_reference():
    """Same verdict and witness JSON as the Fraction passes, on passing
    and failing trees, on the same trees with shared leaf outcomes, and
    on the catalog's random-bundles and mech3 trees."""
    cases = tree_cases()
    shared = [(shared_leaves(p), s, d) for p, s, d in cases]
    statuses = []
    for n, (protocol, strategies, domains) in enumerate(cases + shared + catalog_trees()):
        expected = reference_verify_osp(protocol, strategies, domains)
        got = verify_osp(protocol, strategies, domains)
        assert got.to_json() == expected.to_json()
        if expected.witness is not None:
            want, have = expected.witness, got.witness
            utilities = (want.worst_truthful_utility, want.best_deviating_utility)
            assert (have.worst_truthful_utility, have.best_deviating_utility) == utilities
            assert replay_witness(protocol, have) == utilities
        if n < len(cases):
            statuses.append(expected.status)
    assert statuses.count("fail") > len(statuses) // 2
    assert statuses.count("pass") > 10
    assert statuses[-2:] == ["fail", "pass"]
    assert sum(len({id(o) for o in p.leaves.values()}) for p, _, _ in shared) < sum(
        len(p.leaves) for p, _, _ in cases
    )


def test_ir_and_rule_checks_match_the_references_on_trees():
    seen = {"ir_nnt": set(), "weak_monotonicity": set(), "dsic": set()}
    for protocol, strategies, domains in tree_cases():
        expected = reference_ir(protocol, strategies, domains)
        assert verify_ir_nnt(protocol, strategies, domains) == expected
        seen["ir_nnt"].add(expected.details.get("failure", expected.status))
        rule = realize_rule(protocol, strategies, domains)
        for check, reference in (
            (verify_weak_monotonicity, reference_weak_monotonicity),
            (verify_dsic, reference_dsic),
        ):
            expected = reference(rule)
            assert check(rule) == expected
            seen[expected.check].add(expected.status)
    assert seen["ir_nnt"] == {"pass", "negative_transfer", "individual_rationality"}
    assert seen["weak_monotonicity"] == seen["dsic"] == {"pass", "fail"}


def test_nnt_reads_each_outcome_once_and_reports_the_first_leaf():
    """NNT reads each distinct leaf outcome object once, yet reports the
    leaf and bidder of the leaf-by-leaf reference scan: on a tree whose
    negative-payment outcome sits on several leaves, the first of them
    and not the deepest, and on the seeded trees with equal outcomes
    shared."""
    owes = Outcome(Allocation((1, 0)), (F(1), F(-1)))
    later = Outcome(Allocation((0, 1)), (F(-2), F(0)))
    paid = Outcome(Allocation((0, 0)), (F(0), F(0)))
    nodes = {
        (): ProtocolNode(0, ("x", "y", "z")),
        (0,): ProtocolNode(1, ("x", "y")),
    }
    leaves = {(0, 0): owes, (0, 1): later, (1,): paid, (2,): owes}
    protocol = Protocol(2, MultiUnitSetting(1), nodes, leaves)
    strategies = [lambda u, vs: [0] * len(vs)] * 2
    domains = [[sm(1, 1, 1)]] * 2
    verdict = verify_ir_nnt(protocol, strategies, domains)
    assert verdict == reference_ir(protocol, strategies, domains)
    assert (verdict.details["leaf"], verdict.details["bidder"]) == ("2", 1)
    seen = set()
    for protocol, strategies, domains in tree_cases():
        shared = shared_leaves(protocol)
        expected = reference_ir(shared, strategies, domains)
        assert verify_ir_nnt(shared, strategies, domains) == expected
        seen.add(expected.details.get("failure"))
    assert "negative_transfer" in seen


def test_ir_reports_the_first_failure_of_the_full_scan_on_larger_domains():
    """IR on random trees of 2-3 bidders with 3-5 valuations each, and on
    the catalog's mech3 and random-bundles trees (6 and 12 valuations),
    against the reference, with both hard orderings among the failures."""
    rng = random.Random("ir-first-failure")
    cases = catalog_trees()
    for _ in range(60):
        combinatorial = rng.random() < 0.5
        n = rng.randint(2, 3)
        protocol = random_tree(rng, n, combinatorial)
        domains = random_domains(rng, combinatorial, [rng.randint(3, 5) for _ in range(n)])
        strategies = [random_strategy(rng, protocol, i, domains[i]) for i in range(n)]
        cases.append((protocol, strategies, domains))
    seen = set()
    for protocol, strategies, domains in cases:
        expected = reference_ir(protocol, strategies, domains)
        assert verify_ir_nnt(protocol, strategies, domains) == expected
        seen |= {expected.details.get("failure", expected.status)} | hard_cases(
            expected, lambda bidders: reference_ir(protocol, strategies, domains, bidders)
        )
    assert seen == {
        "pass",
        "negative_transfer",
        "individual_rationality",
        "off_base",
        "lower_bidder_later",
    }


def catalog_entries():
    """The verify catalog's mechanisms on its domains: the value grid
    0..2, and mech3 on six unit-demand valuations."""
    values = (0, 1, 2)
    sm2 = single_minded_domain(2, values, (1, 2))
    return [
        (grand_bundle_auction(2, MultiUnitSetting(2)), sm2),
        (random_bundles(3, 4), single_minded_domain(4, values, range(1, 5))),
        (mech1_single_minded(2, 2), sm2),
        (mech2_additive(2, ITEMS), additive_domain(ITEMS, values)),
        (mech3_unit_demand(3, ITEMS), unit_demand_domain(ITEMS, values)[:6]),
        (m1_2x2(), sm2),
        (m2_2x2(), explicit_domain(ITEMS, values, "subadditive")),
        (m3_2x2(), explicit_domain(ITEMS, values, "monotone")),
    ]


def branch_trees(entries):
    """Each branch tree of each (mechanism, domain) entry, with its
    truthful strategies and the domain for every bidder."""
    cases = []
    for mech, domain in entries:
        domains = [domain] * mech.n
        for branch in mech.branches():
            game = branch.game(domains)
            protocol = materialize(game)
            cases.append((protocol, truthful_strategies(game, protocol), domains))
    return cases


def catalog_trees():
    """The branch trees of random-bundles and mech3 in the verify
    catalog: the single-minded grid over four units, and six unit-demand
    valuations on two items."""
    big = ("random-bundles", "mech3-unit-demand")
    return branch_trees([e for e in catalog_entries() if e[0].name in big])


def test_realized_rule_walk_matches_play():
    """Every profile of the rule has the outcome ``play`` reaches."""
    profiles = 0
    for protocol, strategies, domains in tree_cases() + catalog_trees():
        rule = realize_rule(protocol, strategies, domains)
        assert len(rule.table) == len(list(itertools.product(*domains)))
        for profile, outcome in rule.table.items():
            behaviors = [
                behavior_from_strategy(protocol, i, strategies[i], domains[i][k])
                for i, k in enumerate(profile)
            ]
            assert outcome == play(protocol, behaviors)[0], profile
        profiles += len(rule.table)
    assert profiles > 4_000


def test_flat_index_lays_children_side_by_side():
    for protocol, _, _ in tree_cases() + catalog_trees():
        flat = protocol.flat
        assert list(flat.order) == _by_depth(list(protocol.nodes) + list(protocol.leaves))
        for k, u in enumerate(flat.order):
            if protocol.is_leaf(u):
                assert flat.mover[k] == flat.first[k] == -1
                continue
            assert flat.mover[k] == protocol.bidder(u)
            for j in range(len(protocol.messages(u))):
                assert flat.order[flat.first[k] + j] == u + (j,)
        internal = [k for k, mover in enumerate(flat.mover) if mover >= 0]
        assert [k for k, *_ in flat.walk] == internal[::-1]
        done = set()
        for k, mover, a, b in flat.walk:
            u = flat.order[k]
            assert (mover, a, b) == (flat.mover[k], flat.first[k], a + len(protocol.messages(u)))
            # deepest first: every internal child is walked before its parent
            assert {c for c in range(a, b) if flat.mover[c] >= 0} <= done
            done.add(k)


# ---------------------------------------------------------------------------
# one tabulation per checked tree, kept on the protocol


def test_shared_behavior_tables_match_fresh_protocols():
    """Two strategy lists on one protocol give the fresh-protocol results."""
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, game, truthful = grand_gaa(domains)

    def always_stay(u, valuations):
        return [0] * len(valuations)

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


def test_realized_rule_is_kept_per_strategies_and_domains():
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, _, strategies = grand_gaa(domains)
    rule = realize_rule(proto, strategies, domains)
    assert realize_rule(proto, list(strategies), [list(d) for d in domains]) is rule
    stay = [lambda u, vs: [0] * len(vs)] * 2
    assert realize_rule(proto, stay, domains) is not rule
    assert realize_rule(proto, strategies, [domains[0][:2], domains[1]]) is not rule
    copies = [[sm(x) for x in range(3)], domains[1]]
    fresh = realize_rule(proto, strategies, copies)
    assert fresh is not rule and fresh == rule


def test_rule_memo_keeps_its_domain_valuations_alive():
    """The protocol's tabulation holds the valuation, so its id cannot be
    reused by another valuation; each table is the strategy at each node."""
    proto, _, strategies = grand_gaa([[sm(x) for x in range(4)]] * 2)
    strategy = strategies[0]
    for x in range(4):
        table = behavior_from_strategy(proto, 0, strategy, sm(x))
        valuation = sm(x)
        assert table == {u: strategy(u, [valuation])[0] for u in proto.bidder_nodes(0)}
    valuation = sm(3)
    ref = weakref.ref(valuation)
    realize_rule(proto, strategies, [[valuation], [sm(1)]])
    del valuation
    gc.collect()
    assert ref() is not None
    assert len(proto._tabulations) == 1


def test_verified_protocol_is_freed_without_the_cyclic_collector():
    """No reference cycle runs through a checked tree: with ``gc`` off, the
    last ``del`` frees a mech3 branch protocol and what was derived from it."""
    domains = [unit_demand_domain(ITEMS, (0, 1, 2))[:6]] * 3
    game = mech3_unit_demand(3, ITEMS).branches()[0].game(domains)
    enabled = gc.isenabled()
    gc.disable()
    try:
        protocol = materialize(game)
        strategies = truthful_strategies(game, protocol)
        assert verify_osp(protocol, strategies, domains).passed
        assert verify_ir_nnt(protocol, strategies, domains).passed
        assert verify_dsic(realize_rule(protocol, strategies, domains)).passed
        ref = weakref.ref(protocol)
        del protocol
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_mech3_tree_is_checked_once_per_distinct_outcome(monkeypatch):
    """A mech3 tree holds one leaf object per distinct outcome value; the
    protocol validates each object once, and ``verify_osp`` scores each
    bidder's side of those objects only."""
    domains = [unit_demand_domain(ITEMS, (0, 1, 2))[:6]] * 3
    game = mech3_unit_demand(3, ITEMS).branches()[0].game(domains)
    validated = []
    sides = []
    real_validate = protocols.validate_outcome
    real_side = osp._bidder_side

    def counting_validate(setting, n, outcome):
        validated.append(outcome)
        real_validate(setting, n, outcome)

    def counting_side(outcomes, bidder, domain):
        sides.append(list(outcomes))
        return real_side(outcomes, bidder, domain)

    monkeypatch.setattr(protocols, "validate_outcome", counting_validate)
    monkeypatch.setattr(osp, "_bidder_side", counting_side)
    protocol = materialize(game)
    leaves = list(protocol.leaves.values())
    distinct = {id(o): o for o in leaves}
    assert len(leaves) > len(distinct) == len(set(leaves))
    assert sorted(map(id, validated)) == sorted(distinct)
    assert verify_osp(protocol, truthful_strategies(game, protocol), domains).passed
    assert len(sides) == 3
    for outcomes in sides:
        assert sorted(map(id, outcomes)) == sorted(distinct)


def test_ir_check_and_realize_rule_play_each_profile_once(monkeypatch):
    """Each profile is walked to its leaf once, by ``protocols._walk``, and
    each (bidder, valuation) behavior row is built once."""
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, _, strategies = grand_gaa(domains)
    played = []
    built = []
    real_walk = protocols._walk
    real_tabulate = protocols._tabulate

    def counting_walk(flat, rows):
        played.append(1)
        return real_walk(flat, rows)

    def counting_tabulate(protocol, bidder, strategy, valuations):
        rows = real_tabulate(protocol, bidder, strategy, valuations)
        assert len(rows) == len(valuations)
        built.extend((bidder, id(v)) for v in valuations)
        return rows

    monkeypatch.setattr(protocols, "_walk", counting_walk)
    monkeypatch.setattr(protocols, "_tabulate", counting_tabulate)
    assert verify_osp(proto, strategies, domains).passed
    assert verify_ir_nnt(proto, strategies, domains).passed
    rule = realize_rule(proto, strategies, domains)
    assert len(played) == len(rule.table) == 9
    assert len(built) == len(set(built)) == 3 + 3


def support_trees():
    """Every support tree of the verify catalog, plus the three-unit clock."""
    protocol, strategies = three_item_dm()
    dm3 = decreasing_marginal_domain(3, (0, 1, 2))
    return branch_trees(catalog_entries()) + [(protocol, strategies, [dm3, dm3])]


def test_tabulated_rows_are_the_strategy_node_by_node():
    """Each bidder's rows, built in one walk that asks a game for a whole
    domain per node, hold ``strategy(u, [v])[0]`` at her nodes and 0
    elsewhere, on every catalog support tree, both game fixtures and a
    hand-written strategy; ``behavior_from_strategy`` is its row."""
    domains = [[sm(x) for x in range(4)], [sm(x, 2) for x in range(4)]]
    proto, _, _ = grand_gaa(domains)

    def handwritten(u, valuations):
        return [(len(u) + int(v.value(2))) % len(proto.messages(u)) for v in valuations]

    cases = support_trees() + [load_game("sealed-bid-2x2"), load_game("grand-gaa-2x2")]
    cases.append((proto, [handwritten, handwritten], domains))
    assert len(cases) > 30
    for protocol, strategies, doms in cases:
        tab = protocols._tabulation(protocol, strategies, doms)
        position = {u: k for k, u in enumerate(protocol.flat.order)}
        for i, domain in enumerate(doms):
            rows = tab.bidder_rows(protocol, i)
            assert len(rows) == len(domain)
            for v, row in zip(domain, rows):
                expected = [0] * len(position)
                table = {}
                for u in protocol.bidder_nodes(i):
                    expected[position[u]] = table[u] = strategies[i](u, [v])[0]
                assert row == expected
                assert behavior_from_strategy(protocol, i, strategies[i], v) == table


def test_clock_marginals_are_found_once_per_bidder_and_valuation(monkeypatch):
    """One full tabulation and then a play-out on the same clock game ask
    ``GaaSpec.marginal`` once per (bidder, valuation object): every node
    and every repeated poll reads the game's memo."""
    domains = [[sm(x) for x in range(4)], [sm(x, 2) for x in range(4)]]
    asked = []
    real_marginal = GaaSpec.marginal

    def counting_marginal(spec, bidder, valuation):
        asked.append((bidder, id(valuation)))
        return real_marginal(spec, bidder, valuation)

    proto, game, strategies = grand_gaa(domains)
    monkeypatch.setattr(GaaSpec, "marginal", counting_marginal)
    tab = protocols._tabulation(proto, strategies, domains)
    for i in range(proto.n):
        tab.bidder_rows(proto, i)
    every = {(i, id(v)) for i, domain in enumerate(domains) for v in domain}
    assert len(asked) == len(set(asked)) and set(asked) == every
    profile = (domains[0][3], domains[1][3])
    _, history = run_game(game, profile)
    assert len(history) > proto.n  # the bidders are polled again and again
    assert len(asked) == len(every)
    fresh = GaaGame(game.spec, game.grid)
    assert run_game(fresh, profile)[1] == history
    assert len(asked) == len(every) + proto.n


def test_a_message_out_of_range_is_refused_at_its_node():
    """A strategy that sends a message its node does not have is a
    ``ValueError`` naming the node, in ``verify_osp`` and in
    ``realize_rule``, also when only a later valuation sends it."""
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, _, strategies = grand_gaa(domains)
    node = proto.bidder_nodes(0)[1]
    truthful = strategies[0]

    def broken(u, valuations):
        return [
            len(proto.messages(u)) if u == node and v is domains[0][2] else msg
            for v, msg in zip(valuations, truthful(u, valuations))
        ]

    message = re.escape(f"strategy returned message 2 out of range at {node}")
    for check in (verify_osp, realize_rule):
        with pytest.raises(ValueError, match=message):
            check(proto, [broken, strategies[1]], domains)


def test_a_strategy_is_asked_once_per_node_with_the_whole_domain():
    """``verify_osp``, ``verify_ir_nnt`` and ``realize_rule`` on one tree
    read one tabulation: a hand-written strategy is called once at each
    node of its bidder, with her whole domain, and nowhere else.  An
    answer with one message too few is refused at its node."""
    domains = [[sm(x) for x in range(3)], [sm(x, 2) for x in range(3)]]
    proto, _, truthful = grand_gaa(domains)
    asked = []

    def recording(i):
        def strategy(u, valuations):
            asked.append((i, u, [id(v) for v in valuations]))
            return truthful[i](u, valuations)

        return strategy

    strategies = [recording(i) for i in range(proto.n)]
    assert verify_osp(proto, strategies, domains).passed
    assert verify_ir_nnt(proto, strategies, domains).passed
    realize_rule(proto, strategies, domains)
    assert asked == [
        (i, u, [id(v) for v in domains[i]])
        for i in range(proto.n)
        for u in proto.bidder_nodes(i)
    ]
    short = [lambda u, vs: [0] * (len(vs) - 1)] * proto.n
    message = re.escape(f"strategy returned 2 messages at {proto.bidder_nodes(0)[0]}")
    with pytest.raises(ValueError, match=message):
        verify_osp(proto, short, domains)


def test_domains_are_checked_against_the_protocol_setting():
    """A domain valuation the protocol's setting cannot hold, or an
    empty domain, is a ``ValueError`` in every check that reads
    strategies, never a pass or a bare ``TypeError``: three-unit and
    unit-demand valuations on a two-unit clock name their bidder."""
    protocol, strategies, domains = load_game("grand-gaa-2x2")
    three_units = single_minded_domain(3, values=(0, 1, 2), demands=(1, 3))
    unit_demand = unit_demand_domain(("a", "b"), (0, 1))
    bad = [
        ([domains[0], three_units], "bidder 1: valuation over 3 units"),
        ([domains[0], unit_demand], "bidder 1: expected a multi-unit valuation"),
        ([domains[0], []], "empty domain"),
    ]
    for doms, message in bad:
        for check in (verify_osp, verify_ir_nnt, realize_rule):
            with pytest.raises(ValueError, match=message):
                check(protocol, strategies, doms)
    node = protocol.bidder_nodes(1)[0]
    profile = (domains[0][0], unit_demand[0])
    with pytest.raises(ValueError, match="bidder 1: expected a multi-unit valuation"):
        check_divergence_lemma(protocol, strategies, 1, node, profile, profile)


def test_verify_osp_checks_every_domain_before_a_verdict():
    """On the sealed-bid game bidder 0's domain fails obvious dominance,
    yet a unit-demand domain for bidder 1 is refused, not judged."""
    protocol, strategies, domains = load_game("sealed-bid-2x2")
    assert not verify_osp(protocol, strategies, domains).passed
    unit_demand = unit_demand_domain(("a", "b"), (0, 1))
    with pytest.raises(ValueError, match="bidder 1: expected a multi-unit valuation"):
        verify_osp(protocol, strategies, [domains[0], unit_demand])


def test_verify_ir_nnt_checks_the_domains_before_the_transfer_scan():
    """A negative-transfer leaf is no verdict on a domain the protocol's
    one-unit setting cannot hold."""
    protocol = negative_transfer_protocol()
    unit_demand = unit_demand_domain(("a", "b"), (0, 1))
    with pytest.raises(ValueError, match="bidder 0: expected a multi-unit valuation"):
        verify_ir_nnt(protocol, [lambda u, vs: [1] * len(vs)], [unit_demand])


# ---------------------------------------------------------------------------
# divergence lemma


def mua_sm_family(k=10, m=2):
    return {
        "one": sm(1, 1, m),
        "ONE": sm(k * k + 1, 1, m),
        "all": sm(k * k, m, m),
        "ALL": sm(k ** 4, m, m),
    }


def _played(protocol, strategies, profile):
    """A profile's whole behavior tables, and the outcome and path
    ``play`` reaches on them."""
    behaviors = [
        behavior_from_strategy(protocol, j, strategies[j], profile[j])
        for j in range(protocol.n)
    ]
    return (behaviors, *play(protocol, behaviors))


def _divergence_by_play(plays, bidder, node, valuation):
    """``check_divergence_lemma``'s status and details, read off two
    ``_played`` profiles; None when ``node`` is not on both paths."""
    if any(node not in path for _, _, path in plays):
        return None
    (behaviors_a, outcome_a, _), (behaviors_b, outcome_b, _) = plays
    utility_a = outcome_a.utility(bidder, valuation)
    utility_b = outcome_b.utility(bidder, valuation)
    details = {
        "node": ".".join(map(str, node)),
        "bidder": bidder,
        "utility_a": format_fraction(utility_a),
        "utility_b": format_fraction(utility_b),
    }
    if not utility_a < utility_b:
        return "not_applicable", details
    msg_a, msg_b = behaviors_a[bidder][node], behaviors_b[bidder][node]
    details.update({"message_a": msg_a, "message_b": msg_b})
    return ("consistent" if msg_a == msg_b else "violation"), details


def test_divergence_lemma_matches_play_on_seeded_profiles():
    """On the catalog trees and both game fixtures, seeded profile pairs
    at a node both plays share and at any node give the status and
    details of a direct ``play`` of whole behavior tables, or refuse a
    node off a path."""
    rng = random.Random("divergence-lemma")
    cases = catalog_trees() + [load_game("sealed-bid-2x2"), load_game("grand-gaa-2x2")]
    seen = collections.Counter()
    for protocol, strategies, domains in cases:
        nodes = sorted(protocol.nodes)
        if not nodes:  # a tree that is one leaf has no vertex to test
            continue
        for _ in range(20):
            profile_a = [rng.choice(d) for d in domains]
            profile_b = [rng.choice(d) for d in domains]
            plays = [_played(protocol, strategies, p) for p in (profile_a, profile_b)]
            path_b = plays[1][2]
            shared = [u for u in plays[0][2] if u in path_b and u in protocol.nodes]
            for node in (rng.choice(shared), rng.choice(nodes)):
                bidder = protocol.bidder(node)
                expected = _divergence_by_play(plays, bidder, node, profile_a[bidder])
                args = (protocol, strategies, bidder, node, profile_a, profile_b)
                if expected is None:
                    with pytest.raises(ValueError, match="not on both realized paths"):
                        check_divergence_lemma(*args)
                    seen["off_path"] += 1
                    continue
                verdict = check_divergence_lemma(*args)
                assert (verdict.status, verdict.details) == expected
                seen[verdict.status] += 1
    assert min(seen[k] for k in ("off_path", "not_applicable", "consistent", "violation")) > 0


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


@pytest.mark.parametrize("short", ["strategies", "profile"])
def test_divergence_lemma_refuses_a_wrong_bidder_count(short):
    """One strategy, or a one-valuation profile, on a two-bidder tree is
    refused like ``realize_rule`` refuses it, not with an IndexError."""
    game = SealedBidGame((0, 1, 2, 3))
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    vals = [sm(x, 1, 1) for x in range(4)]
    profile_a = (vals[1], vals[2])
    if short == "strategies":
        strategies = strategies[:1]
    else:
        profile_a = profile_a[:1]
    with pytest.raises(ValueError, match="need one strategy and one valuation per bidder"):
        check_divergence_lemma(
            proto, strategies, bidder=0, node=(), profile_a=profile_a,
            profile_b=(vals[2], vals[0]),
        )
