"""Tests for the named fixture catalog and domain-grid builders."""

import pytest

from ospclock.fixtures import (
    FIXTURES,
    additive_domain,
    decreasing_marginal_domain,
    explicit_domain,
    fixture_names,
    get_fixture,
    load_game,
    load_instance,
    single_minded_domain,
    unit_demand_domain,
)
from ospclock.osp import verify_ir_nnt, verify_osp
from ospclock.valuations import (
    check_class,
    check_decreasing_marginals,
    instance_from_json,
    instance_to_json,
)
from ospclock.welfare import opt


def test_catalog_names_are_stable():
    assert fixture_names() == [
        "add-cross",
        "critical-1",
        "dm-e6",
        "grand-gaa-2x2",
        "i1-ones",
        "mono-split",
        "rb-demo",
        "sampling-10",
        "sampling-11",
        "sampling-12",
        "sampling-200",
        "sealed-bid-2x2",
        "sm-3bidders",
        "subadd-split",
        "tight-dm-3",
        "ud-failure-16",
    ]


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIXTURES) if FIXTURES[n].kind == "instance"]
)
def test_instance_fixtures_roundtrip_json(name):
    inst = load_instance(name)
    assert instance_from_json(instance_to_json(inst)) == inst


@pytest.mark.parametrize(
    "name,value",
    [
        ("i1-ones", 4),
        ("sm-3bidders", 10),
        ("rb-demo", 9),
        ("add-cross", 6),
        ("subadd-split", 2),
        ("mono-split", 3),
        ("dm-e6", 7),
        ("tight-dm-3", 12),
        ("ud-failure-16", 20),
        ("sampling-11", 8),
        ("critical-1", 5),
    ],
)
def test_instance_fixture_optima(name, value):
    assert opt(load_instance(name)).value == value


def test_fixture_kind_gates():
    with pytest.raises(ValueError, match="unknown fixture"):
        get_fixture("nope")
    with pytest.raises(ValueError, match="game, not an instance"):
        load_instance("sealed-bid-2x2")
    with pytest.raises(ValueError, match="instance, not a game"):
        load_game("rb-demo")


def test_split_fixture_classes():
    sub = load_instance("subadd-split")
    assert all(check_class(v, "subadditive") for v in sub.valuations)
    mono = load_instance("mono-split")
    assert all(check_class(v, "monotone") for v in mono.valuations)
    assert not check_class(mono.valuations[0], "subadditive")


def test_sealed_bid_game_fails_osp():
    protocol, strategies, domains = load_game("sealed-bid-2x2")
    verdict = verify_osp(protocol, strategies, domains)
    assert verdict.status == "fail"
    assert verdict.witness is not None


def test_grand_gaa_game_passes_osp_and_ir():
    protocol, strategies, domains = load_game("grand-gaa-2x2")
    assert verify_osp(protocol, strategies, domains).status == "pass"
    assert verify_ir_nnt(protocol, strategies, domains).status == "pass"


def test_single_minded_domain_dedupes_zero():
    dom = single_minded_domain(2, values=(0, 1, 2, 3), demands=(1, 2))
    assert len(dom) == 7  # the all-zero valuation appears once
    assert len(set(dom)) == 7


def test_decreasing_marginal_domain():
    dom = decreasing_marginal_domain(3, range(5))
    assert len(dom) == 35  # non-increasing triples over five levels
    assert all(check_decreasing_marginals(v) for v in dom)
    assert len(set(dom)) == len(dom)


def test_combinatorial_domains():
    assert len(additive_domain(("a", "b"), range(5))) == 25
    assert len(unit_demand_domain(("a", "b"), range(3))) == 9
    mono = explicit_domain(("a", "b"), range(3), "monotone")
    sub = explicit_domain(("a", "b"), range(3), "subadditive")
    assert len(mono) == 14
    assert len(sub) == 10
    assert all(check_class(v, "subadditive") for v in sub)
    assert all(v in mono for v in sub)
