"""Every refusal names its problem: a library call raises, and a command
exits 2 with nothing on stdout, with a message that says what is wrong."""

import json
import re
from fractions import Fraction as F
from unittest import mock

import pytest

from ospclock.cli import main
from ospclock.experiments import ProfileDistribution, cross_valuation_sets
from ospclock.fixtures import SealedBidGame, sealed_bid_domains
from ospclock.mechanisms import RandomizedMechanism
from ospclock.osp import check_divergence_lemma, verify_osp
from ospclock.protocols import (
    GaaGame,
    GaaSpec,
    Outcome,
    Protocol,
    materialize,
    play,
    run_game,
    truthful_strategies,
)
from ospclock.valuations import (
    AdditiveValuation,
    CombinatorialSetting,
    ExplicitValuation,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    instance_from_json,
    make_single_minded,
)
from ospclock.welfare import Allocation, welfare_of


def sealed_bid():
    """The four-level sealed-bid tree, its truthful strategies and domains."""
    game = SealedBidGame()
    protocol = materialize(game)
    return protocol, truthful_strategies(game, protocol), sealed_bid_domains()


class OffMenuGame(SealedBidGame):
    """A sealed-bid game whose truthful rule names a message it lacks."""

    def truthful_messages(self, state, valuations):
        return [7 for _ in valuations]


def simulate_zero_opt(tmp_path):
    path = tmp_path / "zero.json"
    bidder = {"kind": "additive", "values": {"a": "0"}}
    path.write_text(json.dumps({"setting": {"items": ["a"]}, "bidders": [bidder] * 2}))
    return main(["simulate", "--mechanism", "grand-bundle", "--instance", str(path), "--exact"])


def simulate_zero_opt_before_any_game(tmp_path):
    """Seven bidders who want nothing: mech3's 5,040 arrival orders are
    never played, because the zero optimum is refused first."""
    path = tmp_path / "zero7.json"
    bidder = {"kind": "additive", "values": {"a": "0", "b": "0"}}
    path.write_text(json.dumps({"setting": {"items": ["a", "b"]}, "bidders": [bidder] * 7}))
    argv = ["simulate", "--mechanism", "mech3-unit-demand", "--instance", str(path), "--exact"]
    refuse = AssertionError("exact welfare computed before the zero-OPT check")
    with mock.patch.object(RandomizedMechanism, "exact_expected_welfare", side_effect=refuse):
        return main(argv)


def output_into_a_missing_directory(tmp_path):
    return main(["list-fixtures", "--output", str(tmp_path / "missing" / "out.json")])


def verify_with_one_strategy(tmp_path):
    protocol, strategies, domains = sealed_bid()
    return verify_osp(protocol, strategies[:1], domains)


def divergence_at_a_leaf(tmp_path):
    protocol, strategies, domains = sealed_bid()
    profile = [domains[0][0], domains[1][0]]
    return check_divergence_lemma(protocol, strategies, 0, (0, 0), profile, profile)


UNITS2 = MultiUnitSetting(2)
PAIR = Instance(UNITS2, (make_single_minded(1, 1, 2),) * 2)
ITEMS = CombinatorialSetting(("a", "b"))
ITEM_PAIR = Instance(ITEMS, (AdditiveValuation(("a", "b"), {"a": 1, "b": 1}),) * 2)
SPEC = GaaSpec(UNITS2, (0, 0), (2, 2))

# (id, the call, given a scratch directory; a pattern its message matches)
REFUSALS = [
    ("simulate-zero-opt", simulate_zero_opt, "instance has zero optimal welfare"),
    (
        "simulate-zero-opt-first",
        simulate_zero_opt_before_any_game,
        "instance has zero optimal welfare",
    ),
    (
        "output-missing-dir",
        output_into_a_missing_directory,
        r"cannot write .*missing.*No such file",
    ),
    (
        "child-out-of-range",
        lambda _: sealed_bid()[0].child((), 9),
        r"message 9 out of range at \(\)",
    ),
    (
        "play-behavior-count",
        lambda _: play(sealed_bid()[0], [{}]),
        "one behavior per bidder: got 1 for 2",
    ),
    (
        "verify-osp-strategy-count",
        verify_with_one_strategy,
        "one strategy and one domain per bidder: got 1 and 2 for 2",
    ),
    (
        "leaf-payment-length",
        lambda _: Protocol(2, UNITS2, {}, {(): Outcome(Allocation((0, 0)), (F(0),))}),
        "outcome has 1 payments for 2 bidders",
    ),
    (
        "run-game-message",
        lambda _: run_game(OffMenuGame(), [make_single_minded(1, 1, 1)] * 2),
        "truthful message 7 out of range for 4 messages",
    ),
    (
        "spec-unequal-profiles",
        lambda _: GaaSpec(UNITS2, (0,), (2, 2)),
        "matching non-empty base/potential",
    ),
    ("grid-negative-price", lambda _: GaaGame(SPEC, (-1, 0)), "negative grid price"),
    ("multi-unit-empty", lambda _: MultiUnitValuation(()), "needs at least one quantity"),
    (
        "marginal-zero",
        lambda _: MultiUnitValuation((1,)).marginal(0),
        r"quantity 0 outside 1\.\.1",
    ),
    (
        "per-item-negative",
        lambda _: AdditiveValuation(("a",), {"a": -1}),
        "negative value -1 for item 'a'",
    ),
    (
        "explicit-13-items",
        lambda _: ExplicitValuation(tuple("abcdefghijklm"), {}),
        "explicit tables capped at 12 items, got 13",
    ),
    (
        "explicit-negative",
        lambda _: ExplicitValuation(("a",), {(): 0, ("a",): -1}),
        r"negative value -1 for bundle \['a'\]",
    ),
    ("no-units", lambda _: MultiUnitSetting(0), "need at least one unit"),
    ("no-items", lambda _: CombinatorialSetting(()), "need at least one item"),
    (
        "duplicate-items",
        lambda _: CombinatorialSetting(("a", "b", "a")),
        r"duplicate item names \['a'\]",
    ),
    ("multi-unit-items", lambda _: PAIR.items, "multi-unit settings have no named items"),
    (
        "json-multi-unit-count",
        lambda _: instance_from_json(
            {"setting": {"multiunit": 2}, "bidders": [{"kind": "multi_unit", "values": ["1"]}]}
        ),
        "got 1 values in a 2-unit setting",
    ),
    (
        "welfare-bidder-count",
        lambda _: welfare_of(PAIR, Allocation((1,))),
        "allocation has 1 bundles for 2 bidders",
    ),
    ("welfare-bad-quantity", lambda _: welfare_of(PAIR, Allocation((-1, 0))), "bad quantity -1"),
    (
        "welfare-foreign-item",
        lambda _: welfare_of(ITEM_PAIR, Allocation((frozenset({"z"}), frozenset()))),
        r"bundle \['z'\] outside the item universe",
    ),
    (
        "empty-distribution",
        lambda _: ProfileDistribution(UNITS2, ()),
        "needs at least one profile",
    ),
    ("cross-explicit", lambda _: cross_valuation_sets("explicit", 2), "unknown kind 'explicit'"),
    ("sealed-bid-one-level", lambda _: SealedBidGame((1,)), "need at least two report levels"),
    ("divergence-at-a-leaf", divergence_at_a_leaf, r"\(0, 0\) is not an internal node"),
]


@pytest.mark.parametrize(
    "call, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_each_refusal_names_its_problem(tmp_path, capsys, caplog, call, message):
    try:
        code = call(tmp_path)
    except ValueError as exc:
        text = str(exc)
    else:
        assert (code, capsys.readouterr().out) == (2, "")
        text = caplog.text
    assert re.search(message, text), text
