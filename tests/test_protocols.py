"""Tests for explicit protocol trees, games, and the clock builder."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospclock.protocols import (
    GaaGame,
    GaaSpec,
    Game,
    Outcome,
    Protocol,
    ProtocolNode,
    behavior_from_strategy,
    clock_grid,
    materialize,
    play,
    protocol_from_json,
    protocol_to_json,
    realize_rule,
    run_game,
    truthful_strategies,
)
from ospclock.valuations import (
    MultiUnitSetting,
    MultiUnitValuation,
    instance_from_json,
    make_single_minded,
)
from ospclock.welfare import Allocation, SizeCapError

F = Fraction
SETTING2 = MultiUnitSetting(2)


def posted_price_protocol(price):
    """One bidder, one unit: accept at the price or walk away."""
    nodes = {(): ProtocolNode(0, ("accept", "decline"))}
    leaves = {
        (0,): Outcome(Allocation((1,)), (F(price),)),
        (1,): Outcome(Allocation((0,)), (F(0),)),
    }
    return Protocol(1, MultiUnitSetting(1), nodes, leaves)


def grand_bundle_game(domains, setting=SETTING2, n=2):
    potential = tuple(setting.m for _ in range(n))
    base = tuple(0 for _ in range(n))
    spec = GaaSpec(setting, base, potential)
    return GaaGame(spec, spec.grid_for(domains))


def sm(x, d=1, m=2):
    return make_single_minded(x, d, m)


# ---------------------------------------------------------------------------
# protocol basics


def test_posted_price_play():
    proto = posted_price_protocol(3)
    outcome, path = play(proto, [{(): 0}])
    assert outcome.allocation.bundles == (1,)
    assert outcome.payments == (F(3),)
    assert path == [(), (0,)]


def test_play_requires_defined_behavior():
    proto = posted_price_protocol(3)
    with pytest.raises(ValueError, match="undefined"):
        play(proto, [{}])


def test_play_is_deterministic():
    proto = posted_price_protocol(1)
    assert play(proto, [{(): 1}]) == play(proto, [{(): 1}])


class ForcedMoveGame(Game):
    """One bidder, one unit: a forced move, a buy/pass choice, a forced move.

    States are the full move history, forced moves included; with
    ``dead_end`` the choice leads to a state with no messages.
    """

    def __init__(self, dead_end=False):
        self.n = 1
        self.setting = MultiUnitSetting(1)
        self.dead_end = dead_end

    def root_state(self):
        return ()

    def is_leaf(self, state):
        return len(state) == 3

    def outcome(self, state):
        return Outcome(Allocation((1 - state[1],)), (F(0),))

    def bidder(self, state):
        return 0

    def messages(self, state):
        if len(state) == 1:
            return ("buy", "pass")
        return () if self.dead_end and state else ("go",)

    def child(self, state, message):
        return state + (message,)

    def truthful_messages(self, state, valuations):
        # "pass" once the forced first move is made
        return [len(state) for _ in valuations]


def test_forced_moves_are_contracted_by_the_protocol_layer():
    game = ForcedMoveGame()
    proto = materialize(game)
    assert proto.nodes == {(): ProtocolNode(0, ("buy", "pass"))}
    assert sorted(proto.leaves) == [(0,), (1,)]
    assert proto.info == {(): (0,), (0,): (0, 0, 0), (1,): (0, 1, 0)}
    out, history = run_game(game, [None])
    assert history == (1,)
    assert out == proto.outcome((1,))
    assert truthful_strategies(game, proto)[0]((), [None])[0] == 1
    with pytest.raises(ValueError, match="no messages"):
        materialize(ForcedMoveGame(dead_end=True))
    with pytest.raises(ValueError, match="no messages"):
        run_game(ForcedMoveGame(dead_end=True), [None])


NOTHING = Outcome(Allocation((0,)), (F(0),))
CHOICE = {(): ProtocolNode(0, ("a", "b"))}

# each structural refusal: (n, nodes, leaves, the whole message)
MALFORMED = {
    "no-bidders": (0, {}, {(): Outcome(Allocation(()), ())}, "protocols need at least one bidder"),
    "internal-and-leaf": (
        1, CHOICE, {(): NOTHING, (0,): NOTHING, (1,): NOTHING},
        "ids both internal and leaf: [()]",
    ),
    "missing-root": (1, {}, {(0,): NOTHING}, "missing root"),
    "bidder-out-of-range": (
        1, {(): ProtocolNode(1, ("a", "b"))}, {(0,): NOTHING, (1,): NOTHING},
        "node (): bidder 1 out of range",
    ),
    "single-message": (
        1, {(): ProtocolNode(0, ("only",))}, {(0,): NOTHING},
        "node (): single-message nodes must be contracted",
    ),
    "missing-child": (1, CHOICE, {(0,): NOTHING}, "node (): missing child for message 1"),
    "past-message-count": (
        1, CHOICE, {(0,): NOTHING, (1,): NOTHING, (2,): NOTHING},
        "id (2,) exceeds parent's message count",
    ),
    "child-of-a-leaf": (
        1, CHOICE, {(0,): NOTHING, (1,): NOTHING, (0, 0): NOTHING}, "unreachable id (0, 0)"
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_protocol_refuses_each_malformed_tree(case):
    n, nodes, leaves, message = MALFORMED[case]
    with pytest.raises(ValueError) as refused:
        Protocol(n, MultiUnitSetting(1), nodes, leaves)
    assert str(refused.value) == message


def test_protocol_refuses_a_negative_message_id():
    # no message has index -1, so the walk from the root never reaches it
    leaves = {(0,): NOTHING, (1,): NOTHING, (-1,): NOTHING}
    with pytest.raises(ValueError, match=r"id \(-1,\)"):
        Protocol(1, MultiUnitSetting(1), CHOICE, leaves)


def test_protocol_refuses_a_tree_over_the_tree_cap(monkeypatch):
    leaves = {(0,): NOTHING, (1,): NOTHING}
    Protocol(1, MultiUnitSetting(1), CHOICE, leaves)
    monkeypatch.setenv("OSPCLOCK_TREE_CAP", "2")
    with pytest.raises(SizeCapError) as refused:
        Protocol(1, MultiUnitSetting(1), CHOICE, leaves)
    assert str(refused.value) == "protocol has 3 nodes; cap 2 (override with OSPCLOCK_TREE_CAP)"


def test_protocol_rejects_infeasible_leaf():
    nodes = {(): ProtocolNode(0, ("a", "b"))}
    leaves = {
        (0,): Outcome(Allocation((2,)), (F(0),)),  # two units, supply is one
        (1,): Outcome(Allocation((0,)), (F(0),)),
    }
    with pytest.raises(ValueError):
        Protocol(1, MultiUnitSetting(1), nodes, leaves)


# ---------------------------------------------------------------------------
# clock auctions


def test_grand_bundle_on_equal_ones():
    """Two bidders worth 1 each: lowest index wins everything at 1."""
    dom = [[sm(1)], [sm(1)]]
    outcome, _ = run_game(grand_bundle_game(dom), [sm(1), sm(1)])
    assert outcome.allocation.bundles == (2, 0)
    assert outcome.payments == (F(1), F(0))


def test_grand_bundle_is_second_price():
    dom = [[sm(4)], [sm(3)]]
    outcome, _ = run_game(grand_bundle_game(dom), [sm(4), sm(3)])
    assert outcome.allocation.bundles == (2, 0)
    assert outcome.payments == (F(3), F(0))


def test_everyone_exits_to_base_bundles():
    # only the all-exited profile fits: 3 base units of 3
    spec = GaaSpec(
        MultiUnitSetting(3),
        base=(1, 1, 1),
        potential=(2, 2, 2),
    )
    zero = sm(0, m=3)
    outcome, _ = run_game(GaaGame(spec, (F(1),)), [zero, zero, zero])
    assert outcome.allocation.bundles == (1, 1, 1)
    assert outcome.payments == (F(0), F(0), F(0))


def test_feasible_at_start_short_circuits():
    # supply covers both potential bundles: no clock at all
    spec = GaaSpec(SETTING2, base=(0, 0), potential=(1, 1))
    game = GaaGame(spec, (F(1),))
    assert game.is_leaf(game.root_state())
    outcome, history = run_game(game, [sm(3), sm(3)])
    assert history == ()
    assert outcome.allocation.bundles == (1, 1)
    assert outcome.payments == (F(0), F(0))


def test_grid_exhaustion_forces_exit():
    # grid tops out below both marginals: nobody can win
    spec = GaaSpec(SETTING2, base=(0, 0), potential=(2, 2))
    outcome, _ = run_game(GaaGame(spec, (F(1),)), [sm(5), sm(7)])
    assert outcome.allocation.bundles == (0, 0)
    assert outcome.payments == (F(0), F(0))


def test_fixed_award_keeps_base_bundle():
    """A bidder holding a base unit competes only for the upgrade."""
    spec = GaaSpec(SETTING2, base=(1, 0), potential=(2, 1))
    v0 = MultiUnitValuation((F(1), F(3)))  # upgrade worth 2
    v1 = make_single_minded(1, 1, 2)  # potential unit worth 1
    outcome, _ = run_game(GaaGame(spec, (F(1), F(2))), [v0, v1])
    assert outcome.allocation.bundles == (2, 0)
    assert outcome.payments == (F(1), F(0))


def test_gaa_spec_validation():
    with pytest.raises(ValueError, match="grid"):
        GaaGame(GaaSpec(SETTING2, (0, 0), (2, 2)), ())
    with pytest.raises(ValueError, match="increasing"):
        GaaGame(GaaSpec(SETTING2, (0, 0), (2, 2)), (F(2), F(2)))
    with pytest.raises(ValueError, match="inside potential"):
        GaaSpec(SETTING2, (2, 0), (1, 2))
    with pytest.raises(ValueError, match="feasible"):
        GaaSpec(SETTING2, (2, 1), (2, 2))


def test_clock_grid_shapes():
    assert clock_grid([3, 1, 3, 0]) == (F(1), F(3), F(4))
    assert clock_grid([0, 0]) == (F(1),)
    assert clock_grid([F(1, 2)]) == (F(1, 2), F(3, 2))


def test_gaa_leaves_pay_clearing_price():
    """Winners pay the clearing price; the exited get base bundles free."""
    dom = [[sm(x) for x in range(4)]] * 2
    proto = materialize(grand_bundle_game(dom))
    for leaf, outcome in proto.leaves.items():
        state = proto.info[leaf]
        for i in range(2):
            if i in state.winners:
                assert outcome.allocation.bundles[i] == 2
                assert outcome.payments[i] == state.clearing
            else:
                assert outcome.allocation.bundles[i] == 0
                assert outcome.payments[i] == F(0)


def test_gaa_rounds_poll_every_active_bidder():
    dom = [[sm(x, 1, 3) for x in range(3)]] * 3
    setting = MultiUnitSetting(3)
    proto = materialize(grand_bundle_game(dom, setting=setting, n=3))
    for u in proto.nodes:
        state = proto.info[u]
        full_round = tuple(sorted(state.active, reverse=True))
        # the queue is always the untraversed tail of a full round
        assert state.queue == full_round[len(full_round) - len(state.queue):]


@given(
    seedvals=st.lists(st.integers(0, 2), min_size=2, max_size=2),
    potentials=st.lists(st.integers(1, 2), min_size=2, max_size=2),
)
@settings(max_examples=40)
def test_tree_play_matches_direct_run(seedvals, potentials):
    """Materialized-tree play and direct simulation agree everywhere."""
    base = (0, 0)
    dom = [[sm(x, 1, 2), sm(2, 2, 2)] for x in seedvals]
    spec = GaaSpec(SETTING2, base, tuple(potentials))
    game = GaaGame(spec, spec.grid_for(dom))
    proto = materialize(game)
    strategies = truthful_strategies(game, proto)
    for v0 in dom[0]:
        for v1 in dom[1]:
            direct_out, history = run_game(game, [v0, v1])
            behaviors = [
                behavior_from_strategy(proto, i, strategies[i], v)
                for i, v in enumerate((v0, v1))
            ]
            tree_out, path = play(proto, behaviors)
            assert tree_out == direct_out
            assert path[-1] == history


# ---------------------------------------------------------------------------
# realized rules


def test_realize_rule_posted_price():
    proto = posted_price_protocol(2)

    def strategy(u, valuations):
        return [0 if v.value(1) >= 2 else 1 for v in valuations]

    domain = [sm(0, 1, 1), sm(4, 1, 1)]
    rule = realize_rule(proto, [strategy], [domain])
    assert rule.table[(0,)].allocation.bundles == (0,)
    assert rule.table[(1,)].allocation.bundles == (1,)
    assert rule.table[(1,)].payments == (F(2),)


def test_realize_rule_singleton_domain_equals_play():
    dom = [[sm(3)], [sm(1)]]
    game = grand_bundle_game(dom)
    proto = materialize(game)
    rule = realize_rule(proto, truthful_strategies(game, proto), dom)
    assert list(rule.table) == [(0, 0)]
    assert rule.table[(0, 0)] == run_game(game, [sm(3), sm(1)])[0]


def test_realize_rule_high_rival_takes_everything():
    """Huge all-or-nothing rival outbids a modest unit bidder."""
    v_small, v_big = sm(5, 1, 2), sm(16, 2, 2)
    doms = [[v_small], [v_big]]
    game = grand_bundle_game(doms)
    proto = materialize(game)
    rule = realize_rule(proto, truthful_strategies(game, proto), doms)
    outcome = rule.table[(0, 0)]
    assert outcome.allocation.bundles == (0, 2)
    assert outcome.payments == (F(0), F(5))


# ---------------------------------------------------------------------------
# serialization


def test_protocol_json_round_trip():
    dom = [[sm(x) for x in range(3)]] * 2
    proto = materialize(grand_bundle_game(dom))
    data = protocol_to_json(proto)
    back = protocol_from_json(data)
    assert back.nodes == proto.nodes
    assert back.leaves == proto.leaves
    assert protocol_to_json(back) == data


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"multiunit": 1.9}, "'multiunit' must be a JSON integer"),
        ({"multiunit": True}, "'multiunit' must be a JSON integer"),
        ({"multiunit": 1, "items": ["a"]}, "setting names both 'multiunit' and 'items'"),
        ({}, "setting must name 'multiunit' or 'items'"),
        ({"items": "ab"}, "'items' must be a JSON list"),
    ],
    ids=["float", "bool", "both", "neither", "string-items"],
)
def test_protocol_and_instance_readers_refuse_a_bad_setting_alike(setting, message):
    data = protocol_to_json(posted_price_protocol(1))
    bidders = [{"kind": "single_minded", "x": "1", "d": 1}]
    for read, document in (
        (protocol_from_json, dict(data, setting=setting)),
        (instance_from_json, {"setting": setting, "bidders": bidders}),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            read(document)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(n=2.9), "'n' must be a JSON integer, got 2.9"),
        (lambda d: d["nodes"][""].update(bidder=True), "'bidder' must be a JSON integer, got True"),
        (
            lambda d: d["leaves"]["0"].update(allocation=[0.5]),
            "'allocation' must be a JSON integer, got 0.5",
        ),
        (lambda d: d.pop("nodes"), "the protocol has no 'nodes' field"),
        (
            lambda d: d["nodes"][""].update(messages=[1, None]),
            "'messages' must be a JSON string, got 1",
        ),
        (
            lambda d: d["nodes"].update(x=d["nodes"].pop("")),
            "node key 'x' must be message indices joined by '.'",
        ),
        (
            lambda d: d["leaves"].update({"01": d["leaves"].pop("1")}),
            "leaf key '01' must be message indices joined by '.'",
        ),
    ],
    ids=[
        "float-n",
        "bool-bidder",
        "fractional-quantity",
        "no-nodes",
        "non-string-label",
        "bad-node-key",
        "padded-leaf-key",
    ],
)
def test_protocol_reader_refuses_a_malformed_field(mutate, message):
    data = protocol_to_json(posted_price_protocol(1))
    mutate(data)
    with pytest.raises(ValueError, match=re.escape(message)):
        protocol_from_json(data)

