"""Tests for valuation classes, class checks, and JSON round-trips."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ospclock.valuations import (
    MAX_LITERAL_EXPONENT,
    AdditiveValuation,
    CombinatorialSetting,
    ExplicitValuation,
    Instance,
    MultiUnitSetting,
    MultiUnitValuation,
    UnitDemandValuation,
    all_bundles,
    as_fraction,
    check_class,
    check_decreasing_marginals,
    format_fraction,
    instance_from_json,
    instance_to_json,
    make_single_minded,
)

F = Fraction


# ---------------------------------------------------------------------------
# multi-unit


def test_single_minded_unit_demand_shape():
    assert make_single_minded(1, 1, 2).values == (F(1), F(1))


def test_single_minded_all_or_nothing():
    k = 7
    v = make_single_minded(k * k, 4, 4)
    assert v.values == (F(0), F(0), F(0), F(k * k))


def test_single_minded_zero_value():
    assert make_single_minded(0, 1, 3).values == (F(0), F(0), F(0))


def test_single_minded_rejects_bad_demand():
    with pytest.raises(ValueError):
        make_single_minded(1, 0, 3)
    with pytest.raises(ValueError):
        make_single_minded(1, 4, 3)
    with pytest.raises(ValueError):
        make_single_minded(-1, 1, 3)


def test_multiunit_rejects_decrease_and_negative():
    with pytest.raises(ValueError):
        MultiUnitValuation((F(2), F(1)))
    with pytest.raises(ValueError):
        MultiUnitValuation((F(-1), F(0)))


def test_value_and_marginal():
    v = MultiUnitValuation((F(2), F(3), F(3)))
    assert v.value(0) == 0
    assert v.value(2) == 3
    assert [v.marginal(q) for q in (1, 2, 3)] == [F(2), F(1), F(0)]
    with pytest.raises(ValueError):
        v.value(4)


def test_decreasing_marginals_examples():
    k2 = F(100)
    assert check_decreasing_marginals(MultiUnitValuation((k2, 2 * k2)))
    assert not check_decreasing_marginals(MultiUnitValuation((F(1), F(3))))
    assert check_decreasing_marginals(MultiUnitValuation((F(2), F(3), F(3))))


@given(
    x=st.integers(min_value=1, max_value=50),
    d=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=6),
)
def test_single_minded_decreasing_marginals_iff_unit_demand(x, d, m):
    """A positive step function has decreasing marginals exactly when d=1."""
    if d > m:
        d = m
    v = make_single_minded(x, d, m)
    assert check_decreasing_marginals(v) == (d == 1)


@given(
    x=st.integers(min_value=0, max_value=9),
    d=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=5, max_value=5),
)
def test_single_minded_step_round_trip(x, d, m):
    got = make_single_minded(x, d, m).single_minded
    assert got is not None
    if x == 0:
        assert (got.x, got.d) == (0, 1)
    else:
        assert (got.x, got.d) == (F(x), d)


def test_single_minded_is_none_for_two_steps():
    assert MultiUnitValuation((F(1), F(2))).single_minded is None
    assert MultiUnitValuation((F(0), F(1), F(2))).single_minded is None


@pytest.mark.parametrize(
    "values",
    [(0,), (0, 0, 0), (2,), (0, 0, 5), (1, 2), (0, 1, 1, 3), (2, 2, 3), (1, 1, 1)],
)
def test_single_minded_matches_the_step_definition(values):
    # a step is worth its top value x from its first positive quantity d
    # on, and 0 below d; the all-zero vector is the step (0, 1)
    v = MultiUnitValuation(tuple(map(F, values)))
    positive = [q for q in range(1, v.m + 1) if v.value(q) > 0]
    if not positive:
        expected = (0, 1)
    elif all(v.value(q) == v.value(v.m) for q in positive):
        expected = (v.value(v.m), positive[0])
    else:
        expected = None
    got = v.single_minded
    assert (got and (got.x, got.d)) == expected


def test_recorded_shapes_stay_out_of_repr_and_equality():
    step = make_single_minded(3, 2, 3)
    assert repr(step) == (
        "MultiUnitValuation(values=(Fraction(0, 1), Fraction(3, 1), Fraction(3, 1)))"
    )
    assert step == MultiUnitValuation((F(0), F(3), F(3)))
    assert hash(step) == hash(MultiUnitValuation((F(0), F(3), F(3))))
    with pytest.raises(TypeError):
        MultiUnitValuation((F(1),), single_minded=None)
    flat = UnitDemandValuation(("a", "b"), {"a": F(2), "b": F(2)})
    assert flat.constant == 2
    assert repr(flat) == (
        "UnitDemandValuation(items=('a', 'b'), "
        "per_item={'a': Fraction(2, 1), 'b': Fraction(2, 1)})"
    )
    assert AdditiveValuation(("a", "b"), {"a": F(2), "b": F(1)}).constant is None
    assert flat != AdditiveValuation(("a", "b"), {"a": F(2), "b": F(2)})


# ---------------------------------------------------------------------------
# combinatorial


ITEMS = ("a", "b")


def _explicit(table):
    return ExplicitValuation(ITEMS, {frozenset(k): v for k, v in table.items()})


def test_eval_additive_and_unit_demand():
    add = AdditiveValuation(ITEMS, {"a": 3, "b": 4})
    ud = UnitDemandValuation(ITEMS, {"a": 3, "b": 4})
    assert add.value({"a", "b"}) == 7
    assert ud.value({"a", "b"}) == 4
    assert add.value(set()) == 0 and ud.value(set()) == 0


def test_eval_below_single_minded_demand():
    assert make_single_minded(5, 2, 3).value(1) == 0


def test_eval_rejects_unknown_items():
    add = AdditiveValuation(ITEMS, {"a": 1, "b": 1})
    with pytest.raises(ValueError):
        add.value({"z"})


def test_explicit_requires_full_monotone_table():
    with pytest.raises(ValueError):
        _explicit({"": 0, "a": 1})  # incomplete
    with pytest.raises(ValueError):
        _explicit({"": 1, "a": 1, "b": 1, "ab": 1})  # empty bundle worth 1
    with pytest.raises(ValueError):
        _explicit({"": 0, "a": 1, "b": 0, "ab": 0})  # not monotone


def test_check_class_subadditive_example():
    v = _explicit({"": 0, "a": 2, "b": 2, "ab": 3})
    assert check_class(v, "subadditive")
    assert check_class(v, "monotone")
    assert not check_class(v, "additive")


def test_check_class_unit_demand_per_item_table():
    k = 10
    v = UnitDemandValuation(ITEMS, {"a": 2 * k + 3, "b": 2 * k + 1})
    assert check_class(v, "unit_demand")
    assert not check_class(v, "additive")


def test_check_class_unknown_name():
    with pytest.raises(ValueError):
        check_class(AdditiveValuation(ITEMS, {"a": 1, "b": 1}), "supermodular")


@given(
    values=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5)
)
def test_additive_matches_explicit_table(values):
    """Summing per-item values and tabulating them agree on every bundle."""
    items = tuple(f"i{k}" for k in range(len(values)))
    per_item = dict(zip(items, map(F, values)))
    add = AdditiveValuation(items, per_item)
    table = {b: add.value(b) for b in all_bundles(items)}
    exp = ExplicitValuation(items, table)
    for b in all_bundles(items):
        assert exp.value(b) == add.value(b)
    assert check_class(exp, "additive")


@given(
    values=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5)
)
def test_unit_demand_is_monotone_and_subadditive(values):
    items = tuple(f"i{k}" for k in range(len(values)))
    ud = UnitDemandValuation(items, dict(zip(items, map(F, values))))
    assert check_class(ud, "monotone")
    assert check_class(ud, "subadditive")


# ---------------------------------------------------------------------------
# instances and JSON


def test_instance_checks_setting_compatibility():
    with pytest.raises(ValueError):
        Instance(MultiUnitSetting(2), (AdditiveValuation(ITEMS, {"a": 1, "b": 1}),))
    with pytest.raises(ValueError):
        Instance(CombinatorialSetting(ITEMS), (make_single_minded(1, 1, 2),))
    with pytest.raises(ValueError):
        Instance(MultiUnitSetting(2), (make_single_minded(1, 1, 3),))
    with pytest.raises(ValueError):
        Instance(MultiUnitSetting(2), ())


def test_instance_grand_bundle_value():
    inst = Instance(
        CombinatorialSetting(ITEMS),
        (UnitDemandValuation(ITEMS, {"a": 3, "b": 5}),),
    )
    assert inst.grand_bundle_value(0) == 5


def test_json_round_trip_multiunit():
    inst = Instance(
        MultiUnitSetting(3),
        (
            make_single_minded(F(5, 2), 2, 3),
            MultiUnitValuation((F(1), F(2), F(2))),
        ),
    )
    data = instance_to_json(inst)
    assert data["bidders"][0] == {"kind": "single_minded", "x": "5/2", "d": 2}
    assert data["bidders"][1]["values"] == ["1/1", "2/1", "2/1"]
    assert instance_from_json(json.loads(json.dumps(data))) == inst


def test_json_round_trip_combinatorial():
    inst = Instance(
        CombinatorialSetting(ITEMS),
        (
            AdditiveValuation(ITEMS, {"a": F(1, 3), "b": 2}),
            UnitDemandValuation(ITEMS, {"a": 0, "b": 4}),
            _explicit({"": 0, "a": 1, "b": 1, "ab": 2}),
        ),
    )
    data = instance_to_json(inst)
    assert data["setting"] == {"items": ["a", "b"]}
    assert data["bidders"][0]["values"]["a"] == "1/3"
    assert set(data["bidders"][2]["values"]) == {"", "a", "b", "a,b"}
    assert instance_from_json(json.loads(json.dumps(data))) == inst


@pytest.mark.parametrize(
    "raw, message",
    [
        (True, "True is not an exact amount"),
        (2.5, "2.5 is not an exact amount"),
        (None, "None is not an exact amount"),
        ("1/0", "zero denominator in '1/0'"),
        ("x/2", "Invalid literal for Fraction: 'x/2'"),
        ("1e4301", "exponent of '1e4301' exceeds 4300"),
        ("2E-0_4_301", "exponent of '2E-0_4_301' exceeds 4300"),
        ("1e" + "9" * 5000, "exponent of '1e999"),
    ],
    ids=["bool", "float", "null", "zero-denominator", "malformed", "exponent",
         "negative-exponent", "exponent-digits"],
)
def test_as_fraction_refusals_are_value_errors_naming_the_input(raw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        as_fraction(raw)


def test_as_fraction_reads_exponents_up_to_the_bound():
    assert MAX_LITERAL_EXPONENT == 4300
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("3E-0_4300") == F(3, 10**4300)
    assert as_fraction(" 1.5e2 ") == 150


def test_format_fraction_states_digits_past_the_print_limit():
    nines = 10**4300 - 1  # 4,300 digits: the most Python prints
    assert format_fraction(F(-nines, 7)) == f"{-nines}/7"
    for value, digits in (
        (F(1, 10**4300), 4301),
        (F(-2 * nines), 4301),
        (F(10**5000 + 1, 3), 5001),
    ):
        with pytest.raises(ValueError, match=f"has {digits} digits, past the 4300-digit limit"):
            format_fraction(value)


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        instance_from_json(
            {"setting": {"multiunit": 2}, "bidders": [{"kind": "mystery"}]}
        )


def test_json_serialization_is_deterministic():
    inst = Instance(MultiUnitSetting(2), (make_single_minded(1, 1, 2),) * 2)
    a = json.dumps(instance_to_json(inst), sort_keys=True)
    b = json.dumps(instance_to_json(inst), sort_keys=True)
    assert a == b
