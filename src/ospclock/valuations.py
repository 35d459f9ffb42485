"""Valuation classes for multi-unit and combinatorial auctions.

Two settings share one `Instance` container:

* multi-unit — ``m`` identical items, each bidder has a monotone value
  vector over quantities ``1..m`` (``v(0) = 0`` implicit);
* combinatorial — a finite set of named items, each bidder has an
  additive, unit-demand, or explicitly tabulated valuation over bundles.

All values are exact :class:`fractions.Fraction`, never floats, so
expected-welfare identities (5/6, 3/4, ...) hold exactly in tests.
"""

from __future__ import annotations

import math
import re
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Union

MAX_EXPLICIT_ITEMS = 12
# The largest decimal exponent a "p/q" literal may carry ("1e4300").
# ``Fraction("1e999999999")`` builds the power of ten before anything
# could refuse it; 4,300 is also the digit limit Python applies to
# ``int(str)``, which already bounds the literal's mantissa.
MAX_LITERAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?[0_]*(\d[\d_]*)")

Bundle = frozenset  # of item names
Quantity = int


def as_fraction(x: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, Fraction, or \"p/q\" string to an exact Fraction.

    Anything else (a bool, a float, a malformed literal, a zero
    denominator, an exponent past ``MAX_LITERAL_EXPONENT``) raises
    ``ValueError`` naming the input.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        digits = exponent[1].replace("_", "") if exponent else "0"
        # the length test keeps int() off an exponent of thousands of digits
        if len(digits) > len(str(MAX_LITERAL_EXPONENT)) or int(digits) > MAX_LITERAL_EXPONENT:
            raise ValueError(f"exponent of {x!r} exceeds {MAX_LITERAL_EXPONENT}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"{x!r} is not an exact amount: write an integer or a \"p/q\" string")


def _decimal_digits(k: int) -> int:
    """The number of decimal digits of ``abs(k)``, for k != 0, without
    printing it."""
    k = abs(k)
    digits = int(k.bit_length() * math.log10(2))  # at most the count
    while 10**digits <= k:
        digits += 1
    return digits


def format_fraction(x: Fraction) -> str:
    """Serialize a Fraction as the canonical \"p/q\" string.

    A numerator or denominator past Python's digit limit for printing
    an int raises ``ValueError`` stating its digit count and the limit.
    """
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        digits = max(_decimal_digits(x.numerator), _decimal_digits(x.denominator))
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"an exact value has {digits} digits, past the {limit}-digit limit "
            "for printing an integer"
        ) from None


def _scale_to_ints(amounts: Iterable) -> tuple[int, list[int]]:
    """Exact amounts as integers on one common scale.

    Returns ``(scale, ints)``: ``scale`` is the least common multiple of
    the denominators (1 for no amounts) and ``ints[k]`` is
    ``amounts[k] * scale``.  Scaling by a positive integer keeps every
    sum, difference, comparison and tie, so integer arithmetic on
    ``ints`` decides exactly what ``Fraction`` arithmetic would.
    """
    amounts = list(amounts)
    scale = math.lcm(*{x.denominator for x in amounts})
    return scale, [x.numerator * (scale // x.denominator) for x in amounts]


# ---------------------------------------------------------------------------
# Multi-unit valuations


@dataclass(frozen=True, slots=True)
class SingleMindedParams:
    """A scalar value ``x`` for any quantity of at least ``d`` units."""

    x: Fraction
    d: int


@dataclass(frozen=True)
class MultiUnitValuation:
    """Monotone valuation over quantities of a homogeneous good.

    ``values[q-1]`` is the value for receiving ``q`` units; receiving
    nothing is worth 0.  Construction rejects negative entries and any
    decrease, so every instance of this class is monotone by fiat.

    ``single_minded`` is the step ``(x, d)``: worth ``x`` from ``d`` units
    on and 0 below, ``(0, 1)`` for all zeros, None for any other shape.
    """

    values: tuple[Fraction, ...]
    single_minded: Optional[SingleMindedParams] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        vals = tuple(as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("multi-unit valuation needs at least one quantity")
        prev = Fraction(0)
        for q, v in enumerate(vals, start=1):
            if v < 0:
                raise ValueError(f"negative value {v} at quantity {q}")
            if v < prev:
                raise ValueError(
                    f"valuation decreases from {prev} to {v} at quantity {q}"
                )
            prev = v
        # monotone: the values reach their top at d and stay there, so
        # the valuation is a step exactly when nothing precedes d but 0
        top = vals[-1]
        d = vals.index(top) + 1 if top else 1
        step = d == 1 or vals[d - 2] == 0
        object.__setattr__(
            self, "single_minded", SingleMindedParams(top, d) if step else None
        )

    @property
    def m(self) -> int:
        return len(self.values)

    def value(self, quantity: Quantity) -> Fraction:
        if not 0 <= quantity <= self.m:
            raise ValueError(f"quantity {quantity} outside 0..{self.m}")
        if quantity == 0:
            return Fraction(0)
        return self.values[quantity - 1]

    def marginal(self, quantity: Quantity) -> Fraction:
        """v(q) - v(q-1) for q in 1..m."""
        if not 1 <= quantity <= self.m:
            raise ValueError(f"quantity {quantity} outside 1..{self.m}")
        return self.value(quantity) - self.value(quantity - 1)


def make_single_minded(
    x: Union[int, str, Fraction], d: int, m: int
) -> MultiUnitValuation:
    """Step valuation: worth ``x`` at quantities >= ``d``, else 0."""
    x = as_fraction(x)
    if x < 0:
        raise ValueError(f"single-minded value must be non-negative, got {x}")
    if not 1 <= d <= m:
        raise ValueError(f"demand {d} outside 1..{m}")
    zero = Fraction(0)
    return MultiUnitValuation(tuple(zero if q < d else x for q in range(1, m + 1)))


def check_decreasing_marginals(v: MultiUnitValuation) -> bool:
    """True iff marginal values are non-increasing in the quantity."""
    return all(
        v.marginal(q) >= v.marginal(q + 1) for q in range(1, v.m)
    )


# ---------------------------------------------------------------------------
# Combinatorial valuations


def _normalize_bundle(bundle: Iterable[str], items: tuple[str, ...]) -> Bundle:
    b = frozenset(bundle)
    extra = b - set(items)
    if extra:
        raise ValueError(f"bundle contains unknown items {sorted(extra)}")
    return b


@dataclass(frozen=True)
class PerItemValuation:
    """A value per item; subclasses say how a bundle combines them.

    ``constant`` is the one value shared by every item, else None.
    """

    items: tuple[str, ...]
    per_item: Mapping[str, Fraction]
    constant: Optional[Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if set(self.per_item) != set(items):
            raise ValueError(
                f"per-item values keyed by {sorted(self.per_item)} but items are {list(items)}"
            )
        per_item = {}
        for j in items:
            v = per_item[j] = as_fraction(self.per_item[j])  # type: ignore[arg-type]
            if v < 0:
                raise ValueError(f"negative value {v} for item {j!r}")
        distinct = set(per_item.values())
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "per_item", per_item)
        object.__setattr__(self, "constant", distinct.pop() if len(distinct) == 1 else None)


@dataclass(frozen=True)
class AdditiveValuation(PerItemValuation):
    """Bundle value is the sum of per-item values."""

    def value(self, bundle: Iterable[str]) -> Fraction:
        b = _normalize_bundle(bundle, self.items)
        return sum((self.per_item[j] for j in b), Fraction(0))


@dataclass(frozen=True)
class UnitDemandValuation(PerItemValuation):
    """Bundle value is the best single item in the bundle."""

    def value(self, bundle: Iterable[str]) -> Fraction:
        b = _normalize_bundle(bundle, self.items)
        if not b:
            return Fraction(0)
        return max(self.per_item[j] for j in b)


@dataclass(frozen=True)
class ExplicitValuation:
    """Full table from every bundle of the universe to a value.

    The constructor requires a complete, non-negative, monotone table
    with ``v(emptyset) = 0``.
    """

    items: tuple[str, ...]
    table: Mapping[Bundle, Fraction]

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if len(items) > MAX_EXPLICIT_ITEMS:
            raise ValueError(
                f"explicit tables capped at {MAX_EXPLICIT_ITEMS} items, got {len(items)}"
            )
        table = {}
        for raw_bundle, raw_value in self.table.items():
            b = _normalize_bundle(raw_bundle, items)
            v = as_fraction(raw_value)  # type: ignore[arg-type]
            if v < 0:
                raise ValueError(f"negative value {v} for bundle {sorted(b)}")
            table[b] = v
        if len(table) != 2 ** len(items):
            raise ValueError(
                f"table has {len(table)} bundles, expected {2 ** len(items)}"
            )
        if table[frozenset()] != 0:
            raise ValueError("empty bundle must be worth 0")
        object.__setattr__(self, "table", table)
        if not _table_monotone(items, table):
            raise ValueError("explicit valuation is not monotone")

    def value(self, bundle: Iterable[str]) -> Fraction:
        return self.table[_normalize_bundle(bundle, self.items)]


def _table_monotone(items: tuple[str, ...], table: Mapping[Bundle, Fraction]) -> bool:
    # Dropping any single item never increases the value; chains of
    # single drops cover every subset pair.
    for b, v in table.items():
        for j in b:
            if table[b - {j}] > v:
                return False
    return True


CombinatorialValuation = Union[AdditiveValuation, UnitDemandValuation, ExplicitValuation]
Valuation = Union[MultiUnitValuation, AdditiveValuation, UnitDemandValuation, ExplicitValuation]


def all_bundles(items: Iterable[str]) -> list[Bundle]:
    """Every subset of the universe, smallest first, deterministic order."""
    items = tuple(items)
    out: list[Bundle] = []
    for size in range(len(items) + 1):
        out.extend(frozenset(c) for c in combinations(items, size))
    return out


def check_class(v: CombinatorialValuation, cls: str) -> bool:
    """Exhaustively test membership in a combinatorial valuation class.

    ``cls`` is one of ``"monotone"``, ``"subadditive"``, ``"additive"``,
    ``"unit_demand"``.  The check evaluates the defining property over
    the full bundle lattice, so it is exact (and only suitable for the
    small universes this package deals in).
    """
    items = v.items
    bundles = all_bundles(items)
    if cls == "monotone":
        return all(
            v.value(b - {j}) <= v.value(b) for b in bundles for j in b
        )
    if cls == "subadditive":
        return all(
            v.value(a | b) <= v.value(a) + v.value(b)
            for a in bundles
            for b in bundles
        )
    if cls == "additive":
        singles = {j: v.value({j}) for j in items}
        return all(
            v.value(b) == sum((singles[j] for j in b), Fraction(0)) for b in bundles
        )
    if cls == "unit_demand":
        singles = {j: v.value({j}) for j in items}
        return all(
            v.value(b) == (max(singles[j] for j in b) if b else Fraction(0))
            for b in bundles
        )
    raise ValueError(f"unknown valuation class {cls!r}")


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class MultiUnitSetting:
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one unit")


@dataclass(frozen=True)
class CombinatorialSetting:
    items: tuple[str, ...]

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("need at least one item")
        if len(set(items)) != len(items):
            repeated = [j for j in dict.fromkeys(items) if items.count(j) > 1]
            raise ValueError(f"duplicate item names {repeated}")


Setting = Union[MultiUnitSetting, CombinatorialSetting]


def _check_compatible(setting: Setting, bidder: int, v: Valuation) -> None:
    """Raise ValueError, naming the bidder, unless ``v`` is a valuation of
    the setting's kind over its units or its item universe."""
    if isinstance(setting, MultiUnitSetting):
        if not isinstance(v, MultiUnitValuation):
            raise ValueError(f"bidder {bidder}: expected a multi-unit valuation")
        if v.m != setting.m:
            raise ValueError(
                f"bidder {bidder}: valuation over {v.m} units in an {setting.m}-unit setting"
            )
    else:
        if isinstance(v, MultiUnitValuation):
            raise ValueError(f"bidder {bidder}: expected a combinatorial valuation")
        if tuple(v.items) != setting.items:
            raise ValueError(f"bidder {bidder}: item universe mismatch")


@dataclass(frozen=True)
class Instance:
    """A setting plus one compatible valuation per bidder.

    Bidders are indexed 0..n-1 throughout the package; the index order
    is also the tie-breaking priority used by welfare witnesses and
    clock auctions (lower index wins ties).
    """

    setting: Setting
    valuations: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.valuations)
        object.__setattr__(self, "valuations", vals)
        if not vals:
            raise ValueError("need at least one bidder")
        for i, v in enumerate(vals):
            _check_compatible(self.setting, i, v)

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def multiunit(self) -> bool:
        return isinstance(self.setting, MultiUnitSetting)

    @property
    def m(self) -> int:
        if isinstance(self.setting, MultiUnitSetting):
            return self.setting.m
        return len(self.setting.items)

    @property
    def items(self) -> tuple[str, ...]:
        if isinstance(self.setting, CombinatorialSetting):
            return self.setting.items
        raise ValueError("multi-unit settings have no named items")

    def grand_bundle_value(self, bidder: int) -> Fraction:
        v = self.valuations[bidder]
        if isinstance(v, MultiUnitValuation):
            return v.value(self.m)
        return v.value(v.items)


# ---------------------------------------------------------------------------
# JSON serialization (rationals are always "p/q" strings)


def _bundle_key(bundle: Bundle) -> str:
    return ",".join(sorted(bundle))


def _per_item_json(per_item: Mapping[str, Fraction], items: tuple[str, ...]) -> dict:
    return {j: format_fraction(per_item[j]) for j in items}


def valuation_to_json(v: Valuation) -> dict:
    if isinstance(v, MultiUnitValuation):
        sm = v.single_minded
        if sm is not None and sm.x > 0:
            return {"kind": "single_minded", "x": format_fraction(sm.x), "d": sm.d}
        return {"kind": "multi_unit", "values": [format_fraction(x) for x in v.values]}
    if isinstance(v, AdditiveValuation):
        return {"kind": "additive", "values": _per_item_json(v.per_item, v.items)}
    if isinstance(v, UnitDemandValuation):
        return {"kind": "unit_demand", "values": _per_item_json(v.per_item, v.items)}
    if isinstance(v, ExplicitValuation):
        return {
            "kind": "explicit",
            "values": {
                _bundle_key(b): format_fraction(v.table[b])
                for b in all_bundles(v.items)
            },
        }
    raise TypeError(f"not a valuation: {v!r}")


def setting_to_json(setting: Setting) -> dict:
    if isinstance(setting, MultiUnitSetting):
        return {"multiunit": setting.m}
    return {"items": list(setting.items)}


def instance_to_json(instance: Instance) -> dict:
    return {
        "setting": setting_to_json(instance.setting),
        "bidders": [valuation_to_json(v) for v in instance.valuations],
    }


MAX_QUOTE = 80  # characters of an offending JSON value an error message quotes


def _brief(value) -> str:
    """A short prefix of ``repr(value)``: at most ``MAX_QUOTE`` characters."""
    text = reprlib.repr(value)
    return text if len(text) <= MAX_QUOTE else text[: MAX_QUOTE - 3] + "..."


def _json_int(value, name: str) -> int:
    """A JSON integer field: ``true``, ``2.7`` and ``"2"`` are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name!r} must be a JSON integer, got {_brief(value)}")
    return value


def _json_str(value, name: str) -> str:
    """A JSON string field: a number or ``null`` is refused, not printed."""
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a JSON string, got {_brief(value)}")
    return value


def _json_list(value, name: str) -> list:
    """A JSON list field: a string or an object is refused, not iterated."""
    if not isinstance(value, list):
        raise ValueError(f"{name!r} must be a JSON list, got {_brief(value)}")
    return value


def _json_object(value, name: str) -> Mapping:
    """A JSON object field: a list is refused, not read as keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{name!r} must be a JSON object, got {_brief(value)}")
    return value


def _json_key(data: Mapping, key: str, name: str):
    """The required field ``key`` of the JSON object ``name``."""
    if key not in data:
        raise ValueError(f"{name} has no {key!r} field")
    return data[key]


def _valuation_from_json(data, setting: Setting, name: str) -> Valuation:
    kind = _json_object(data, name).get("kind")
    if isinstance(setting, MultiUnitSetting):
        if kind == "single_minded":
            return make_single_minded(
                as_fraction(_json_key(data, "x", name)),
                _json_int(_json_key(data, "d", name), "d"),
                setting.m,
            )
        if kind == "multi_unit":
            raw = _json_key(data, "values", name)
            values = [as_fraction(x) for x in _json_list(raw, "values")]
            if len(values) != setting.m:
                raise ValueError(
                    f"got {len(values)} values in a {setting.m}-unit setting"
                )
            return MultiUnitValuation(tuple(values))
        raise ValueError(f"unknown multi-unit valuation kind {_brief(kind)}")
    items = setting.items
    values = _json_object(data.get("values", {}), "values")
    if kind == "additive":
        return AdditiveValuation(items, {j: as_fraction(x) for j, x in values.items()})
    if kind == "unit_demand":
        return UnitDemandValuation(items, {j: as_fraction(x) for j, x in values.items()})
    if kind == "explicit":
        table = {}
        for key, raw in values.items():
            bundle = frozenset(part for part in key.split(",") if part)
            table[bundle] = as_fraction(raw)
        return ExplicitValuation(items, table)
    raise ValueError(f"unknown combinatorial valuation kind {_brief(kind)}")


def setting_from_json(data) -> Setting:
    """Read a setting document, ``{"multiunit": m}`` or ``{"items": [...]}``;
    every malformed field is a ``ValueError`` naming it."""
    raw = _json_object(data, "setting")
    if "multiunit" in raw and "items" in raw:
        raise ValueError("setting names both 'multiunit' and 'items'")
    if "multiunit" in raw:
        return MultiUnitSetting(_json_int(raw["multiunit"], "multiunit"))
    if "items" not in raw:
        raise ValueError("setting must name 'multiunit' or 'items'")
    items = tuple(_json_list(raw["items"], "items"))
    for item in items:
        # "" is the empty bundle's key and "," separates a bundle's items
        if not isinstance(item, str) or not item or "," in item:
            raise ValueError(
                f"item name {_brief(item)} must be a non-empty string without ','"
            )
    return CombinatorialSetting(items)


def instance_from_json(data: Mapping) -> Instance:
    """Read an instance document; every malformed field is a ``ValueError``
    naming it.

    A multi-unit document whose unit count times its bidder count
    exceeds ``OSPCLOCK_OPT_CAP`` is refused with ``SizeCapError`` before
    any valuation, each a vector of ``multiunit`` values, is built.
    """
    if not isinstance(data, dict):
        raise ValueError(f"an instance must be a JSON object, got a {type(data).__name__}")
    setting = setting_from_json(_json_key(data, "setting", "the instance"))
    raw_bidders = _json_list(_json_key(data, "bidders", "the instance"), "bidders")
    if isinstance(setting, MultiUnitSetting):
        from .welfare import _opt_cap, _refusal

        cap, slots = _opt_cap(), setting.m * len(raw_bidders)
        if slots > cap:
            what = f"{setting.m} units for {len(raw_bidders)} bidders need {slots} values"
            raise _refusal("OSPCLOCK_OPT_CAP", cap, what)
    bidders = tuple(
        _valuation_from_json(b, setting, f"bidders[{k}]")
        for k, b in enumerate(raw_bidders)
    )
    return Instance(setting, bidders)
