"""Static checks: every imported name in the package and tests is used,
every module-level function and class of the package is named somewhere
besides its definition, and so is every non-dunder method of its
classes; every defaulted parameter of those functions and methods is
passed by some call; the size-cap variables are listed alike in README,
the CLI epilog and the package, and each is read by one ``_cap`` call;
no code but the scaling helper ``valuations._scale_to_ints`` calls
``lcm``; no code but the setting dispatch ``welfare._solve`` calls
the multi-unit solver; no code but ``protocols._tabulate`` calls a
strategy; only the entry points check a valuation's setting;
mech3 calls the item solver only through its witness memo; and the
max-price closed form, the constant-row reader and the split script
are each written once."""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

from ospclock.cli import EPILOG

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ospclock").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a ``Name`` node, as the
    root of an attribute chain, or in ``__all__``.  ``__future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import Callable, Optional\n"
        "x: Optional[int] = json.loads('1')\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Callable")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str) -> set:
    """Every name a module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def string_parts(source: str) -> set:
    """Every string constant of a module and its dot-separated parts, so
    that ``getattr(x, "name")`` and ``"module.Class.name"`` name ``name``."""
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts.add(node.value)
            parts.update(node.value.split("."))
    return parts


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced_definitions(package: dict, sources: list) -> list:
    """Definitions of ``package`` (module name to source) that no module
    of ``package`` or ``sources`` names: module-level functions and
    classes, read as names or attributes, and non-dunder methods
    (``Class.method``), read as names, attributes or strings."""
    used = set()
    strings = set()
    for source in list(package.values()) + sources:
        used |= referenced_names(source)
        strings |= string_parts(source)
    dead = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and node.name not in used:
                dead.append((module, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                name = member.name if isinstance(member, FUNCTIONS) else None
                if name and not (name.startswith("__") and name.endswith("__")):
                    if name not in used | strings:
                        dead.append((module, f"{node.name}.{name}"))
    return sorted(dead)


def test_unreferenced_definition_detector():
    package = {
        "m": (
            "def used():\n    pass\n"
            "def dead():\n    pass\n"
            "class K:\n"
            "    def __init__(self):\n        self.called()\n"
            "    def called(self):\n        pass\n"
            "    def by_string(self):\n        pass\n"
            "    @property\n    def by_qualname(self):\n        pass\n"
            "    def unused(self):\n        pass\n"
            "    async def unused_async(self):\n        pass\n"
        )
    }
    sources = ["used()\nx.K\ngetattr(x, 'by_string')\nhooks = {'m.K.by_qualname': 1}\n"]
    assert unreferenced_definitions(package, sources) == [
        ("m", "K.unused"),
        ("m", "K.unused_async"),
        ("m", "dead"),
    ]


def test_no_unreferenced_definitions():
    package = {path.stem: path.read_text() for path in PACKAGE}
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert unreferenced_definitions(package, [p.read_text() for p in others]) == []


def calls_by_name(sources: list) -> dict:
    """Each callee name (a called name or attribute) to the calls made
    to it: ``(positional count, keyword names)``, or None for a call
    that spreads ``*args`` or ``**kwargs`` and so may pass anything."""
    calls: dict = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            calls.setdefault(name, []).append(
                None if spread else (len(node.args), {k.arg for k in node.keywords})
            )
    return calls


def callables(tree: ast.Module):
    """``(definition, qualified name, callee name, receiver count)`` for
    each module-level function and method: a class's name calls its
    ``__init__``, and a method's first parameter is no call argument
    unless it is a staticmethod."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, node.name, node.name, 0
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, FUNCTIONS):
                    continue
                decorators = {getattr(d, "id", None) for d in member.decorator_list}
                static = "staticmethod" in decorators
                callee = node.name if member.name == "__init__" else member.name
                yield member, f"{node.name}.{member.name}", callee, 0 if static else 1


def unpassed_defaults(package: dict, sources: list) -> list:
    """Defaulted parameters of ``package``'s module-level functions and
    methods that no call in ``package`` or ``sources`` passes, by
    keyword or by position; calls match by callee name."""
    calls = calls_by_name(list(package.values()) + sources)
    unpassed = []
    for module, source in package.items():
        for fn, qualname, callee, receivers in callables(ast.parse(source)):
            args = fn.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            defaulted = [
                (p.arg, k - receivers) for k, p in enumerate(positional) if k >= first_default
            ]
            defaulted += [
                (p.arg, None)
                for p, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for name, position in defaulted:
                if not any(
                    call is None or name in call[1] or (position is not None and call[0] > position)
                    for call in calls.get(callee, [])
                ):
                    unpassed.append((module, qualname, name))
    return sorted(unpassed)


def test_unpassed_default_detector():
    package = {
        "m": (
            "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
            "def g(a=1):\n    pass\n"
            "def h(a=1):\n    pass\n"
            "class K:\n"
            "    def __init__(self, x=0, y=0):\n        pass\n"
            "    def method(self, z=0, w=0):\n        pass\n"
            "    @staticmethod\n    def helper(s=0, t=0):\n        pass\n"
        )
    }
    sources = [
        "f(0, 1, e=5)\n"
        "g(*[])\n"
        "h(**{})\n"
        "K(1)\n"
        "k.method(w=2)\n"
        "K.helper(1)\n"
    ]
    assert unpassed_defaults(package, sources) == [
        ("m", "K.__init__", "y"),
        ("m", "K.helper", "t"),
        ("m", "K.method", "z"),
        ("m", "f", "c"),
        ("m", "f", "d"),
    ]


def test_every_default_is_passed_somewhere():
    package = {path.stem: path.read_text() for path in PACKAGE}
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert unpassed_defaults(package, [p.read_text() for p in others]) == []


def cap_variables_read(source: str) -> list:
    """The variable names passed as string constants to ``_cap(...)``,
    one entry per call."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_cap"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def test_size_caps_are_listed_alike():
    """README's "Size caps" section, ``cli.EPILOG`` and the ``_cap``
    calls of the package name the same six variables."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Size caps", 1)[1].split("\n## ", 1)[0]
    named = re.compile(r"OSPCLOCK_[A-Z_]+")
    read = set().union(*(cap_variables_read(path.read_text()) for path in PACKAGE))
    assert len(read) == 6
    assert set(named.findall(section)) == read
    assert set(named.findall(EPILOG)) == read


def test_each_size_cap_is_read_by_one_call():
    """Each cap variable is read by exactly one ``_cap(...)`` call in the
    package, so its default is stated once."""
    reads = Counter(name for path in PACKAGE for name in cap_variables_read(path.read_text()))
    assert [name for name, count in reads.items() if count > 1] == []


SCALE_HELPER = ("valuations", "_scale_to_ints")


def call_name(node: ast.Call):
    """The name a call is made by: a plain name or an attribute's."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def lcm_calls(package: dict) -> list:
    """``(module, line)`` of each ``lcm(...)`` call in ``package``, by
    name or attribute, outside the one scaling helper ``SCALE_HELPER``."""
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        helper = set()
        for node in tree.body:
            if isinstance(node, FUNCTIONS) and (module, node.name) == SCALE_HELPER:
                helper = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in helper:
                continue
            if call_name(node) == "lcm":
                found.append((module, node.lineno))
    return sorted(found)


def test_lcm_call_detector():
    package = {
        "valuations": (
            "import math\n"
            "def _scale_to_ints(amounts):\n    return math.lcm(*amounts)\n"
            "def other(xs):\n    return math.lcm(*xs)\n"
        ),
        "m": "from math import lcm\nx = lcm(2, 3)\ny = [lcm]\n",
    }
    assert lcm_calls(package) == [("m", 2), ("valuations", 5)]


def test_exact_scaling_is_written_once():
    """Every rational-to-integer scaling goes through
    ``valuations._scale_to_ints``: no other ``lcm`` call in the package."""
    assert lcm_calls({path.stem: path.read_text() for path in PACKAGE}) == []


def test_the_setting_dispatch_is_written_once():
    """Only ``welfare._solve`` calls the multi-unit solver: every other
    optimum of a setting goes through that one dispatch."""
    callers = {
        (path.stem, getattr(top, "name", None))
        for path in PACKAGE
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and call_name(node) == "_opt_multiunit"
    }
    assert callers == {("welfare", "_solve")}


def test_the_setting_check_runs_at_entry_points():
    """Only entry points call ``_check_compatible``: an instance, a serve
    game and a clock arm when made, a tabulation when made, and the two
    one-profile tools.  No per-node code checks a valuation."""
    callers = {
        (path.stem, getattr(top, "name", None))
        for path in PACKAGE
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and call_name(node) == "_check_compatible"
    }
    assert callers == {
        ("valuations", "Instance"),
        ("mechanisms", "SampleServeGame"),
        ("protocols", "GaaSpec"),
        ("protocols", "_tabulation"),
        ("protocols", "behavior_from_strategy"),
        ("osp", "check_divergence_lemma"),
    }


def definitions_around(source: str, match: Callable[[ast.AST], bool]) -> set:
    """``Class.method`` (or the function) around each node of ``source``
    that ``match`` accepts; nested functions count as their enclosing one."""
    found = set()
    for top in ast.parse(source).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            if not isinstance(node, FUNCTIONS):
                continue
            where = f"{top.name}.{node.name}" if node is not top else node.name
            if any(match(inner) for inner in ast.walk(node)):
                found.add(where)
    return found


def method_callers(source: str, name: str) -> set:
    """``Class.method`` (or the function) around each call by ``name``
    in ``source``; nested functions count as their enclosing one."""
    return definitions_around(
        source, lambda node: isinstance(node, ast.Call) and call_name(node) == name
    )


def test_mech3_solves_run_through_the_witness_memo():
    """In ``mechanisms`` the item solver ``_opt_items`` is called from one
    place, mech3's witness memo, which serves the price solve, the
    unit-demand tie rule and the direct tie solve of a market that is
    not all unit-demand, so every solve, a tie's included, is kept there."""
    source = (ROOT / "src" / "ospclock" / "mechanisms.py").read_text()
    assert method_callers(source, "_opt_items") == {"ArrivalPricingGame._witness"}
    assert method_callers(source, "_witness") == {
        "ArrivalPricingGame._solve_prices",
        "ArrivalPricingGame._tie_answers",
        "ArrivalPricingGame._earliest_wins",
    }


def test_the_max_price_layer_is_written_once():
    """In ``mechanisms`` only ``_constant_rows`` reads a valuation's
    ``constant``; only the one max-price closed form, ``_max_price_exact``,
    calls ``_setter_expectation``; only the fair-coin split builds a
    split's script; and no split re-checks its bidder count, which every
    serve game checks when it is built."""
    source = (ROOT / "src" / "ospclock" / "mechanisms.py").read_text()
    readers = definitions_around(
        source, lambda node: isinstance(node, ast.Attribute) and node.attr == "constant"
    )
    assert readers == {"_constant_rows"}
    assert method_callers(source, "_setter_expectation") == {"_max_price_exact"}
    assert method_callers(source, "_split_script") == {"_coin_split_mechanism"}
    assert [line for line in source.splitlines() if "the split has" in line] == []


def strategy_callers(package: dict) -> set:
    """``(module, top-level definition)`` of each call in ``package`` made
    by a name or attribute ``strategy`` or by an element of
    ``strategies``; the definition is None for module-level code."""
    callers = set()
    for module, source in package.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                indexed = isinstance(func, ast.Subscript)
                expr = func.value if indexed else func
                name = expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)
                if name == ("strategies" if indexed else "strategy"):
                    callers.add((module, getattr(top, "name", None)))
    return callers


def test_strategy_call_detector():
    package = {
        "protocols": "def _tabulate(strategy, u, vs):\n    return strategy(u, vs)\n",
        "m": (
            "def f(strategies, k):\n    return strategies[k](0, [])\n"
            "class K:\n    def g(self):\n        return self.strategy(0, [])\n"
            "def h(strategies, strategy):\n    return strategies, strategy, make_strategy(0)\n"
            "x = strategy(0, [])\n"
        ),
    }
    assert strategy_callers(package) == {
        ("protocols", "_tabulate"),
        ("m", "f"),
        ("m", "K"),
        ("m", None),
    }


def test_strategies_are_called_in_one_place():
    """Only ``protocols._tabulate`` calls a strategy: every check reads
    strategies through the one tabulation walk, node by node."""
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert strategy_callers(package) == {("protocols", "_tabulate")}


def test_the_serve_transition_is_written_once():
    """A serve game's tree and its script walk share one price rule and
    one set of serving rules: only ``_step_price`` calls ``_price``, and
    ``root_state``, ``child`` and ``truthful_welfare`` price their steps
    with it; ``_serve`` is called by ``child`` and the walk, and the
    truthful pick ``_serve_choices`` by ``truthful_messages`` and the
    walk."""
    source = (ROOT / "src" / "ospclock" / "mechanisms.py").read_text()
    walk = "SampleServeGame.truthful_welfare"
    assert method_callers(source, "_price") == {"SampleServeGame._step_price"}
    assert method_callers(source, "_step_price") == {
        "SampleServeGame.root_state",
        "SampleServeGame.child",
        walk,
    }
    assert method_callers(source, "_serve") == {"SampleServeGame.child", walk}
    assert method_callers(source, "_serve_choices") == {
        "SampleServeGame.truthful_messages",
        walk,
    }
