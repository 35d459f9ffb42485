"""End-to-end tests for the command-line interface."""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from ospclock import cli, valuations
from ospclock.cli import main
from ospclock.fixtures import FIXTURES, fixture_names, load_instance
from ospclock.valuations import instance_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# the documented examples


def test_lower_bound_grand_bundle_example(capsys):
    code, payload = run_json(
        capsys,
        "lower-bound", "--setting", "mua-sm", "--k", "10",
        "--mechanism", "grand-bundle",
    )
    assert code == 0
    assert payload["expected_ratio"] == "5/6"
    assert [row["ratio"] for row in payload["breakdown"]] == [
        "1/2", "1/1", "1/1", "1/1", "1/1",
    ]


def test_verify_osp_sealed_bid_example(capsys):
    code, payload = run_json(capsys, "verify-osp", "--fixture", "sealed-bid-2x2")
    assert code == 1
    osp = payload["checks"][0]
    assert osp["check"] == "osp"
    assert osp["status"] == "fail"
    witness = osp["witness"]
    # the witness must be replayable: both profiles and the divergence
    # node are spelled out
    assert {"bidder", "node", "truthful_profile", "deviating_profile"} <= set(witness)


def test_simulate_m3_2x2_example(capsys):
    code, payload = run_json(
        capsys,
        "simulate", "--mechanism", "m3-2x2", "--fixture", "subadd-split", "--exact",
    )
    assert code == 0
    report = payload["report"]
    assert set(report) == {"expected_welfare", "opt", "ratio", "ci"}
    assert report["ratio"] == "2/3"
    assert report["ci"] is None


# ---------------------------------------------------------------------------
# exit codes


def test_passing_verification_exits_zero(capsys):
    code, payload = run_json(capsys, "verify-osp", "--fixture", "grand-gaa-2x2")
    assert code == 0
    assert [c["status"] for c in payload["checks"]] == ["pass", "pass"]


def test_config_errors_exit_two(capsys, caplog):
    assert main(["verify-osp", "--fixture", "nope"]) == 2
    # mechanism shaped for two units cannot run on a combinatorial pair
    assert main(
        ["simulate", "--mechanism", "m1-2x2", "--fixture", "subadd-split", "--exact"]
    ) == 2
    # an item-pricing mechanism cannot run on a multi-unit instance
    assert main(
        ["simulate", "--mechanism", "mech2-additive", "--fixture", "rb-demo", "--exact"]
    ) == 2
    assert "mech2-additive needs a combinatorial instance" in caplog.text
    # the sampling gate refuses a critical bidder
    assert main(["sampling-lemma", "--fixture", "critical-1"]) == 2
    # simulate needs an instance from somewhere
    assert main(["simulate", "--mechanism", "grand-bundle", "--exact"]) == 2


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mechanism", "not-a-mechanism", "--fixture", "rb-demo"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mechanism", "grand-bundle", "--exact"],
        ["sampling-lemma"],
    ],
    ids=["simulate", "sampling-lemma"],
)
def test_fixture_and_instance_exclude_each_other(argv, capsys):
    """Naming both an instance fixture and an instance file is a usage
    error naming both flags, never a run on one of them."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--fixture", "add-cross", "--instance", "/nonexistent.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--instance" in err and "--fixture" in err and "not allowed" in err


def test_bad_instance_files_exit_two(tmp_path, capsys, caplog):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(
        ["simulate", "--mechanism", "grand-bundle", "--instance", str(garbled), "--exact"]
    ) == 2
    assert main(
        ["simulate", "--mechanism", "grand-bundle",
         "--instance", str(tmp_path / "missing.json"), "--exact"]
    ) == 2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({
        "setting": {"multiunit": 2},
        "bidders": [{"kind": "single_minded", "x": "1/0", "d": 1}] * 2,
    }))
    assert main(
        ["simulate", "--mechanism", "grand-bundle", "--instance", str(zero), "--exact"]
    ) == 2
    assert "bad instance in" in caplog.text


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b'{"setting": "\xff"}', b"[" + b"9" * 5_000 + b"]"],
    ids=["deeply-nested", "not-utf-8", "5000-digit-integer"],
)
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--mechanism", "grand-bundle", "--exact"], ["sampling-lemma"]],
    ids=["simulate", "sampling-lemma"],
)
def test_undecodable_instance_files_exit_two_naming_the_file(
    tmp_path, capsys, caplog, content, argv
):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    code, out = run(capsys, *argv, "--instance", str(path))
    assert (code, out) == (2, "")
    assert f"malformed JSON in {path}: " in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize("raw", [True, 2.7, "2"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("field", ["d", "multiunit"])
def test_integer_instance_fields_must_be_json_integers(tmp_path, capsys, caplog, field, raw):
    data = {
        "setting": {"multiunit": 2},
        "bidders": [{"kind": "single_minded", "x": "1", "d": 1}] * 2,
    }
    if field == "d":
        data["bidders"] = [{"kind": "single_minded", "x": "1", "d": raw}] * 2
    else:
        data["setting"]["multiunit"] = raw
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                    "--instance", str(path), "--exact")
    assert code == 2
    assert out == ""
    assert "bad instance in" in caplog.text
    assert f"'{field}' must be a JSON integer" in caplog.text


@pytest.mark.parametrize(
    "item, bidder",
    [
        ("a,b", {"kind": "explicit",
                 "values": {"": "0", "a,b": "1", "c": "1", "a,b,c": "2"}}),
        ("", {"kind": "unit_demand", "values": {"": "1", "c": "2"}}),
    ],
    ids=["comma", "empty"],
)
def test_item_names_must_be_nonempty_without_commas(tmp_path, capsys, caplog, item, bidder):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"setting": {"items": [item, "c"]}, "bidders": [bidder] * 2}))
    code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                    "--instance", str(path), "--exact")
    assert code == 2
    assert out == ""
    assert f"bad instance in {path}: item name {item!r}" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize(
    "document, message",
    [
        ({"setting": {"items": ["a", "b"]}, "bidders": ["x"]},
         "'bidders[0]' must be a JSON object"),
        ({"setting": {"items": ["a", "b"]}, "bidders": "ab"}, "'bidders' must be a JSON list"),
        ({"setting": {"items": ["a", "b"]},
          "bidders": [{"kind": "additive", "values": [1]}]}, "'values' must be a JSON object"),
        ({"setting": {"items": "ab"},
          "bidders": [{"kind": "unit_demand", "values": {"a": "1", "b": "2"}}]},
         "'items' must be a JSON list"),
        ({"setting": {"multiunit": 2},
          "bidders": [{"kind": "multi_unit", "values": {"1": 1, "2": 2}}]},
         "'values' must be a JSON list"),
        ({"bidders": [{"kind": "single_minded", "x": "1", "d": 1}]},
         "the instance has no 'setting' field"),
        ([{"setting": {"multiunit": 2}, "bidders": []}],
         "an instance must be a JSON object, got a list"),
        ({"setting": 3, "bidders": [{"kind": "single_minded", "x": "1", "d": 1}]},
         "'setting' must be a JSON object, got 3"),
        ({"setting": {"multiunit": 2},
          "bidders": [{"kind": "single_minded", "x": "1/0", "d": 1}]},
         "zero denominator in '1/0'"),
        ({"setting": {"multiunit": 2}, "bidders": [{"kind": "single_minded", "x": "1"}]},
         "bidders[0] has no 'd' field"),
        ({"setting": {"multiunit": 2},
          "bidders": [{"kind": "single_minded", "x": 2.5, "d": 1}]},
         "2.5 is not an exact amount"),
        ({"setting": {"multiunit": 2, "items": ["a", "b"]},
          "bidders": [{"kind": "single_minded", "x": "1", "d": 1}]},
         "setting names both 'multiunit' and 'items'"),
    ],
    ids=["bidder-string", "bidders-string", "per-item-list", "items-string",
         "multi-unit-object", "missing-setting", "top-level-list", "setting-int",
         "zero-denominator", "missing-demand", "float-amount", "both-settings"],
)
def test_wrong_json_types_are_refused(tmp_path, capsys, caplog, document, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(document))
    code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                    "--instance", str(path), "--exact")
    assert code == 2
    assert out == ""
    assert f"bad instance in {path}: {message}" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def _retyped(value) -> list:
    """``value`` as other JSON types, keeping its magnitude where it has one."""
    out = [None, [value], {"value": value}]
    try:
        number = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError):  # a name, a kind, a list or an object
        number = None
    if isinstance(value, int) and number is not None:
        out += [str(value), float(value)]
    elif number is not None:
        out += [float(number)] + ([int(number)] if number.denominator == 1 else [])
    if number in (0, 1):
        out.append(bool(number))
    return out


def _mutations(document, rng: random.Random, sites: int) -> list:
    """The document wrapped in a list, plus, at ``sites`` seeded places,
    the document with that key dropped (in an object) and with its value
    swapped to another JSON type."""
    paths = []

    def walk(node, path):
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                paths.append(path + (key,))
                walk(child, path + (key,))

    walk(document, ())
    out = [[document]]
    for path in rng.sample(paths, min(sites, len(paths))):
        for drop in (True, False):
            mutant = copy.deepcopy(document)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if not drop:
                parent[path[-1]] = rng.choice(_retyped(parent[path[-1]]))
            elif isinstance(parent, dict):
                del parent[path[-1]]
            else:
                continue
            out.append(mutant)
    return out


@pytest.mark.parametrize(
    "name", [n for n in fixture_names() if FIXTURES[n].kind == "instance"]
)
def test_mutated_instance_files_exit_zero_or_two(tmp_path, capsys, caplog, name):
    rng = random.Random(f"mutate-{name}")
    path = tmp_path / "inst.json"
    for document in _mutations(instance_to_json(load_instance(name)), rng, sites=8):
        path.write_text(json.dumps(document))
        caplog.clear()
        code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                        "--instance", str(path), "--exact")
        assert code in (0, 2), document
        assert "Traceback" not in caplog.text + capsys.readouterr().err, document
        if code == 2:
            assert out == "", document
            assert f"bad instance in {path}: " in caplog.text, document


def test_search_refuses_more_items_than_it_names(capsys, caplog):
    code, out = run(capsys, "search", "--mechanism", "mech2-additive",
                    "--domain", "additive", "--m", "9", "--budget", "1")
    assert code == 2
    assert out == ""
    assert "--m 9" in caplog.text


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "0", "--n 0: the grid needs at least one bidder"),
        ("--m", "-1", "--m -1: the grid needs at least one unit or item"),
    ],
)
def test_search_refuses_an_empty_grid(capsys, caplog, flag, value, message):
    code, out = run(capsys, "search", "--mechanism", "grand-bundle",
                    "--domain", "additive", flag, value)
    assert (code, out) == (2, "")
    assert message in caplog.text


def test_literal_exponents_past_the_bound_are_refused(tmp_path, capsys, caplog):
    # 1e4301 still parses fast without the bound, so a regression fails
    # here at once; the literals that hang are far larger
    literal = "1e4301"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "setting": {"multiunit": 1},
        "bidders": [{"kind": "single_minded", "x": literal, "d": 1}],
    }))
    code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                    "--instance", str(path), "--exact")
    assert (code, out) == (2, "")
    assert f"bad instance in {path}: exponent of '1e4301' exceeds 4300" in caplog.text
    for argv in (
        ["search", "--mechanism", "grand-bundle", "--domain", "additive",
         "--values", f"0,{literal}"],
        ["sampling-lemma", "--fixture", "sampling-10", "--ratio-threshold", literal],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponent of '1e4301' exceeds 4300" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--mechanism", "grand-bundle", "--domain", "additive",
         "--values", "0,1e4300"],
        ["sampling-lemma", "--fixture", "sampling-10", "--ratio-threshold", "1e-4300"],
        ["simulate", "--mechanism", "grand-bundle", "--instance", "{path}", "--exact"],
    ],
    ids=["config-value", "config-threshold", "derived-opt"],
)
def test_values_too_long_to_print_are_refused(tmp_path, capsys, caplog, argv):
    # each literal is inside the exponent bound, but the config value or
    # the result (an OPT of 2 * (10^4300 - 1)) has 4,301 digits
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "setting": {"multiunit": 2},
        "bidders": [{"kind": "single_minded", "x": "9" * 4300, "d": 1}] * 2,
    }))
    code = main([a.format(path=path) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "Traceback" not in captured.err
    assert "has 4301 digits, past the 4300-digit limit" in caplog.text


@pytest.mark.parametrize(
    "argv, size",
    [
        (("--domain", "monotone", "--m", "4"), 4**15),
        (("--domain", "additive", "--m", "8", "--values", "0,1,2,3,4,5,6"), 7**8),
    ],
    ids=["monotone-m4", "additive-m8"],
)
def test_search_refuses_huge_menus_before_building_them(
    monkeypatch, capsys, caplog, argv, size
):
    # a menu build would run for hours: make it fail at once instead
    for builder in ("additive_domain", "explicit_domain"):
        monkeypatch.setattr(cli, builder, mock.Mock(side_effect=AssertionError(builder)))
    code, out = run(capsys, "search", "--mechanism", "grand-bundle", *argv, "--budget", "1")
    assert code == 2
    assert out == ""
    assert f"sweeps {size} valuations; cap 2000000 (override with OSPCLOCK_BRUTE_CAP)" in caplog.text


SMALL_GRID = ("--n", "2", "--m", "2", "--values", "0,1,2")


@pytest.mark.parametrize(
    "mechanism, domain, worst",
    [
        ("grand-bundle", "single-minded", "1/2"),
        ("random-bundles", "decreasing-marginals", "3/4"),
        ("naive-max-price", "unit-demand", "1/4"),
    ],
)
def test_search_sweeps_each_menu_domain(capsys, mechanism, domain, worst):
    code, payload = run_json(
        capsys, "search", "--mechanism", mechanism, "--domain", domain, *SMALL_GRID
    )
    assert code == 0
    assert payload["worst_ratio"] == worst


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--mechanism", "mech3-unit-demand"), "mech3-unit-demand needs a combinatorial instance"),
        (("--mechanism", "grand-bundle", "--demands", "1,3"), "demand 3 outside 1..2"),
    ],
    ids=["mech3-on-units", "demand-past-m"],
)
def test_search_on_single_minded_refuses_a_bad_request(capsys, caplog, argv, message):
    code, out = run(capsys, "search", "--domain", "single-minded", *SMALL_GRID, *argv)
    assert (code, out) == (2, "")
    assert message in caplog.text


def test_search_refuses_a_demand_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--mechanism", "grand-bundle", "--domain", "single-minded",
              *SMALL_GRID, "--demands", "1,x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --demands: invalid literal for int()" in captured.err


@pytest.mark.parametrize(
    "domain, builder, size",
    [
        ("single-minded", "single_minded_domain", 6),
        ("decreasing-marginals", "decreasing_marginal_domain", 6),
        ("unit-demand", "unit_demand_domain", 9),
    ],
)
def test_search_refuses_each_menu_past_the_brute_cap_before_building_it(
    monkeypatch, capsys, caplog, domain, builder, size
):
    monkeypatch.setenv("OSPCLOCK_BRUTE_CAP", "5")
    monkeypatch.setattr(cli, builder, mock.Mock(side_effect=AssertionError(builder)))
    code, out = run(capsys, "search", "--mechanism", "grand-bundle", "--domain", domain,
                    *SMALL_GRID)
    assert (code, out) == (2, "")
    assert (
        f"--domain {domain} --m 2 sweeps {size} valuations; cap 5 "
        "(override with OSPCLOCK_BRUTE_CAP)" in caplog.text
    )


def test_a_wrong_type_quotes_a_short_prefix_of_the_value(tmp_path, capsys, caplog):
    # the whole bidder list of sampling-200 has a repr of about 9.5 kB
    document = instance_to_json(load_instance("sampling-200"))
    document["bidders"] = {"value": document["bidders"]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(document))
    code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                    "--instance", str(path), "--exact")
    assert (code, out) == (2, "")
    [line] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "\n" not in line
    assert len(line.encode()) < 300
    assert "'bidders' must be a JSON list, got {'value': [" in line


def test_multiunit_files_past_the_opt_cap_are_refused_before_any_valuation(
    monkeypatch, tmp_path, capsys, caplog
):
    def document(units, bidders):
        return json.dumps({
            "setting": {"multiunit": units},
            "bidders": [{"kind": "single_minded", "x": "1", "d": 1}] * bidders,
        })

    path = tmp_path / "inst.json"
    # at the cap the file is read as before
    monkeypatch.setenv("OSPCLOCK_OPT_CAP", "10")
    path.write_text(document(5, 2))
    code, _ = run(capsys, "simulate", "--mechanism", "grand-bundle",
                  "--instance", str(path), "--exact")
    assert code == 0
    # a build past the cap could run for minutes: make it fail at once instead
    for builder in ("make_single_minded", "MultiUnitValuation"):
        monkeypatch.setattr(valuations, builder, mock.Mock(side_effect=AssertionError(builder)))

    def refused(units, bidders, cap):
        path.write_text(document(units, bidders))
        caplog.clear()
        code, out = run(capsys, "simulate", "--mechanism", "grand-bundle",
                        "--instance", str(path), "--exact")
        assert (code, out) == (2, "")
        assert (
            f"bad instance in {path}: {units} units for {bidders} bidders need "
            f"{units * bidders} values; cap {cap} (override with OSPCLOCK_OPT_CAP)"
        ) in caplog.text

    refused(6, 2, 10)
    monkeypatch.delenv("OSPCLOCK_OPT_CAP")
    refused(30_000_001, 1, 30_000_000)


def test_non_integer_cap_names_the_variable(monkeypatch, capsys, caplog):
    monkeypatch.setenv("OSPCLOCK_SUPPORT_CAP", "abc")
    code, out = run(capsys, "simulate", "--mechanism", "m2-2x2",
                    "--fixture", "subadd-split", "--exact")
    assert code == 2
    assert out == ""
    assert "OSPCLOCK_SUPPORT_CAP must be an integer" in caplog.text


# ---------------------------------------------------------------------------
# output discipline


def test_identical_config_gives_identical_bytes(capsys):
    args = ("search", "--mechanism", "mech2-additive", "--domain", "additive",
            "--values", "0,1,2", "--budget", "20", "--seed", "4")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert json.loads(first)["config"]["seed"] == 4


def test_seed_defaults_to_zero_and_is_logged(capsys):
    code, payload = run_json(
        capsys, "simulate", "--mechanism", "grand-bundle", "--fixture", "rb-demo",
        "--trials", "5",
    )
    assert code == 0
    assert payload["config"]["seed"] == 0
    assert payload["config"]["trials"] == 5


def test_csv_output(capsys):
    code, out = run(
        capsys,
        "simulate", "--mechanism", "m3-2x2", "--fixture", "subadd-split",
        "--exact", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expected_welfare,opt,ratio,ci"
    assert lines[1].startswith("4/3,2/1,2/3,")

    code, out = run(capsys, "list-fixtures", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,kind,summary"
    assert any(line.startswith("sealed-bid-2x2,game,") for line in out.splitlines())


CATALOG_CSV = """\
name,kind,summary
add-cross,instance,two additive bidders with crossed favorites
critical-1,instance,single bidder; sampling gate refuses
dm-e6,instance,decreasing-marginal pair over three units
grand-gaa-2x2,game,"grand-bundle clock, two bidders, two units"
i1-ones,instance,"four unit bidders, four units, all ones"
mono-split,instance,"monotone pair, bidder 0 sees complements"
rb-demo,instance,grand-bundle bidder vs two unit bidders
sampling-10,instance,"ten unit bidders, five units"
sampling-11,instance,five 2-value and six 1-value unit bidders
sampling-12,instance,"twelve unit bidders, six units"
sampling-200,instance,"two hundred unit bidders, full supply"
sealed-bid-2x2,game,sequential second-price auction (not OSP)
sm-3bidders,instance,"three single-minded bidders, four units"
subadd-split,instance,subadditive pair splitting the two items
tight-dm-3,instance,2/3-tight point of the three-unit mechanism
ud-failure-16,instance,"crowded unit-demand market, 16 bidders"
"""

CSV_PINS = [
    (
        ("simulate", "--mechanism", "m3-2x2", "--fixture", "subadd-split", "--exact"),
        0,
        "expected_welfare,opt,ratio,ci\n4/3,2/1,2/3,\n",
    ),
    (
        ("simulate", "--mechanism", "mech3-unit-demand", "--fixture", "ud-failure-16",
         "--trials", "40"),
        0,
        "expected_welfare,opt,ratio,ci\n101/10,20/1,101/200,0.03387476937190881\n",
    ),
    (
        ("verify-osp", "--fixture", "grand-gaa-2x2"),
        0,
        "check,status\nosp,pass\nir_nnt,pass\n",
    ),
    (
        ("verify-osp", "--fixture", "sealed-bid-2x2"),
        1,
        "check,status\nosp,fail\nir_nnt,pass\n",
    ),
    (
        ("lower-bound", "--setting", "mua-sm", "--k", "10", "--mechanism", "grand-bundle"),
        0,
        "label,probability,welfare,opt,ratio\n"
        "profile-1,1/3,1/1,2/1,1/2\n"
        "profile-2,1/6,100/1,100/1,1/1\n"
        "profile-3,1/6,10000/1,10000/1,1/1\n"
        "profile-4,1/6,100/1,100/1,1/1\n"
        "profile-5,1/6,10000/1,10000/1,1/1\n"
        "expected,1,3367/1,10102/3,5/6\n",
    ),
    (
        ("search", "--mechanism", "mech2-additive", "--domain", "additive",
         "--values", "0,1,2", "--budget", "20", "--seed", "4"),
        0,
        "grid_size,instances_evaluated,worst_ratio\n81,19,5/12\n",
    ),
    (
        ("sampling-lemma", "--fixture", "sampling-12", "--critical-threshold", "1/3"),
        0,
        "probability,exact,trials,opt,ratio_threshold\n2035/2048,True,,6/1,1/5\n",
    ),
    (
        ("sampling-lemma", "--fixture", "sampling-200", "--trials", "200"),
        0,
        "probability,exact,trials,opt,ratio_threshold\n1.0,False,200,200/1,1/5\n",
    ),
    (("list-fixtures",), 0, CATALOG_CSV),
]


@pytest.mark.parametrize(
    "argv, code, text",
    CSV_PINS,
    ids=["simulate-exact", "simulate-mc", "verify-pass", "verify-fail", "lower-bound",
         "search", "sampling-exact", "sampling-mc", "list-fixtures"],
)
def test_csv_bytes_of_every_subcommand(capsys, argv, code, text):
    assert run(capsys, *argv, "--format", "csv") == (code, text)


def test_runs_in_one_process_print_what_a_first_run_prints(monkeypatch, capsys):
    # main builds its parser once per process, so the parser must carry
    # nothing from one run to the next: each run here prints the bytes a
    # fresh interpreter prints for it
    argvs = [
        ("search", "--help"),
        ("lower-bound", "--setting", "unit-demand", "--k", "2", "--mechanism", "m3-2x2"),
        ("verify-osp", "--fixture", "sealed-bid-2x2", "--format", "csv"),
        ("simulate", "--mechanism", "grand-bundle", "--fixture", "rb-demo", "--exact"),
        ("sampling-lemma", "--fixture", "sampling-12", "--critical-threshold", "1/3"),
        ("search", "--mechanism", "m3-2x2", "--domain", "monotone", "--values", "0,1,2",
         "--budget", "50", "--format", "csv"),
        ("list-fixtures",),
        ("simulate", "--help"),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = {}
    for argv in argvs:
        done = subprocess.run(
            [sys.executable, "-m", "ospclock", *argv], capture_output=True, text=True, env=env
        )
        fresh[argv] = (done.returncode, done.stdout)
    for argv in argvs + argvs[::-1]:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        assert (code, capsys.readouterr().out) == fresh[argv]


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["simulate", "--mechanism", "grand-bundle", "--fixture", "rb-demo",
         "--exact", "--output", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["report"]["opt"] == "9/1"


# ---------------------------------------------------------------------------
# subcommand behavior


def test_simulate_accepts_instance_files(tmp_path, capsys):
    path = tmp_path / "rb.json"
    path.write_text(json.dumps(instance_to_json(load_instance("rb-demo"))))
    _, from_file = run_json(
        capsys, "simulate", "--mechanism", "random-bundles",
        "--instance", str(path), "--exact",
    )
    _, from_fixture = run_json(
        capsys, "simulate", "--mechanism", "random-bundles",
        "--fixture", "rb-demo", "--exact",
    )
    assert from_file["report"] == from_fixture["report"]


def test_simulate_mech3_plays_additive_rows_through_the_game(tmp_path, capsys):
    # constant additive rows are priced by the additive optimum, which
    # the unit-demand closed form does not play: the branch games give 5/2
    row = [{"kind": "additive", "values": {"a": c, "b": c}} for c in ("3", "3", "1")]
    path = tmp_path / "additive.json"
    path.write_text(json.dumps({"setting": {"items": ["a", "b"]}, "bidders": row}))
    code, payload = run_json(
        capsys, "simulate", "--mechanism", "mech3-unit-demand",
        "--instance", str(path), "--exact",
    )
    assert code == 0
    assert payload["report"]["expected_welfare"] == "5/2"


def test_simulate_exact_mech2_on_the_crowded_market(capsys):
    # 2^16 coin splits, past the support cap: the setter closed form answers
    code, payload = run_json(
        capsys, "simulate", "--exact", "--mechanism", "mech2-additive",
        "--fixture", "ud-failure-16",
    )
    assert code == 0
    assert payload["report"] == {
        "ci": None, "expected_welfare": "1/1", "opt": "20/1", "ratio": "1/20",
    }


@pytest.mark.parametrize("kind", ["unit_demand", "explicit"])
def test_simulate_exact_mech2_past_the_support_cap_exits_two(tmp_path, capsys, caplog, kind):
    # rows outside the closed form still enumerate 2^16 splits, so they are refused
    if kind == "explicit":
        row = {"kind": kind, "values": {"": "0", "a": "1", "b": "1", "a,b": "2"}}
        bidders = [row] * 16
    else:
        bidders = [{"kind": kind, "values": {"a": "2", "b": "1"}}] * 16
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"setting": {"items": ["a", "b"]}, "bidders": bidders}))
    code, out = run(capsys, "simulate", "--exact", "--mechanism", "mech2-additive",
                    "--instance", str(path))
    assert code == 2
    assert out == ""
    assert "65536 branches" in caplog.text and "OSPCLOCK_SUPPORT_CAP" in caplog.text


def test_simulate_exact_naive_max_price_on_fractional_constant_rows(tmp_path, capsys):
    # 2^16 coin splits, past the support cap: the setter closed form
    # answers fractional constant rows as it does integer ones (summing
    # the 65,536 branch games, with the cap raised, gives the same value)
    values = ["5/2", "7/3", "1", "0", "3", "5/2", "2", "7/3"] * 2
    bidders = [{"kind": "unit_demand", "values": {"a": v, "b": v}} for v in values]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"setting": {"items": ["a", "b"]}, "bidders": bidders}))
    code, payload = run_json(
        capsys, "simulate", "--exact", "--mechanism", "naive-max-price", "--instance", str(path)
    )
    assert code == 0
    assert payload["report"] == {
        "ci": None, "expected_welfare": "419/192", "opt": "6/1", "ratio": "419/1152",
    }


def test_search_finds_the_tight_monotone_point(capsys):
    code, payload = run_json(
        capsys,
        "search", "--mechanism", "m3-2x2", "--domain", "monotone",
        "--values", "0,1,2", "--budget", "500",
    )
    assert code == 0
    assert payload["worst_ratio"] == "2/3"
    assert payload["instances_evaluated"] == 195
    assert payload["grid_size"] == 196
    assert payload["worst_instance"] is not None


def test_sampling_lemma_exact_fixture(capsys):
    code, payload = run_json(
        capsys,
        "sampling-lemma", "--fixture", "sampling-12",
        "--critical-threshold", "1/3",
    )
    assert code == 0
    assert payload["probability"] == "2035/2048"
    assert payload["exact"] is True
    assert payload["trials"] is None


def test_sampling_lemma_monte_carlo(capsys):
    code, payload = run_json(
        capsys,
        "sampling-lemma", "--fixture", "sampling-200", "--trials", "200",
    )
    assert code == 0
    assert payload["exact"] is False
    assert payload["trials"] == 200
    assert payload["probability"] >= 0.5


@pytest.mark.parametrize("flag", ["--ratio-threshold", "--critical-threshold"])
@pytest.mark.parametrize("value", ["0", "-1/2", "-1", "2"])
def test_sampling_lemma_refuses_thresholds_outside_the_unit_interval(
    capsys, caplog, flag, value
):
    code, out = run(capsys, "sampling-lemma", "--fixture", "sampling-200", f"{flag}={value}")
    assert (code, out) == (2, "")
    name = flag[2:].replace("-", "_")
    assert f"{name} must lie in (0, 1], got {value}" in caplog.text
    assert "is critical" not in caplog.text


@pytest.mark.parametrize(
    "argv",
    [
        ["sampling-lemma", "--fixture", "sampling-10", "--ratio-threshold", "1/0"],
        ["sampling-lemma", "--fixture", "sampling-10", "--critical-threshold", "1/0"],
        ["search", "--mechanism", "mech2-additive", "--domain", "additive",
         "--values", "0,1/0,2"],
    ],
)
def test_zero_denominator_flags_name_the_problem(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zero denominator in '1/0'" in err
    assert "Fraction(1, 0)" not in err


def test_list_fixtures_lists_the_catalog(capsys):
    code, payload = run_json(capsys, "list-fixtures")
    assert code == 0
    names = [e["name"] for e in payload["fixtures"]]
    assert "subadd-split" in names
    assert "sealed-bid-2x2" in names
    assert names == sorted(names)
    kinds = {e["name"]: e["kind"] for e in payload["fixtures"]}
    assert kinds["sealed-bid-2x2"] == "game"
    assert kinds["rb-demo"] == "instance"


def test_lower_bound_other_settings(capsys):
    code, payload = run_json(
        capsys, "lower-bound", "--setting", "additive", "--k", "2",
        "--mechanism", "m2-2x2",
    )
    assert code == 0
    assert payload["expected_ratio"] == "13/16"

    code, payload = run_json(
        capsys, "lower-bound", "--setting", "unit-demand", "--k", "2",
        "--mechanism", "m3-2x2",
    )
    assert code == 0
    assert payload["expected_ratio"] == "5/6"
