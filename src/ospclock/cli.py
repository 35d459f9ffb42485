"""Command-line front end for simulation, verification, and experiments.

Every subcommand prints one machine-readable document (JSON by
default, CSV for tabular consumers) to stdout or ``--output``, and
logs its fully resolved configuration to stderr.  Output is a pure
function of the flags: fractions are rendered exactly, Monte Carlo
runs are seeded, and JSON keys are sorted.

Exit codes: 0 on success or a passing verification, 1 on a
verification failure (the witness is part of the printed document),
2 on usage, configuration, or capacity errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import sys
from fractions import Fraction

from .experiments import (
    InstanceGrid,
    RatioReport,
    eval_on_distribution,
    hard_dist_additive,
    hard_dist_mua_sm,
    hard_dist_unit_demand,
    mc_ratio,
    sampling_lemma_experiment,
    worst_case_search,
)
from .fixtures import (
    FIXTURES,
    additive_domain,
    decreasing_marginal_domain,
    explicit_domain,
    fixture_names,
    load_game,
    load_instance,
    single_minded_domain,
    unit_demand_domain,
)
from .mechanisms import MECHANISM_NAMES, mechanism_for_instance
from .osp import verify_ir_nnt, verify_osp
from .valuations import (
    CombinatorialSetting,
    Instance,
    MultiUnitSetting,
    as_fraction,
    format_fraction,
    instance_from_json,
    instance_to_json,
)
from .welfare import SizeCapError, _brute_cap, _refusal, opt

log = logging.getLogger("ospclock")

DEFAULT_SEED = 0
DEFAULT_TRIALS = 2000

EPILOG = """\
environment:
  OSPCLOCK_SUPPORT_CAP, OSPCLOCK_TREE_CAP, OSPCLOCK_PLAY_CAP,
  OSPCLOCK_PROFILE_CAP, OSPCLOCK_BRUTE_CAP, OSPCLOCK_OPT_CAP
    override the library's size guards; exceeding a cap exits 2.
    OSPCLOCK_OPT_CAP also bounds a multi-unit instance file's units
    times bidders, checked before any valuation is built.
"""


class CliError(Exception):
    """Configuration problem surfaced to the user (exit code 2)."""


# ---------------------------------------------------------------------------
# shared plumbing


def _fraction_flag(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _values_flag(text: str) -> tuple:
    return tuple(_fraction_flag(part) for part in text.split(","))


def _demands_flag(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _resolved_config(args: argparse.Namespace) -> dict:
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        if isinstance(value, Fraction):
            value = format_fraction(value)
        elif isinstance(value, tuple):
            value = [format_fraction(v) if isinstance(v, Fraction) else v for v in value]
        cfg[key] = value
    return cfg


def _instance_from_args(args: argparse.Namespace) -> Instance:
    if getattr(args, "fixture", None):
        return load_instance(args.fixture)
    path = getattr(args, "instance", None)
    if not path:
        raise CliError("provide --fixture or --instance")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read instance file: {exc}")
    except (ValueError, RecursionError) as exc:
        # a decoding error, a number past the digit limit, or nesting
        # deeper than the parser's recursion
        raise CliError(f"malformed JSON in {path}: {exc}")
    try:
        return instance_from_json(data)
    except (ValueError, SizeCapError) as exc:
        raise CliError(f"bad instance in {path}: {exc}")


def _render(payload: dict, columns: tuple, rows: list, fmt: str) -> str:
    """The JSON payload, or the CSV table of ``rows`` under ``columns``."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
#
# Each returns (exit code, its payload fields, CSV columns, CSV rows as
# dicts); main adds the "command" and "config" fields every payload shares.


def cmd_simulate(args) -> tuple:
    instance = _instance_from_args(args)
    mech = mechanism_for_instance(args.mechanism, instance)
    if args.exact:
        best = opt(instance).value
        if best == 0:
            raise CliError("instance has zero optimal welfare")
        welfare = mech.exact_expected_welfare(instance)
        report = RatioReport(welfare, best, welfare / best)
    else:
        report = mc_ratio(mech, instance, args.trials, args.seed)
    fields = {
        "expected_welfare": format_fraction(report.expected_welfare),
        "opt": format_fraction(report.opt),
        "ratio": format_fraction(report.ratio),
        "ci": report.ci,
    }
    return 0, {"report": fields}, tuple(fields), [fields]


def cmd_verify_osp(args) -> tuple:
    protocol, strategies, domains = load_game(args.fixture)
    osp = verify_osp(protocol, strategies, domains)
    ir = verify_ir_nnt(protocol, strategies, domains)
    checks = [dict(check="osp", **osp.to_json()), ir.to_json()]
    code = 0 if osp.passed and ir.passed else 1
    return code, {"fixture": args.fixture, "checks": checks}, ("check", "status"), checks


_HARD_DISTS = {
    "mua-sm": hard_dist_mua_sm,
    "additive": hard_dist_additive,
    "unit-demand": hard_dist_unit_demand,
}


def cmd_lower_bound(args) -> tuple:
    dist = _HARD_DISTS[args.setting](args.k)
    shaped_for = dist.instance(dist.entries[0].label)
    mech = mechanism_for_instance(args.mechanism, shaped_for)
    report = eval_on_distribution(mech, dist)
    rows = [
        {
            "label": r.label,
            "probability": format_fraction(r.probability),
            "welfare": format_fraction(r.welfare),
            "opt": format_fraction(r.opt),
            "ratio": format_fraction(r.ratio),
        }
        for r in report.breakdown
    ]
    expected = {
        "label": "expected",
        "probability": "1",
        "welfare": format_fraction(report.expected_welfare),
        "opt": format_fraction(report.opt),
        "ratio": format_fraction(report.ratio),
    }
    fields = {
        "expected_ratio": expected["ratio"],
        "expected_welfare": expected["welfare"],
        "opt": expected["opt"],
        "breakdown": rows,
    }
    return 0, fields, tuple(expected), rows + [expected]


def _sweep_size(args) -> int:
    """How many candidate valuations the ``--domain`` menu sweeps."""
    k = len(args.values)
    if args.domain == "single-minded":
        return k * len(args.demands)
    if args.domain == "decreasing-marginals":
        return math.comb(len(set(args.values)) + args.m - 1, args.m)
    if args.domain in ("additive", "unit-demand"):
        return k**args.m
    return k ** (2**args.m - 1)  # a value per non-empty bundle


def _search_domain(args) -> tuple:
    """Setting and one shared per-bidder menu for the search grid.

    A sweep past OSPCLOCK_BRUTE_CAP is refused before it is built.
    """
    if args.m < 1:
        raise CliError(f"--m {args.m}: the grid needs at least one unit or item")
    multiunit = args.domain in ("single-minded", "decreasing-marginals")
    items = tuple("abcdefgh"[: args.m])
    if not multiunit and len(items) != args.m:
        raise CliError(f"--m {args.m}: combinatorial domains have at most 8 items")
    size, cap = _sweep_size(args), _brute_cap()
    if size > cap:
        what = f"--domain {args.domain} --m {args.m} sweeps {size} valuations"
        raise _refusal("OSPCLOCK_BRUTE_CAP", cap, what)
    if args.domain == "single-minded":
        return MultiUnitSetting(args.m), single_minded_domain(args.m, args.values, args.demands)
    if args.domain == "decreasing-marginals":
        return MultiUnitSetting(args.m), decreasing_marginal_domain(args.m, args.values)
    setting = CombinatorialSetting(items)
    if args.domain == "additive":
        return setting, additive_domain(items, args.values)
    if args.domain == "unit-demand":
        return setting, unit_demand_domain(items, args.values)
    return setting, explicit_domain(items, args.values, args.domain)


def cmd_search(args) -> tuple:
    if args.n < 1:
        raise CliError(f"--n {args.n}: the grid needs at least one bidder")
    setting, menu = _search_domain(args)
    grid = InstanceGrid(setting, tuple(menu for _ in range(args.n)))
    mech = mechanism_for_instance(
        args.mechanism, Instance(setting, tuple(menu[0] for _ in range(args.n)))
    )
    worst, report = worst_case_search(mech, grid, args.budget, args.seed)
    fields = {
        "grid_size": grid.count,
        "instances_evaluated": report.trials,
        "worst_ratio": None if worst is None else format_fraction(report.ratio),
        "worst_instance": None if worst is None else instance_to_json(worst),
    }
    return 0, fields, ("grid_size", "instances_evaluated", "worst_ratio"), [fields]


def cmd_sampling_lemma(args) -> tuple:
    instance = _instance_from_args(args)
    report = sampling_lemma_experiment(
        instance,
        trials=args.trials,
        seed=args.seed,
        critical_threshold=args.critical_threshold,
        ratio_threshold=args.ratio_threshold,
    )
    fields = {
        "probability": (
            format_fraction(report.probability) if report.exact else report.probability
        ),
        "exact": report.exact,
        "trials": report.trials,
        "opt": format_fraction(report.opt),
        "ratio_threshold": format_fraction(report.ratio_threshold),
    }
    return 0, fields, tuple(fields), [fields]


def cmd_list_fixtures(args) -> tuple:
    entries = [
        {"name": name, "kind": FIXTURES[name].kind, "summary": FIXTURES[name].summary}
        for name in fixture_names()
    ]
    return 0, {"fixtures": entries}, ("name", "kind", "summary"), entries


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ospclock`` parser, built on first use and shared by every run.

    It is built lazily rather than at import, so that a subcommand
    function replaced on this module after import (a tracing wrapper,
    say) is the one it dispatches to.
    """
    parser = argparse.ArgumentParser(
        prog="ospclock",
        description=__doc__.splitlines()[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=False, trials=None):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default="-", help="file path, or - for stdout")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials)

    def source(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--fixture", help="built-in instance fixture name")
        group.add_argument("--instance", help="path to a JSON instance")

    p = sub.add_parser("simulate", help="expected welfare of a mechanism on one instance")
    p.add_argument("--mechanism", required=True, choices=MECHANISM_NAMES)
    source(p)
    p.add_argument("--exact", action="store_true", help="enumerate the coin space")
    common(p, seed=True, trials=DEFAULT_TRIALS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-osp", help="verify a game fixture for OSP and IR/NNT")
    p.add_argument("--fixture", required=True, help="built-in game fixture name")
    common(p)
    p.set_defaults(func=cmd_verify_osp)

    p = sub.add_parser("lower-bound", help="exact expected ratio on a hard distribution")
    p.add_argument("--setting", required=True, choices=sorted(_HARD_DISTS))
    p.add_argument("--k", type=int, default=2, help="magnitude parameter, k >= 2")
    p.add_argument("--mechanism", required=True, choices=MECHANISM_NAMES)
    common(p)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("search", help="probe a valuation grid for the worst ratio")
    p.add_argument("--mechanism", required=True, choices=MECHANISM_NAMES)
    p.add_argument(
        "--domain",
        required=True,
        choices=(
            "single-minded",
            "decreasing-marginals",
            "additive",
            "unit-demand",
            "monotone",
            "subadditive",
        ),
    )
    p.add_argument("--n", type=int, default=2, help="number of bidders")
    p.add_argument("--m", type=int, default=2, help="units, or item count")
    p.add_argument("--values", type=_values_flag, default=(0, 1, 2, 3))
    p.add_argument("--demands", type=_demands_flag, default=(1, 2))
    p.add_argument("--budget", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sampling-lemma", help="fair-coin split probability experiment")
    source(p)
    p.add_argument("--critical-threshold", type=_fraction_flag, default=Fraction(1, 100))
    p.add_argument("--ratio-threshold", type=_fraction_flag, default=Fraction(1, 5))
    common(p, seed=True, trials=DEFAULT_TRIALS)
    p.set_defaults(func=cmd_sampling_lemma)

    p = sub.add_parser("list-fixtures", help="print the fixture catalog")
    common(p)
    p.set_defaults(func=cmd_list_fixtures)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    log.setLevel(logging.INFO)
    args = build_parser().parse_args(argv)
    try:
        config = _resolved_config(args)
        log.info("resolved config: %s", json.dumps(config, sort_keys=True))
        code, fields, columns, rows = args.func(args)
    except (CliError, ValueError, SizeCapError) as exc:
        log.error("%s", exc)
        return 2
    payload = {"command": args.subcommand, "config": config, **fields}
    text = _render(payload, columns, rows, args.format)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            log.error("cannot write %s: %s", args.output, exc)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
