"""The three benchmark workloads: inputs, requests and answer checks.

Each workload is an object with

* ``setup(ns, seed)``: build the run's inputs and reference values from the
  seed.  ``ns`` holds freshly imported ospclock layer modules; workloads
  reach ospclock only through their public names, so the traced run sees
  every call.
* ``requests(ns, inputs, index)``: the requests of pass ``index``, each a
  ``Request`` whose ``run()`` returns ``(result, work_units, errors)``.
  ``result`` is plain data that the traced run compares with the untraced
  one; every entry of ``errors`` is a failed check.
* ``after(ns, inputs, results)``: checks that need the whole run, made once
  after the timed passes; returns ``(operation, error or None)`` pairs.

Passes never repeat an input by content: value grids are scaled by a
per-pass factor (every claim checked here is invariant under scaling all
values), and Monte Carlo batches draw from per-batch seeds, so a cache that
outlives one pass finds nothing to reuse in the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ITEMS2 = ("a", "b")
ITEMS3 = ("a", "b", "c")


@dataclass(frozen=True)
class Request:
    name: str
    run: Callable[[], tuple]


def pass_random(seed: int, index: int, tag: str = "") -> random.Random:
    return random.Random(f"{seed}:{index}:{tag}")


def pass_scale(seed: int, index: int) -> int:
    """Per-pass multiplier applied to every value grid."""
    return pass_random(seed, index, "scale").randrange(1, 1_000_000)


def scaled(values, k: int) -> tuple:
    return tuple(Fraction(k * v) for v in values)


# ---------------------------------------------------------------------------
# golden CLI output


def load_goldens(workload: str) -> list:
    """Manifest entries of one workload, each with its golden stdout."""
    manifest = json.loads((GOLDEN_DIR / "commands.json").read_text())
    out = []
    for entry in manifest:
        if entry["workload"] == workload:
            text = (GOLDEN_DIR / f"{entry['name']}.out").read_text()
            out.append(dict(entry, stdout=text))
    return out


def run_cli(ns, argv) -> tuple:
    """Run ``ospclock.cli.main`` in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = ns.cli.main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, buf.getvalue()


def golden_check(ns, entry) -> tuple:
    code, text = run_cli(ns, entry["argv"])
    errors = []
    if code != entry["exit"]:
        errors.append(f"{entry['name']}: exit {code}, golden {entry['exit']}")
    if text != entry["stdout"]:
        errors.append(f"{entry['name']}: stdout differs from golden")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return (entry["name"], code, digest), 1, errors


def golden_request(ns, entry) -> Request:
    return Request(entry["name"], lambda: golden_check(ns, entry))


def golden_after(ns, entries) -> list:
    out = []
    for entry in entries:
        try:
            _, _, errors = golden_check(ns, entry)
        except Exception as exc:  # a crash is one failed operation
            errors = [f"{entry['name']}: {exc!r}"]
        out.append((entry["name"], "; ".join(errors) or None))
    return out


# ---------------------------------------------------------------------------
# verify-catalog


class VerifyCatalog:
    """Every support tree of the catalog through the full verifier chain.

    The domains are those of acceptance criteria 01 and 11 with the value
    grid cut from 0..3 to 0..2, and the mech3 domain cut to the six
    unit-demand valuations with v(a) in {0, 1} and v(b) in {0, 1, 2}: the
    full grid costs tens of seconds per pass on a 2-core box.
    """

    name = "verify-catalog"
    tail_percentile = 90
    base_values = (0, 1, 2)

    def _catalog(self, ns, k: int) -> list:
        fx, mech = ns.fixtures, ns.mechanisms
        values = scaled(self.base_values, k)
        sm2 = fx.single_minded_domain(2, values, (1, 2))
        sm4 = fx.single_minded_domain(4, values, range(1, 5))
        add = fx.additive_domain(ITEMS2, values)
        ud = fx.unit_demand_domain(ITEMS2, values)[:6]
        sub = fx.explicit_domain(ITEMS2, values, "subadditive")
        mono = fx.explicit_domain(ITEMS2, values, "monotone")
        entries = [
            (mech.grand_bundle_auction(2, ns.valuations.MultiUnitSetting(2)), sm2),
            (mech.random_bundles(3, 4), sm4),
            (mech.mech1_single_minded(2, 2), sm2),
            (mech.mech2_additive(2, ITEMS2), add),
            (mech.mech3_unit_demand(3, ITEMS2), ud),
            (mech.m1_2x2(), sm2),
            (mech.m2_2x2(), sub),
            (mech.m3_2x2(), mono),
        ]
        trees = []
        for m, dom in entries:
            domains = [dom] * m.n
            for el in m.branches():
                trees.append((f"{m.name}/{el.label}", el.game, domains))
        dm3 = fx.decreasing_marginal_domain(3, values)
        grid = tuple(k * g for g in mech.DEFAULT_THREE_ITEM_GRID)
        return trees, (grid, [dm3, dm3])

    def setup(self, ns, seed: int) -> dict:
        return {"seed": seed, "pass0": self._catalog(ns, pass_scale(seed, 0))}

    def requests(self, ns, inputs, index: int) -> list:
        if index == 0:
            trees, dm = inputs["pass0"]
        else:
            trees, dm = self._catalog(ns, pass_scale(inputs["seed"], index))
        out = [
            Request(label, lambda g=game_fn, d=domains, l=label: self._tree(ns, l, g(d), d))
            for label, game_fn, domains in trees
        ]
        out.append(Request("three-item-dm", lambda: self._three_item(ns, *dm)))
        out.append(Request("sealed-bid-2x2", lambda: self._control(ns)))
        return out

    @staticmethod
    def _checks(ns, label, protocol, strategies, domains) -> tuple:
        osp = ns.osp.verify_osp(protocol, strategies, domains)
        ir = ns.osp.verify_ir_nnt(protocol, strategies, domains)
        rule = ns.protocols.realize_rule(protocol, strategies, domains)
        wm = ns.osp.verify_weak_monotonicity(rule)
        dsic = ns.osp.verify_dsic(rule)
        verdicts = (osp.passed, ir.passed, wm.passed, dsic.passed)
        nodes = len(protocol.nodes) + len(protocol.leaves)
        errors = [
            f"{label}: {check} failed"
            for check, ok in zip(("osp", "ir_nnt", "weak_monotonicity", "dsic"), verdicts)
            if not ok
        ]
        return (label, nodes, len(rule.table)) + verdicts, nodes, errors

    def _tree(self, ns, label, game, domains) -> tuple:
        protocol = ns.protocols.materialize(game)
        strategies = ns.protocols.truthful_strategies(game, protocol)
        return self._checks(ns, label, protocol, strategies, domains)

    def _three_item(self, ns, grid, domains) -> tuple:
        protocol, strategies = ns.mechanisms.three_item_dm(grid)
        return self._checks(ns, "three-item-dm", protocol, strategies, domains)

    @staticmethod
    def _control(ns) -> tuple:
        protocol, strategies, domains = ns.fixtures.load_game("sealed-bid-2x2")
        verdict = ns.osp.verify_osp(protocol, strategies, domains)
        nodes = len(protocol.nodes) + len(protocol.leaves)
        if verdict.passed:
            return ("sealed-bid-2x2", True), nodes, ["sealed-bid-2x2: passed OSP"]
        truthful, deviating = ns.osp.replay_witness(protocol, verdict.witness)
        witness = verdict.witness
        errors = []
        if not (
            truthful < deviating
            and truthful == witness.worst_truthful_utility
            and deviating == witness.best_deviating_utility
        ):
            errors.append("sealed-bid-2x2: witness does not replay")
        result = ("sealed-bid-2x2", False, json.dumps(witness.to_json(), sort_keys=True))
        return result, nodes, errors

    def after(self, ns, inputs, results) -> list:
        return []


# ---------------------------------------------------------------------------
# montecarlo


def batch_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"montecarlo:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def pooled(batches) -> tuple:
    """Mean and standard error over the trials of (ratio, stderr, trials) batches."""
    trials = sum(n for _, _, n in batches)
    mean = sum((ratio * n for ratio, _, n in batches), Fraction(0)) / trials
    # each batch's stderr is sqrt(variance / n); rebuild its sum of squares
    second = sum((err ** 2 * n + float(ratio) ** 2) * n for ratio, err, n in batches) / trials
    variance = max(second - float(mean) ** 2, 0.0)
    return mean, math.sqrt(variance / trials), trials


# Unit-demand rows with unequal item values, so mech3 leaves its
# constant-row shortcut and prices items with exact matchings.
GENERAL_ROWS = ((7, 3, 6), (6, 9, 4), (2, 8, 3), (9, 3, 5), (2, 7, 8))


class MonteCarlo:
    """Seeded Monte Carlo batches on both mech3 paths and the sampling lemma.

    One request is one batch; a pass is four batches of each kind.  Batch
    sizes keep every request between 40 and 150 ms on a 2-core box.
    """

    name = "montecarlo"
    tail_percentile = 95
    fast_trials = 150
    general_trials = 40
    sampling_trials = 60
    batches_per_kind = 4

    def setup(self, ns, seed: int) -> dict:
        fx, mech, val = ns.fixtures, ns.mechanisms, ns.valuations
        ud = fx.load_instance("ud-failure-16")
        # the seed relabels bidders and items and scales the values, so every
        # seed plays the same market and costs the same
        rnd = pass_random(seed, 0, "general-instance")
        rows = list(GENERAL_ROWS)
        rnd.shuffle(rows)
        columns = rnd.sample(range(len(ITEMS3)), len(ITEMS3))
        k = rnd.randrange(1, 1_000_000)
        general = val.Instance(
            val.CombinatorialSetting(ITEMS3),
            tuple(
                val.UnitDemandValuation(
                    ITEMS3, {j: Fraction(k * row[c]) for j, c in zip(ITEMS3, columns)}
                )
                for row in rows
            ),
        )
        general_mech = mech.mech3_unit_demand(len(rows), ITEMS3)
        general_exact = general_mech.exact_expected_welfare(general) / ns.welfare.opt(general).value
        sampling = fx.load_instance("sampling-200")
        return {
            "seed": seed,
            "fast": (mech.mech3_unit_demand(ud.n, ud.items), ud),
            "general": (general_mech, general),
            "general_exact": general_exact,
            "sampling": sampling,
            "sampling_exact": self._split_probability(sampling.n, Fraction(1, 5)),
            "goldens": load_goldens(self.name),
        }

    @staticmethod
    def _split_probability(n: int, share: Fraction) -> Fraction:
        """P[both sides of a fair split of n unit bidders hold share * n].

        Exact for the full-supply flat market of ``sampling-200``, where a
        side's optimum is its head count.
        """
        need = math.ceil(share * n)
        hits = sum(math.comb(n, k) for k in range(need, n - need + 1))
        return Fraction(hits, 2 ** n)

    def requests(self, ns, inputs, index: int) -> list:
        out = []
        for j in range(self.batches_per_kind):
            base = (index * self.batches_per_kind + j) * 3
            out.append(self._batch(ns, inputs, "fast", base))
            out.append(self._batch(ns, inputs, "general", base + 1))
            out.append(self._batch(ns, inputs, "sampling", base + 2))
        return out

    def _batch(self, ns, inputs, kind: str, number: int) -> Request:
        seed = batch_seed(inputs["seed"], number)
        name = f"{kind}-{number}"
        if kind == "sampling":
            return Request(name, lambda: self._sampling(ns, inputs, name, seed))
        trials = self.fast_trials if kind == "fast" else self.general_trials
        mech, instance = inputs[kind]
        return Request(name, lambda: self._ratio(ns, kind, name, mech, instance, trials, seed))

    @staticmethod
    def _ratio(ns, kind, name, mech, instance, trials, seed) -> tuple:
        report = ns.experiments.mc_ratio(mech, instance, trials, seed)
        errors = []
        if not 0 <= report.ratio <= 1 or report.trials != trials:
            errors.append(f"{name}: estimate {report.ratio} over {report.trials} trials")
        if kind == "fast" and float(report.ratio) < 1 / math.e - 3 * report.stderr:
            errors.append(f"{name}: ratio {float(report.ratio):.4f} below 1/e - 3 stderr")
        return (name, seed, report.ratio, report.stderr, report.trials), trials, errors

    def _sampling(self, ns, inputs, name, seed) -> tuple:
        report = ns.experiments.sampling_lemma_experiment(
            inputs["sampling"], self.sampling_trials, seed
        )
        exact = inputs["sampling_exact"]
        radius = 3 * math.sqrt(float(exact * (1 - exact)) / self.sampling_trials)
        errors = []
        if report.exact or report.trials != self.sampling_trials:
            errors.append(f"{name}: expected a {self.sampling_trials}-trial estimate")
        elif abs(Fraction(report.probability) - exact) > radius:
            errors.append(f"{name}: probability {report.probability} off the exact value")
        return (name, seed, report.probability), self.sampling_trials, errors

    def after(self, ns, inputs, results) -> list:
        general = [r for r in results if r[0].startswith("general-")]
        out = []
        # the general-path estimate, pooled over the run, against the exact value
        mean, stderr, trials = pooled([r[2:] for r in general])
        exact = inputs["general_exact"]
        error = None
        if abs(float(mean - exact)) > 3 * stderr:
            error = (
                f"general path: {float(mean):.5f} over {trials} trials is more than "
                f"3 stderr ({stderr:.5f}) from the exact {float(exact):.5f}"
            )
        out.append(("general-path-vs-exact", error))
        # a seeded batch reproduces its exact Fraction output
        name, seed, ratio, err, n = general[0]
        again = ns.experiments.mc_ratio(*inputs["general"], n, seed)
        error = None
        if (again.ratio, again.stderr) != (ratio, err):
            error = f"{name}: re-run gave {again.ratio}, first run {ratio}"
        out.append(("seeded-rerun", error))
        return out + golden_after(ns, inputs["goldens"])


# ---------------------------------------------------------------------------
# exact-sweep


def _mu_general_domain(ns, m: int, levels) -> list:
    """All monotone per-quantity value tuples over the levels."""
    return [
        ns.valuations.MultiUnitValuation(tup)
        for tup in itertools.combinations_with_replacement(sorted(levels), m)
    ]


class ExactSweep:
    """Exact expected-welfare grids, oracle pairs and the exact CLI goldens.

    Each pass draws ``per_grid`` profiles from every grid of criteria 03,
    04 and 06 and ``per_slice`` profiles from every slice of criterion 10,
    then runs every golden CLI command marked ``timed``.  The other exact
    goldens (each 0.1-1.5 s) are compared once per run, after the passes.
    """

    name = "exact-sweep"
    tail_percentile = 99
    per_grid = 100
    per_slice = 100

    @staticmethod
    def _mechanisms(ns) -> dict:
        mech = ns.mechanisms
        out = {
            "c03-additive-n2": mech.mech2_additive(2, ITEMS2),
            "c03-additive-n3": mech.mech2_additive(3, ITEMS2),
            "c04-m1-2x2": mech.m1_2x2(),
            "c04-m2-2x2": mech.m2_2x2(),
            "c04-m3-2x2": mech.m3_2x2(),
        }
        for m in (2, 4, 8):
            out[f"c06-random-bundles-m{m}"] = mech.random_bundles(2, m)
        return out

    @staticmethod
    def _grids(ns, k: int) -> list:
        """(label, domain, floor) per grid; labels key ``_mechanisms``."""
        fx = ns.fixtures
        out = [
            ("c03-additive-n2", fx.additive_domain(ITEMS2, scaled(range(5), k)), Fraction(1, 4)),
            ("c03-additive-n3", fx.additive_domain(ITEMS2, scaled(range(4), k)), Fraction(1, 4)),
            ("c04-m1-2x2", fx.single_minded_domain(2, scaled(range(5), k), (1, 2)), Fraction(3, 4)),
            ("c04-m2-2x2", fx.explicit_domain(ITEMS2, scaled(range(4), k), "subadditive"),
             Fraction(3, 4)),
            ("c04-m3-2x2", fx.explicit_domain(ITEMS2, scaled(range(4), k), "monotone"),
             Fraction(2, 3)),
        ]
        for m in (2, 4, 8):
            out.append(
                (f"c06-random-bundles-m{m}",
                 fx.single_minded_domain(m, scaled(range(6), k), range(1, m + 1)),
                 Fraction(1, 3 * math.ceil(math.log2(m))))
            )
        return out

    @staticmethod
    def _slices(ns, k: int) -> list:
        fx, val = ns.fixtures, ns.valuations
        grid3 = scaled(range(4), k)
        return [
            ("c10-mu3-n2", val.MultiUnitSetting(3), 2, _mu_general_domain(ns, 3, grid3)),
            ("c10-mu2-n3", val.MultiUnitSetting(2), 3, _mu_general_domain(ns, 2, grid3)),
            ("c10-sm4-n3", val.MultiUnitSetting(4), 3,
             fx.single_minded_domain(4, grid3, range(1, 5))),
            ("c10-dm4-n2", val.MultiUnitSetting(4), 2, fx.decreasing_marginal_domain(4, grid3)),
            ("c10-add2-n3", val.CombinatorialSetting(ITEMS2), 3, fx.additive_domain(ITEMS2, grid3)),
            ("c10-add3-n2", val.CombinatorialSetting(ITEMS3), 2,
             fx.additive_domain(ITEMS3, scaled(range(3), k))),
            ("c10-ud2-n3", val.CombinatorialSetting(ITEMS2), 3, fx.unit_demand_domain(ITEMS2, grid3)),
            ("c10-mono-n2", val.CombinatorialSetting(ITEMS2), 2,
             fx.explicit_domain(ITEMS2, grid3, "monotone")),
        ]

    def _pass_inputs(self, ns, mechs: dict, seed: int, index: int) -> tuple:
        k = pass_scale(seed, index)
        rnd = pass_random(seed, index, "profiles")
        evals = []
        for label, dom, floor in self._grids(ns, k):
            mech = mechs[label]
            for _ in range(self.per_grid):
                profile = tuple(rnd.choice(dom) for _ in range(mech.n))
                evals.append((label, mech, profile, floor))
        pairs = []
        for label, setting, n, dom in self._slices(ns, k):
            for _ in range(self.per_slice):
                pairs.append((label, setting, tuple(rnd.choice(dom) for _ in range(n))))
        return evals, pairs

    def setup(self, ns, seed: int) -> dict:
        goldens = load_goldens(self.name)
        mechs = self._mechanisms(ns)
        return {
            "seed": seed,
            "mechanisms": mechs,
            "pass0": self._pass_inputs(ns, mechs, seed, 0),
            "timed": [g for g in goldens if g["timed"]],
            "after": [g for g in goldens if not g["timed"]],
        }

    def requests(self, ns, inputs, index: int) -> list:
        if index == 0:
            evals, pairs = inputs["pass0"]
        else:
            evals, pairs = self._pass_inputs(ns, inputs["mechanisms"], inputs["seed"], index)
        out = [
            Request(label, lambda a=(label, mech, profile, floor): self._evaluate(ns, *a))
            for label, mech, profile, floor in evals
        ]
        out += [
            Request(label, lambda a=(label, setting, profile): self._oracle(ns, *a))
            for label, setting, profile in pairs
        ]
        out += [golden_request(ns, entry) for entry in inputs["timed"]]
        return out

    @staticmethod
    def _evaluate(ns, label, mech, profile, floor) -> tuple:
        instance = ns.valuations.Instance(mech.setting, profile)
        best = ns.welfare.opt_value_restricted(instance)
        if best == 0:
            return (label, best, None), 1, []
        welfare = mech.exact_expected_welfare(instance)
        errors = []
        if not floor <= welfare / best <= 1:
            errors.append(f"{label}: ratio {welfare / best} outside [{floor}, 1]")
        return (label, best, welfare), 1, errors

    @staticmethod
    def _oracle(ns, label, setting, profile) -> tuple:
        instance = ns.valuations.Instance(setting, profile)
        fast = ns.welfare.opt(instance).value
        brute = ns.welfare.brute_force_opt(instance).value
        errors = [] if fast == brute else [f"{label}: opt {fast} != brute force {brute}"]
        return (label, fast, brute), 1, errors

    def after(self, ns, inputs, results) -> list:
        return golden_after(ns, inputs["after"])


WORKLOADS = {w.name: w for w in (VerifyCatalog(), MonteCarlo(), ExactSweep())}
