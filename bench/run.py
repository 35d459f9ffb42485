#!/usr/bin/env python3
"""ospclock benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, single thread, closed loop: each request starts when the
previous one has finished.  ospclock is imported from ``src/`` next to this
directory.  Workloads (see ``workloads.py`` and ``README.md``):
``verify-catalog``, ``montecarlo`` and ``exact-sweep``.  Times are scaled to
a reference machine speed measured by ``probe()`` as the run goes.

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace
1`` makes the same untraced run, then two traced runs of set-up plus pass 0
with a span recorder on every public ospclock function (``spans.py``), and
prints the per-layer metrics.  Either way the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, ``{"bench_meta": ...}``, records the machine, the revision and
the run's sample counts, and the same data goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3
MAX_MEASURE_S = 100.0
# Best-of-three time of ``probe()`` on the box that defined this benchmark
# (2-vCPU Intel Xeon VM, Python 3.11.7), in seconds.
PROBE_REF_S = 0.0080
PROBE_EVERY_S = 0.5

from spans import LAYERS, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


# ---------------------------------------------------------------------------
# loading ospclock


def load_ospclock() -> types.SimpleNamespace:
    """Import every ospclock layer module afresh from ``src/``."""
    for name in [n for n in sys.modules if n == "ospclock" or n.startswith("ospclock.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"ospclock.{layer}") for layer in LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported ospclock from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def set_up(workload, seed: int, tracer=None) -> tuple:
    """Import ospclock and build the workload's inputs; return (ns, inputs, seconds)."""
    start = time.perf_counter()
    ns = load_ospclock()
    if tracer is not None:
        instrument(vars(ns), tracer)
    inputs = workload.setup(ns, seed)
    return ns, inputs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared VM the speed of a CPU-bound Python loop drifts by 30% or more
# in phases that last minutes, far longer than one run.  Every timing is
# therefore scaled to a reference speed: the benchmark times a fixed kernel
# before and after each pass (and each set-up) and multiplies the measured
# seconds by PROBE_REF_S over the mean probe time.  A pass is probed at its
# start, between requests every PROBE_EVERY_S, and at its end; the probes'
# own time is left out of the pass.  The kernel does not touch ospclock, so
# a change to ospclock cannot move it.  The raw wall-clock values are kept
# in ``bench_meta.wall``.


def probe() -> float:
    """Best of three timings of a fixed Fraction-and-dict kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 3000):
            acc += Fraction(i % 7, i % 5 + 1)
            table[i % 97] = table.get(i % 97, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(probes: list) -> float:
    """Multiplier from measured seconds to reference-speed seconds."""
    return PROBE_REF_S / statistics.mean(probes)


# ---------------------------------------------------------------------------
# running passes


def run_pass(ns, workload, inputs, index: int, tracer=None) -> dict:
    """Run every request of one pass; return timings, results and errors."""
    requests = workload.requests(ns, inputs, index)
    gc.collect()
    latencies, results, errors = [], [], []
    work = 0
    perf = time.perf_counter
    probes = [probe()]
    paused = 0.0
    start = mark = perf()
    for number, request in enumerate(requests):
        if tracer is not None:
            tracer.request = f"pass{index}/{number}/{request.name}"
        t0 = perf()
        try:
            result, units, errs = request.run()
        except Exception as exc:  # a crash is one failed request
            result, units, errs = (request.name, "exception", repr(exc)), 0, [
                f"{request.name}: {exc!r}"
            ]
        now = perf()
        latencies.append(now - t0)
        results.append(result)
        work += units
        if errs:
            errors.append("; ".join(errs))
        if now - mark >= PROBE_EVERY_S:
            probes.append(probe())
            mark = perf()
            paused += mark - now
    seconds = perf() - start - paused
    probes.append(probe())
    return {
        "seconds": seconds,
        "factor": speed_factor(probes),
        "latencies": latencies,
        "results": results,
        "errors": errors,
        "work": work,
    }


def tail_rank(count: int, percentile: float) -> int:
    """0-based nearest-rank index of ``percentile`` among ``count`` samples."""
    return max(0, math.ceil(percentile / 100 * count) - 1)


def samples_beyond(count: int, percentile: float) -> int:
    return count - 1 - tail_rank(count, percentile)


def measure(ns, workload, inputs, seconds: float) -> list:
    """Closed-loop passes for ``seconds`` (and until the tail has ten samples beyond it)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ns, workload, inputs, len(passes)))
        elapsed = time.perf_counter() - start
        count = sum(len(p["latencies"]) for p in passes)
        enough = (
            elapsed >= seconds
            and len(passes) >= MIN_PASSES
            and samples_beyond(count, workload.tail_percentile) >= 10
        )
        if enough or elapsed >= MAX_MEASURE_S:
            return passes


def end_to_end(workload, passes: list, setups: list, scaled: bool = True) -> tuple:
    """End-to-end metrics in reference-speed seconds, or wall seconds if not ``scaled``."""

    def factor(record):
        return record["factor"] if scaled else 1.0

    latencies = sorted(t * factor(p) for p in passes for t in p["latencies"])
    rank = tail_rank(len(latencies), workload.tail_percentile)
    metrics = {
        "pass_s": (statistics.median(p["seconds"] * factor(p) for p in passes), "s"),
        "request_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "request_ms_tail": (1000 * latencies[rank], "ms"),
        "work_per_s": (
            statistics.median(p["work"] / (p["seconds"] * factor(p)) for p in passes),
            "1/s",
        ),
        "setup_s": (statistics.median(s["seconds"] * factor(s) for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail = {
        "tail_percentile": workload.tail_percentile,
        "samples": len(latencies),
        "samples_beyond_tail": len(latencies) - 1 - rank,
    }
    return metrics, tail


# ---------------------------------------------------------------------------
# traced run


def traced_run(workload, seed: int) -> tuple:
    """Set-up plus pass 0 under a fresh tracer; return (tracer, pass record)."""
    tracer = Tracer()
    tracer.request = "setup"
    ns, inputs, seconds = set_up(workload, seed, tracer)
    tracer.count_root(seconds)
    record = run_pass(ns, workload, inputs, 0, tracer)
    tracer.count_root(record["seconds"])
    return tracer, record


def per_layer(workload, seed: int, untraced_pass: dict, untraced_pass_s: float) -> tuple:
    """Per-layer metrics of two traced runs and the errors their cross-checks find."""
    runs = [traced_run(workload, seed) for _ in range(2)]
    errors = []
    for number, (_, record) in enumerate(runs, 1):
        errors += [f"traced run {number}: {e}" for e in record["errors"]]
        if record["results"] != untraced_pass["results"]:
            errors.append(f"traced run {number}: results differ from the untraced pass 0")
    values = [tracer.layer_metrics() for tracer, _ in runs]
    for name, first in values[0].items():
        second = values[1][name]
        deterministic = not name.endswith(("_s", ".s"))
        if deterministic and first != second:
            errors.append(f"count {name} changed between traced runs: {first} != {second}")
    metrics = {}
    factors = [record["factor"] for _, record in runs]
    for name, first in values[0].items():
        if name.endswith(("_s", ".s")):
            metrics[name] = ((first * factors[0] + values[1][name] * factors[1]) / 2, "s")
        elif name.endswith("_ratio"):
            metrics[name] = (first, "ratio")
        else:
            metrics[name] = (first, "count")
    traced_s = statistics.mean(record["seconds"] * record["factor"] for _, record in runs)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_pass_s, "ratio")
    return metrics, errors, runs[0][0].trace_json()


# ---------------------------------------------------------------------------
# run metadata


def git_revision() -> str | None:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ospclock").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args, load_1m: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "loadavg_1m_at_start": load_1m,
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    if not (SRC / "ospclock" / "__init__.py").is_file():
        print(f"bench: no ospclock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the CLI logs its resolved config to stderr; keep in-process runs quiet
    logging.getLogger().addHandler(logging.NullHandler())
    workload = WORKLOADS[args.workload]
    meta = metadata(args, load_1m)

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = probe()
        ns, inputs, seconds = set_up(workload, args.seed)
        setups.append({"seconds": seconds, "factor": speed_factor([before, probe()])})
    passes = measure(ns, workload, inputs, args.seconds)
    all_results = [r for p in passes for r in p["results"]]
    checks = workload.after(ns, inputs, all_results)

    attempted = sum(len(p["results"]) for p in passes) + len(checks)
    errors = [e for p in passes for e in p["errors"]] + [e for _, e in checks if e]
    e2e, tail = end_to_end(workload, passes, setups)
    wall, _ = end_to_end(workload, passes, setups, scaled=False)
    meta.update(
        tail,
        passes=len(passes),
        pass_seconds=[p["seconds"] for p in passes],
        pass_speed_factors=[p["factor"] for p in passes],
        setup_seconds=[s["seconds"] for s in setups],
        setup_speed_factors=[s["factor"] for s in setups],
        wall={k: v for k, (v, _) in wall.items()},
    )

    trace = None
    if args.trace:
        metrics, trace_errors, trace = per_layer(
            workload, args.seed, passes[0], e2e["pass_s"][0]
        )
        attempted += 2
        errors += trace_errors
    else:
        metrics = e2e
    failed = len(errors)
    meta["failed_ratio"] = failed / attempted
    meta["errors"] = errors[:20]
    meta["end_to_end"] = {k: v for k, (v, _) in e2e.items()}

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": {k: v for k, (v, _) in metrics.items()}}
    if trace is not None:
        record["trace"] = trace
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(json.dumps({"bench_meta": meta}, sort_keys=True, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
