"""Span recorders for the traced benchmark run.

``instrument`` replaces every public function and every public method of
a public class in the ospclock layer modules with a recorder, both in the
function's home module and at each site that imported it by name (``from
.welfare import opt_value_restricted`` leaves a second reference in
``ospclock.mechanisms``, and that reference is the one the mechanisms
call).  Module-level dict values that hold such functions (the CLI's
dispatch tables) are replaced too.  Nothing under ``src/`` is edited: the
recorders live only in the process that installed them.

Every recorded call updates a call count, the outermost inclusive busy
time of its function, and the self time of its layer (call time minus
the time of the recorded calls it made).  A call whose caller sits in
another layer is a span: it gets an id, its parent span's id and the
current request id.  Span totals are kept per (caller layer, callee
layer) edge for the whole run; the first ``RAW_SPAN_CAP`` spans are also
kept raw so that the written trace shows individual requests.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = (
    "cli",
    "experiments",
    "fixtures",
    "mechanisms",
    "osp",
    "protocols",
    "rng",
    "valuations",
    "welfare",
)
ROOT_LAYER = "bench"
RAW_SPAN_CAP = 5_000


def _sized(value):
    """Hashable form of a bidder or item restriction argument."""
    if value is None or isinstance(value, int):
        return value
    return tuple(value)


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self) -> None:
        self.calls: dict = {}
        self.busy: dict = {}
        self.depth: dict = {}
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_self = dict.fromkeys(LAYERS + (ROOT_LAYER,), 0.0)
        self.counts = {
            "protocols.materialize.nodes": 0,
            "protocols.realize_rule.profiles": 0,
            "osp.verify_osp.passes": 0,
            "osp.rule_checks.profiles": 0,
            "mechanisms.branches.count": 0,
            "experiments.mc_ratio.trials": 0,
            "experiments.sampling_lemma_experiment.splits": 0,
        }
        self.opt_keys: set = set()
        self._reprs: dict = {}
        self.edges: dict = {}
        self.spans: list = []
        self.request = "setup"
        self._next_span = 1
        # frame: [layer, child seconds, span id, function key]
        self.stack = [[ROOT_LAYER, 0.0, 0, ROOT_LAYER]]
        self._hooks = {
            "protocols.materialize": self._count_nodes,
            "protocols.realize_rule": self._count_profiles,
            "protocols.behavior_from_strategy": self._count_osp_pass,
            "osp.verify_weak_monotonicity": self._count_rule_check,
            "osp.verify_dsic": self._count_rule_check,
            "mechanisms.RandomizedMechanism.branches": self._count_branches,
            "experiments.mc_ratio": self._count_trials,
            "experiments.sampling_lemma_experiment": self._count_splits,
            "welfare.opt_value_restricted": self._record_opt_key,
        }

    # -- work counts taken from arguments and results ----------------------
    # Hooks read plain attributes only: calling a recorded function here
    # would add to the counts being taken.

    def _count_nodes(self, args, kwargs, result, parent):
        self.counts["protocols.materialize.nodes"] += len(result.nodes) + len(result.leaves)

    def _count_profiles(self, args, kwargs, result, parent):
        self.counts["protocols.realize_rule.profiles"] += len(result.table)

    def _count_osp_pass(self, args, kwargs, result, parent):
        # verify_osp tabulates one behavior per (bidder, valuation) pass
        if parent == "osp.verify_osp":
            self.counts["osp.verify_osp.passes"] += 1

    def _count_rule_check(self, args, kwargs, result, parent):
        rule = args[0] if args else kwargs["rule"]
        self.counts["osp.rule_checks.profiles"] += len(rule.table)

    def _count_branches(self, args, kwargs, result, parent):
        self.counts["mechanisms.branches.count"] += len(result)

    def _count_trials(self, args, kwargs, result, parent):
        self.counts["experiments.mc_ratio.trials"] += result.trials

    def _count_splits(self, args, kwargs, result, parent):
        instance = args[0] if args else kwargs["instance"]
        splits = 2 ** len(instance.valuations) if result.exact else result.trials
        self.counts["experiments.sampling_lemma_experiment.splits"] += splits

    def _repr(self, obj) -> str:
        # keyed by id, holding the object so the id cannot be reused
        hit = self._reprs.get(id(obj))
        if hit is None:
            hit = (obj, repr(obj))
            self._reprs[id(obj)] = hit
        return hit[1]

    def _record_opt_key(self, args, kwargs, result, parent):
        instance = args[0] if args else kwargs["instance"]
        bidders = args[1] if len(args) > 1 else kwargs.get("bidders")
        items = args[2] if len(args) > 2 else kwargs.get("items")
        self.opt_keys.add(
            (
                self._repr(instance.setting),
                tuple(self._repr(v) for v in instance.valuations),
                _sized(bidders),
                _sized(items),
            )
        )

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"
        self.calls[key] = 0
        self.busy[key] = 0.0
        self.depth[key] = 0
        hook = self._hooks.get(key)
        tracer = self
        calls, busy, depth = self.calls, self.busy, self.depth
        layer_calls, layer_self = self.layer_calls, self.layer_self
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls[key] += 1
            layer_calls[layer] += 1
            parent = stack[-1]
            boundary = parent[0] != layer
            span = tracer._next_span if boundary else parent[2]
            if boundary:
                tracer._next_span += 1
            frame = [layer, 0.0, span, key]
            stack.append(frame)
            level = depth[key]
            depth[key] = level + 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[key] = level
                elapsed = end - start
                layer_self[layer] += elapsed - frame[1]
                parent[1] += elapsed
                if level == 0:
                    busy[key] += elapsed
                if boundary:
                    tracer._close_span(parent, layer, span, key, start, end)
            if hook is not None:
                hook(args, kwargs, result, parent[3])
            return result

        return recorded

    def _close_span(self, parent, layer, span, key, start, end) -> None:
        edge = self.edges.setdefault(f"{parent[0]}->{layer}", [0, 0.0])
        edge[0] += 1
        edge[1] += end - start
        if len(self.spans) < RAW_SPAN_CAP:
            self.spans.append(
                {
                    "request": self.request,
                    "span": span,
                    "parent": parent[2],
                    "name": key,
                    "start": start,
                    "end": end,
                }
            )

    def count_root(self, seconds: float) -> None:
        """Charge benchmark-side time not spent in any recorded call."""
        root = self.stack[0]
        self.layer_self[ROOT_LAYER] += seconds - root[1]
        root[1] = 0.0

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metric values by name (counts and busy seconds).

        A function missing from the modules reads as zero calls and zero
        seconds, like an idle layer.
        """
        calls, busy = self.calls, self.busy
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
            out[f"{layer}.calls"] = self.layer_calls[layer]
        for name in (
            "protocols.materialize",
            "protocols.behavior_from_strategy",
            "protocols.realize_rule",
            "protocols.run_game",
            "osp.verify_osp",
            "osp.verify_ir_nnt",
            "osp.verify_weak_monotonicity",
            "osp.verify_dsic",
            "welfare.opt",
            "welfare.opt_value_restricted",
            "welfare.brute_force_opt",
        ):
            out[f"{name}.s"] = busy.get(name, 0.0)
        out["mechanisms.outcome.s"] = busy.get("mechanisms.SupportElement.outcome", 0.0)
        out["mechanisms.exact_expected_welfare.s"] = busy.get(
            "mechanisms.RandomizedMechanism.exact_expected_welfare", 0.0
        )
        for name in (
            "protocols.behavior_from_strategy",
            "protocols.run_game",
            "welfare.opt",
            "welfare.opt_value_restricted",
            "welfare.opt_restricted",
            "welfare.welfare_of",
            "cli.main",
        ):
            out[f"{name}.calls"] = calls.get(name, 0)
        out["mechanisms.sample_branch.calls"] = calls.get(
            "mechanisms.RandomizedMechanism.sample_branch", 0
        )
        out["mechanisms.outcome.calls"] = calls.get("mechanisms.SupportElement.outcome", 0)
        out["rng.words"] = calls.get("rng.CounterRng.next_word", 0)
        out["valuations.value.calls"] = sum(
            n for k, n in calls.items() if k.startswith("valuations.") and k.endswith(".value")
        )
        opt_calls = calls.get("welfare.opt_value_restricted", 0)
        out["welfare.opt_value_restricted.distinct_ratio"] = (
            len(self.opt_keys) / opt_calls if opt_calls else 0.0
        )
        out.update(self.counts)
        return out

    def trace_json(self) -> dict:
        return {
            "edges": {k: {"spans": v[0], "s": v[1]} for k, v in sorted(self.edges.items())},
            "calls": {k: v for k, v in sorted(self.calls.items()) if v},
            "busy_s": {k: v for k, v in sorted(self.busy.items()) if v},
            "layer_self_s": self.layer_self,
            "spans": self.spans,
            "spans_dropped": max(0, self._next_span - 1 - len(self.spans)),
        }


def instrument(modules: dict, tracer: Tracer) -> None:
    """Install ``tracer``'s recorders into freshly imported layer modules.

    ``modules`` maps each name in ``LAYERS`` to its module; other ospclock
    modules may be included and only have their import sites patched.
    """
    replaced = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(layer, name, obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        setattr(obj, attr, tracer.wrap(layer, f"{name}.{attr}", member))
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, name, replaced[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in replaced:
                        obj[key] = replaced[value]
