"""In-memory span tracer that wraps matchdyn's public functions from outside
the package, and the per-layer arithmetic over the spans it records.

A span is ``[key, name, start, end, parent, outer, attr]``: ``key`` is the
layer bucket the wrapped function belongs to, ``name`` the function's
qualified name, ``parent`` the index of the enclosing span (-1 at the top),
``outer`` whether no span of the same key was open when it started (so
inclusive times of recursive calls are not counted twice), and ``attr`` a
small label (the descriptor kind of a ``del_step``).  Counters are bumped at
the same boundaries.  Nothing is recorded while ``enabled`` is false, which is
how set-up, the correctness gate and the untimed checks stay out of the
trace.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function or "Class.method", layer key).  Methods are wrapped on
# every class of the package that defines them, so subclass overrides
# (Su2K.tr_star, MatchedPairGroup.lift_matrix, ...) are caught too.
TARGETS = [
    ("numerics", "fd_jacobian", "numerics.jacobian"),
    ("numerics", "newton_solve", "numerics.newton"),
    ("dynamics", "DiscreteLagrangian.gradient", "dynamics.gradient"),
    ("dynamics", "del_residual", "dynamics.residual"),
    ("dynamics", "del_residual_matched", "dynamics.residual"),
    ("dynamics", "del_residual_matched_group", "dynamics.residual"),
    ("dynamics", "_matched_group_fields_residual", "dynamics.residual"),
    ("dynamics", "del_step", "dynamics.junction"),
    ("dynamics", "del_step_matched_group", "dynamics.junction"),
    ("dynamics", "solve_trajectory", "dynamics.solve"),
    ("dynamics", "solve_matched_group_trajectory", "dynamics.solve"),
    ("dynamics", "variational_oracle", "dynamics.oracle"),
    ("dynamics", "momentum_evolution", "dynamics.momentum"),
    ("dynamics", "matched_group_momenta", "dynamics.momentum"),
    ("groups", "Group.lift_matrix", "groups.lift_matrix"),
    ("groups", "Group.coAd", "groups.coAd"),
    ("matched_group", "MatchedPairGroup.tr_star", "matched_group.transpose"),
    ("matched_group", "MatchedPairGroup.a_star", "matched_group.transpose"),
    ("matched_group", "MatchedPairGroup.b_star", "matched_group.transpose"),
    ("matched_group", "MatchedPairGroup.g_star", "matched_group.transpose"),
    ("matched_group", "MatchedPairGroup.tr_star_generic",
     "matched_group.generic"),
    ("matched_group", "MatchedPairGroup.a_star_generic",
     "matched_group.generic"),
    ("matched_group", "MatchedPairGroup.b_star_generic",
     "matched_group.generic"),
    ("matched_group", "MatchedPairGroup.g_star_generic",
     "matched_group.generic"),
    ("algebroid", "left_invariant", "algebroid.field"),
    ("algebroid", "right_invariant", "algebroid.field"),
    ("algebroid", "left_invariant_generic", "algebroid.field"),
    ("algebroid", "right_invariant_generic", "algebroid.field"),
    ("algebroid", "matched_left_invariant", "algebroid.field"),
    ("algebroid", "matched_right_invariant", "algebroid.field"),
    ("algebroid", "act_on_fiber_g", "algebroid.induced_action"),
    ("algebroid", "act_on_fiber_h", "algebroid.induced_action"),
    ("algebroid", "dagger_on_g", "algebroid.induced_action"),
    ("algebroid", "dagger_on_h", "algebroid.induced_action"),
    ("algebroid", "infinitesimal_action", "algebroid.induced_action"),
    ("groupoids", "Groupoid.fiber_coords", "groupoids.fiber_coords"),
    ("scenarios", "run_scenario", "scenarios.run"),
    ("scenarios", "write_trajectory_csv", "scenarios.csv_write"),
    ("scenarios", "read_trajectory_csv", "scenarios.csv_read"),
    ("scenarios", "check_residual_file", "scenarios.check"),
    ("cli", "main", "cli.main"),
]

RESIDUAL_FN = "numerics.residual_fn"


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counters = Counter()
        self.gradient_points = set()
        self._stack = []
        self._open = Counter()
        self._undo = []
        self.matched_types = ()

    def reset(self):
        self.spans = []
        self.counters = Counter()
        self.gradient_points = set()
        self._stack = []
        self._open = Counter()

    # -- recording -----------------------------------------------------------

    def _enter(self, key, name, attr=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([key, name, time.perf_counter(), None, parent,
                           self._open[key] == 0, attr])
        self._stack.append(idx)
        self._open[key] += 1
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _top_key(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, key, name, fn, *args, attr=None, **kwargs):
        idx = self._enter(key, name, attr)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _wrap(self, key, name, fn):
        tracer = self

        if key == "numerics.newton":
            @functools.wraps(fn)
            def wrapper(F, *args, **kwargs):
                if not tracer.enabled:
                    return fn(F, *args, **kwargs)
                return tracer.span(key, name, fn, tracer._residual_fn(F),
                                   *args, **kwargs)
        elif key == "numerics.jacobian":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.counters["jacobians"] += 1
                if tracer._top_key() == "numerics.newton":
                    tracer.counters["newton_jacobians"] += 1
                return tracer.span(key, name, fn, *args, **kwargs)
        elif key == "dynamics.gradient":
            @functools.wraps(fn)
            def wrapper(self, x, *args, **kwargs):
                if not tracer.enabled:
                    return fn(self, x, *args, **kwargs)
                tracer.counters["gradient_calls"] += 1
                tracer.gradient_points.add(
                    (id(self), np.asarray(x, dtype=float).tobytes()))
                return tracer.span(key, name, fn, self, x, *args, **kwargs)
        elif key == "dynamics.junction":
            @functools.wraps(fn)
            def wrapper(desc, *args, **kwargs):
                if not tracer.enabled:
                    return fn(desc, *args, **kwargs)
                attr = ("matched" if isinstance(desc, tracer.matched_types)
                        else "direct")
                return tracer.span(key, name, fn, desc, *args, attr=attr,
                                   **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer.span(key, name, fn, *args, **kwargs)
        wrapper.bench_tracer = tracer
        return wrapper

    def _residual_fn(self, F):
        """The residual closure handed to newton_solve: a span per call, and
        a count of the calls Newton makes itself (not through a Jacobian)."""
        def counted(x):
            if self._top_key() == "numerics.newton":
                self.counters["residual_evals"] += 1
            return self.span(RESIDUAL_FN, RESIDUAL_FN, F, x)
        return counted

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap every target in every namespace of ``package`` that refers to
        it, and count Lagrangian evaluations through DiscreteLagrangian.
        Returns the number of attributes replaced."""
        modules = _package_modules(package)
        self.matched_types = (modules["groupoids"].MatchedPairGroupoid,
                              modules["matched_group"].MatchedPairGroup)
        wrapped = {}
        for modname, target, key in TARGETS:
            mod = modules[modname]
            if "." in target:
                cls_name, meth = target.split(".")
                base = getattr(mod, cls_name)
                for cls in _package_classes(modules):
                    if issubclass(cls, base) and meth in cls.__dict__:
                        fn = cls.__dict__[meth]
                        self._replace(cls, meth, self._wrap(
                            key, "%s.%s" % (cls.__name__, meth), fn))
            else:
                fn = getattr(mod, target)
                wrapped[fn] = self._wrap(key, "%s.%s" % (modname, target), fn)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._replace(mod, attr, wrapped[val])
        self._count_lagrangian_evals(modules["dynamics"].DiscreteLagrangian)
        return len(self._undo)

    def _count_lagrangian_evals(self, cls):
        tracer = self
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def counting_init(self, evaluate, *args, **kwargs):
            init(self, evaluate, *args, **kwargs)
            inner = self.evaluate

            def evaluate_counted(x):
                if tracer.enabled:
                    tracer.counters["L_evals"] += 1
                return inner(x)
            self.evaluate = evaluate_counted

        counting_init.bench_tracer = self
        self._replace(cls, "__init__", counting_init)

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _package_modules(package):
    names = ["numerics", "groups", "matched_group", "groupoids", "algebroid",
             "dynamics", "scenarios", "cli"]
    modules = {n: importlib.import_module(package.__name__ + "." + n)
               for n in names}
    modules[""] = package
    return modules


def _package_classes(modules):
    seen = []
    for mod in modules.values():
        for val in vars(mod).values():
            if (inspect.isclass(val) and val.__module__.startswith(
                    modules[""].__name__) and val not in seen):
                seen.append(val)
    return seen


def count_wrappers(package):
    """Number of package attributes currently replaced by a tracer wrapper."""
    modules = _package_modules(package)
    owners = list(modules.values()) + _package_classes(modules)
    return sum(hasattr(val, "bench_tracer")
               for owner in owners for val in vars(owner).values())


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0.0
        cur_s = cur_e = None
        for j in sorted(children[i], key=lambda j: spans[j][2]):
            s, e = max(spans[j][2], start), min(spans[j][3], end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def junction_spans_ms(spans):
    """Wall time of each junction in ms.  The ``del_step`` spans under one
    top-level span (one request) are taken in order for each descriptor
    kind, and the i-th of each kind are summed: a ``trivial_groupoid``
    junction covers both presentations, as ``junction_ms`` counts it, while
    requests that step a single descriptor give one span per junction."""
    root = []
    steps = defaultdict(list)
    for i, span in enumerate(spans):
        root.append(i if span[4] < 0 else root[span[4]])
        if span[0] == "dynamics.junction" and span[5]:
            steps[root[i], span[6]].append((span[3] - span[2]) * 1e3)
    per_request = defaultdict(list)
    for (request, _), durations in steps.items():
        acc = per_request[request]
        acc.extend([0.0] * (len(durations) - len(acc)))
        for k, d in enumerate(durations):
            acc[k] += d
    return [d for acc in per_request.values() for d in acc]


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, counters, n_junctions, n_requests, n_gradient_points):
    """Per-layer figures of one traced window, keyed as in BENCHMARK.json.
    Times are in ms; figures are per junction unless the name says per
    request."""
    selfs = self_times(spans)
    incl = Counter()
    self_ms = Counter()
    calls = Counter()
    by_attr = Counter()
    for span, s in zip(spans, selfs):
        key, dur = span[0], (span[3] - span[2]) * 1e3
        calls[key] += 1
        self_ms[key] += s * 1e3
        if span[5]:
            incl[key] += dur
        if key == "dynamics.junction":
            by_attr[span[6]] += dur
    junction_ms = junction_spans_ms(spans)
    J = max(n_junctions, 1)
    R = max(n_requests, 1)
    jac = counters["jacobians"]
    newton_j = counters["newton_jacobians"]
    grads = counters["gradient_calls"]
    return {
        "numerics.newton_iters_per_junction": newton_j / J,
        "numerics.jacobians_per_junction": jac / J,
        "numerics.jacobian_useful_ratio": newton_j / jac if jac else 0.0,
        "numerics.residual_evals_per_junction": counters["residual_evals"] / J,
        # every Newton iteration evaluates one full step, the rest halve it;
        # the one extra evaluation per solve is the starting residual
        "numerics.halvings_per_junction": max(
            counters["residual_evals"] - newton_j - calls["numerics.newton"],
            0) / J,
        "numerics.jacobian_self_ms_per_junction":
            self_ms["numerics.jacobian"] / J,
        "numerics.newton_self_ms_per_junction": self_ms["numerics.newton"] / J,
        "dynamics.L_evals_per_junction": counters["L_evals"] / J,
        "dynamics.gradient_calls_per_junction": grads / J,
        "dynamics.gradient_ms_per_junction": incl["dynamics.gradient"] / J,
        "dynamics.gradient_distinct_ratio":
            n_gradient_points / grads if grads else 0.0,
        "dynamics.residual_self_ms_per_junction":
            self_ms["dynamics.residual"] / J,
        "dynamics.oracle_ms_per_request": incl["dynamics.oracle"] / R,
        "dynamics.momentum_ms_per_request": incl["dynamics.momentum"] / R,
        "dynamics.junction_span_ms_p50": _percentile(junction_ms, 50),
        "dynamics.junction_span_ms_p90": _percentile(junction_ms, 90),
        "groups.lift_matrix_calls_per_junction":
            calls["groups.lift_matrix"] / J,
        "groups.lift_matrix_ms_per_junction": incl["groups.lift_matrix"] / J,
        "groups.coAd_ms_per_junction": incl["groups.coAd"] / J,
        "matched_group.transpose_ms_per_junction":
            incl["matched_group.transpose"] / J,
        "matched_group.generic_check_ms_per_junction":
            incl["matched_group.generic"] / J,
        "algebroid.field_calls_per_junction": calls["algebroid.field"] / J,
        "algebroid.field_self_ms_per_junction":
            self_ms["algebroid.field"] / J,
        "algebroid.induced_action_ms_per_junction":
            incl["algebroid.induced_action"] / J,
        "groupoids.fiber_coords_ms_per_junction":
            incl["groupoids.fiber_coords"] / J,
        "scenarios.direct_junction_ms": by_attr["direct"] / J,
        "scenarios.matched_junction_ms": by_attr["matched"] / J,
        "scenarios.csv_write_ms_per_request": incl["scenarios.csv_write"] / R,
        "scenarios.csv_read_ms_per_request": incl["scenarios.csv_read"] / R,
        "scenarios.recheck_ms_per_junction":
            (incl["scenarios.check"] - incl["scenarios.csv_read"]) / J,
        "cli.overhead_ms_per_request": self_ms["cli.main"] / R,
    }
