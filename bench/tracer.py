"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``jacobistab`` module (plus
``dynamics._rk4`` and a few pointwise methods) from outside the package, and
rebinds every module attribute that refers to the original, because
``dynamics`` and ``jacobi`` import ``christoffel`` and others by name.  A
call to a wrapped function opens a span: name, start, end and the span that
caused it.  Pointwise calls, of which a round makes up to millions, are not
stored one by one: each is aggregated, as a call count and a time, into its
parent span.  Every call, hot or not, adds its duration minus its traced
children to the self time of its layer (the module it lives in).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import numpy as np

LAYERS = ("cli", "verify", "dynamics", "jacobi", "geometry", "numdiff", "variation",
          "conformal", "expressions")
_TRACED_MODULES = LAYERS[2:]
_PRIVATE = {"dynamics._rk4"}

# Pointwise calls: aggregated into the parent span.
_HOT = {
    "geometry.christoffel", "geometry.christoffel_partials", "geometry.riemann",
    "geometry.hessian_form", "geometry.grad_scalar", "geometry.sectional_tensor",
    "geometry.field_cov_derivative", "geometry.field_second_cov",
    "geometry.validate_metric_at", "geometry.as_scalar_field",
    "geometry.ChartMetric.g", "geometry.ChartMetric.g_inv", "geometry.ChartMetric.dg",
    "geometry.ChartMetric.d2g", "numdiff.central_diff", "numdiff.central_diff2",
    "conformal.conformal_connection", "conformal.conformal_second_cov",
    "conformal.conformal_curvature", "jacobi.JacobiMetric.clearance",
    "jacobi.JacobiMetric.check_clear", "dynamics.MechanicalSystem.energy",
    "dynamics.MechanicalSystem.acceleration", "dynamics.MechanicalSystem.grad_potential",
    "dynamics.MechanicalSystem.hess_potential_raised", "dynamics.energy_of",
    "expressions.eval",
}
# Both central-difference helpers count as one metric; nesting is handled.
_ALIAS = {"numdiff.central_diff2": "numdiff.central_diff"}
_METHODS = (("geometry", "ChartMetric", ("g", "g_inv", "dg", "d2g")),
            ("jacobi", "JacobiMetric", ("clearance", "check_clear", "factor_values")),
            ("dynamics", "MechanicalSystem", ("energy", "acceleration", "grad_potential",
                                              "hess_potential_raised")),
            ("dynamics", "CurveGeometry", ("__init__", "g", "g_inv", "gamma", "riem",
                                           "grad_U", "hess_U_raised", "U")))
_CG_PROPS = tuple(f"dynamics.CurveGeometry.{p}" for p in
                  ("g", "g_inv", "gamma", "riem", "grad_U", "hess_U_raised", "U"))
_FUNCTIONALS = ("variation.second_variation_S", "variation.second_variation_S0J",
                "variation.second_variation_LJ")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.digest()


class RoundStats:
    """Counters of one traced round."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)     # outermost calls of a key only
        self.self_s = defaultdict(float)   # per layer
        self.count = Counter()
        self.keys = defaultdict(set)
        self.depth = Counter()


class Tracer:
    def __init__(self):
        self.spans = []                    # (id, parent, key, start, end, {hot key: [calls, s]})
        self.round = None
        self.rounds = []
        self._frames = [[0.0]]
        self._span_ids = [0]
        self._aggs = [{}]
        self._next = 1
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def begin_round(self):
        self.round = RoundStats()
        self.rounds.append(self.round)

    def end_round(self):
        self.round = None

    def wrap(self, fn, key, layer, hot=False, note=None, post=None):
        """Return ``fn`` traced under ``key``; ``note(stats, bound args,
        result)`` adds counts, ``post(result)`` may replace the result."""
        tr = self
        perf = time.perf_counter
        key = _ALIAS.get(key, key)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tr.round
            if st is None:
                return fn(*args, **kwargs)
            frame = [0.0]
            tr._frames.append(frame)
            if not hot:
                sid, parent = tr._next, tr._span_ids[-1]
                tr._next += 1
                tr._span_ids.append(sid)
                tr._aggs.append({})
            st.depth[key] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                d = t1 - t0
                tr._frames.pop()
                tr._frames[-1][0] += d
                st.self_s[layer] += d - frame[0]
                st.calls[key] += 1
                st.depth[key] -= 1
                if not st.depth[key]:
                    st.incl[key] += d
                if hot:
                    rec = tr._aggs[-1].get(key)
                    if rec is None:
                        tr._aggs[-1][key] = [1, d]
                    else:
                        rec[0] += 1
                        rec[1] += d
                else:
                    tr._span_ids.pop()
                    tr.spans.append((sid, parent, key, t0, t1, tr._aggs.pop()))
            if note:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                note(st, bound.arguments, result)
            return post(result) if post else result

        return traced

    def call(self, key, layer, fn, *args):
        """Run ``fn(*args)`` as a span of the benchmark's own (an operation)."""
        return self.wrap(fn, key, layer)(*args)

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap the traced functions and rebind every reference to them."""
        pkg = [m for name, m in sys.modules.items()
               if name == "jacobistab" or name.startswith("jacobistab.")]
        for short in _TRACED_MODULES:
            mod = importlib.import_module(f"jacobistab.{short}")
            for name, obj in list(vars(mod).items()):
                key = f"{short}.{name}"
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and key not in _PRIVATE:
                    continue
                wrapped = self.wrap(obj, key, short, hot=key in _HOT,
                                    note=_NOTES.get(key), post=self._post(key))
                for m in pkg:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            self._patches.append((m, attr, val))
                            setattr(m, attr, wrapped)
        for short, cls_name, methods in _METHODS:
            cls = getattr(importlib.import_module(f"jacobistab.{short}"), cls_name)
            for meth in methods:
                key = f"{short}.{cls_name}.{meth}"
                orig = cls.__dict__[meth]
                if isinstance(orig, cached_property):
                    new = cached_property(self.wrap(orig.func, key, short))
                    new.__set_name__(cls, meth)
                else:
                    new = self.wrap(orig, key, short, hot=key in _HOT, note=_NOTES.get(key))
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _post(self, key):
        if key != "expressions.compile_expression":
            return None
        return lambda fn: self.wrap(fn, "expressions.eval", "expressions", hot=True)

    # -- output --------------------------------------------------------------

    def write(self, path, meta):
        t0 = self.spans[0][3] if self.spans else 0.0
        payload = {"meta": meta, "columns": ["id", "parent", "name", "start_s", "end_s", "hot"],
                   "spans": [[i, p, k, round(a - t0, 9), round(b - t0, 9), agg]
                             for i, p, k, a, b, agg in sorted(self.spans)]}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


# -- counts noted at call sites ------------------------------------------------

def _note_rk4(st, a, result):
    st.count["rk4.steps"] += int(a["n_steps"])


def _note_newton(st, a, result):
    st.count["newton.steps"] += len(result) - 1
    s = a["sys"]
    st.keys["newton"].add((s.name, s.metric.name, _digest(a["q0"], a["v0"], a["t_span"]),
                           float(a["step"]), float(a["drift_bound"])))


def _note_geodesic(st, a, result):
    st.count["geodesic.steps"] += len(result) - 1


def _note_curve_geometry(st, a, result):
    pts = np.asarray(a["points"], dtype=float)
    st.count["cg.points"] += len(pts)
    sys_ = a["sys"]
    st.keys["cg"].add((a["metric"].name, sys_.name if sys_ is not None else None, _digest(pts)))


def _note_local_derivative(st, a, result):
    st.count["ld.nodes"] += int(np.size(a["x"]))


def _note_functional(name):
    def note(st, a, result):
        st.keys["functionals"].add((name, _digest(a["traj"].points), _digest(a["var"].values)))
    return note


def _note_lemma(st, a, result):
    st.count["lemma.samples"] += int(a["n_samples"])


_NOTES = {
    "dynamics._rk4": _note_rk4,
    "dynamics.integrate_newton": _note_newton,
    "jacobi.integrate_geodesic": _note_geodesic,
    "dynamics.CurveGeometry.__init__": _note_curve_geometry,
    "numdiff.local_derivative": _note_local_derivative,
    "conformal.lemma_residuals": _note_lemma,
    **{k: _note_functional(k) for k in _FUNCTIONALS},
}


# -- per-layer metrics -----------------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def round_metrics(st: RoundStats, cli_commands, verify_checks) -> dict:
    """Per-layer metrics of one traced round, as ``{name: value}``."""
    c, t, n = st.calls, st.incl, st.count
    m = {}
    for cmd in cli_commands:
        m[f"cli.{cmd}.s"] = t[f"cli.{cmd}"]
    for check in verify_checks:
        m[f"verify.{check}.s"] = t[f"verify.{check}"]
    builds = c["dynamics.CurveGeometry.__init__"]
    m.update({
        "dynamics.rk4.steps": n["rk4.steps"],
        "dynamics.integrate_newton.s": t["dynamics.integrate_newton"],
        "dynamics.integrate_newton.us_per_step":
            1e6 * _ratio(t["dynamics.integrate_newton"], n["newton.steps"]),
        "dynamics.integrate_newton.distinct_ratio":
            _ratio(len(st.keys["newton"]), c["dynamics.integrate_newton"]),
        "dynamics.integrate_deviation.s": t["dynamics.integrate_deviation"],
        "dynamics.curve_geometry.builds": builds,
        "dynamics.curve_geometry.points": n["cg.points"],
        "dynamics.curve_geometry.s": sum(t[k] for k in _CG_PROPS),
        "dynamics.curve_geometry.distinct_ratio": _ratio(len(st.keys["cg"]), builds),
        "jacobi.integrate_geodesic.s": t["jacobi.integrate_geodesic"],
        "jacobi.integrate_geodesic.us_per_step":
            1e6 * _ratio(t["jacobi.integrate_geodesic"], n["geodesic.steps"]),
        "jacobi.operator_direct.s": t["jacobi.jacobi_operator_direct"],
        "jacobi.operator_via_g.s": t["jacobi.jacobi_operator_via_g"],
        "jacobi.equal_energy.s": (t["jacobi.equal_energy_projection"]
                                  + t["jacobi.relation_equal_energy"]),
        "jacobi.clearance.calls": c["jacobi.JacobiMetric.clearance"],
        "geometry.christoffel.calls": c["geometry.christoffel"],
        "geometry.christoffel.us_per_call":
            1e6 * _ratio(t["geometry.christoffel"], c["geometry.christoffel"]),
        "geometry.riemann.calls": c["geometry.riemann"],
        "geometry.riemann.us_per_call":
            1e6 * _ratio(t["geometry.riemann"], c["geometry.riemann"]),
        "geometry.g_inv.calls": c["geometry.ChartMetric.g_inv"],
        "geometry.cov_derivative_along.s": t["geometry.cov_derivative_along"],
        "numdiff.local_derivative.calls": c["numdiff.local_derivative"],
        "numdiff.local_derivative.nodes": n["ld.nodes"],
        "numdiff.local_derivative.s": t["numdiff.local_derivative"],
        "numdiff.central_diff.calls": c["numdiff.central_diff"],
        "numdiff.central_diff.s": t["numdiff.central_diff"],
        "variation.functionals.evals": sum(c[k] for k in _FUNCTIONALS),
        "variation.functionals.distinct_ratio":
            _ratio(len(st.keys["functionals"]), sum(c[k] for k in _FUNCTIONALS)),
        "variation.functionals.s": sum(t[k] for k in _FUNCTIONALS),
        "variation.action_oracle.s": t["variation.action_second_difference"],
        "conformal.lemma_residuals.s": t["conformal.lemma_residuals"],
        "conformal.samples": n["lemma.samples"],
        "expressions.evals": c["expressions.eval"],
        "expressions.s": t["expressions.eval"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = st.self_s[layer]
    return m


def metric_units(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".us_per_step") or name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "count"
