"""The three benchmark workloads and the operations that make up one round.

An operation is one ``verify`` check, called through the check function of
``jacobistab.verify``, or one CLI subcommand run in-process through
``jacobistab.cli.main``.  A round runs every operation of a workload once,
in a fixed order, on inputs built once from the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

CLI_COMMANDS = ("simulate", "geodesic", "deviation", "compare-operators",
                "second-variation")
VERIFY_CHECKS = ("lemmas", "roundtrip", "operator-identity", "equal-energy",
                 "theorems", "conjugate-point", "linearization", "energy-drift",
                 "action-consistency")

# compare-operators runs on a pinned config and seed: its outcome sits on the
# equal-energy end-of-grid fault, so it must not depend on the workload seed.
PINNED_SEED = 42

# verify-all: the nine checks on two of the six built-in systems, with the
# check functions' own size arguments reduced, so that a run fits two rounds.
VERIFY_SYSTEMS = ("uniform-gravity", "sphere-cos")
VERIFY_SIZES = {"lemma_samples": 20, "operator_fields": 5, "theorem_variations": 3}


@dataclass(frozen=True)
class Chart:
    """A system written out independently of the program: metric entries
    and potential as expression strings over ``q1..qn``, plus the index of
    one cyclic coordinate (neither g nor U depends on it)."""

    dim: int
    metric: dict          # {(i, j): expr}, 1-based, upper triangle
    potential: str
    cyclic: int           # 0-based


SPHERE_COS = Chart(dim=2, metric={(1, 1): "1", (2, 2): "sin(q1)^2"},
                   potential="cos(q1)", cyclic=1)

# A three-dimensional chart with an off-diagonal entry and a potential; q3 is
# cyclic.  At step 2e-3 its operator identity holds with margin 10x.
CHART3 = Chart(dim=3,
               metric={(1, 1): "1 + 0.1*sin(q2)^2", (2, 2): "1 + 0.05*q1^2",
                       (3, 3): "1 + 0.3*sin(q1)^2", (1, 3): "0.05*cos(q2)"},
               potential="0.1*q1^2 + 0.1*q2^2", cyclic=2)


@dataclass(frozen=True)
class Case:
    """One system config run through the five CLI subcommands."""

    label: str
    chart: Chart
    system: str           # built-in name, or "custom"
    q0: tuple
    v0: tuple
    t_span: tuple
    step: float
    shift: float          # seed-drawn offset of the cyclic coordinate

    def q0_shifted(self):
        q = list(self.q0)
        q[self.chart.cyclic] += self.shift
        return tuple(q)

    def config_text(self, pinned: bool) -> str:
        q0 = self.q0 if pinned else self.q0_shifted()
        lines = [f"system = {self.system}"]
        if self.system == "custom":
            lines.append(f"metric.dim = {self.chart.dim}")
            for (i, j), expr in sorted(self.chart.metric.items()):
                if expr != "1" or i != j:
                    lines.append(f"metric.g.{i}.{j} = {expr}")
            lines.append(f"potential = {self.chart.potential}")
        lines += [f"q0 = {', '.join(repr(float(x)) for x in q0)}",
                  f"v0 = {', '.join(repr(float(x)) for x in self.v0)}",
                  f"t_span = {self.t_span[0]!r}, {self.t_span[1]!r}",
                  f"step = {self.step!r}"]
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One operation of a round."""

    name: str                 # e.g. "simulate" or "operator-identity"
    case: object = None       # Case for CLI operations
    argv: list = None
    call: object = None       # verify check callable


@dataclass
class OpResult:
    name: str
    case: str
    seconds: float
    failed: bool
    payload: object = None    # CheckResult list, or exit code + JSON outputs
    error: str = ""


@dataclass
class Workload:
    name: str
    workdir: str
    ops: list = field(default_factory=list)
    cases: list = field(default_factory=list)


def _shift(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _cases(name: str, seed: int):
    rng = np.random.default_rng(seed)
    half_pi = math.pi / 2.0
    if name == "long-orbit":
        return [Case("sphere-cos", SPHERE_COS, "sphere-cos", (half_pi, 0.0), (0.0, 1.0),
                     (0.0, 5.0), 1e-3, _shift(rng))]
    if name == "custom-chart":
        return [Case("custom-sphere-cos", SPHERE_COS, "custom", (half_pi, 0.0), (0.0, 1.0),
                     (0.0, 2.0), 2e-3, _shift(rng)),
                Case("chart3", CHART3, "custom", (0.5, 0.0, 0.0), (0.0, 0.8, 0.6),
                     (0.0, 1.0), 2e-3, _shift(rng))]
    raise ValueError(f"unknown workload {name!r}")


def _verify_ops():
    from jacobistab import verify as v

    S = VERIFY_SYSTEMS
    sz = VERIFY_SIZES
    calls = {
        "lemmas": lambda: v.check_lemma_suite(n_samples=sz["lemma_samples"]),
        "roundtrip": lambda: v.check_roundtrip(),
        "operator-identity": lambda: v.check_operator_identity(
            n_fields=sz["operator_fields"], system_names=S),
        "equal-energy": lambda: v.check_equal_energy(),
        "theorems": lambda: v.check_theorems(
            n_variations=sz["theorem_variations"], system_names=S)[0],
        "conjugate-point": lambda: v.check_conjugate_point(),
        "linearization": lambda: v.check_linearization(system_names=S),
        "energy-drift": lambda: v.check_energy_drift(system_names=S),
        "action-consistency": lambda: v.check_action_consistency(system_names=S),
    }
    return [Op(name, call=calls[name]) for name in VERIFY_CHECKS]


WORKLOADS = ("verify-all", "long-orbit", "custom-chart")


def build(name: str, seed: int, workdir: str) -> Workload:
    """Build a workload's inputs: config files on disk and the op list.
    Each CLI operation's ``--out`` is the round's directory, given to
    :func:`run_op`."""
    wl = Workload(name, workdir)
    if name == "verify-all":
        wl.ops = _verify_ops()
        return wl
    wl.cases = _cases(name, seed)
    for case in wl.cases:
        out = os.path.join(workdir, case.label)
        os.makedirs(out, exist_ok=True)
        cfg = os.path.join(out, "seeded.cfg")
        pinned = os.path.join(out, "pinned.cfg")
        with open(cfg, "w") as fh:
            fh.write(case.config_text(pinned=False))
        with open(pinned, "w") as fh:
            fh.write(case.config_text(pinned=True))
        for cmd in CLI_COMMANDS:
            if cmd == "compare-operators":
                argv = [cmd, "--config", pinned, "--seed", str(PINNED_SEED)]
            else:
                argv = [cmd, "--config", cfg, "--seed", str(seed)]
            wl.ops.append(Op(cmd, case=case, argv=argv))
    return wl


_OUTPUT_JSON = {"simulate": "trajectory.json", "geodesic": "geodesic.json",
                "deviation": "deviation.json", "compare-operators": "compare_operators.json",
                "second-variation": "second_variation.json"}


def run_op(op: Op, outdir: str) -> OpResult:
    """Run one operation and time it; output checks happen elsewhere.  A CLI
    operation writes into ``outdir/<case label>``."""
    from jacobistab import cli

    label = op.case.label if op.case else ""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.call:
                out = op.call()
            else:
                out = cli.main(op.argv + ["--out", os.path.join(outdir, label)])
    except Exception:
        return OpResult(op.name, label, time.perf_counter() - t0, True,
                        error=traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    if op.call:
        return OpResult(op.name, label, seconds, not all(r.passed for r in out), out)
    path = os.path.join(outdir, label, _OUTPUT_JSON[op.name])
    with open(path) as fh:
        data = json.load(fh)
    return OpResult(op.name, label, seconds, out != 0, {"code": out, "json": data},
                    error=sink.getvalue()[-500:] if out != 0 else "")


def residual_margin(name: str, results) -> float:
    """Worst ``value / tolerance`` over the identities a round reports."""
    from jacobistab.verify import DEFAULT_TOLERANCES as TOL

    worst = 0.0
    for r in results:
        if name == "verify-all":
            for c in r.payload or []:
                if c.comparison == "<":
                    worst = max(worst, c.value / c.tolerance)
            continue
        if r.payload is None:
            continue
        data = r.payload["json"]
        terms = {
            "simulate": [("energy_drift", "energy-drift")],
            "deviation": [("oracle_sup", "linearization")],
            # equal_energy_identity_sup is left out while its end-of-grid
            # fault stands, so that mending it cannot read as a loss.
            "compare-operators": [("operator_identity_sup", "operator-identity")],
            "second-variation": [("max_thm1_residual", "theorem1"),
                                 ("max_thm2_residual", "theorem2"),
                                 ("max_orth_residual", "orthogonal-identity")],
        }.get(r.name, [])
        for key, tol in terms:
            worst = max(worst, float(data[key]) / TOL[tol])
    return worst
