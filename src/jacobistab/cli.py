"""Command-line front end.

Subcommands configure a system (built-in by name, or custom via metric /
potential expression strings), run experiments, verify the identity
suite, and emit CSV / JSON / gnuplot-ready data files.

Exit codes: 0 success, 1 identity failure, 2 configuration or input error
(including values rejected by validation, such as a negative step, and an
output directory that cannot be created or read), 3 numerical failure
(chart exit, forbidden region, energy drift, an expression or one of its
partials undefined at a point), 4 internal error (any other exception,
reported on one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

import numpy as np

from .dynamics import MechanicalSystem, integrate_newton, linearization_against_oracle
from .errors import ConfigError, DegenerateMetricError, GeometryError
from .expressions import metric_from_exprs
from .geometry import validate_metric_at
from .jacobi import (STENCIL_CORE, equal_energy_projection, integrate_geodesic,
                     jacobi_metric, padded_span, relation_equal_energy)
from .systems import (BUILTIN_METRICS, BUILTIN_SYSTEMS, builtin_setup, mechanical_system,
                      metric_by_name)
from .variation import functional_sweep, make_proper_variation
from .verify import DEFAULT_TOLERANCES, operator_identity_sup, run_verification

_METRIC_ENTRY = re.compile(r"^metric\.g\.(\d+)\.(\d+)$")

_SCALAR_KEYS = {
    "system", "metric", "metric.dim", "potential", "energy", "step", "seed",
    "alpha", "out", "variation.modes", "variation.amplitude",
    "variation.count", "drift_bound",
}
_LIST_KEYS = {"q0", "v0", "t_span", "s_span", "dq", "dv", "direction"}
_CUSTOM_KEYS = {"metric", "metric.dim", "potential"}    # and the metric.g.i.j entries


def parse_config_text(text: str) -> dict:
    """Parse a flat ``key = value`` config file with dotted sections."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if (key not in _SCALAR_KEYS and key not in _LIST_KEYS
                and not _METRIC_ENTRY.match(key)
                and not key.startswith("tolerance.")):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _number(text, what):
    """``float(text)``; a config error naming ``what`` unless it is finite."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"{what}: expected a finite number, got {text!r}")
    return value


def _get_float(cfg, key, default=None):
    return default if key not in cfg else _number(cfg[key], key)


def _get_int(cfg, key, default=None):
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from None


def _get_list(cfg, key, default=None):
    if key not in cfg:
        return default
    return np.array([_number(x, key) for x in cfg[key].split(",")])


class Experiment:
    """Resolved configuration: system, initial data, spans and knobs."""

    def __init__(self, cfg: dict, args):
        self.cfg = cfg
        name = cfg.get("system", "flat-harmonic")
        if name == "custom":
            self.sys = self._custom_system(cfg)
            self.q0 = _get_list(cfg, "q0")
            self.v0 = _get_list(cfg, "v0")
            if self.q0 is None or self.v0 is None:
                raise ConfigError("custom systems need q0 and v0")
            self.t_span = tuple(_get_list(cfg, "t_span", np.array([0.0, 1.0])))
            self.step = _get_float(cfg, "step", 1e-3)
        elif name in BUILTIN_SYSTEMS:
            for key in cfg:
                if key in _CUSTOM_KEYS or _METRIC_ENTRY.match(key):
                    raise ConfigError(f"{key}: only for system = custom, not the built-in "
                                      f"system {name!r}")
            su = builtin_setup(name)
            self.sys = su.system
            self.q0 = _get_list(cfg, "q0", su.q0)
            self.v0 = _get_list(cfg, "v0", su.v0)
            self.t_span = tuple(_get_list(cfg, "t_span", np.array(su.t_span)))
            self.step = _get_float(cfg, "step", su.step)
        else:
            raise ConfigError(f"unknown system {name!r} "
                              f"(builtin: {', '.join(BUILTIN_SYSTEMS)}, or 'custom')")
        self.name = name
        if args.step is not None:
            self.step = _number(args.step, "--step")
        self.seed = args.seed if args.seed is not None else _get_int(cfg, "seed", 42)
        self.alpha = _get_float(cfg, "alpha", 1e-4)
        self.drift_bound = _get_float(cfg, "drift_bound", 1e-6)
        self.s_span = _get_list(cfg, "s_span")
        self.direction = _get_list(cfg, "direction")
        self.dq = _get_list(cfg, "dq", np.zeros(self.sys.metric.dim))
        dv_default = np.zeros(self.sys.metric.dim)
        dv_default[0] = 1.0
        self.dv = _get_list(cfg, "dv", dv_default)
        self.var_modes = _get_int(cfg, "variation.modes", 3)
        self.var_amplitude = _get_float(cfg, "variation.amplitude", 1.0)
        self.var_count = _get_int(cfg, "variation.count", 5)

        if self.var_count < 1:
            raise ConfigError(f"variation.count: expected a positive integer, got {self.var_count}")
        if not self.drift_bound > 0.0:
            raise ConfigError(f"drift_bound: expected a positive number, got {self.drift_bound!r}")

        n = self.sys.metric.dim
        for key in ("q0", "v0", "dq", "dv", "direction"):
            value = getattr(self, key)
            if value is not None and len(value) != n:
                raise ConfigError(f"{key}: expected {n} entries, got {len(value)}")
        for key in ("t_span", "s_span"):
            span = getattr(self, key)
            if span is not None and not (len(span) == 2 and span[0] < span[1]):
                raise ConfigError(f"{key}: expected two increasing numbers, "
                                  f"got {cfg[key]!r}")
        if name == "custom":
            try:
                validate_metric_at(self.sys.metric, self.q0)
            except DegenerateMetricError as exc:
                raise ConfigError(str(exc)) from None

        with np.errstate(all="ignore"):
            derived = self.sys.energy(self.q0, self.v0)
        if not np.isfinite(derived):
            raise ConfigError(f"q0, v0: the initial energy is {float(derived)!r}, not finite")
        stated = _get_float(cfg, "energy")
        if stated is not None and abs(stated - derived) > 1e-10:
            raise ConfigError(f"energy = {stated!r} inconsistent with initial "
                              f"conditions (which give {derived!r})")
        self.energy = derived

    @staticmethod
    def _custom_system(cfg) -> MechanicalSystem:
        dim = _get_int(cfg, "metric.dim", 2)
        if dim < 1:
            raise ConfigError(f"metric.dim: expected a positive integer, got {dim}")
        entries = {}
        for key, value in cfg.items():
            m = _METRIC_ENTRY.match(key)
            if m:
                entries[(int(m.group(1)), int(m.group(2)))] = value
        if entries:
            metric = metric_from_exprs(entries, dim)
        else:
            mname = cfg.get("metric", "flat")
            if mname not in BUILTIN_METRICS:
                raise ConfigError(f"unknown metric {mname!r} (choose from {BUILTIN_METRICS})")
            try:
                metric = metric_by_name(mname, dim)
            except ValueError as exc:
                raise ConfigError(f"metric.dim: {exc}") from None
        return mechanical_system(metric, cfg.get("potential", "0"))

    def orbit(self, t_span=None):
        """The configured trajectory, over ``t_span`` if given."""
        return integrate_newton(self.sys, self.q0, self.v0, t_span or self.t_span,
                                self.step, drift_bound=self.drift_bound)


def tolerances(cfg: dict, args) -> dict:
    """:data:`DEFAULT_TOLERANCES` with the config's ``tolerance.NAME`` keys
    and then the ``--tolerance NAME=VALUE`` flags applied."""
    tol = {key.split(".", 1)[1]: _number(cfg[key], key)
           for key in cfg if key.startswith("tolerance.")}
    for item in args.tolerance or []:
        if "=" not in item:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        tol[name.strip()] = _number(value, f"--tolerance {name.strip()}")
    for name in tol:
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r} "
                              f"(known: {', '.join(sorted(DEFAULT_TOLERANCES))})")
    return {**DEFAULT_TOLERANCES, **tol}


def _check_read(cfg: dict, args, needs_system: bool) -> None:
    """Raise a config error naming a key the subcommand does not read:
    ``tolerance.*`` is read where ``--tolerance`` is, any other key where a
    system is built, and ``out`` everywhere; ``system``, which names the
    config's system, is accepted everywhere."""
    for key in cfg:
        if not (hasattr(args, "tolerance") if key.startswith("tolerance.")
                else needs_system or key in ("out", "system")):
            raise ConfigError(f"{key}: not read by {args.command}")


def _write_text_atomic(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, columns) -> None:
    """Write ``(name, values)`` columns as CSV; an ``(N, n)`` array fills the
    columns ``name1..namen``.  Float columns are written with ``%.17g``,
    any other with ``%s``, each row by one format operation."""
    header, cells = [], []
    for name, values in columns:
        values = np.asarray(values)
        if values.ndim == 2:
            header += [f"{name}{i+1}" for i in range(values.shape[1])]
            cells += list(values.T)
        else:
            header.append(name)
            cells.append(values)
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cells)
    lines = [",".join(header)] + [row % r for r in zip(*(c.tolist() for c in cells))]
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _emit(args, out, filename, payload, human: str) -> None:
    """Write ``payload`` as JSON to ``out/filename``, then print that JSON
    (``--json``) or the ``human`` text."""
    text = json.dumps(payload, indent=1, sort_keys=True)
    _write_text_atomic(os.path.join(out, filename), text)
    print(text if args.json else human)


def cmd_simulate(exp: Experiment, args, out) -> int:
    traj = exp.orbit()
    _write_csv(os.path.join(out, "trajectory.csv"),
               [("t", traj.times), ("q", traj.points), ("v", traj.velocities)])
    meta = {"system": exp.name, "seed": exp.seed, "energy": traj.energy, "step": traj.step,
            "energy_drift": traj.energy_drift,
            "t_span": [float(traj.times[0]), float(traj.times[-1])],
            "samples": len(traj), "dim": traj.dim}
    _emit(args, out, "trajectory.json", meta,
          f"simulate: {len(traj)} samples, E = {traj.energy:.12g}, "
          f"relative drift {traj.energy_drift:.3e} -> {out}/trajectory.csv")
    return 0


def cmd_geodesic(exp: Experiment, args, out) -> int:
    jm = jacobi_metric(exp.sys, exp.energy)
    direction = exp.direction if exp.direction is not None else exp.v0
    if exp.s_span is not None:
        s_span = tuple(exp.s_span)
    else:
        s_span = (0.0, float(exp.orbit().geo.s[-1]))
    geo = integrate_geodesic(jm, exp.q0, direction, s_span, exp.step)
    _write_csv(os.path.join(out, "geodesic.csv"),
               [("s", geo.s), ("q", geo.points), ("u", geo.tangents), ("t", geo.t_of_s)])
    meta = {"system": exp.name, "E": exp.energy, "s_span": list(s_span),
            "samples": len(geo), "truncated": geo.truncated}
    _emit(args, out, "geodesic.json", meta,
          f"geodesic: {len(geo)} samples over s in {s_span}, "
          f"truncated={geo.truncated} -> {out}/geodesic.csv")
    return 0


def cmd_deviation(exp: Experiment, args, out) -> int:
    lin, sup = linearization_against_oracle(exp.sys, exp.q0, exp.v0, exp.dq, exp.dv,
                                            exp.alpha, exp.t_span, exp.step, exp.drift_bound)
    traj = lin.trajectory
    _write_csv(os.path.join(out, "deviation.csv"),
               [("t", traj.times), ("q", traj.points), ("v", traj.velocities),
                ("V", lin.V), ("DV", lin.DV)])
    meta = {"system": exp.name, "alpha": exp.alpha, "oracle_sup": sup,
            "samples": len(traj), "seed": exp.seed}
    _emit(args, out, "deviation.json", meta,
          f"deviation: linearized vs brute-force sup = {sup:.3e} -> {out}/deviation.csv")
    return 0


def cmd_compare_operators(exp: Experiment, args, out) -> int:
    tol = tolerances(exp.cfg, args)
    traj = exp.orbit(padded_span(exp.t_span, exp.step))
    rng = np.random.default_rng(exp.seed)
    identity_sup = operator_identity_sup(traj, rng, exp.var_count, exp.var_modes)

    # equal-energy restriction on an orthogonal field
    vperp = make_proper_variation(traj, coefficients=rng.uniform(-1.0, 1.0, (1, traj.dim)),
                                  orthogonal=True)
    rep = relation_equal_energy(traj, equal_energy_projection(traj, vperp.values))
    corr = np.abs(rep["correction"]).max(axis=1)

    lines = ["# t  correction_magnitude"]
    for t, c in zip(traj.times[STENCIL_CORE], corr[STENCIL_CORE]):
        lines.append(f"{t:.17g} {c:.17g}")
    _write_text_atomic(os.path.join(out, "compare_operators.dat"), "\n".join(lines) + "\n")

    payload = {"system": exp.name, "E": exp.energy, "seed": exp.seed,
               "operator_identity_sup": identity_sup,
               "equal_energy_identity_sup": rep["sup_norm"],
               "correction_sup": rep["correction_sup"],
               "constraint_sup": rep["constraint_sup"],
               "fields": exp.var_count, "grid_size": len(traj.times[STENCIL_CORE])}
    ok = (identity_sup < tol["operator-identity"]
          and rep["sup_norm"] < tol["equal-energy-identity"])
    _emit(args, out, "compare_operators.json", payload,
          f"compare-operators[{exp.name}]: identity sup {identity_sup:.3e}, "
          f"equal-energy sup {rep['sup_norm']:.3e}, "
          f"correction sup {rep['correction_sup']:.3e} -> {out}/compare_operators.dat")
    return 0 if ok else 1


_SWEEP_COLUMNS = ("system", "E", "seed", "d2S", "d2S0J", "d2LJ",
                  "thm1_residual", "thm2_residual", "orth_residual")


def cmd_second_variation(exp: Experiment, args, out) -> int:
    reports = functional_sweep(exp.orbit(), exp.var_count, exp.seed, modes=exp.var_modes,
                               amplitude=exp.var_amplitude)
    _write_csv(os.path.join(out, "second_variation.csv"),
               [(c, [getattr(r, c) for r in reports]) for c in _SWEEP_COLUMNS])
    payload = {"system": exp.name, "E": exp.energy, "count": len(reports),
               "max_thm1_residual": max(r.thm1_residual for r in reports),
               "max_thm2_residual": max(r.thm2_residual for r in reports),
               "max_orth_residual": max(r.orth_residual for r in reports)}
    _emit(args, out, "second_variation.json", payload,
          f"second-variation[{exp.name}]: {len(reports)} variations, "
          f"worst residuals thm1 {payload['max_thm1_residual']:.3e} / "
          f"thm2 {payload['max_thm2_residual']:.3e} -> {out}/second_variation.csv")
    return 0


def _verdict_output(args, results, out, filename) -> int:
    width = max(len(r.name) for r in results)
    human = "\n".join(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
                      f"value={r.value:.3e} {r.comparison} tol={r.tolerance:.3e}"
                      for r in results)
    _emit(args, out, filename, [r.to_dict() for r in results], human)
    return 0 if all(r.passed for r in results) else 1


def _verify(cfg, args, out, checks, filename) -> int:
    """Run ``checks`` and grade each record by the tolerance of its key."""
    tol = tolerances(cfg, args)
    results = run_verification(fault=args.inject_fault, checks=checks)
    for r in results:
        r.tolerance = tol[r.key]
    return _verdict_output(args, results, out, filename)


def cmd_verify_lemmas(cfg, args, out) -> int:
    return _verify(cfg, args, out, ["lemmas"], "verify_lemmas.json")


def cmd_verify_all(cfg, args, out) -> int:
    return _verify(cfg, args, out, args.checks.split(",") if args.checks else None,
                   "verify_all.json")


def cmd_report(cfg, args, out) -> int:
    rows = []
    for name in sorted(os.listdir(out)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(out, name)) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed report {name}: {exc}") from None
        records = data if isinstance(data, list) else [data]
        if not all(isinstance(rec, dict) for rec in records):
            raise ConfigError(f"malformed report {name}: expected an object or a list of objects")
        if isinstance(data, list):
            for rec in data:
                if "identity" in rec:
                    rows.append((name, rec["identity"],
                                 "PASS" if rec.get("passed") else "FAIL",
                                 rec.get("value")))
        else:
            summary = {k: v for k, v in data.items()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)}
            rows.append((name, data.get("system", ""), "", summary))
    if args.json:
        print(json.dumps([{"file": f, "item": i, "state": s, "value": v}
                          for f, i, s, v in rows], indent=1, default=str))
    else:
        if not rows:
            print(f"no JSON reports found in {out}")
        for f, item, state, value in rows:
            print(f"{f:<28} {str(item):<32} {state:<5} {value}")
    return 0


_COMMANDS = {
    "simulate": (cmd_simulate, True),
    "geodesic": (cmd_geodesic, True),
    "deviation": (cmd_deviation, True),
    "compare-operators": (cmd_compare_operators, True),
    "second-variation": (cmd_second_variation, True),
    "verify-lemmas": (cmd_verify_lemmas, False),
    "verify-all": (cmd_verify_all, False),
    "report": (cmd_report, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobistab",
        description="Trajectory stability vs Jacobi-metric geodesic stability.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_system) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file (key = value lines)")
        if needs_system:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--step", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--json", action="store_true",
                       help="machine-readable stdout")
        if name in ("compare-operators", "verify-lemmas", "verify-all"):
            p.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                           help="override a verification tolerance")
        if name == "verify-all":
            p.add_argument("--checks", default=None, help="comma-separated subset of checks")
        if name in ("verify-all", "verify-lemmas"):
            p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn, needs_system = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config) if args.config else {}
        _check_read(cfg, args, needs_system)
        setting = Experiment(cfg, args) if needs_system else cfg
        out = args.out or cfg.get("out") or "."
        if fn is not cmd_report:        # report reads a directory that must exist
            os.makedirs(out, exist_ok=True)
        return fn(setting, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
