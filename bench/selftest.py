#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each one rejects a corrupted output.

    python3 bench/selftest.py

Runs one round of every workload (seed 1), shows that every check passes
on the program's outputs, then corrupts one output at a time (a CSV column
shifted by 1e-6, swapped d2S/d2LJ columns, a lemma suite run with
``fault="lemma3-sign"``, ...) and shows that the check aimed at it fails.
It also checks that ``BENCHMARK.json`` lists exactly the metrics the
benchmark prints.  Exits 1 if a check passes a corrupted output.
"""

import copy
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import RoundStats, round_metrics  # noqa: E402


def passes(rows):
    return all(value <= limit for _, value, limit in rows)


class Editor:
    """Edits one output CSV in place and puts it back afterwards."""

    def __init__(self, path):
        self.path = path
        self.original = Path(path).read_text()

    def columns(self, fn):
        reader = csv.reader(io.StringIO(self.original))
        header = next(reader)
        rows = [list(r) for r in reader]
        fn(header, rows)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header] + rows)
        Path(self.path).write_text(out.getvalue())

    def restore(self):
        Path(self.path).write_text(self.original)


def shift(name, by):
    def fn(header, rows):
        i = header.index(name)
        for r in rows:
            r[i] = repr(float(r[i]) + by)
    return fn


def scale(names, by):
    def fn(header, rows):
        for name in names:
            i = header.index(name)
            for r in rows:
                r[i] = repr(float(r[i]) * by)
    return fn


def swap(a, b):
    def fn(header, rows):
        i, j = header.index(a), header.index(b)
        for r in rows:
            r[i], r[j] = r[j], r[i]
    return fn


def drop_last(header, rows):
    rows.pop()


def case_corruptions(case):
    """(check, description, file, edit) for one CLI case."""
    n = case.chart.dim
    out = [
        (checks.trajectory_reference, "trajectory.csv q1 + 1e-6", "trajectory.csv",
         shift("q1", 1e-6)),
        (checks.conservation, f"trajectory.csv v{n} + 1e-6", "trajectory.csv",
         shift(f"v{n}", 1e-6)),
        (checks.geodesic_speed, "geodesic.csv u * (1 + 1e-6)", "geodesic.csv",
         scale([f"u{i + 1}" for i in range(n)], 1 + 1e-6)),
        (checks.geodesic_maupertuis, "geodesic.csv q1 + 1e-6", "geodesic.csv",
         shift("q1", 1e-6)),
        (checks.deviation_reference, "deviation.csv V1 + 1e-6", "deviation.csv",
         shift("V1", 1e-6)),
        (checks.deviation_reference, "deviation.csv DV1 + 1e-6", "deviation.csv",
         shift("DV1", 1e-6)),
        (checks.second_variation_order, "second_variation.csv d2S <-> d2LJ",
         "second_variation.csv", swap("d2S", "d2LJ")),
    ]
    if case.label == "custom-sphere-cos":
        out.append((checks.custom_matches_builtin, "trajectory.csv q2 + 1e-6",
                    "trajectory.csv", shift("q2", 1e-6)))
    return out


def selftest_cli(name, lines):
    wl = workloads.build(name, 1, str(ROOT / ".bench_runs" / f"selftest-{name}-{os.getpid()}"))
    try:
        _, results = run.run_round(wl, wl.workdir)
        bad = [r for r in results.values() if r.failed and not run.known_fault(r)]
        lines.append((f"{name}: no unexpected failures", not bad))
        for case in wl.cases:
            by_cmd = {op: r for (label, op), r in results.items() if label == case.label}
            outputs = checks.CaseOutputs(case, os.path.join(wl.workdir, case.label), by_cmd)
            for fn in checks.case_checks(case):
                lines.append((f"{case.label}: {fn.__name__} passes the program's output",
                              passes(fn(outputs))))
            for fn, what, fname, edit in case_corruptions(case):
                ed = Editor(os.path.join(outputs.dir, fname))
                ed.columns(edit)
                try:
                    rejected = not passes(checks.measure(fn, outputs))
                finally:
                    ed.restore()
                lines.append((f"{case.label}: {fn.__name__} rejects {what}", rejected))
            ed = Editor(os.path.join(outputs.dir, "compare_operators.dat"))
            ed.columns(drop_last)
            try:
                rejected = not passes(checks.compare_operators_outcome(outputs))
            finally:
                ed.restore()
            lines.append((f"{case.label}: compare_operators_outcome rejects a lost .dat row",
                          rejected))
            for key, value in (("operator_identity_sup", 2e-6), ("correction_sup", 1e-3)):
                saved = by_cmd["compare-operators"]
                bent = copy.deepcopy(saved)
                bent.payload["json"][key] = value
                outputs.results["compare-operators"] = bent
                rejected = not passes(checks.compare_operators_outcome(outputs))
                if key == "operator_identity_sup":
                    bent.payload["code"] = 1
                    rejected = rejected and not run.known_fault(bent)
                outputs.results["compare-operators"] = saved
                lines.append((f"{case.label}: compare-operators with {key} = {value} is "
                              "rejected (and not taken for the known fault)", rejected))
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def selftest_verify(lines):
    from jacobistab.verify import check_lemma_suite

    wl = workloads.build("verify-all", 1, str(ROOT / ".bench_runs"))
    _, results = run.run_round(wl, wl.workdir)
    for fn in checks.VERIFY_CHECKS:
        lines.append((f"verify-all: {fn.__name__} passes the program's output", passes(fn(results))))

    faulty = dict(results)
    key = ("", "lemmas")
    bent = copy.copy(results[key])
    bent.payload = check_lemma_suite(n_samples=workloads.VERIFY_SIZES["lemma_samples"],
                                     fault="lemma3-sign")
    faulty[key] = bent
    lines.append(("verify-all: verify_passed rejects lemmas with fault lemma3-sign",
                  not passes(checks.verify_passed(faulty))))

    def bend(identity, change):
        bent_results = copy.deepcopy(results)
        for r in bent_results.values():
            for c in r.payload:
                if c.name == identity:
                    change(c)
        return bent_results

    moved = bend("conjugate-point-arc", lambda c: c.detail.update(
        first_zero=c.detail["first_zero"] + 2e-3))
    lines.append(("verify-all: conjugate_point rejects a first zero moved by 2e-3",
                  not passes(checks.conjugate_point(moved))))
    off = bend("equal-energy-correction", lambda c: setattr(c, "value", c.value * (1 + 1e-5)))
    lines.append(("verify-all: harmonic_correction rejects a correction of 2(1 + 1e-5)",
                  not passes(checks.harmonic_correction(off))))


def selftest_metric_names(lines):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = list(round_metrics(RoundStats(), workloads.CLI_COMMANDS,
                                   workloads.VERIFY_CHECKS)) + ["trace.overhead_ratio"]
    lines.append(("BENCHMARK.json per_layer names are the traced run's metrics",
                  [m["name"] for m in bench["per_layer"]] == per_layer))
    lines.append(("BENCHMARK.json end_to_end names are the untraced run's metrics",
                  [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)))
    lines.append(("BENCHMARK.json workloads are the benchmark's workloads",
                  [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)))


def main():
    lines = []
    selftest_metric_names(lines)
    selftest_verify(lines)
    for name in ("long-orbit", "custom-chart"):
        selftest_cli(name, lines)
    for what, ok in lines:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    bad = sum(not ok for _, ok in lines)
    print(f"{len(lines) - bad} of {len(lines)} self-test lines hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
