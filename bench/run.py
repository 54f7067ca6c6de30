#!/usr/bin/env python3
"""Benchmark of jacobistab: one workload per process, one thread.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 27 --trace 0

Runs a fixed number of whole rounds of the workload's operations, one round
per ``ROUND_SECONDS[workload]`` of ``--seconds`` (at least one), checks the
program's outputs, and prints every metric by name with its unit, then one JSON line
as the last line of stdout: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run makes one untraced round, then the rest of its rounds
traced, and the metrics are the per-layer ones plus the tracing overhead.
A record of the run (provenance, per-round times, check measurements) is
written under ``.bench_runs/`` in the checkout, and the spans of a traced
run next to it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy is first imported, here and in the set-up interpreters.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "residual_margin": "ratio"}
# Seconds of --seconds per round: about one round's time on the reference
# host.  The round count follows from --seconds alone, never from elapsed
# time, so that every run of a workload makes the same rounds and min-of-k
# compares the same statistic on any code.
ROUND_SECONDS = {"verify-all": 9.0, "long-orbit": 9.0, "custom-chart": 6.5}

# The set-up as a fresh interpreter runs it, timed from before the jacobistab
# import to the built inputs, as main() times its own.
COLD_SETUP = """import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import jacobistab.cli, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-all", "long-orbit", "custom-chart"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(args) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(), "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _commit():
    """HEAD of the checkout's git directory, if it has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cold_setup(args, workdir) -> float:
    """Seconds of one more cold set-up, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", COLD_SETUP, str(BENCH), str(ROOT / "src"),
                           args.workload, str(args.seed), workdir],
                          capture_output=True, text=True, timeout=120, check=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return float(proc.stdout)


def run_round(wl, outdir, tracer=None):
    from workloads import run_op

    results = {}
    t0 = time.perf_counter()
    for op in wl.ops:
        if tracer is None:
            r = run_op(op, outdir)
        else:
            layer = "cli" if op.case else "verify"
            r = tracer.call(f"{layer}.{op.name}", layer, run_op, op, outdir)
        results[(r.case, r.name)] = r
    return time.perf_counter() - t0, results


def fingerprint(results) -> list:
    """What a round computed, to compare rounds with each other."""
    out = []
    for (case, name), r in results.items():
        if r.payload is None:
            out.append((case, name, r.error.splitlines()[-1:] if r.error else None))
        elif isinstance(r.payload, list):
            out.append((case, name, [(c.name, c.value) for c in r.payload]))
        else:
            out.append((case, name, r.payload["code"],
                        json.dumps(r.payload["json"], sort_keys=True)))
    return out


def known_fault(r) -> bool:
    """The equal-energy end-of-grid fault: compare-operators exits 1 with the
    operator identity holding and only the equal-energy identity over its
    tolerance."""
    from jacobistab.verify import DEFAULT_TOLERANCES as TOL

    if r.name != "compare-operators" or r.payload is None or r.payload["code"] != 1:
        return False
    d = r.payload["json"]
    return (d["equal_energy_identity_sup"] >= TOL["equal-energy-identity"]
            and d["operator_identity_sup"] < TOL["operator-identity"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jacobistab" / "__init__.py").is_file():
        print(f"error: no jacobistab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ROOT / ".bench_runs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = runs / f"{tag}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        sys.path[:0] = [str(BENCH), str(ROOT / "src")]
        import jacobistab.cli  # noqa: F401  (imports the whole package)
        import workloads

        wl = workloads.build(args.workload, args.seed, str(workdir))
        setup_s = time.perf_counter() - t0
        return measure(args, wl, setup_s, runs, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup_s, runs, tag) -> int:
    import checks
    import workloads
    from tracer import Tracer, metric_units, round_metrics

    n_rounds = max(1, int(args.seconds / ROUND_SECONDS[args.workload]))
    n_plain = 1 if args.trace else n_rounds
    plain, traced, rounds = [], [], []
    tracer = None

    def one_round(tracer=None):
        # Each round writes into a fresh directory: replacing an existing
        # file makes ext4 flush the new one to disk (tens of ms per file),
        # which would time the disk rather than the program.
        outdir = os.path.join(wl.workdir, f"round{len(rounds)}")
        if rounds:
            shutil.rmtree(os.path.join(wl.workdir, f"round{len(rounds) - 1}"),
                          ignore_errors=True)
        wall, results = run_round(wl, outdir, tracer)
        rounds.append(results)
        return wall, outdir

    # setup_s is min-of-k too: this process's own cold set-up and one in a
    # fresh interpreter after each untraced round, so that the samples fall
    # in different spells of the host's speed.
    setups = [setup_s]
    for _ in range(n_plain):
        wall, outdir = one_round()
        plain.append(wall)
        if not args.trace:
            setups.append(cold_setup(args, os.path.join(wl.workdir, f"setup{len(setups)}")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for _ in range(max(1, n_rounds - 1)):
            tracer.begin_round()
            wall, outdir = one_round(tracer)
            tracer.end_round()
            traced.append(wall)
        tracer.uninstall()

    untraced = rounds[:len(plain)]
    op_seconds = {key: [res[key].seconds for res in untraced] for key in untraced[0]}
    last = rounds[-1]
    all_ops = [r for res in rounds for r in res.values()]
    failed = [r for r in all_ops if r.failed]
    known = sum(known_fault(r) for r in failed)
    unexpected = [f"{r.case}/{r.name}: {r.error.strip() or 'identity failure'}"
                  for r in failed if not known_fault(r)]
    prints = [fingerprint(res) for res in rounds]
    if any(p != prints[0] for p in prints[1:]):
        unexpected.append("rounds disagree: the same inputs gave different outputs")
    report = checks.run_checks(wl, last, outdir)
    problems = unexpected + checks.failures(report)
    correct = not problems

    if args.trace:
        per_round = [round_metrics(st, workloads.CLI_COMMANDS, workloads.VERIFY_CHECKS)
                     for st in tracer.rounds]
        values = {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
        metrics = {k: {"value": v, "unit": "ratio" if k.startswith("trace.")
                       else metric_units(k)} for k, v in values.items()}
    else:
        # min-of-k: each operation's fastest untraced round, summed
        values = {"setup_s": min(setups), "wall_s": sum(min(v) for v in op_seconds.values()),
                  "peak_rss_mb": peak_rss_mb,
                  "residual_margin": workloads.residual_margin(wl.name, last.values())}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    record = {"provenance": provenance(args), "setup_samples_s": setups,
              "rounds_untraced_s": plain,
              "rounds_traced_s": traced,
              "op_seconds_untraced": {f"{c}/{n}": v for (c, n), v in op_seconds.items()},
              "failed_ops_last_round": [f"{c}/{n}" for (c, n), r in last.items() if r.failed],
              "checks": report, "problems": problems, "metrics": metrics}
    runs.mkdir(exist_ok=True)
    with open(runs / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(runs / f"{tag}-spans.json.gz", record["provenance"])

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"# {wl.name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"rounds, {len(all_ops)} operations, {len(failed)} failed "
          f"({known} from the equal-energy fault)")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
