"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion.  Tolerances
come from the package's verification defaults and are not relaxed here.
"""

import json
import pathlib
import time

import pytest

from jacobistab.verify import (DEFAULT_TOLERANCES, check_action_consistency,
                               check_conjugate_point, check_energy_drift,
                               check_equal_energy, check_lemma_suite,
                               check_linearization, check_operator_identity,
                               check_roundtrip, check_theorems)


# Residuals of the full-size checks as first recorded; a change to the code
# may leave each "<" residual where it is or lower it, never raise it.
RECORDED = json.loads((pathlib.Path(__file__).parent / "data" / "verify_residuals.json")
                      .read_text())


def _report(criterion, results, elapsed=None, budget=None):
    for r in results:
        if r.comparison == "<":
            assert r.value <= RECORDED[r.name] + 1e-12, (
                f"{r.name} = {r.value!r} is above its recorded {RECORDED[r.name]!r}")
    ok = all(r.passed for r in results)
    timing = ""
    if elapsed is not None:
        timing = f", {elapsed:.1f}s" + (f" < {budget:.0f}s" if budget else "")
        if budget is not None:
            ok = ok and elapsed < budget
    worst = "; ".join(f"{r.name}={r.value:.3e}{r.comparison}{r.tolerance:.0e}"
                      for r in results)
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {worst}{timing}")
    return ok


def test_criterion_1_lemma_residual_suite():
    t0 = time.perf_counter()
    results = check_lemma_suite()
    elapsed = time.perf_counter() - t0
    ok = _report("1 [rescaling formulas]", results, elapsed, budget=10.0)
    assert ok


def test_criterion_2_maupertuis_roundtrip():
    t0 = time.perf_counter()
    results = check_roundtrip()
    elapsed = time.perf_counter() - t0
    ok = _report("2 [roundtrip]", results, elapsed, budget=5.0)
    assert ok


def test_criterion_3_operator_identity():
    results = check_operator_identity(n_fields=20)
    assert _report("3 [operator identity]", results)


def test_criterion_4_equal_energy_restriction():
    results = check_equal_energy()
    ok = _report("4 [equal-energy identity + nonzero correction]", results)
    by_name = {r.name: r for r in results}
    assert by_name["equal-energy-constraint"].value < DEFAULT_TOLERANCES["equal-energy-constraint"]
    assert by_name["equal-energy-identity"].value < DEFAULT_TOLERANCES["equal-energy-identity"]
    assert by_name["equal-energy-correction"].value > DEFAULT_TOLERANCES["equal-energy-correction-min"]
    assert ok


@pytest.fixture(scope="module")
def theorem_results():
    return check_theorems(n_variations=10)


def test_criterion_5_theorem_identities(theorem_results):
    results, _ = theorem_results
    subset = [r for r in results if r.name in ("theorem1", "theorem2",
                                               "theorem2-integrand")]
    assert _report("5 [functional identities]", subset)


def test_criterion_6_orthogonal_identity(theorem_results):
    results, _ = theorem_results
    subset = [r for r in results if r.name == "orthogonal-identity"]
    assert subset
    assert _report("6 [orthogonal identity]", subset)


def test_criterion_7_conjugate_point():
    results = check_conjugate_point()
    assert _report("7 [conjugate point]", results)


def test_criterion_8_linearization_oracle():
    results = check_linearization()
    assert _report("8 [linearization oracle]", results)


def test_criterion_9_energy_conservation():
    results = check_energy_drift()
    assert _report("9 [energy conservation]", results)


def test_criterion_10_action_consistency():
    results = check_action_consistency()
    assert _report("10 [quadrature vs action difference]", results)
