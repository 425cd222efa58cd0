"""Acceptance gate: the thirteen battery criteria, each with its runtime
budget, plus the cross-process byte-determinism check.  One summary line
per criterion lands in the terminal summary via conftest."""

import json
import subprocess
import sys
import time

import pytest

from nctorus import matrep, suite

from conftest import CRITERION_LINES

SEED = 42

BUDGETS = {
    1: 1.0, 2: 10.0, 3: 5.0, 4: 30.0, 5: 5.0, 6: 10.0, 7: 20.0,
    8: 60.0, 9: 60.0, 10: 30.0, 11: 20.0, 12: 20.0, 13: 300.0,
}


def run_and_record(index: int) -> dict:
    start = time.monotonic()
    report = suite.run_criterion(index, SEED)
    elapsed = time.monotonic() - start
    verdict = "PASS" if report["pass"] else "FAIL"
    # residuals carry different units, so rank checks by residual / tol
    closest = max(report["checks"], key=lambda c: c["residual"] / c["tol"], default=None)
    headroom = ("no checks" if closest is None else
                f"closest to tol: {closest['name']} at "
                f"{closest['residual'] / closest['tol']:.2e} of tol")
    CRITERION_LINES.append(
        f"criterion {index:2d} {report['name']:<33} {verdict}"
        f"  {headroom}  ({elapsed:.2f}s)")
    failed = [c for c in report["checks"] if not c["pass"]]
    assert report["pass"], f"failed checks: {failed}"
    assert elapsed < BUDGETS[index], (
        f"criterion {index} took {elapsed:.1f}s, budget {BUDGETS[index]}s")
    return report


def test_criterion_01_q_relation():
    report = run_and_record(1)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["uv_coefficient_exact"]["tol"] <= 1e-14


def test_criterion_02_algebra_laws():
    run_and_record(2)


def test_criterion_03_derivation_classification():
    run_and_record(3)


def test_criterion_04_matrix_realization():
    run_and_record(4)


def test_criterion_05_noncommutative_circle():
    run_and_record(5)


def test_criterion_05_fails_on_a_wrong_z_power(monkeypatch):
    # N = 1 fibers are 1 x 1 and commute whatever circle_eval computes, so
    # the check compares Z (2 + Z^2) with the evaluation of 2 Z + Z^3
    right = matrep.circle_eval
    monkeypatch.setattr(matrep, "circle_eval", lambda coeffs, spec, z: right(
        {(j + 1, s, t): c for (j, s, t), c in coeffs.items()}, spec, z))
    report = suite.run_criterion(5, SEED)
    assert not report["pass"]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["N1_homomorphism"]


def test_criterion_06_weyl_relations():
    run_and_record(6)


def test_criterion_07_lattice_measure_representation():
    run_and_record(7)


def test_criterion_08_twisted_convolutions():
    run_and_record(8)


def test_criterion_09_moyal_series():
    run_and_record(9)


def test_criterion_10_inner_generator():
    run_and_record(10)


def test_criterion_11_gns_construction():
    run_and_record(11)


def test_criterion_12_hbar_smoothness():
    run_and_record(12)


def test_criterion_13_determinism():
    run_and_record(13)


def test_suite_deterministic_across_processes():
    # the real byte-level guarantee: two OS processes, identical stdout
    start = time.monotonic()
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "nctorus.cli", "suite", "--seed", str(SEED)],
            capture_output=True, timeout=290)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    elapsed = time.monotonic() - start
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["pass"] is True
    assert len(report["criteria"]) == 13
    assert elapsed < BUDGETS[13], f"two suite runs took {elapsed:.0f}s"
    CRITERION_LINES.append(
        f"cross-process determinism (two processes)      PASS"
        f"  {len(outputs[0])} bytes identical  ({elapsed:.2f}s)")


def test_full_suite_report_shape():
    report = suite.run_suite(SEED)
    assert report["seed"] == SEED
    assert report["pass"] is True
    names = [c["name"] for c in report["criteria"]]
    assert names == [name for _, name, _ in suite.CRITERIA]
    text = suite.report_to_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == report
