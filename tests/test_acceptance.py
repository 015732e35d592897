"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2-6 run ``nclp verify`` checks, listed in ``CRITERION_CHECKS``,
at seeds of their own; those checks hold the tolerances and the random draws,
and criterion 9 runs all of them at ``SEED``.  The other tolerances are fixed
here.  None is loosened at runtime.
"""

import json

import pytest

from nclp import cli
from nclp.embed import theta_thresholds
from nclp.qubitfamily import family_max, family_witness
from nclp.selfcheck import (
    check_family_baseline,
    check_kron_lower_bound,
    check_p2_exact_vs_estimate,
    check_p2_multiplicativity,
    check_soundness_vs_upper_bound,
    check_taylor_alpha,
    check_taylor_p1,
)
from nclp.tensor import steps_to_exceed

SEED = 0xC0FFEE

# criterion -> (its checks, how many consecutive seeds from SEED + 1 it runs
# them at).  The counts keep the random cases each criterion drew with loops
# of its own: criterion 4 at 13 x 76 = 988 >= 950 estimates, criterion 5 at
# 5 x 10 = 50 random maps, criterion 6 at 10 x 2 kron pairs and 10 x 6 p = 2
# pairs.
CRITERION_CHECKS = {
    2: ((check_taylor_alpha, check_taylor_p1), 1),
    3: ((check_family_baseline,), 1),
    4: ((check_soundness_vs_upper_bound,), 13),
    5: ((check_p2_exact_vs_estimate,), 5),
    6: ((check_kron_lower_bound, check_p2_multiplicativity), 10),
}


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _report_checks(num: int, ok: bool = True, detail: str = ""):
    """Run criterion ``num``'s checks at its seeds, print each detail and
    report the criterion; ``ok`` and ``detail`` carry its fixed values."""
    checks, count = CRITERION_CHECKS[num]
    failed = []
    for offset in range(1, count + 1):
        for check in checks:
            result = check(SEED + offset)
            print(f"  SEED+{offset} {result.name}: {result.detail}")
            if not result.passed:
                failed.append(f"{result.name} at SEED+{offset}")
    runs = count * len(checks)
    _report(
        num,
        ok and not failed,
        f"{detail}{runs - len(failed)}/{runs} check runs passed at SEED+1..SEED+{count}"
        + (f"; failures: {failed}" if failed else ""),
    )


def test_criterion_1_threshold_reproduction():
    grid_step = 0.01
    failures = []
    for j in range(10):
        p = 1.0 + j * 0.1
        theta0, theta1 = theta_thresholds(p)
        for k in range(101):
            theta = k * grid_step
            near_curve = (
                abs(theta - theta0) <= grid_step + 1e-12
                or abs(theta - theta1) <= grid_step + 1e-12
            )
            if near_curve:
                continue
            expected = theta < theta0 or theta > theta1
            if (family_max(p, theta).m_value > 1.0 + 1e-6) != expected:
                failures.append((p, theta, expected))
    _report(
        1,
        not failures,
        f"witness found exactly outside [theta0, theta1] on the 0.01 grid "
        f"(mismatches: {failures[:5]})",
    )


def test_criterion_2_taylor_coefficients():
    _report_checks(2)


def test_criterion_3_specific_values():
    err_06 = abs(family_witness(0.6, 1.0, 0.0).m_value - 1.224744871)
    err_09 = abs(family_witness(0.9, 1.0, 0.0).m_value - 3.0)
    _report_checks(
        3,
        err_06 <= 1e-8 and err_09 <= 1e-10,
        f"m(0.6,1,0) err {err_06:.2e} (<= 1e-8), m(0.9,1,0) err {err_09:.2e} (<= 1e-10); ",
    )


def test_criterion_4_upper_bound_soundness():
    _report_checks(4)


def test_criterion_5_p2_oracle_equivalence():
    _report_checks(5)


def test_criterion_6_kron_lower_bounds():
    _report_checks(6)


def test_criterion_7_divergence_tables():
    v06 = family_witness(0.6, 1.0, 0.0).m_value
    v09 = family_witness(0.9, 1.0, 0.0).m_value
    n06 = steps_to_exceed(v06, 10.0)
    n09 = steps_to_exceed(v09, 10.0)
    ok = n06 == 12 and n09 == 3
    _report(7, ok, f"first power above 10: c=0.6 at n={n06} (want 12), c=0.9 at n={n09} (want 3)")


def test_criterion_8_phase_diagram_regression(tmp_path):
    args = [
        "phase-diagram",
        "--p-min", "1", "--p-max", "3",
        "--p-step", "0.5", "--theta-step", "0.1",
        "--with-family",
    ]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    table = {}
    for line in out1.read_text().strip().split("\n")[1:]:
        p, theta, status, source, fam = line.split(",")
        table[(round(float(p), 9), round(float(theta), 9))] = (status, source, fam)
    checks = {
        (3.0, 0.9): ("bounded", "Thm41"),
        (1.5, 0.4): ("bounded", "Thm43"),
        (1.5, 0.1): ("unbounded", "Thm61"),
        (1.5, 0.2): ("unknown", "None"),
    }
    mismatches = {
        cell: table[cell][:2] for cell, want in checks.items() if table[cell][:2] != want
    }
    ok = identical and not mismatches
    _report(
        8,
        ok,
        f"CSV byte-identical: {identical}; classification mismatches: {mismatches}",
    )


def test_criterion_9_invariant_suite(tmp_path):
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--seed", str(SEED), "--out", str(out)])
    report = json.loads(out.read_text())
    checks = report["checks"]
    failures = report["failures"]
    _report(
        9,
        code == 0 and report["passed"] is True and len(checks) == 32 and not failures,
        f"exit {code}; {len(checks) - len(failures)}/{len(checks)} invariant checks passed"
        + (f"; failures: {failures}" if failures else ""),
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
