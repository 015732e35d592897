"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and never loosened at runtime.
"""

import math

import numpy as np
import pytest

from nclp import cli, selfcheck
from nclp.cpmap import SuperOperator, compatibility
from nclp.embed import build_embedded, exact_norm_p2, upper_bound
from nclp.normest import estimate_norm
from nclp.qubitfamily import (
    alpha,
    alpha1,
    family_witness,
    find_counterexample,
    qubit_map,
    qubit_state,
    theta_thresholds,
)
from nclp.selfcheck import _ginibre, _random_cp_map, _random_state
from nclp.tensor import kron_state, kron_superop, steps_to_exceed

SEED = 0xC0FFEE


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_threshold_reproduction():
    grid_step = 0.01
    failures = []
    for j in range(10):
        p = 1.0 + j * 0.1
        th = theta_thresholds(p)
        for k in range(101):
            theta = k * grid_step
            near_curve = (
                abs(theta - th.theta0) <= grid_step + 1e-12
                or abs(theta - th.theta1) <= grid_step + 1e-12
            )
            if near_curve:
                continue
            expected = theta < th.theta0 or theta > th.theta1
            witness = find_counterexample(p, theta, 1e-6)
            if (witness is not None) != expected:
                failures.append((p, theta, expected))
    _report(
        1,
        not failures,
        f"witness found exactly outside [theta0, theta1] on the 0.01 grid "
        f"(mismatches: {failures[:5]})",
    )


def test_criterion_2_taylor_coefficients():
    rng = np.random.default_rng(SEED)
    step = 1e-4
    worst_rel = 0.0
    worst_form_gap = 0.0
    accepted = 0
    # rejection guard: the relative comparison is ill-posed on alpha's zero set
    while accepted < 20:
        p = float(rng.uniform(1.0 + 1e-6, 2.0 - 1e-6))
        theta = float(rng.uniform(0.0, 1.0))
        a = alpha(p, theta)
        if abs(a) < 0.05:
            continue
        accepted += 1
        up = family_witness(0.5 + step, p, theta).m_value ** p
        down = family_witness(0.5 - step, p, theta).m_value ** p
        second = (up - 2.0 + down) / (2.0 * step * step)
        worst_rel = max(worst_rel, abs(second - a) / abs(a))
        q = p / (p - 1.0)
        th = theta_thresholds(p)
        factored = 8.0 * q * (theta - th.theta0) * (theta - th.theta1)
        worst_form_gap = max(worst_form_gap, abs(factored - a))
    worst_p1 = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0.0, 1.0))
        up = family_witness(0.5 + step, 1.0, theta).m_value
        down = family_witness(0.5 - step, 1.0, theta).m_value
        fd = (up - down) / (2.0 * step)
        worst_p1 = max(worst_p1, abs(fd - alpha1(theta)))
    ok = worst_rel <= 1e-3 and worst_form_gap <= 1e-12 and worst_p1 <= 1e-5
    _report(
        2,
        ok,
        f"second difference vs alpha rel err {worst_rel:.2e} (<= 1e-3), "
        f"alpha forms gap {worst_form_gap:.2e} (<= 1e-12), "
        f"p=1 derivative err {worst_p1:.2e} (<= 1e-5)",
    )


def test_criterion_3_specific_values():
    rng = np.random.default_rng(SEED + 3)
    err_06 = abs(family_witness(0.6, 1.0, 0.0).m_value - 1.224744871)
    err_09 = abs(family_witness(0.9, 1.0, 0.0).m_value - 3.0)
    worst_baseline = 0.0
    for _ in range(20):
        p, theta = float(rng.uniform(1.0, 2.0)), float(rng.uniform(0, 1))
        worst_baseline = max(worst_baseline, abs(family_witness(0.5, p, theta).m_value - 1.0))
    ok = err_06 <= 1e-8 and err_09 <= 1e-10 and worst_baseline <= 1e-14
    _report(
        3,
        ok,
        f"m(0.6,1,0) err {err_06:.2e} (<= 1e-8), m(0.9,1,0) err {err_09:.2e} "
        f"(<= 1e-10), baseline err {worst_baseline:.2e} (<= 1e-14)",
    )


def test_criterion_4_upper_bound_soundness():
    rng = np.random.default_rng(SEED + 4)
    worst = -math.inf
    cases = 0
    missing = []
    for n in (2, 3):
        for _ in range(25):
            t = _random_cp_map(rng, n)
            state = _random_state(rng, n)
            rep = compatibility(t, state)
            combos = [(p, th) for p in (2.0, 2.5, 3.0, 5.0) for th in (0.0, 0.3, 0.7, 1.0)]
            combos += [(1.0, 0.5), (1.3, 0.5), (1.7, 0.5)]
            for p, theta in combos:
                bound = upper_bound(rep, p, theta)
                if bound is None:
                    missing.append((n, p, theta))
                    continue
                emap = build_embedded(t, state, p, theta)
                est = estimate_norm(emap.u_action, p, restarts=2, seed=SEED).value
                worst = max(worst, est - bound[0])
                cases += 1
    _report(
        4,
        not missing and worst <= 1e-8,
        f"estimate - bound max excess {worst:.2e} (<= 1e-8) over {cases} cases, "
        f"{len(missing)} cases without a bound (want 0)",
    )


def test_criterion_5_p2_oracle_equivalence():
    rng = np.random.default_rng(SEED + 5)
    worst_rel = 0.0
    for n in (2, 3):
        for _ in range(25):
            t = SuperOperator(_ginibre(rng, n * n) / n)
            state = _random_state(rng, n)
            emap = build_embedded(t, state, 2.0, float(rng.uniform(0, 1)))
            exact = exact_norm_p2(emap)
            est = estimate_norm(emap.u_action, 2.0, restarts=4, seed=SEED).value
            worst_rel = max(worst_rel, abs(est - exact) / exact)
    worst_family = 0.0
    for _ in range(20):
        c = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(0.0, 1.0))
        emap = build_embedded(qubit_map(c), qubit_state(c), 2.0, theta)
        worst_family = max(
            worst_family,
            abs(exact_norm_p2(emap) - 1.0),
            abs(estimate_norm(emap.u_action, 2.0, restarts=4, seed=SEED).value - 1.0),
        )
    ok = worst_rel <= 1e-6 and worst_family <= 1e-6
    _report(
        5,
        ok,
        f"estimate vs exact rel err {worst_rel:.2e} (<= 1e-6), "
        f"family deviation from 1 {worst_family:.2e} (<= 1e-6)",
    )


def test_criterion_6_kron_lower_bounds():
    rng = np.random.default_rng(SEED + 6)
    worst_gap = -math.inf
    worst_p2 = 0.0
    for _ in range(10):
        c1v = float(rng.uniform(0.15, 0.85))
        c2v = float(rng.uniform(0.15, 0.85))
        theta = float(rng.uniform(0.0, 1.0))
        t1, s1 = qubit_map(c1v), qubit_state(c1v)
        t2, s2 = qubit_map(c2v), qubit_state(c2v)
        tk, sk = kron_superop(t1, t2), kron_state(s1, s2)
        for p in (1.0, 1.5):
            e1 = build_embedded(t1, s1, p, theta)
            e2 = build_embedded(t2, s2, p, theta)
            r1 = estimate_norm(e1.u_action, p, restarts=2, seed=SEED)
            r2 = estimate_norm(e2.u_action, p, restarts=2, seed=SEED)
            big = build_embedded(tk, sk, p, theta)
            est = estimate_norm(
                big.u_action, p, restarts=2, seed=SEED, starts=[np.kron(r1.witness, r2.witness)]
            ).value
            worst_gap = max(worst_gap, r1.value * r2.value - est)
        ep1 = build_embedded(t1, s1, 2.0, theta)
        ep2 = build_embedded(t2, s2, 2.0, theta)
        big2 = build_embedded(tk, sk, 2.0, theta)
        product = exact_norm_p2(ep1) * exact_norm_p2(ep2)
        worst_p2 = max(worst_p2, abs(exact_norm_p2(big2) - product))
    ok = worst_gap <= 1e-6 and worst_p2 <= 1e-10
    _report(
        6,
        ok,
        f"product - kron estimate max gap {worst_gap:.2e} (<= 1e-6), "
        f"p=2 multiplicativity err {worst_p2:.2e} (<= 1e-10)",
    )


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


def test_criterion_9_invariant_suite():
    results = selfcheck.run_all(SEED)
    failures = [r.name for r in results if not r.passed]
    _report(
        9,
        not failures,
        f"{len(results) - len(failures)}/{len(results)} invariant checks passed"
        + (f"; failures: {failures}" if failures else ""),
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
