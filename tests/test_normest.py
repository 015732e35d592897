import math

import numpy as np
import pytest

from nclp.cpmap import State, SuperOperator
from nclp.embed import build_embedded, exact_norm_p2
from nclp.matcore import dual_element, schatten_norm
from nclp.normest import EstimatorConfig, dual_ascent, estimate_norm
from nclp.qubitfamily import delta, family_value, optimal_ab, qubit_map, qubit_state

RNG = np.random.default_rng(20240814)


def ginibre(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_state(n, rng=RNG):
    g = ginibre(n, rng)
    rho = g @ g.conj().T + 0.1 * np.eye(n)
    return State.from_matrix(rho / np.trace(rho).real)


# ---------------------------------------------------------------------------
# estimate_norm


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_identity_norm_is_one(p):
    est = estimate_norm(SuperOperator.identity(2), p, EstimatorConfig(restarts=4))
    assert est.value == pytest.approx(1.0, abs=1e-10)
    assert est.converged


def test_matches_exact_norm_at_p2():
    rng = np.random.default_rng(2)
    cfg = EstimatorConfig(restarts=8, seed=2)
    for n in (2, 3):
        for _ in range(5):
            t = SuperOperator(ginibre(n * n, rng) / n)
            emap = build_embedded(t, random_state(n, rng), 2.0, float(rng.uniform(0, 1)))
            est = estimate_norm(emap.u_action, 2.0, cfg)
            assert abs(est.value - exact_norm_p2(emap)) <= 1e-6 * exact_norm_p2(emap)


def test_qubit_family_lower_bound_at_p1():
    c = 0.6
    emap = build_embedded(qubit_map(c), qubit_state(c), 1.0, 0.0)
    est = estimate_norm(emap.u_action, 1.0, EstimatorConfig(restarts=8))
    assert est.value >= math.sqrt(1.5) - 1e-12
    assert est.value == pytest.approx(1.224744871391589, abs=1e-9)


def test_witness_certifies_value():
    rng = np.random.default_rng(3)
    cfg = EstimatorConfig(restarts=4, seed=3)
    for p in (1.0, 1.5, 2.0, 2.5):
        t = SuperOperator(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        est = estimate_norm(t, p, cfg)
        assert abs(schatten_norm(est.witness, p) - 1.0) <= 1e-12
        assert abs(schatten_norm(t(est.witness), p) - est.value) <= 1e-10 * est.value


def test_seeded_start_dominates_family_value():
    rng = np.random.default_rng(4)
    cfg = EstimatorConfig(restarts=4, seed=4)
    for _ in range(5):
        c = float(rng.uniform(0.2, 0.8))
        p = float(rng.uniform(1.0, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        d = delta(c, p, theta)
        a, b = optimal_ab(d, p) if p > 1.0 else (1.0, 0.0)
        target = family_value(c, p, theta, a, b)
        emap = build_embedded(qubit_map(c), qubit_state(c), p, theta)
        witness = np.array([[0, a], [b, 0]], dtype=complex)
        est = estimate_norm(emap.u_action, p, cfg, starts=[witness])
        assert est.value >= target - 1e-10


def test_default_estimate_dominates_family_value():
    rng = np.random.default_rng(14)
    cfg = EstimatorConfig(restarts=8, seed=14)
    for _ in range(5):
        c = float(rng.uniform(0.2, 0.8))
        p = float(rng.uniform(1.0, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        d = delta(c, p, theta)
        a, b = optimal_ab(d, p) if p > 1.0 else (1.0, 0.0)
        target = family_value(c, p, theta, a, b)
        emap = build_embedded(qubit_map(c), qubit_state(c), p, theta)
        assert estimate_norm(emap.u_action, p, cfg).value >= target - 1e-8


def test_monotone_ascent_objectives():
    rng = np.random.default_rng(5)
    for p in (1.0, 1.5, 3.0):
        t = SuperOperator(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        y0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y0 = y0 / schatten_norm(y0, p)
        res = dual_ascent(t, p, y0)
        for lo, hi in zip(res.objectives, res.objectives[1:]):
            assert hi >= lo - 1e-12


def test_determinism_same_seed():
    t = SuperOperator(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    cfg = EstimatorConfig(restarts=8, seed=99)
    ref = estimate_norm(t, 1.5, cfg)
    for _ in range(3):
        again = estimate_norm(t, 1.5, cfg)
        assert again.value == ref.value
        assert np.array_equal(again.witness, ref.witness)


def test_homogeneity():
    t = SuperOperator(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    cfg = EstimatorConfig(restarts=4, seed=1)
    for p in (1.0, 1.7, 2.0):
        base = estimate_norm(t, p, cfg).value
        for scale in (3.0, 0.25):
            scaled = estimate_norm(scale * t, p, cfg).value
            assert abs(scaled - scale * base) <= 1e-10 * scale * base


def test_zero_map_returns_zero():
    t = SuperOperator(np.zeros((4, 4), dtype=complex))
    est = estimate_norm(t, 1.5, EstimatorConfig(restarts=2))
    assert est.value == 0.0
    assert abs(schatten_norm(est.witness, 1.5) - 1.0) <= 1e-12


def test_estimate_rejects_bad_p():
    t = SuperOperator.identity(2)
    with pytest.raises(ValueError):
        estimate_norm(t, 0.5)
    with pytest.raises(ValueError):
        estimate_norm(t, math.inf)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(restarts=0)
    with pytest.raises(ValueError):
        EstimatorConfig(max_iters=0)
    with pytest.raises(ValueError):
        EstimatorConfig(rel_tol=0.0)


# ---------------------------------------------------------------------------
# dual_element as the gradient of the Schatten norm


def test_gradient_p2_is_normalized_input():
    y = ginibre(3)
    g = dual_element(y, 2.0)
    assert np.abs(g - y / schatten_norm(y, 2.0)).max() < 1e-12


def test_gradient_diagonal_real():
    y = np.diag([2.0, -3.0]).astype(complex)
    p = 1.5
    norm = schatten_norm(y, p)
    g = dual_element(y, p)
    expected = np.diag(
        [np.sign(d) * abs(d) ** (p - 1) / norm ** (p - 1) for d in [2.0, -3.0]]
    )
    assert np.abs(g - expected).max() < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = 1.5
    g = dual_element(y, p)
    step = 1e-5
    for i in range(3):
        for j in range(3):
            for target, direction in ((g[i, j].real, 1.0), (g[i, j].imag, 1j)):
                d = np.zeros((3, 3), dtype=complex)
                d[i, j] = direction * step
                fd = (schatten_norm(y + d, p) - schatten_norm(y - d, p)) / (2 * step)
                assert abs(fd - target) <= 1e-6

