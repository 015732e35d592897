import math

import numpy as np
import pytest

from nclp.cpmap import SuperOperator
from nclp.embed import build_embedded
from nclp.matcore import dual_element, schatten_norm
from nclp.normest import MAX_RESTARTS, estimate_norm
from nclp.qubitfamily import qubit_map, qubit_state
from nclp.selfcheck import _ginibre

RNG = np.random.default_rng(20240814)


# ---------------------------------------------------------------------------
# estimate_norm


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_identity_norm_is_one(p):
    est = estimate_norm(SuperOperator.identity(2), p, restarts=4)
    assert est.value == pytest.approx(1.0, abs=1e-10)
    assert est.converged


def test_qubit_family_lower_bound_at_p1():
    c = 0.6
    emap = build_embedded(qubit_map(c), qubit_state(c), 1.0, 0.0)
    est = estimate_norm(emap.u_action, 1.0, restarts=8)
    assert est.value >= math.sqrt(1.5) - 1e-12
    assert est.value == pytest.approx(1.224744871391589, abs=1e-9)


def test_zero_map_returns_zero():
    t = SuperOperator(np.zeros((4, 4), dtype=complex))
    est = estimate_norm(t, 1.5, restarts=2)
    assert est.value == 0.0
    assert abs(schatten_norm(est.witness, 1.5) - 1.0) <= 1e-12


def test_estimate_rejects_bad_p():
    t = SuperOperator.identity(2)
    with pytest.raises(ValueError):
        estimate_norm(t, 0.5)
    with pytest.raises(ValueError):
        estimate_norm(t, math.inf)


def test_p2_is_exact_without_ascent():
    t = SuperOperator(_ginibre(RNG, 9))
    est = estimate_norm(t, 2.0)
    assert (est.iterations, est.converged, est.restarts_used) == (0, True, 0)
    assert abs(schatten_norm(est.witness, 2.0) - 1.0) <= 1e-12
    assert schatten_norm(t(est.witness), 2.0) == est.value
    assert est.value == pytest.approx(np.linalg.norm(t.action_matrix, 2), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_starts_must_match_the_map(p):
    t = SuperOperator.identity(2)
    with pytest.raises(ValueError):
        estimate_norm(t, p, restarts=1, starts=[np.eye(3)])
    with pytest.raises(ValueError):
        estimate_norm(t, p, restarts=1, starts=[np.zeros((2, 2))])


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_config_validation(p):
    with pytest.raises(ValueError, match="restarts"):
        estimate_norm(SuperOperator.identity(2), p, restarts=0)
    with pytest.raises(ValueError, match="restarts"):
        estimate_norm(SuperOperator.identity(2), p, restarts=MAX_RESTARTS + 1)


# ---------------------------------------------------------------------------
# dual_element as the gradient of the Schatten norm


def test_gradient_p2_is_normalized_input():
    y = _ginibre(RNG, 3)
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
