import math

import numpy as np
import pytest

from nclp.cpmap import SuperOperator, _matrix_units
from nclp.embed import build_embedded
from nclp.matcore import dual_element, schatten_norm
from nclp.normest import (
    DEFAULT_SEED,
    MAX_ITERS,
    MAX_RESTARTS,
    REL_TOL,
    WAVE,
    _ascend,
    _draws,
    _normalize,
    _start_stack,
    estimate_norm,
)
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
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            estimate_norm(SuperOperator.identity(2), p, seed=seed)


# ---------------------------------------------------------------------------
# the waves of Ginibre starts


@pytest.mark.parametrize("n", [2, 3, 4])
def test_start_set_is_the_same_at_every_n(n):
    # the caller's starts, the n^2 matrix units, then the Ginibre draws:
    # no start kind is added or dropped at any n
    starts = [np.eye(n), np.diag(np.arange(1.0, n + 1))]
    stack = _start_stack(n, 1.5, 5, 7, starts)
    user = _normalize(np.stack(starts).astype(complex), 1.5)
    expected = np.concatenate([user, _matrix_units(n), _draws(n, 1.5, 7, 0, 5)])
    assert np.array_equal(stack, expected)
    t = SuperOperator(_ginibre(np.random.default_rng([20240814, n]), n * n) / n)
    for restarts in (1, WAVE):
        est = estimate_norm(t, 1.5, restarts=restarts, seed=7, starts=starts)
        assert est.restarts_used == len(starts) + n * n + min(restarts, WAVE)


def _full_batch(u, p, restarts=32):
    """The one-batch ascent over every start that a cap of ``restarts`` allows."""
    ys = _start_stack(u.dim, p, restarts, DEFAULT_SEED, ())
    return len(ys) - restarts, _ascend(u.action_matrix, p, ys)


@pytest.mark.parametrize("restarts", [1, 4, WAVE])
def test_one_wave_is_one_batch(restarts):
    t = SuperOperator(_ginibre(np.random.default_rng([20240814, 1]), 9) / 3)
    est = estimate_norm(t, 1.5, restarts=restarts)
    fixed, run = _full_batch(t, 1.5, restarts)
    best = int(np.argmax(run.values))
    witness = _normalize(run.witnesses[best:best + 1], 1.5)[0]
    assert np.array_equal(est.witness, witness)
    assert est.value == schatten_norm(t(witness), 1.5)
    assert (est.iterations, est.converged) == (run.iterations[best], run.converged[best])
    assert est.restarts_used == fixed + restarts


def test_second_wave_runs_after_wave_one_improves():
    # a non-CP map on M_4 whose best start is Ginibre draw 3: wave 1 beats the
    # deterministic starts by more than REL_TOL, and wave 2 improves nothing
    t = SuperOperator(_ginibre(np.random.default_rng([20240814, 327]), 16) / 4)
    est = estimate_norm(t, 3.0)
    fixed, run = _full_batch(t, 3.0)
    best = int(np.argmax(run.values))
    assert est.restarts_used == fixed + 2 * WAVE
    assert fixed <= best < fixed + WAVE
    assert np.array_equal(est.witness, _normalize(run.witnesses[best:best + 1], 3.0)[0])


def test_a_later_wave_raises_the_value():
    # near c = 1/2 the Ginibre starts creep to MAX_ITERS; on this member wave 2
    # raises the best value by 6.9e-6 relative and wave 3 improves nothing, so
    # one wave alone (restarts = WAVE) stops short by far more than REL_TOL
    u = build_embedded(qubit_map(0.48), qubit_state(0.48), 1.25, 0.25).u_action
    est = estimate_norm(u, 1.25)
    fixed, run = _full_batch(u, 1.25)
    best = int(np.argmax(run.values))
    assert est.restarts_used == fixed + 3 * WAVE
    assert fixed + WAVE <= best < fixed + 2 * WAVE
    assert np.array_equal(est.witness, _normalize(run.witnesses[best:best + 1], 1.25)[0])
    assert estimate_norm(u, 1.25, restarts=WAVE).value < est.value * (1.0 - 1e3 * REL_TOL)


def test_waves_can_stop_short_of_a_later_creeping_start():
    # a known loss (the FOUND line on wave stops in CHANGES.md): on this member
    # wave 2 raises the best value by only 6e-11 relative, so the waves stop,
    # but Ginibre draw 20 of wave 3 climbs 2.4e-10 relative higher
    u = build_embedded(qubit_map(0.55), qubit_state(0.55), 1.25, 0.25).u_action
    est = estimate_norm(u, 1.25)
    fixed, run = _full_batch(u, 1.25)
    assert est.restarts_used == fixed + 2 * WAVE
    assert int(np.argmax(run.values)) == fixed + 20
    assert est.value == pytest.approx(1.000808328508783, rel=1e-13)
    assert run.values.max() == pytest.approx(1.0008083287472183, rel=1e-13)


def test_waves_stop_where_ginibre_starts_creep():
    # near c = 1/2 every Ginibre start of this member runs to MAX_ITERS and none
    # of them wins, so one wave is enough
    emap = build_embedded(qubit_map(0.51), qubit_state(0.51), 1.5, 0.0)
    est = estimate_norm(emap.u_action, 1.5)
    fixed, run = _full_batch(emap.u_action, 1.5)
    assert np.all(run.iterations[fixed:] == MAX_ITERS)
    assert est.restarts_used == fixed + WAVE
    assert est.value == pytest.approx(run.values.max(), rel=1e-10)
    # the member is exactly real, and its complex copy ascends with the same bits
    action = emap.u_action.action_matrix
    assert action.dtype == np.float64
    ys = _start_stack(2, 1.5, 32, DEFAULT_SEED, ())
    twin = _ascend(action.astype(complex), 1.5, ys)
    assert np.array_equal(twin.values, run.values)
    assert np.array_equal(twin.witnesses, run.witnesses)


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
