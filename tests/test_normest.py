import math

import numpy as np
import pytest

from nclp.cpmap import State, SuperOperator, _matrix_units
from nclp.embed import build_embedded
from nclp.matcore import dual_element, schatten_norm
from nclp.normest import (
    DEFAULT_SEED,
    MAX_RESTARTS,
    POLISH_TOL,
    WAVE,
    _ascend,
    _check_seed,
    _draws,
    _normalize,
    _start_stack,
    estimate_norm,
)
from nclp.qubitfamily import qubit_map, qubit_state
from nclp.selfcheck import _ginibre, _random_unitary

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
    for restarts in (2.5, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="restarts must be an integer"):
            estimate_norm(SuperOperator.identity(2), p, restarts=restarts)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            estimate_norm(SuperOperator.identity(2), p, seed=seed)
    for seed in (1.5, 7.0, True, np.float64(7.0), "7"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_norm(SuperOperator.identity(2), p, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            _check_seed(seed)
    # numpy integers are integers
    t = SuperOperator(_ginibre(np.random.default_rng(11), 4) / 2)
    plain = estimate_norm(t, p, restarts=9, seed=7)
    for restarts, seed in ((np.int64(9), np.uint64(7)), (np.int32(9), np.int8(7))):
        est = estimate_norm(t, p, restarts=restarts, seed=seed)
        assert (est.value, est.restarts_used) == (plain.value, plain.restarts_used)


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
    """The one-batch screen over every start that a cap of ``restarts`` allows."""
    ys = _start_stack(u.dim, p, restarts, DEFAULT_SEED, ())
    return len(ys) - restarts, _ascend(u.action_matrix, p, ys)


def _winner(u, p, run):
    """The earliest best start of a screened ``run``, its polish alone to
    POLISH_TOL, and the polished iterate at unit p-norm."""
    best = int(np.argmax(run.values))
    polish = _ascend(u.action_matrix, p, run.witnesses[best:best + 1], POLISH_TOL)
    return best, polish, _normalize(polish.witnesses, p)[0]


@pytest.mark.parametrize("restarts", [1, 4, WAVE])
def test_one_wave_is_one_batch(restarts):
    t = SuperOperator(_ginibre(np.random.default_rng([20240814, 1]), 9) / 3)
    est = estimate_norm(t, 1.5, restarts=restarts)
    fixed, run = _full_batch(t, 1.5, restarts)
    best, polish, witness = _winner(t, 1.5, run)
    assert np.array_equal(est.witness, witness)
    assert est.value == schatten_norm(t(witness), 1.5)
    assert est.iterations == run.iterations[best] + polish.iterations[0]
    assert est.converged == polish.converged[0]
    assert est.restarts_used == fixed + restarts


def test_the_polish_continues_the_screened_winner():
    # the screen stops a start once one step moves at most REL_TOL; the polish
    # takes the winner on from there until a step moves at most POLISH_TOL
    t = SuperOperator(_ginibre(np.random.default_rng([20240814, 1]), 9) / 3)
    fixed, run = _full_batch(t, 1.5, WAVE)
    best, polish, _ = _winner(t, 1.5, run)
    assert run.converged[best] and polish.converged[0]
    assert polish.iterations[0] > 0
    assert polish.values[0] > run.values[best]
    assert polish.max_drop[0] <= 1e-12 * polish.values[0]


def test_second_wave_runs_after_wave_one_improves():
    # a non-CP map on M_4 whose best start is Ginibre draw 4: wave 1 beats the
    # deterministic starts by 5.9e-7 relative, more than REL_TOL, and wave 2
    # improves nothing
    t = SuperOperator(_ginibre(np.random.default_rng([20240814, 368]), 16) / 4)
    est = estimate_norm(t, 3.0)
    fixed, run = _full_batch(t, 3.0)
    best, _, witness = _winner(t, 3.0, run)
    assert est.restarts_used == fixed + 2 * WAVE
    assert fixed <= best < fixed + WAVE
    assert np.array_equal(est.witness, witness)


def test_a_later_wave_raises_the_value():
    # near c = 1/2 the Ginibre starts creep; on this member wave 2 raises the
    # best screened value by 2.6e-5 relative, wave 3 by 1.2e-7 and wave 4 by
    # nothing, so one wave alone (restarts = WAVE) stops short by far more
    # than 1e-7 even after its polish
    u = build_embedded(qubit_map(0.48), qubit_state(0.48), 1.25, 0.25).u_action
    est = estimate_norm(u, 1.25)
    fixed, run = _full_batch(u, 1.25)
    best, _, witness = _winner(u, 1.25, run)
    assert est.restarts_used == fixed + 4 * WAVE
    assert fixed + 2 * WAVE <= best < fixed + 3 * WAVE
    assert np.array_equal(est.witness, witness)
    assert estimate_norm(u, 1.25, restarts=WAVE).value < est.value * (1.0 - 1e-7)


def test_waves_reach_the_full_batch_best_on_a_creeping_member():
    # on this member the screen runs all four waves, and its best start is
    # the creeping Ginibre draw 20 of wave 3; 1.0008083287472183 is the best
    # value of the one 32-start batch with every start ascended to 1e-10,
    # which the polished winner of the waves must reach
    u = build_embedded(qubit_map(0.55), qubit_state(0.55), 1.25, 0.25).u_action
    est = estimate_norm(u, 1.25)
    fixed, run = _full_batch(u, 1.25)
    assert int(np.argmax(run.values)) == fixed + 20
    assert est.restarts_used == fixed + 4 * WAVE
    assert est.value >= 1.0008083287472183


def test_waves_stop_where_ginibre_starts_creep():
    # near c = 1/2 every Ginibre start of this member creeps: the screen
    # retires each after 2 steps below REL_TOL, none of them wins, and one
    # wave is enough
    emap = build_embedded(qubit_map(0.51), qubit_state(0.51), 1.5, 0.0)
    est = estimate_norm(emap.u_action, 1.5)
    fixed, run = _full_batch(emap.u_action, 1.5)
    best, _, witness = _winner(emap.u_action, 1.5, run)
    assert np.all(run.iterations[fixed:] == 2)
    assert best < fixed
    assert np.all(run.values[fixed:] < run.values[best])
    assert est.restarts_used == fixed + WAVE
    assert np.array_equal(est.witness, witness)
    # the member is exactly real, and its complex copy ascends with the same bits
    action = emap.u_action.action_matrix
    assert action.dtype == np.float64
    ys = _start_stack(2, 1.5, 32, DEFAULT_SEED, ())
    twin = _ascend(action.astype(complex), 1.5, ys)
    assert np.array_equal(twin.values, run.values)
    assert np.array_equal(twin.witnesses, run.witnesses)


# ---------------------------------------------------------------------------
# a direct sum whose blocks need different starts


def _direct_sum(t1, t2):
    """T1 + T2 on M_(n1 + n2): each map acts on its diagonal block, and the
    off-diagonal blocks go to zero."""
    n1, n = t1.dim, t1.dim + t2.dim

    def apply(x):
        out = np.zeros((n, n), dtype=complex)
        out[:n1, :n1] = t1(x[:n1, :n1])
        out[n1:, n1:] = t2(x[n1:, n1:])
        return out

    return SuperOperator.from_map(apply, n)


def _blocks(seed):
    """The transpose map on M_2, whose action has every singular value 1, a
    Ginibre map on M_2 scaled to sigma_max = 0.9, and a Haar unitary on C^4."""
    rng = np.random.default_rng([20261019, seed])
    g = _ginibre(rng, 4)
    transpose = SuperOperator.from_map(lambda x: x.T, 2)
    return transpose, SuperOperator(0.9 * g / np.linalg.norm(g, 2)), _random_unitary(rng, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direct_sum_blocks_are_adversarial(seed):
    # every top right singular vector of the sum belongs to the transpose
    # block, yet at some p the Ginibre block has the larger norm
    transpose, g, _ = _blocks(seed)
    assert np.allclose(np.linalg.svd(transpose.action_matrix)[1], 1.0)
    assert np.linalg.norm(g.action_matrix, 2) == pytest.approx(0.9, rel=1e-15)
    assert max(estimate_norm(g, p).value for p in (1.0, 1.25, 4.0)) > 1.0


_HAAR_MISSES = {
    (1, 3.0): "the polish stops on a step of at most POLISH_TOL while the "
    "transpose block's value 1 is still 4.2e-12 relative away",
    (2, 1.0): "at p = 1 no start reaches the Ginibre block: the estimate "
    "stays 3.3e-3 relative below it",
    (2, 4.0): "the polish runs MAX_ITERS steps and ends 6.9e-12 relative "
    "below the Ginibre block",
}


@pytest.mark.parametrize(
    "frame, seed, p",
    [
        pytest.param(
            frame, seed, p,
            marks=pytest.mark.xfail(reason=_HAAR_MISSES[seed, p], strict=True)
            if frame == "haar" and (seed, p) in _HAAR_MISSES else (),
        )
        for frame in ("standard", "haar")
        for seed in (0, 1, 2)
        for p in (1.0, 1.25, 1.5, 3.0, 4.0)
    ],
)
def test_direct_sum_reaches_each_block(frame, seed, p):
    # the n^2 matrix units hold starts inside each block; the estimate of the
    # sum is at least the estimate of either block on its own
    transpose, g, v = _blocks(seed)
    u = _direct_sum(transpose, g)
    if frame == "haar":
        rotate = np.kron(v.conj(), v)  # vec(V X V^*) = (conj(V) kron V) vec(X)
        u = SuperOperator(rotate @ u.action_matrix @ rotate.conj().T)
    est = estimate_norm(u, p).value
    for block in (transpose, g):
        assert est >= estimate_norm(block, p).value * (1.0 - 1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.25])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("c", [0.3, 0.1])
def test_transpose_map_reaches_its_closed_form(c, p, theta):
    # the transpose is positive and unital with C_1 = 1 but not 2-positive:
    # with G = diag(1 - c, c) its embedded norm is ((1-c)/c)^(|1-2 theta|/p),
    # above the bound form C_inf^(1-1/p) C_1^(1/p) = 1 at theta != 1/2, in
    # Thm41 cells too; held from both sides
    state = State.from_matrix(np.diag([1.0 - c, c]))
    exact = ((1.0 - c) / c) ** (abs(1.0 - 2.0 * theta) / p)
    transpose = SuperOperator.from_map(lambda x: x.T, 2)
    est = estimate_norm(build_embedded(transpose, state, p, theta).u_action, p).value
    assert abs(est - exact) <= 1e-12 * exact


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 1: the winning start's polish runs all MAX_ITERS = 500 "
    "steps (572 with the screen), converged is false, and the estimate ends 2.0e-9 "
    "relative below the closed form",
)
def test_transpose_map_reaches_its_closed_form_in_a_rotated_frame():
    # the transpose map with a real symmetric state G has the norm
    # (lambda_max / lambda_min)^(|1 - 2 theta| / p) at every p, attained on
    # a matrix unit of G's eigenbasis; here G is diagonal in no standard basis
    rng = np.random.default_rng([20261020, 13])
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    w = rng.uniform(0.1, 1.0, 5)
    g = (q * (w / w.sum())) @ q.T
    state = State.from_matrix((g + g.T) / 2.0)
    p, theta = 3.0, 0.25
    exact = (state.eigenvalues[0] / state.eigenvalues[-1]) ** (abs(1.0 - 2.0 * theta) / p)
    transpose = SuperOperator.from_map(lambda x: x.T, 5)
    est = estimate_norm(build_embedded(transpose, state, p, theta).u_action, p)
    assert est.value == pytest.approx(exact, rel=1e-12)


def _masked_ascent_stack(p, c):
    """A map on M_3 and a stack of starts that drive every mask path of _ascend.

    The map is c times the identity on the lower right 2x2 block and a seeded
    Ginibre action on the other five matrix units, with E_01 in its kernel.
    Start 0 is E_01, whose image is zero.  Start 1 is (E_11 + E_22)/2^(1/p):
    its image has sigma_max c 2^(-1/p) and U^+(Z) has c 2^(-1/q), which lie
    on either side of the ascent's zero threshold, so it retires at step 1.
    The other starts are seeded Ginibre draws.
    """
    rng = np.random.default_rng([20261019, 21])
    n = 3
    units = _matrix_units(n)
    # vec index i + n*j is E_ij; the outer units have i = 0 or j = 0
    outer = [v for v in range(n * n) if v % n == 0 or v // n == 0]
    action = np.zeros((n * n, n * n), dtype=complex)
    action[np.ix_(outer, outer)] = _ginibre(rng, len(outer))
    action[:, n] = 0.0  # vec index n is E_01
    inner = [i for i in range(n * n) if i not in outer]
    action[inner, inner] = c
    tiny = (units[4] + units[8]) / 2.0 ** (1.0 / p)
    draws = [y / schatten_norm(y, p) for y in (_ginibre(rng, n) for _ in range(6))]
    return action, np.stack([units[n], tiny, *draws])


def test_ascent_mask_paths_match_each_start_alone():
    # the batched ascent runs whole-array slices until a start retires or a
    # step is rejected; every start of every sub-stack must still come out
    # bitwise as it does alone, where no mask is ever needed
    p, c = 3.0, 1.4e-300
    q = p / (p - 1.0)
    assert c * 2.0 ** (-1.0 / q) < 1e-300 <= c * 2.0 ** (-1.0 / p)
    action, ys = _masked_ascent_stack(p, c)
    # tol = 0: a start retires only on an exact repeat, after rounding noise
    # has rejected some of its steps
    alone = [_ascend(action, p, ys[i:i + 1], 0.0) for i in range(len(ys))]
    iterations = [int(r.iterations[0]) for r in alone]
    assert iterations[:2] == [0, 0]  # zero image; U^+(Z) under the threshold
    assert alone[0].values[0] == 0.0 and alone[1].values[0] > 0.0
    assert len(set(iterations[2:])) > 2, iterations  # retire at different steps
    assert 0 < sum(r.max_drop[0] > 0.0 for r in alone[2:]) < 6  # some steps rejected
    for first in (0, 1, 2):
        run = _ascend(action, p, ys[first:], 0.0)
        for i, single in enumerate(alone[first:]):
            for name in ("values", "witnesses", "iterations", "converged", "max_drop"):
                got, want = getattr(run, name)[i], getattr(single, name)[0]
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (first, i, name)


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
