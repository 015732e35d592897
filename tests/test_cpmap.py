import math
import tracemalloc

import numpy as np
import pytest

from nclp.cpmap import (
    CP_TOL,
    State,
    SuperOperator,
    compatibility,
    is_completely_positive,
    unvec,
    vec,
)
from nclp.matcore import _block_indices, _hermitian_part
from nclp.qubitfamily import qubit_map, qubit_state
from nclp.selfcheck import _ginibre, _random_state, _random_unitary
from nclp.tensor import kron_superop

RNG = np.random.default_rng(20240812)


E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T.copy()
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


# ---------------------------------------------------------------------------
# construction / apply


def test_vec_convention_is_column_stacking():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(x), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(vec(x), 2), x)


def test_identity_superoperator():
    t = SuperOperator.identity(3)
    x = _ginibre(RNG, 3)
    assert np.abs(t(x) - x).max() == 0.0


def test_qubit_map_on_matrix_units():
    c = 0.6
    t = qubit_map(c)
    s = math.sqrt(c * (1 - c))
    assert np.abs(t(E11) - (1 - c) * np.eye(2)).max() < 1e-14
    assert np.abs(t(E22) - c * np.eye(2)).max() < 1e-14
    assert np.abs(t(E12) - s * (E12 + E21)).max() < 1e-14
    assert np.abs(t(E21) - s * (E12 + E21)).max() < 1e-14


def test_constructor_copies_the_callers_array():
    x = _ginibre(np.random.default_rng(20240820), 4)
    kept = x.copy()
    t = SuperOperator(x)
    assert x.flags.writeable
    x[:] = 0.0
    assert np.array_equal(t.action_matrix, kept)
    assert not t.action_matrix.flags.writeable


def test_apply_dimension_mismatch():
    t = SuperOperator.identity(2)
    with pytest.raises(ValueError):
        t(np.eye(3))
    with pytest.raises(ValueError, match="action matrix must be n\\^2 x n\\^2"):
        SuperOperator(np.eye(3))
    with pytest.raises(ValueError, match="Choi matrix must be n\\^2 x n\\^2"):
        SuperOperator.from_choi(np.eye(3))
    with pytest.raises(ValueError, match="dimension mismatch: map 2, state 3"):
        compatibility(t, State.from_matrix(np.eye(3) / 3))


def test_from_kraus_refuses_no_operators():
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        SuperOperator.from_kraus([])


@pytest.mark.parametrize(
    "ops",
    [[np.ones((2, 3))], [np.eye(2), np.eye(3)]],
    ids=["non-square", "mismatched"],
)
def test_from_kraus_refuses_operators_of_the_wrong_shape(ops):
    with pytest.raises(ValueError, match="square and of one size"):
        SuperOperator.from_kraus(ops)


def test_linearity_from_action_matrix():
    t = SuperOperator(_ginibre(RNG, 9))
    x, y = _ginibre(RNG, 3), _ginibre(RNG, 3)
    assert np.abs(t(2 * x + 1j * y) - (2 * t(x) + 1j * t(y))).max() < 1e-12


# ---------------------------------------------------------------------------
# choi


def test_choi_of_identity_is_rank_one_entangled():
    t = SuperOperator.identity(2)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            expected += np.kron(e, e)
    assert np.abs(t.choi - expected).max() < 1e-14


def test_choi_of_qubit_map_matches_block_layout():
    c = 0.3
    s = math.sqrt(c * (1 - c))
    expected = np.array(
        [
            [1 - c, 0, 0, s],
            [0, 1 - c, s, 0],
            [0, s, c, 0],
            [s, 0, 0, c],
        ],
        dtype=complex,
    )
    assert np.abs(qubit_map(c).choi - expected).max() < 1e-14


def test_choi_blocks_are_map_values():
    n = 3
    t = SuperOperator(_ginibre(RNG, n * n))
    c = t.choi
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            block = c[i * n : (i + 1) * n, j * n : (j + 1) * n]
            assert np.abs(block - t(e)).max() < 1e-12


def test_choi_action_round_trip():
    t = SuperOperator(_ginibre(RNG, 4))
    back = SuperOperator.from_choi(t.choi)
    assert np.abs(back.action_matrix - t.action_matrix).max() < 1e-13


# ---------------------------------------------------------------------------
# complete positivity


def test_transpose_map_is_not_cp():
    transpose = SuperOperator.from_map(lambda e: e.T.copy(), 2)
    assert not is_completely_positive(transpose)
    # its Choi matrix is the swap, with eigenvalue -1
    w = np.linalg.eigvalsh(transpose.choi)
    assert w[0] == pytest.approx(-1.0, abs=1e-12)


def test_non_hermiticity_preserving_map_is_not_cp():
    t = SuperOperator(_ginibre(RNG, 4))
    assert not is_completely_positive(t)


def _eigenvalue_rule(t: SuperOperator) -> bool:
    """Reference rule: Hermitian Choi with lambda_min >= -CP_TOL * max(1, lambda_max)."""
    c = t.choi
    scale = max(1.0, np.abs(c).max())
    if np.abs(c - c.conj().T).max() > CP_TOL * scale:
        return False
    w = np.linalg.eigvalsh(_hermitian_part(c))
    return bool(w[0] >= -CP_TOL * max(1.0, w[-1]))


def _choi_with_dip(rng, n, top, dip):
    """A map whose Choi matrix has spectrum (dip * scale, positives up to top),
    where scale = max(1, max |C_ij|) is read before the dip is added."""
    v = _random_unitary(rng, n * n)
    w = rng.uniform(0.0, top, n * n)
    w[0] = 0.0
    c = (v * w) @ v.conj().T
    scale = max(1.0, np.abs(c).max())
    return SuperOperator.from_choi(c + dip * scale * np.outer(v[:, 0], v[:, 0].conj()))


def _split(rng, t):
    """A map on M_4 whose Choi matrix is a permuted direct sum of t's 9x9
    Choi matrix and a positive 7x7 block with entries below 1, so the scale
    max(1, max |C_ij|) is t's."""
    g = _ginibre(rng, 7)
    c = np.zeros((16, 16), dtype=complex)
    c[:9, :9] = t.choi
    c[9:, 9:] = g @ g.conj().T / (2.0 * np.abs(g @ g.conj().T).max())
    perm = rng.permutation(16)
    c = c[np.ix_(perm, perm)]
    assert sorted(idx.shape for idx in _block_indices(c != 0)) == [(1, 7), (1, 9)]
    return SuperOperator.from_choi(c)


@pytest.mark.parametrize("top", [0.5, 3.0, 40.0])
def test_cp_rule_at_its_tolerance(top):
    rng = np.random.default_rng([20240812, int(top * 10)])
    # the same verdicts whole and as one block of a permuted direct sum
    for place in (lambda t: t, lambda t: _split(rng, t)):
        assert is_completely_positive(place(_choi_with_dip(rng, 3, top, -0.5 * CP_TOL)))
        assert not is_completely_positive(place(_choi_with_dip(rng, 3, top, -2.0 * CP_TOL)))


def test_cp_test_links_blocks_through_one_asymmetric_entry():
    # two positive blocks, joined by a single entry with no mirror: the entry
    # puts them in one block, where the asymmetry test refuses it
    c = np.eye(4) + 0.5 * np.eye(4, k=2) + 0.5 * np.eye(4, k=-2)
    assert _block_indices(c != 0)[0].shape == (2, 2)
    assert is_completely_positive(SuperOperator.from_choi(c))
    c[1, 0] = 1e-3
    (stack,) = _block_indices(c != 0)
    assert np.array_equal(stack, np.arange(4)[None])
    assert not is_completely_positive(SuperOperator.from_choi(c))
    # the zero map splits into 1x1 zero blocks and is CP
    assert is_completely_positive(SuperOperator(np.zeros((9, 9))))


def test_cp_rule_certifies_only_what_the_eigenvalue_rule_certifies():
    rng = np.random.default_rng(20240818)
    verdicts = set()
    for _ in range(300):
        n = int(rng.integers(2, 5))
        top = 10.0 ** rng.uniform(-1.0, 2.0)
        # dips from 0.1 to 3 * max(1, lambda_max) times CP_TOL * scale
        dip = 10.0 ** rng.uniform(-1.0, math.log10(3.0 * max(1.0, top)))
        t = _choi_with_dip(rng, n, top, -CP_TOL * dip)
        new, old = is_completely_positive(t), _eigenvalue_rule(t)
        assert old or not new
        verdicts.add((new, old))
    # every verdict pair the implication allows was reached
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_cp_rule_refuses_a_dip_that_lambda_max_used_to_excuse():
    # the identity map on M_4 has the Choi matrix |Omega><Omega| with
    # lambda_max = 4 and entries of modulus at most 1; a dip of -2e-10 along
    # a unit vector orthogonal to Omega passes the eigenvalue rule, whose
    # tolerance scales with lambda_max, and fails the Cholesky rule, whose
    # tolerance scales with the entries
    c = SuperOperator.identity(4).choi.copy()
    c[1, 1] -= 2e-10
    t = SuperOperator.from_choi(c)
    assert np.linalg.eigvalsh(c)[0] == pytest.approx(-2e-10, rel=1e-6)
    assert _eigenvalue_rule(t)
    assert not is_completely_positive(t)


def _dense_rule(t: SuperOperator) -> bool:
    """Reference: the whole Choi matrix C, Hermitian to CP_TOL * scale, and
    lambda_min >= -CP_TOL * scale for its Hermitian part, scale = max(1, max |C_ij|)."""
    c = t.choi
    scale = max(1.0, np.abs(c).max())
    if np.abs(c - c.conj().T).max() > CP_TOL * scale:
        return False
    return bool(np.linalg.eigvalsh(_hermitian_part(c))[0] >= -CP_TOL * scale)


def _block_sparse_choi(rng, n, complex_blocks, dip):
    """A Choi matrix on M_n made of random positive blocks on a random
    partition of its n^2 indices, in a random permutation, with the
    expected verdict.  Blocks other than part[0]'s are scaled by 1, 16 or
    256, so scale often comes from a block other than the one a nonzero
    ``dip`` perturbs, and a rule that reads it from the wrong entries moves
    some verdicts; part[0]'s block keeps entries at most 2, so scale read
    before the perturbation is within a factor 2 of scale after it.  The
    dip puts lambda_min of that block at dip * CP_TOL * scale, and a
    one-sided entry joins two blocks, of
    modulus 0.01 or 10 times CP_TOL * scale (the second is refused as
    asymmetric)."""
    size = n * n
    part = rng.integers(0, rng.integers(1, size + 1), size)
    c = np.zeros((size, size), dtype=complex if complex_blocks else float)
    for label in np.unique(part):
        idx = np.flatnonzero(part == label)
        v = _random_unitary(rng, len(idx)) if complex_blocks else np.linalg.qr(
            rng.standard_normal((len(idx), len(idx))))[0]
        grow = 1.0 if label == part[0] else 16.0 ** rng.integers(0, 3)
        w = rng.uniform(0.0, 2.0 / len(idx), len(idx)) * grow
        c[np.ix_(idx, idx)] = (v * w) @ v.conj().T
    scale = max(1.0, np.abs(c).max())
    cp = True
    if dip:
        idx = np.flatnonzero(part == part[0])
        h = c[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(h)
        c[np.ix_(idx, idx)] = h + (dip * CP_TOL * scale - w[0]) * np.outer(v[:, 0], v[:, 0].conj())
        cp = dip > -1.0
    if len(np.unique(part)) > 1 and rng.random() < 0.5:
        a = int(np.flatnonzero(part == part[0])[0])
        b = int(np.flatnonzero(part != part[0])[0])
        big = rng.random() < 0.5
        c[a, b] = (10.0 if big else 0.01) * CP_TOL * scale
        cp = cp and not big
    perm = rng.permutation(size)
    return SuperOperator.from_choi(c[np.ix_(perm, perm)]), cp


@pytest.mark.parametrize("complex_blocks", [False, True], ids=["real", "complex"])
def test_cp_verdicts_from_gathered_blocks_match_the_dense_rule(complex_blocks):
    # CP, just inside and just outside the tolerance, and one-sided entries
    rng = np.random.default_rng([20261020, complex_blocks])
    verdicts, split = set(), 0
    for case in range(400):
        n = 1 + case % 4
        dip = (0.0, 0.0, -0.25, -4.0)[int(rng.integers(0, 4))]
        t, cp = _block_sparse_choi(rng, n, complex_blocks, dip)
        assert is_completely_positive(t) == _dense_rule(t) == cp, (case, n, dip)
        verdicts.add(cp)
        split += sum(map(len, _block_indices(t.choi != 0))) > 1
    assert verdicts == {True, False} and split >= 150


def test_cp_verdicts_on_family_powers_match_the_dense_rule():
    transpose = SuperOperator.from_map(lambda e: e.T.copy(), 2)
    for c in (0.1, 0.3, 0.5):
        base = qubit_map(c)
        power = base
        for _ in range(3):  # k = 2, 3, 4
            off = kron_superop(power, transpose)  # not CP, and it splits too
            power = kron_superop(power, base)
            for t, cp in ((power, True), (off, False)):
                assert sum(map(len, _block_indices(t.choi != 0))) > 1
                assert is_completely_positive(t) == _dense_rule(t) == cp


def test_cp_test_of_the_fourth_family_power_stays_below_one_choi_matrix():
    # the blocks are gathered from the action matrix: no 256 x 256 float
    # temporary, the size of the Choi matrix, is ever held
    base = qubit_map(0.3)
    t = kron_superop(kron_superop(kron_superop(base, base), base), base)
    tracemalloc.start()
    try:
        assert is_completely_positive(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 8


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_of_identity():
    t = SuperOperator.identity(2)
    assert np.abs(t.adjoint().action_matrix - t.action_matrix).max() == 0.0


def test_adjoint_is_involution():
    t = SuperOperator(_ginibre(RNG, 9))
    assert np.abs(t.adjoint().adjoint().action_matrix - t.action_matrix).max() <= 1e-12


def test_qubit_adjoint_fixes_family_state():
    c = 0.35
    gamma = qubit_state(c).matrix
    assert np.abs(qubit_map(c).adjoint()(gamma) - gamma).max() < 1e-14


# ---------------------------------------------------------------------------
# compatibility


def test_compatibility_qubit_family():
    c = 0.6
    rep = compatibility(qubit_map(c), qubit_state(c))
    assert rep.c1 == pytest.approx(1.0, abs=1e-12)
    assert rep.c_inf == pytest.approx(1.0, abs=1e-12)
    assert rep.unital
    assert rep.completely_positive


def test_compatibility_scaled_identity():
    rep = compatibility(SuperOperator(2.0 * np.eye(4)), _random_state(RNG, 2))
    assert rep.c1 == pytest.approx(2.0, abs=1e-10)
    assert rep.c_inf == pytest.approx(2.0, abs=1e-10)
    assert not rep.unital


def test_compatibility_non_cp_has_no_cinf():
    # the transpose is positive but not CP; its S^2 norm is no operator norm
    transpose = SuperOperator.from_map(lambda e: e.T.copy(), 2)
    rep = compatibility(transpose, qubit_state(0.3))
    assert not rep.completely_positive
    assert rep.c_inf is None
    assert rep.unital
    assert rep.c1 == pytest.approx(1.0, abs=1e-12)


def test_compatibility_near_the_float_limit():
    # a PSD Choi matrix with an entry of 1e308: its Hermitian part must not
    # overflow, or the map reads non-CP and C1 reads NaN
    t = SuperOperator(np.diag([1.0, 1.0, 1.0, 1e308]))
    rep = compatibility(t, qubit_state(0.3))
    assert rep.completely_positive
    assert rep.c1 == pytest.approx(1e308, rel=1e-12)
    assert rep.c_inf == pytest.approx(1e308, rel=1e-12)


def test_compatibility_reports_overflowing_c1_as_inf():
    # T(X) = 1e308 X_22 E_11: the true C1 = 0.7e308 / 0.3 exceeds the float range
    action = np.zeros((4, 4))
    action[0, 3] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        rep = compatibility(SuperOperator(action), qubit_state(0.3))
    assert rep.c1 == math.inf


def test_compatibility_state_preparation():
    # T(X) = tr(sigma X) I with sigma = Gamma: adjoint maps Gamma to tr(Gamma) Gamma
    gamma = np.diag([0.3, 0.7]).astype(complex)
    t = SuperOperator.from_map(lambda e: np.trace(gamma @ e) * np.eye(2), 2)
    state = State.from_matrix(gamma)
    assert np.abs(t.adjoint()(gamma) - gamma).max() < 1e-14
    rep = compatibility(t, state)
    assert rep.unital
    assert rep.c1 == pytest.approx(1.0, abs=1e-10)
    assert rep.completely_positive


# ---------------------------------------------------------------------------
# state validation


def test_state_requires_unit_trace():
    with pytest.raises(ValueError):
        State.from_matrix(np.diag([0.5, 0.6]))


def test_state_requires_faithfulness():
    with pytest.raises(ValueError):
        State.from_matrix(np.diag([1.0, 0.0]))
    # a roundoff-sized negative eigenvalue passes the PSD rule, not this one
    u = _random_unitary(RNG, 3)
    w = np.array([0.6, 0.4 + 1e-14, -1e-14])
    with pytest.raises(ValueError, match="not faithful"):
        State.from_matrix((u * w) @ u.conj().T)


def test_state_requires_positivity_near_the_float_limit():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        State.from_matrix([[0.5, 1e308], [1e308, 0.5]])


def test_state_accepts_qubit_family():
    s = qubit_state(0.5)
    assert np.abs(s.matrix - 0.5 * np.eye(2)).max() < 1e-15
    assert s.dim == 2


def test_state_rejects_asymmetric():
    with pytest.raises(ValueError, match="not Hermitian"):
        State.from_matrix(np.array([[0.5, 1e-3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="must be square"):
        State.from_matrix([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])


def test_state_repairs_tiny_asymmetry():
    s = State.from_matrix(np.array([[0.5, 1e-14], [0.0, 0.5]]))
    assert np.abs(s.matrix - s.matrix.conj().T).max() == 0.0


def test_state_rejects_negative_spectrum():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        State.from_matrix(np.diag([1.5, -0.5]))


# ---------------------------------------------------------------------------
# state powers


def _random_density(n: int) -> np.ndarray:
    g = _ginibre(RNG, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_state_power_examples():
    half = State.from_matrix(np.diag([0.36, 0.64])).power(0.5)
    assert np.abs(half - np.diag([0.6, 0.8])).max() < 1e-12

    assert np.abs(State.from_matrix(_random_density(3)).power(0.0) - np.eye(3)).max() < 1e-12

    c = 0.6
    inv = State.from_matrix(np.diag([1 - c, c])).power(-1.0)
    assert np.abs(inv - np.diag([2.5, 5.0 / 3.0])).max() < 1e-12


def test_state_reconstruction_from_spectrum():
    s = State.from_matrix(_random_density(4))
    assert np.all(np.diff(s.eigenvalues) <= 0)
    rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
    err = np.linalg.norm(rebuilt - s.matrix) / np.linalg.norm(s.matrix)
    assert err < 1e-10
