"""Seeded invariant suite behind the ``verify`` subcommand.

Each check draws its own deterministic generator from (seed, check index),
so the report is reproducible and independent of check ordering.  Checks
return a human-readable detail string; the runner collects pass/fail.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import astuple, dataclass
from itertools import combinations

import numpy as np

from . import normest
from .cpmap import State, SuperOperator, compatibility, is_completely_positive
from .embed import (
    Status,
    build_embedded,
    classify_region,
    exact_norm_p2,
    theta_thresholds,
    upper_bound,
)
from .matcore import _hermitian_part, dual_element, schatten_norm
from .normest import estimate_norm
from .qubitfamily import (
    _delta,
    _family_row,
    alpha,
    alpha1,
    family_max,
    family_witness,
    qubit_map,
    qubit_state,
)
from .tensor import kron_state, kron_superop


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # checks compare numpy scalars; the report is JSON, which needs a bool
        object.__setattr__(self, "passed", bool(self.passed))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _ginibre(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, n: int) -> State:
    g = _ginibre(rng, n)
    rho = g @ g.conj().T + 0.1 * np.eye(n)
    return State.from_matrix(rho / np.trace(rho).real)


def _random_cp_map(rng, n: int) -> SuperOperator:
    return SuperOperator.from_kraus([_ginibre(rng, n) for _ in range(3)])


def _random_unital_cp_map(rng, n: int) -> SuperOperator:
    ops = [_ginibre(rng, n) for _ in range(3)]
    m = sum(a @ a.conj().T for a in ops)
    tr = np.trace(m).real
    msqrt_inv = State.from_matrix(m / tr).power(-0.5) / math.sqrt(tr)
    return SuperOperator.from_kraus([msqrt_inv @ a for a in ops])


def _worst(errs) -> float:
    return float(max(errs)) if errs else 0.0


# ---------------------------------------------------------------------------
# matcore


def check_unitary_invariance(seed: int) -> CheckResult:
    rng = _rng(seed, 1)
    errs = []
    for n in (2, 3, 4, 5):
        for p in (1.0, 1.4, 1.5, 2.0, 3.0, math.inf):
            x = _ginibre(rng, n)
            u, v = _random_unitary(rng, n), _random_unitary(rng, n)
            # x.real is exactly real: its real SVD against a complex frame
            for y in (x, x.real):
                ref = schatten_norm(y, p)
                errs.append(abs(schatten_norm(u @ y @ v, p) - ref) / ref)
    err = _worst(errs)
    return CheckResult("matcore.unitary_invariance", err <= 1e-10, f"max rel err {err:.2e}")


def check_holder(seed: int) -> CheckResult:
    rng = _rng(seed, 2)
    combos = [
        (2.0, 2.0, 1.0), (3.0, 1.5, 1.0), (4.0, 4.0, 2.0), (math.inf, 1.0, 1.0),
        (3.0, 6.0, 2.0), (6.0, 3.0, 2.0),
    ]
    viol = []
    for n in (2, 3, 4):
        for p, q, r in combos:
            x, y = _ginibre(rng, n), _ginibre(rng, n)
            viol.append(
                schatten_norm(x @ y, r) - schatten_norm(x, p) * schatten_norm(y, q)
            )
    worst = _worst(viol)
    return CheckResult("matcore.holder", worst <= 1e-10, f"max violation {worst:.2e}")


def check_p_monotonicity(seed: int) -> CheckResult:
    rng = _rng(seed, 3)
    viol = []
    ps = [1.0, 1.2, 1.3, 1.7, 2.0, 2.7, 3.5, 4.0, 10.0, math.inf]
    for n in (2, 4, 5):
        x = _ginibre(rng, n)
        norms = [schatten_norm(x, p) for p in ps]
        viol.extend(hi - lo for lo, hi in combinations(norms, 2))
    worst = _worst(viol)
    return CheckResult("matcore.p_monotonicity", worst <= 1e-12, f"max violation {worst:.2e}")


def check_dual_certificate(seed: int) -> CheckResult:
    rng = _rng(seed, 5)
    errs = []
    for n in (2, 3, 4):
        for p in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, math.inf):
            x = _ginibre(rng, n)
            z = dual_element(x, p)
            q = math.inf if p == 1.0 else (1.0 if math.isinf(p) else p / (p - 1.0))
            ref = schatten_norm(x, p)
            errs.append(abs(np.trace(z.conj().T @ x).real - ref) / ref)
            errs.append(abs(schatten_norm(z, q) - 1.0))
    err = _worst(errs)
    return CheckResult("matcore.dual_certificate", err <= 1e-10, f"max err {err:.2e}")


def check_gradient_fd(seed: int) -> CheckResult:
    rng = _rng(seed, 6)
    step = 1e-5
    errs = []
    for p in (1.5, 2.0, 3.0):
        y = _ginibre(rng, 3)
        g = dual_element(y, p)
        for i in range(3):
            for j in range(3):
                for part, direction in ((g[i, j].real, 1.0), (g[i, j].imag, 1j)):
                    d = np.zeros((3, 3), dtype=complex)
                    d[i, j] = direction * step
                    fd = (schatten_norm(y + d, p) - schatten_norm(y - d, p)) / (2 * step)
                    errs.append(abs(fd - part))
    err = _worst(errs)
    return CheckResult("normest.gradient_fd", err <= 1e-6, f"max abs err {err:.2e}")


# ---------------------------------------------------------------------------
# cpmap


def check_frac_power_homomorphism(seed: int) -> CheckResult:
    rng = _rng(seed, 4)
    errs = []
    for n in (2, 3):
        g = _ginibre(rng, n)
        h = g @ g.conj().T + 0.2 * np.eye(n)
        state = State.from_matrix(h / np.trace(h).real)
        for s, t in (
            (0.5, 0.5), (-1.0, -1.0), (2.0, -0.5), (1.5, 0.8), (-2.0, 0.3), (1.7, 0.9),
            (-2.0, -0.4),
        ):
            gs = state.power(s)
            tr = np.trace(gs).real
            lhs = State.from_matrix(gs / tr).power(t) * tr**t
            rhs = state.power(s * t)
            errs.append(np.abs(lhs - rhs).max() / np.abs(rhs).max())
    err = _worst(errs)
    return CheckResult("cpmap.frac_power_homomorphism", err <= 1e-10, f"max rel err {err:.2e}")


def check_choi_adjoint_duality(seed: int) -> CheckResult:
    rng = _rng(seed, 7)
    errs = []
    for n in (2, 3):
        t = SuperOperator(_ginibre(rng, n * n))
        for _ in range(5):
            x, y = _ginibre(rng, n), _ginibre(rng, n)
            lhs = np.trace(y.conj().T @ t(x))
            rhs = np.trace(t.adjoint()(y).conj().T @ x)
            errs.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    err = _worst(errs)
    return CheckResult("cpmap.choi_adjoint_duality", err <= 1e-10, f"max rel err {err:.2e}")


def check_kadison_schwarz(seed: int) -> CheckResult:
    rng = _rng(seed, 8)
    worst = -math.inf
    for n in (2, 3):
        for _ in range(5):
            t = _random_unital_cp_map(rng, n)
            x = _ginibre(rng, n)
            gap = t(x).conj().T @ t(x) - t(x.conj().T @ x)
            worst = max(worst, float(np.linalg.eigvalsh(_hermitian_part(gap))[-1]))
    return CheckResult("cpmap.kadison_schwarz", worst <= 1e-10, f"max lambda_max {worst:.2e}")


def check_c1_certificate(seed: int) -> CheckResult:
    rng = _rng(seed, 9)
    ok = True
    details = []
    for n in (2, 3):
        t = _random_cp_map(rng, n)
        state = _random_state(rng, n)
        c1 = compatibility(t, state).c1
        gamma = state.matrix
        tgam = t.adjoint()(gamma)

        def lam_min(cc):
            m = cc * gamma - tgam
            return float(np.linalg.eigvalsh(_hermitian_part(m))[0])

        above = lam_min(c1 + 1e-10)
        below = lam_min(c1 - 1e-6)
        ok = ok and above >= -1e-10 and below < 0
        details.append(f"n={n}: above {above:.1e}, below {below:.1e}")
    return CheckResult("cpmap.c1_certificate", ok, "; ".join(details))


def check_unital_cp_cinf(seed: int) -> CheckResult:
    rng = _rng(seed, 10)
    errs = []
    for n in (2, 3):
        t = _random_unital_cp_map(rng, n)
        rep = compatibility(t, _random_state(rng, n))
        if not (rep.unital and rep.completely_positive):
            return CheckResult("cpmap.unital_cp_cinf", False, "construction not unital CP")
        errs.append(abs(rep.c_inf - 1.0))
    err = _worst(errs)
    return CheckResult("cpmap.unital_cp_cinf", err <= 1e-10, f"max |c_inf - 1| {err:.2e}")


def check_cp_flags(seed: int) -> CheckResult:
    ok = True
    for c in (0.1, 0.5, 0.9):
        ok = ok and is_completely_positive(qubit_map(c))
    transpose = SuperOperator.from_map(lambda e: e.T.copy(), 2)
    ok = ok and not is_completely_positive(transpose)
    ok = ok and is_completely_positive(SuperOperator.identity(3))
    # a family member conjugated by a diagonal phase unitary: complex, still CP
    d = np.diag([1.0, np.exp(0.7j)])
    t = qubit_map(0.3)
    phased = SuperOperator.from_map(lambda e: d @ t(d.conj() @ e @ d) @ d.conj(), 2)
    ok = ok and is_completely_positive(phased)
    # Choi matrices that split into diagonal blocks: the third power (8 blocks)
    # is CP; Choi(transpose kron T) has eigenvalues -1 * lambda(Choi T) < 0
    ok = ok and is_completely_positive(kron_superop(kron_superop(t, t), t))
    ok = ok and not is_completely_positive(kron_superop(transpose, t))
    return CheckResult(
        "cpmap.cp_flags",
        ok,
        "family, phased member and third power CP; transpose and transpose kron member not CP",
    )


# ---------------------------------------------------------------------------
# embed / normest


def check_theta_symmetry_qubit(seed: int) -> CheckResult:
    rng = _rng(seed, 11)
    errs = []
    for _ in range(3):
        c = float(rng.uniform(0.15, 0.85))
        p = float(rng.uniform(1.0, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        t, s = qubit_map(c), qubit_state(c)
        v1, v2 = (
            estimate_norm(build_embedded(t, s, p, th).u_action, p, restarts=8, seed=seed).value
            for th in (theta, 1.0 - theta)
        )
        errs.append(abs(v1 - v2))
    err = _worst(errs)
    return CheckResult("embed.theta_symmetry_qubit", err <= 1e-6, f"max |diff| {err:.2e}")


def check_half_theta_contraction(seed: int) -> CheckResult:
    rng = _rng(seed, 12)
    worst = -math.inf
    for n in (2, 3):
        for p in (1.0, 1.4, 1.6, 2.5):
            t = _random_cp_map(rng, n)
            state = _random_state(rng, n)
            rep = compatibility(t, state)
            t = SuperOperator(t.action_matrix * (1.0 / max(rep.c1, rep.c_inf)))  # C1, C_inf <= 1
            emap = build_embedded(t, state, p, 0.5)
            worst = max(worst, estimate_norm(emap.u_action, p, restarts=8, seed=seed).value - 1.0)
    return CheckResult("embed.half_theta_contraction", worst <= 1e-8, f"max excess {worst:.2e}")


def check_classify_symmetry(seed: int) -> CheckResult:
    rng = _rng(seed, 13)
    ok = True
    for _ in range(100):
        p = float(rng.uniform(1.0, 3.0))
        theta = float(rng.uniform(0.0, 1.0))
        a = classify_region(p, theta)
        b = classify_region(p, 1.0 - theta)
        ok = ok and a is b
    return CheckResult("embed.classify_symmetry", ok, "theta <-> 1-theta over 100 draws")


def check_p2_exact_vs_estimate(seed: int) -> CheckResult:
    # estimate_norm answers p = 2 in closed form, so the screen-then-polish
    # ascent is checked against the exact norm on its own
    rng = _rng(seed, 14)
    ascent_errs, estimate_errs = [], []
    for n in (2, 3):
        for _ in range(5):
            t = SuperOperator(_ginibre(rng, n * n) / n)
            state = _random_state(rng, n)
            emap = build_embedded(t, state, 2.0, float(rng.uniform(0, 1)))
            exact = exact_norm_p2(emap)
            ys = normest._start_stack(n, 2.0, 8, seed, ())
            action = emap.u_action.action_matrix
            ascent = normest._polish(action, 2.0, normest._ascend(action, 2.0, ys))[1].values[0]
            est = estimate_norm(emap.u_action, 2.0, restarts=8, seed=seed).value
            ascent_errs.append(abs(ascent - exact) / exact)
            estimate_errs.append(abs(est - exact) / exact)
    ascent_err, estimate_err = _worst(ascent_errs), _worst(estimate_errs)
    return CheckResult(
        "embed.p2_exact_vs_estimate",
        ascent_err <= 1e-11 and estimate_err <= 1e-12,
        f"ascent max rel err {ascent_err:.2e}, estimate max rel err {estimate_err:.2e}",
    )


def check_monotone_ascent(seed: int) -> CheckResult:
    rng = _rng(seed, 15)
    worst = -math.inf
    for p in (1.0, 1.5, 3.0):
        t = SuperOperator(_ginibre(rng, 9))
        y0 = _ginibre(rng, 3)
        y0 = y0 / schatten_norm(y0, p)
        run = normest._ascend(t.action_matrix, p, y0[None], normest.POLISH_TOL)
        worst = max(worst, run.max_drop[0])
    return CheckResult("normest.monotone_ascent", worst <= 1e-12, f"max drop {worst:.2e}")


# Thm 4.1 at every theta for p >= 2, and the theta = 1/2 bound below p = 2
_SOUNDNESS_CELLS = [(p, th) for p in (2.0, 2.5, 3.0, 5.0) for th in (0.0, 0.3, 0.7, 1.0)]
_SOUNDNESS_CELLS += [(1.0, 0.5), (1.3, 0.5), (1.7, 0.5)]


def check_soundness_vs_upper_bound(seed: int) -> CheckResult:
    # every estimate is at most the bound up to rounding: 1e-14 relative
    # covers a few ulps of the estimate and of C_1 at p = 1, theta = 1/2,
    # where the exact norm is C_1
    rng = _rng(seed, 16)
    ok, worst = True, -math.inf
    cases = 0
    for n in (2, 3):
        for _ in range(2):
            t = _random_cp_map(rng, n)
            state = _random_state(rng, n)
            rep = compatibility(t, state)
            for p, theta in _SOUNDNESS_CELLS:
                bound = upper_bound(rep, p, classify_region(p, theta))
                if bound is None:
                    detail = f"no bound at p={p}, theta={theta}"
                    return CheckResult("normest.soundness_vs_upper_bound", False, detail)
                emap = build_embedded(t, state, p, theta)
                est = estimate_norm(emap.u_action, p, restarts=4, seed=seed).value
                ok = ok and est <= bound * (1.0 + 1e-14)
                worst = max(worst, est / bound - 1.0)
                cases += 1
    return CheckResult(
        "normest.soundness_vs_upper_bound",
        ok,
        f"max relative excess {worst:.2e} over {cases} cases",
    )


def check_russo_dye_p1(seed: int) -> CheckResult:
    # at p = 1 and theta = 1/2 a positive T makes U positive, and Russo-Dye
    # on its adjoint gives ||U||_1->1 = ||U^*(I)|| = ||G^-1/2 T^*(G) G^-1/2||,
    # which is C_1: an exact value at every n, held from both sides
    rng = _rng(seed, 32)
    gaps = []
    for n in (2, 3, 4, 5, 6):
        for _ in range(4):
            t = _random_cp_map(rng, n)
            state = _random_state(rng, n)
            c1 = compatibility(t, state).c1
            emap = build_embedded(t, state, 1.0, 0.5)
            gaps.append((estimate_norm(emap.u_action, 1.0, seed=seed).value - c1) / c1)
    lo, hi = min(gaps), max(gaps)
    return CheckResult(
        "normest.russo_dye_p1",
        max(-lo, hi) <= 1e-12,
        f"rel gap to C_1 in [{lo:.2e}, {hi:.2e}] over {len(gaps)} maps",
    )


def check_determinism(seed: int) -> CheckResult:
    rng = _rng(seed, 17)
    t = _random_cp_map(rng, 2)
    state = _random_state(rng, 2)
    emap = build_embedded(t, state, 1.5, 0.2)
    runs = [estimate_norm(emap.u_action, 1.5, restarts=8, seed=seed) for _ in range(4)]
    a = runs[0]
    ok = all(b.value == a.value and np.array_equal(b.witness, a.witness) for b in runs[1:])
    return CheckResult("normest.determinism", ok, f"values {[r.value for r in runs]!r}")


def check_batch_determinism(seed: int) -> CheckResult:
    # every start that estimate_norm screened, and the polish of the earliest
    # best one, rerun alone, must come out bit for bit the same: a start's
    # result may not depend on its batch or its wave
    rng = _rng(seed, 30)
    cases = []
    for n in (2, 3, 4):
        for p in (1.0, 1.5, 3.0):
            emap = build_embedded(
                _random_cp_map(rng, n), _random_state(rng, n), p, float(rng.uniform(0, 1))
            )
            cases.append((emap.u_action, p, 8))
    # the Schur multiplier by a 4x4 Hadamard matrix holds every matrix unit at
    # value 1 while each Ginibre start climbs above it, so a second wave runs
    h = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])
    cases.append((SuperOperator.from_map(lambda e: h * e, 4), 3.0, normest.RESTARTS))
    starts = mismatched = waves = 0
    linked = True
    for u, p, restarts in cases:
        ys, batch = normest._waves(u, p, restarts, seed, ())
        est = estimate_norm(u, p, restarts=restarts, seed=seed)
        # the starts that ran lead the one-batch start order
        full = normest._start_stack(u.dim, p, restarts, seed, ())
        in_order = np.array_equal(ys, full[: len(ys)])
        best = int(np.argmax(batch.values))
        polish = normest._ascend(
            u.action_matrix, p, batch.witnesses[best:best + 1], normest.POLISH_TOL
        )
        winner = normest._normalize(polish.witnesses, p)[0]
        linked = linked and in_order and np.array_equal(est.witness, winner) and (
            est.iterations, est.converged, est.restarts_used
        ) == (batch.iterations[best] + polish.iterations[0], polish.converged[0], len(ys))
        draws = len(ys) - (len(full) - restarts)
        waves = max(waves, -(-draws // normest.WAVE))
        for i, y0 in enumerate(ys):
            alone = normest._ascend(u.action_matrix, p, y0[None])
            starts += 1
            mismatched += not (
                alone.values[0] == batch.values[i]
                and np.array_equal(alone.witnesses[0], batch.witnesses[i])
                and alone.iterations[0] == batch.iterations[i]
                and alone.converged[0] == batch.converged[i]
            )
    return CheckResult(
        "normest.batch_determinism",
        mismatched == 0 and linked and waves > 1,
        f"{mismatched} of {starts} starts differ when run alone; "
        f"the waves keep the start order and estimate_norm reports the polish of "
        f"the earliest best start: {linked}; "
        f"most waves in one estimate: {waves}",
    )


def check_homogeneity(seed: int) -> CheckResult:
    rng = _rng(seed, 18)
    t = SuperOperator(_ginibre(rng, 4))
    errs = []
    for p in (1.0, 1.7, 2.0):
        base = estimate_norm(t, p, restarts=4, seed=seed).value
        for scale in (3.0, 0.25):
            scaled_map = SuperOperator(scale * t.action_matrix)
            scaled = estimate_norm(scaled_map, p, restarts=4, seed=seed).value
            errs.append(abs(scaled - scale * base) / (scale * base))
    err = _worst(errs)
    return CheckResult("normest.homogeneity", err <= 1e-10, f"max rel err {err:.2e}")


# ---------------------------------------------------------------------------
# qubitfamily


def check_family_consistency(seed: int) -> CheckResult:
    rng = _rng(seed, 19)
    ok = True
    details = []
    for _ in range(5):
        c = float(rng.uniform(0.2, 0.8))
        p = float(rng.uniform(1.0, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        w = family_witness(c, p, theta)
        fam = w.m_value
        emap = build_embedded(qubit_map(c), qubit_state(c), p, theta)
        free = estimate_norm(emap.u_action, p, restarts=8, seed=seed).value
        witness = np.array([[0, w.a], [w.b, 0]], dtype=complex)
        seeded = estimate_norm(emap.u_action, p, restarts=8, seed=seed, starts=[witness]).value
        ok = ok and fam <= free * (1.0 + 1e-12) and seeded >= fam * (1.0 - 1e-12)
        details.append(
            f"fam/free - 1 {fam / free - 1.0:.2e}, seeded/fam - 1 {seeded / fam - 1.0:.2e}"
        )
    return CheckResult("qubitfamily.consistency_with_estimator", ok, "; ".join(details))


def check_family_symmetry(seed: int) -> CheckResult:
    rng = _rng(seed, 20)
    errs = []
    for _ in range(20):
        c = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(1.0 + 1e-6, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        m = family_witness(c, p, theta).m_value
        errs.append(abs(family_witness(1.0 - c, p, theta).m_value - m))
        errs.append(abs(family_witness(c, p, 1.0 - theta).m_value - m))
        # p = 1 keeps the composed symmetry only (fixed endpoint witness).
        m1 = family_witness(c, 1.0, theta).m_value
        errs.append(abs(family_witness(1.0 - c, 1.0, 1.0 - theta).m_value - m1))
    err = _worst(errs)
    return CheckResult("qubitfamily.symmetry", err <= 1e-12, f"max |diff| {err:.2e}")


def check_family_baseline(seed: int) -> CheckResult:
    rng = _rng(seed, 21)
    errs = []
    for _ in range(20):
        p, theta = float(rng.uniform(1.0, 2.0)), float(rng.uniform(0, 1))
        errs.append(abs(family_witness(0.5, p, theta).m_value - 1.0))
    errs.append(abs(family_witness(0.5, 1.0, 0.3).m_value - 1.0))
    err = _worst(errs)
    return CheckResult("qubitfamily.baseline", err <= 1e-14, f"max |m(1/2) - 1| {err:.2e}")


def check_taylor_alpha(seed: int) -> CheckResult:
    rng = _rng(seed, 22)
    step = 1e-4
    errs = []
    draws = 0
    while draws < 20:
        p = float(rng.uniform(1.05, 1.95))
        theta = float(rng.uniform(0.0, 1.0))
        a = alpha(p, theta)
        if abs(a) < 0.05:  # relative comparison is ill-posed near the zero set
            continue
        draws += 1
        q = p / (p - 1.0)
        theta0, theta1 = theta_thresholds(p)
        factored = 8.0 * q * (theta - theta0) * (theta - theta1)
        if abs(factored - a) > 1e-12:
            return CheckResult(
                "qubitfamily.taylor_alpha", False, f"alpha forms differ by {abs(factored - a):.2e}"
            )

        def pow_p(t):
            return family_witness(0.5 + t, p, theta).m_value ** p

        second = (pow_p(step) - 2.0 + pow_p(-step)) / (2.0 * step * step)
        errs.append(abs(second - a) / abs(a))
    err = _worst(errs)
    return CheckResult("qubitfamily.taylor_alpha", err <= 1e-3, f"max rel err {err:.2e}")


def check_taylor_p1(seed: int) -> CheckResult:
    rng = _rng(seed, 23)
    step = 1e-4
    errs = []
    for _ in range(20):
        theta = float(rng.uniform(0.0, 1.0))
        up = family_witness(0.5 + step, 1.0, theta).m_value
        down = family_witness(0.5 - step, 1.0, theta).m_value
        fd = (up - down) / (2 * step)
        errs.append(abs(fd - alpha1(theta)))
    err = _worst(errs)
    return CheckResult("qubitfamily.taylor_p1", err <= 1e-5, f"max abs err {err:.2e}")


def check_sign_law(seed: int) -> CheckResult:
    rng = _rng(seed, 24)
    ok = True
    for _ in range(200):
        p = float(rng.uniform(1.0 + 1e-9, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        theta0, theta1 = theta_thresholds(p)
        outside = theta < theta0 or theta > theta1
        ok = ok and (alpha(p, theta) > 0) == outside
        if outside:
            ok = ok and classify_region(p, theta).status is Status.UNBOUNDED
    return CheckResult("qubitfamily.sign_law", ok, "alpha > 0 iff theta outside [theta0, theta1]")


def check_embedded_action_match(seed: int) -> CheckResult:
    rng = _rng(seed, 25)
    errs = []
    for _ in range(5):
        c = float(rng.uniform(0.1, 0.9))
        p = float(rng.uniform(1.0, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        emap = build_embedded(qubit_map(c), qubit_state(c), p, theta)
        d = _delta(c, p, theta)
        s = math.sqrt(c * (1 - c))
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        e21 = e12.T.copy()
        errs.append(np.abs(emap.u_action(e12) - s * (e12 + d * e21)).max())
        errs.append(np.abs(emap.u_action(e21) - s * (e12 / d + e21)).max())
    err = _worst(errs)
    return CheckResult("qubitfamily.embedded_action_match", err <= 1e-10, f"max abs err {err:.2e}")


def check_family_batch_determinism(seed: int) -> CheckResult:
    # every cell of a _family_row stack, rerun alone through family_max, must
    # come out bit for bit the same: a cell's witness may not depend on its
    # row.  The fixed cells take their argmax at the edge of the scan
    # (p = 1.2, theta = 0.9; p = 1, theta = 0).
    rng = _rng(seed, 31)
    ps = [1.0, 1.2] + [float(p) for p in rng.uniform(1.0, 2.0, 3)]
    thetas = [0.0, 0.5, 0.9, 1.0] + [float(t) for t in rng.uniform(0.0, 1.0, 8)]
    cells = mismatched = 0
    for p in ps:
        for theta, c, w in zip(thetas, *_family_row(p, thetas)):
            alone = family_max(p, theta)
            cells += 1
            mismatched += any(
                float(x).hex() != float(y).hex() for x, y in zip((c, *w), astuple(alone))
            )
    return CheckResult(
        "qubitfamily.batch_determinism",
        mismatched == 0,
        f"{mismatched} of {cells} cells differ when run alone",
    )


# ---------------------------------------------------------------------------
# tensor


def check_kron_lower_bound(seed: int) -> CheckResult:
    rng = _rng(seed, 26)
    ok = True
    details = []
    for p in (1.0, 1.5):
        c1v, c2v = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))
        theta = float(rng.uniform(0.0, 1.0))
        t1, t2 = qubit_map(c1v), qubit_map(c2v)
        s1, s2 = qubit_state(c1v), qubit_state(c2v)
        r1 = estimate_norm(build_embedded(t1, s1, p, theta).u_action, p, restarts=4, seed=seed)
        r2 = estimate_norm(build_embedded(t2, s2, p, theta).u_action, p, restarts=4, seed=seed)
        product = r1.value * r2.value
        big = build_embedded(kron_superop(t1, t2), kron_state(s1, s2), p, theta)
        seeded = estimate_norm(
            big.u_action, p, restarts=4, seed=seed, starts=[np.kron(r1.witness, r2.witness)]
        ).value
        ok = ok and seeded >= product - 1e-6
        details.append(f"p={p}: kron {seeded:.8f} >= prod {product:.8f}")
    return CheckResult("tensor.kron_lower_bound", ok, "; ".join(details))


def check_p2_multiplicativity(seed: int) -> CheckResult:
    rng = _rng(seed, 27)
    pairs = []
    for _ in range(5):
        c2v = float(rng.uniform(0.2, 0.8))
        theta = float(rng.uniform(0.0, 1.0))
        t1 = SuperOperator(_ginibre(rng, 4) / 2)
        pairs.append((t1, _random_state(rng, 2), qubit_map(c2v), qubit_state(c2v), theta))
    # a qubit (x) qubit pair, exactly real throughout
    c1v, c2v = (float(v) for v in rng.uniform(0.2, 0.8, 2))
    theta = float(rng.uniform(0.0, 1.0))
    pairs.append((qubit_map(c1v), qubit_state(c1v), qubit_map(c2v), qubit_state(c2v), theta))
    errs = []
    for t1, s1, t2, s2, theta in pairs:
        e1 = build_embedded(t1, s1, 2.0, theta)
        e2 = build_embedded(t2, s2, 2.0, theta)
        big = build_embedded(kron_superop(t1, t2), kron_state(s1, s2), 2.0, theta)
        product = exact_norm_p2(e1) * exact_norm_p2(e2)
        errs.append(abs(exact_norm_p2(big) - product) / product)
    err = _worst(errs)
    return CheckResult("tensor.p2_multiplicativity", err <= 1e-10, f"max rel err {err:.2e}")


# ---------------------------------------------------------------------------
# cli


def check_witness_certification(seed: int) -> CheckResult:
    rng = _rng(seed, 29)
    value_errs, unit_errs = [], []
    for p in (1.0, 1.5, 2.0, 2.5):
        t = _random_cp_map(rng, 2)
        state = _random_state(rng, 2)
        emap = build_embedded(t, state, p, float(rng.uniform(0, 1)))
        for u in (emap.u_action, SuperOperator(_ginibre(rng, 9))):
            est = estimate_norm(u, p, restarts=4, seed=seed)
            value_errs.append(abs(schatten_norm(u(est.witness), p) - est.value) / est.value)
            unit_errs.append(abs(schatten_norm(est.witness, p) - 1.0))
    value_err, unit_err = _worst(value_errs), _worst(unit_errs)
    return CheckResult(
        "cli.witness_certification",
        value_err <= 1e-10 and unit_err <= 1e-12,
        f"max value rel err {value_err:.2e}, max |norm - 1| {unit_err:.2e}",
    )


# every check_* above, in definition order: the order of the verify report
ALL_CHECKS = tuple(
    fn for name, fn in globals().items() if name.startswith("check_") and inspect.isfunction(fn)
)


def run_all(seed: int) -> list[CheckResult]:
    return [check(seed) for check in ALL_CHECKS]
