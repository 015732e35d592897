"""Seeded inputs for the three workloads.

Everything here is plain numpy and never imports ``nclp``: the program under
test receives only the files and arguments built from these values.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# ---------------------------------------------------------------------------
# norm-report corpus

NORM_CASES = 120
NORM_PS = (1.0, 1.25, 1.5, 2.0, 3.0)
NORM_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Share of cases per size: small n sets the median, n = 8 the 90th percentile.
NORM_SIZE_WEIGHTS = {2: 0.33, 3: 0.27, 4: 0.25, 6: 0.08, 8: 0.07}
NORM_KINDS = ("kraus", "unital", "ginibre", "qubit")  # qubit members exist on M_2 only
# The base draw fixes each case's size, kind, exponents and matrices. The
# workload seed then relabels and re-phases the basis of every case (a random
# permutation times a random diagonal unitary). That changes every input
# file but keeps each case's norm and nearly its cost: the estimator's
# matrix-unit starts map onto matrix units, which a general unitary frame
# would not do, and a Haar frame moved single cases' times by up to 2x.
NORM_BASE_SEED = 20240406


def _ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)


def _kraus_action(ops) -> np.ndarray:
    """Action matrix of X -> sum A X A^* under column stacking."""
    return sum(np.kron(a.conj(), a) for a in ops)


def _inv_sqrt(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v / np.sqrt(w)) @ v.conj().T


def _monomial_unitary(rng: np.random.Generator, n: int, phases: bool) -> np.ndarray:
    v = np.eye(n, dtype=complex)[rng.permutation(n)]
    return v * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n)) if phases else v


def _hermitian_density(g: np.ndarray) -> np.ndarray:
    g = (g + g.conj().T) / 2.0
    return g / np.trace(g).real


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Faithful density with smallest eigenvalue at least 0.2 / n."""
    w = _ginibre(rng, n)
    g = w @ w.conj().T
    return _hermitian_density(0.8 * g / np.trace(g).real + 0.2 * np.eye(n) / n)


def random_map(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """Action matrix of one corpus map of the given kind.

    The CP kinds use n Kraus operators; unital ones are normalised so that
    sum A A^* = I.
    """
    if kind == "kraus":
        ops = [_ginibre(rng, n) / n for _ in range(n)]
        return _kraus_action(ops)
    if kind == "unital":
        ops = [_ginibre(rng, n) for _ in range(n)]
        s = _inv_sqrt(sum(a @ a.conj().T for a in ops))
        return _kraus_action([s @ a for a in ops])
    if kind == "ginibre":
        return _ginibre(rng, n * n) / n
    raise ValueError(f"unknown map kind {kind!r}")


def qubit_member(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Action matrix and state of the 2x2 family member with parameter c."""
    s = math.sqrt(c * (1.0 - c))
    k = np.zeros((4, 4), dtype=complex)
    # Column i + 2 j holds vec(T(E_ij)).
    k[:, 0] = [1.0 - c, 0.0, 0.0, 1.0 - c]  # T(E_11) = (1-c) I
    k[:, 3] = [c, 0.0, 0.0, c]  # T(E_22) = c I
    k[:, 1] = k[:, 2] = [0.0, s, s, 0.0]  # T(E_21) = T(E_12) = s (E_12 + E_21)
    return k, np.diag([1.0 - c, c]).astype(complex)


def _base_cases() -> list[dict]:
    rng = np.random.default_rng(NORM_BASE_SEED)
    sizes = list(NORM_SIZE_WEIGHTS)
    weights = np.array([NORM_SIZE_WEIGHTS[n] for n in sizes])
    cases = []
    for index in range(NORM_CASES):
        n = int(rng.choice(sizes, p=weights / weights.sum()))
        kinds = NORM_KINDS if n == 2 else NORM_KINDS[:-1]
        kind = kinds[int(rng.integers(len(kinds)))]
        p = NORM_PS[int(rng.integers(len(NORM_PS)))]
        theta = NORM_THETAS[int(rng.integers(len(NORM_THETAS)))]
        if kind == "qubit":
            action, state = qubit_member(float(rng.uniform(0.05, 0.95)))
        else:
            action, state = random_map(rng, n, kind), random_state(rng, n)
        cases.append(
            {"id": f"norm-{index:03d}-n{n}-{kind}", "n": n, "kind": kind,
             "p": p, "theta": theta, "action": action, "state": state}
        )
    return cases


def norm_cases(seed: int) -> list[dict]:
    """The norm-report corpus in timing order, each case in a seeded frame V:
    T'(X) = V T(V^* X V) V^*, G' = V G V^*.

    Qubit-family members get a permutation only, which keeps them family
    members (c becomes 1 - c when the two basis vectors swap).
    """
    rng = np.random.default_rng([seed, 0x6E6F726D])
    cases = []
    for case in _base_cases():
        n = case["n"]
        v = _monomial_unitary(rng, n, phases=case["kind"] != "qubit")
        frame = np.kron(v.conj(), v)  # vec(V X V^*) = (conj(V) kron V) vec(X)
        cases.append(
            dict(
                case,
                action=frame @ case["action"] @ frame.conj().T,
                state=_hermitian_density(v @ case["state"] @ v.conj().T),
            )
        )
    return cases


def _encode(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_norm_corpus(cases: list[dict], directory: Path) -> list[dict]:
    """Write each case's map and state JSON; return the manifest entries."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for case in cases:
        map_path = directory / f"{case['id']}-map.json"
        state_path = directory / f"{case['id']}-state.json"
        map_path.write_text(
            json.dumps({"dim": case["n"], "kind": "action", "data": _encode(case["action"])})
        )
        state_path.write_text(json.dumps({"data": _encode(case["state"])}))
        manifest.append(
            {
                "id": case["id"],
                "n": case["n"],
                "kind": case["kind"],
                "p": case["p"],
                "theta": case["theta"],
                "map": str(map_path),
                "state": str(state_path),
            }
        )
    return manifest


# ---------------------------------------------------------------------------
# phase-sweep strips

PHASE_P_STEP = "0.01"
PHASE_THETA_STEP = "0.005"


def phase_strips() -> list[dict]:
    """The grid p in [1, 3] x theta in [0, 1], cut into 101 strips.

    Each p < 2 row is one strip (it scans the family on all 201 cells); the
    p >= 2 rows, which never scan the family, form one strip of 101 rows.
    That keeps the strips' costs within a small factor of each other.
    """
    strips = [
        {"id": f"row-{k:03d}", "p_min": f"{1 + k / 100:.2f}", "p_max": f"{1 + k / 100:.2f}"}
        for k in range(100)
    ]
    strips.append({"id": "block-p2-p3", "p_min": "2", "p_max": "3"})
    return strips


def phase_order(seed: int) -> list[dict]:
    """All strips in a seeded order."""
    strips = phase_strips()
    rng = np.random.default_rng([seed, 0x70686173])
    return [strips[i] for i in rng.permutation(len(strips))]


# ---------------------------------------------------------------------------
# tensor-power pairs

TENSOR_PAIRS = 128
TENSOR_POWERS = (2, 3, 4)


def unbounded(p: float, theta: float) -> bool:
    """p < 2 and theta strictly outside [(1 - sqrt(p-1))/2, (1 + sqrt(p-1))/2]."""
    half = 0.5 * math.sqrt(p - 1.0)
    return p < 2.0 and (theta < 0.5 - half or theta > 0.5 + half)


def tensor_pairs(seed: int) -> list[dict]:
    """(p, theta) drawn uniformly from the unbounded region by rejection."""
    rng = np.random.default_rng([seed, 0x74656E73])
    pairs = []
    while len(pairs) < TENSOR_PAIRS:
        p, theta = float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.0, 1.0))
        if unbounded(p, theta):
            pairs.append({"id": f"pair-{len(pairs):03d}", "p": p, "theta": theta})
    return pairs
