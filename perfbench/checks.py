"""Correctness checker for the workloads' outputs.

The checker never imports ``nclp``: it decodes the program's JSON and CSV
with its own code and recomputes norms with its own ``numpy.linalg.svd``.
Each check returns a list of reasons; an empty list means the item passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

WITNESS_RTOL = 1e-9  # ||w||_p = 1 and ||U(w)||_p = lower_bound
REFERENCE_RTOL = 1e-10  # value >= reference * (1 - tol)
P2_RTOL = 1e-6  # p = 2 lower bound against the exact sigma_max
UPPER_RTOL = 1e-8  # lower_bound <= upper_bound * (1 + tol)
UNIT_ATOL = 1e-10  # c1, c_inf and the exact p = 2 norm equal 1


class Tally:
    """Verdicts of every attempted item; failures are kept by case."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, case: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append({"case": case, "reasons": reasons})

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# linear algebra, independent of the program under test


def decode_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(e[0], e[1]) if isinstance(e, list) else complex(e) for e in row] for row in rows]
    )


def schatten(x: np.ndarray, p: float) -> float:
    s = np.linalg.svd(x, compute_uv=False)
    top = s[0]
    if top == 0.0:
        return 0.0
    return float(top * np.sum((s / top) ** p) ** (1.0 / p))


def _power(w: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    return (v * w**s) @ v.conj().T


def embedded_action(action: np.ndarray, state: np.ndarray, p: float, theta: float) -> np.ndarray:
    """Action matrix of U(Y) = G^a T(G^-a Y G^-b) G^b, a = (1-theta)/p, b = theta/p.

    Column stacking: vec(A Z B) = (B^T kron A) vec(Z).
    """
    w, v = np.linalg.eigh(state)
    a, b = (1.0 - theta) / p, theta / p
    left = np.kron(_power(w, v, b).T, _power(w, v, a))
    right = np.kron(_power(w, v, -b).T, _power(w, v, -a))
    return left @ action @ right


def apply(action: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = y.shape[0]
    return (action @ y.reshape(-1, order="F")).reshape((n, n), order="F")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# norm-report


def check_norm(
    action: np.ndarray,
    state: np.ndarray,
    p: float,
    theta: float,
    report: dict,
    reference: float | None = None,
) -> list[str]:
    """Check one ``nclp norm`` report against its inputs.

    ``reference`` is the seed commit's lower bound for this case, when known.
    """
    reasons = []
    lower = report.get("lower_bound")
    if not isinstance(lower, (int, float)) or not math.isfinite(lower):
        return [f"lower_bound is not a finite number: {lower!r}"]
    u = embedded_action(action, state, p, theta)
    witness = decode_matrix(report["witness"])
    w_norm = schatten(witness, p)
    if _rel(w_norm, 1.0) > WITNESS_RTOL:
        reasons.append(f"witness norm {w_norm!r} != 1")
    value = schatten(apply(u, witness), p)
    if _rel(lower, value) > WITNESS_RTOL:
        reasons.append(f"lower_bound {lower!r} != ||U(witness)||_p = {value!r}")
    if reference is not None and lower < reference * (1.0 - REFERENCE_RTOL):
        reasons.append(f"lower_bound {lower!r} below the reference {reference!r}")
    if p == 2.0:
        exact = float(np.linalg.svd(u, compute_uv=False)[0])
        if _rel(lower, exact) > P2_RTOL:
            reasons.append(f"p = 2 lower_bound {lower!r} != sigma_max {exact!r}")
    upper = report.get("upper_bound")
    if upper is not None and lower > upper * (1.0 + UPPER_RTOL):
        reasons.append(f"lower_bound {lower!r} above upper_bound {upper!r}")
    return reasons


# ---------------------------------------------------------------------------
# phase-sweep


def strip_digest(csv_bytes: bytes) -> str:
    return hashlib.sha256(csv_bytes).hexdigest()


def check_strip(csv_bytes: bytes, reference_digest: str | None) -> list[str]:
    """The CSV must be byte-identical to the reference.  Only while references
    are being recorded is there none; test_checks makes sure every strip has one."""
    if reference_digest is None:
        return []
    digest = strip_digest(csv_bytes)
    if digest != reference_digest:
        return [f"CSV sha256 {digest} != reference {reference_digest}"]
    return []


# ---------------------------------------------------------------------------
# tensor-power


def smallest_factor_count(m: float, threshold: float = 10.0) -> int | None:
    """Smallest k with m**k > threshold, confirmed with float powers."""
    if m <= 1.0:
        return None
    k = max(1, math.ceil(math.log(threshold) / math.log(m)))
    while m**k <= threshold:
        k += 1
    while k > 1 and m ** (k - 1) > threshold:
        k -= 1
    return k


def check_tensor(result: dict, references: list[float] | None = None) -> list[str]:
    """Check one tensor-power item.

    ``result`` holds ``m``, ``factors`` (the CLI's factor count, or None),
    ``p`` and one entry per power k in ``powers``: the product witness
    ``witness``, its image ``image``, the CLI-side ``value``, the
    compatibility fields and the exact p = 2 norm.  ``references`` are the
    seed commit's m**k values for this pair.
    """
    reasons = []
    m, p = result["m"], result["p"]
    for index, row in enumerate(result["powers"]):
        k = row["k"]
        target = m**k
        if _rel(schatten(row["witness"], p), 1.0) > WITNESS_RTOL:
            reasons.append(f"k={k}: product witness is not a unit vector")
        own = schatten(row["image"], p)
        if _rel(row["value"], own) > WITNESS_RTOL:
            reasons.append(f"k={k}: product value {row['value']!r} != own norm {own!r}")
        if own < target * (1.0 - REFERENCE_RTOL):
            reasons.append(f"k={k}: product value {own!r} below m^k = {target!r}")
        if references is not None and target < references[index] * (1.0 - REFERENCE_RTOL):
            reasons.append(f"k={k}: m^k = {target!r} below the reference {references[index]!r}")
        if not (row["cp"] and row["unital"]):
            reasons.append(f"k={k}: map not flagged CP and unital")
        for name in ("c1", "c_inf", "p2_norm"):
            if abs(row[name] - 1.0) > UNIT_ATOL:
                reasons.append(f"k={k}: {name} = {row[name]!r} != 1")
    factors = result["factors"]
    if factors is not None and factors != smallest_factor_count(m):
        reasons.append(f"factor count {factors} != {smallest_factor_count(m)}")
    return reasons
