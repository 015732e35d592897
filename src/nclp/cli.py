"""Command-line front end: phase-diagram sweeps, norm reports, counterexample
scans, and the self-verification suite.

JSON conventions: complex scalars are two-element arrays [re, im] (plain
numbers accepted on input, booleans refused), matrices are nested row arrays,
superoperators are objects {"dim": n, "kind": "choi" | "action", "data":
<n^2 x n^2 matrix>}, states are a matrix or {"data": <n x n matrix>} with an
optional "dim": n.
Exit codes: 0 success, 2 invalid input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from .cpmap import State, SuperOperator, compatibility
from .embed import Source, _classify_row, build_embedded, classify_region, upper_bound
from .normest import DEFAULT_SEED, RESTARTS, _check_seed, estimate_norm
from .qubitfamily import _family_row, family_max
from .tensor import steps_to_exceed

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VERIFY_FAILED = 3

# Largest phase diagram, in cells; a larger grid is refused before any cell is built.
MAX_GRID_CELLS = 10_000_000

DIVERGENCE_THRESHOLD = 10.0


# ---------------------------------------------------------------------------
# JSON encoding / decoding


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


# The exact leaf types that decode in one conversion.  bool is a subclass of
# int but not one of these types, so it still reaches the walk that refuses it.
_NUMBER_TYPES = {int, float}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _decode_entry(e) -> complex:
    if _is_number(e):
        parts = (e,)
    elif isinstance(e, list) and len(e) == 2 and all(_is_number(v) for v in e):
        parts = e
    else:
        raise ValueError(f"matrix entry must be a number or [re, im], got {e!r}")
    try:
        return complex(*parts)
    except OverflowError as exc:
        raise ValueError("matrix entry is beyond the float range") from exc


def _decode_homogeneous(entries: list, shape: tuple[int, int]) -> np.ndarray | None:
    """The matrix in one conversion when every entry is a number or every entry
    is an [re, im] pair of numbers; None for any other input, which the
    per-entry walk of :func:`decode_matrix` decodes or refuses.

    Only leaves of exact type int or float pass the type scan, since
    ``np.fromiter`` would also take "1.5", booleans and None.  An int beyond
    the float range is left to the walk, which refuses it.  A pair matrix
    reads its (re, im) doubles as one complex128 buffer, so each part keeps
    its bits, signed zeros included, as ``complex(re, im)`` does.
    """
    types = set(map(type, entries))
    pairs = types == {list} and set(map(len, entries)) == {2}
    if pairs:
        entries = list(chain.from_iterable(entries))
        types = set(map(type, entries))
    if not types <= _NUMBER_TYPES:
        return None
    try:
        flat = np.fromiter(entries, dtype=float, count=len(entries))
    except OverflowError:
        return None
    return flat.view(complex).reshape(shape) if pairs else flat.astype(complex).reshape(shape)


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix must be a non-empty list of rows")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise ValueError("matrix rows must be non-empty and equally long")
    matrix = _decode_homogeneous(list(chain.from_iterable(obj)), (len(obj), width))
    if matrix is not None:
        return matrix
    return np.array([[_decode_entry(e) for e in row] for row in obj], dtype=complex)


def _positive_dim(dim, what: str) -> int:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"{what} dim must be a positive integer, got {dim!r}")
    return dim


def decode_superop(obj) -> SuperOperator:
    if not isinstance(obj, dict):
        raise ValueError("superoperator must be an object with dim/kind/data")
    try:
        dim = obj["dim"]
        kind = obj["kind"]
        data = decode_matrix(obj["data"])
    except KeyError as exc:
        raise ValueError(f"superoperator is missing key {exc}") from exc
    n2 = _positive_dim(dim, "superoperator") ** 2
    if data.shape != (n2, n2):
        raise ValueError(f"superoperator data must be {n2}x{n2}, got {data.shape}")
    if kind == "action":
        return SuperOperator(data)
    if kind == "choi":
        return SuperOperator.from_choi(data)
    raise ValueError(f"unknown superoperator kind {kind!r}")


def decode_state(obj) -> State:
    if not isinstance(obj, dict):
        return State.from_matrix(decode_matrix(obj))
    try:
        data = decode_matrix(obj["data"])
    except KeyError as exc:
        raise ValueError("state object must carry a 'data' matrix") from exc
    if "dim" in obj:
        dim = _positive_dim(obj["dim"], "state")
        if data.shape != (dim, dim):
            raise ValueError(f"state data must be {dim}x{dim}, got {data.shape}")
    return State.from_matrix(data)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path} nests JSON arrays or objects too deeply") from exc


# ---------------------------------------------------------------------------
# phase diagram


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact and byte-stable."""
    return "%.17g" % x


def _grid_count(start: float, stop: float, step: float) -> float:
    """Number of points start, start + step, ... <= stop; inf when it overflows."""
    span = (stop - start) / step + 1e-9
    return math.floor(span) + 1.0 if math.isfinite(span) else math.inf


def _grid(start: float, stop: float, step: float, count: float) -> list[float]:
    """start + k * step for k < count, each capped at stop: the count allows
    a 1e-9 step of overshoot, which must not carry a point past stop."""
    return [min(start + k * step, stop) for k in range(int(count))]


# The status and source columns of a cell, written once per classification.
_SOURCE_COLS = {source: f"{source.status.value},{source.value}" for source in Source}


def render_phase_diagram_csv(
    p_min: float,
    p_max: float,
    theta_step: float,
    p_step: float,
    *,
    with_family: bool,
) -> str:
    """Grid classification as CSV, one line per cell in (p, theta) order.

    Each p row is built from two row passes that make no object per cell:
    ``embed._classify_row`` gives the status and source columns, and, with
    the family and p < 2, ``qubitfamily._family_row`` gives the m_value
    floats of the family_max column.  The bytes are those of
    ``classify_region`` and ``family_max(p, theta).m_value`` cell by cell.
    """
    if not all(math.isfinite(v) for v in (p_min, p_max, theta_step, p_step)):
        raise ValueError("grid bounds and steps must be finite")
    if not (1.0 <= p_min <= p_max):
        raise ValueError(f"need 1 <= p_min <= p_max, got [{p_min}, {p_max}]")
    if not (theta_step > 0 and p_step > 0):
        raise ValueError("grid steps must be positive")
    p_count = _grid_count(p_min, p_max, p_step)
    theta_count = _grid_count(0.0, 1.0, theta_step)
    if p_count * theta_count > MAX_GRID_CELLS:
        raise ValueError(
            f"grid of {p_count:.3g} x {theta_count:.3g} cells exceeds {MAX_GRID_CELLS} cells"
        )
    thetas = _grid(0.0, 1.0, theta_step, theta_count)
    theta_cols = [_fmt(theta) for theta in thetas]
    no_family = [""] * len(thetas)
    lines = ["p,theta,status,source,family_max"]
    for p in _grid(p_min, p_max, p_step, p_count):
        if with_family and p < 2.0:
            fams = [_fmt(m) for _, _, m in _family_row(p, thetas)[1]]
        else:
            fams = no_family
        p_col = _fmt(p)
        lines += [
            f"{p_col},{theta_col},{_SOURCE_COLS[source]},{fam}"
            for theta_col, source, fam in zip(theta_cols, _classify_row(p, thetas), fams)
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _write_output(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, out_path: str | None):
    """Write ``obj`` as indented JSON; NaN and infinities, which JSON has no
    spelling for, raise ValueError before anything is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"report holds a non-finite number: {exc}") from exc
    _write_output(text + "\n", out_path)


def cmd_phase_diagram(args) -> int:
    csv_text = render_phase_diagram_csv(
        args.p_min, args.p_max, args.theta_step, args.p_step, with_family=args.with_family
    )
    _write_output(csv_text, args.out)
    return EXIT_OK


def cmd_norm(args) -> int:
    base = decode_superop(_load_json(args.map))
    state = decode_state(_load_json(args.state))
    emap = build_embedded(base, state, args.p, args.theta)
    est = estimate_norm(emap.u_action, args.p, restarts=args.restarts, seed=args.seed)
    rep = compatibility(base, state)
    source = classify_region(args.p, args.theta)
    upper = upper_bound(rep, args.p, source)
    upper_source = None if upper is None else source.value
    report = {
        "p": args.p,
        "theta": args.theta,
        "lower_bound": est.value,
        "witness": encode_matrix(est.witness),
        "upper_bound": upper,
        "upper_bound_source": upper_source,
        "region_status": source.status.value,
        "region_source": source.value,
        "c1": rep.c1,
        "c_inf": rep.c_inf,
        "cp": rep.completely_positive,
        "unital": rep.unital,
        "converged": est.converged,
        "iterations": est.iterations,
        "restarts_used": est.restarts_used,
    }
    _write_json(report, args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if not (1.0 <= args.p < 2.0):
        raise ValueError(
            f"p = {args.p} is outside [1, 2): the pair is classified "
            f"{classify_region(args.p, args.theta).status.value} and the family "
            "provides no witness"
        )
    if not args.tol > 0:
        raise ValueError("tolerance must be positive")
    witness = family_max(args.p, args.theta)
    if witness.m_value > 1.0 + args.tol:
        payload = {
            "c": witness.c,
            "t": witness.c - 0.5,
            "a": witness.a,
            "b": witness.b,
            "m_value": witness.m_value,
            "p": args.p,
            "theta": args.theta,
            "tensor_factors_to_exceed_10": steps_to_exceed(witness.m_value, DIVERGENCE_THRESHOLD),
        }
    else:
        payload = "none"
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # deferred: only verify runs the check suite, and importing it at the top
    # would add its load time and memory to every other subcommand
    from . import selfcheck

    _check_seed(args.seed)
    results = selfcheck.run_all(args.seed)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    failed = [res.name for res in results if not res.passed]
    report = {
        "seed": args.seed,
        "passed": not failed,
        "failures": failed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    if args.out:
        _write_json(report, args.out)
    if failed:
        print(json.dumps({"failures": failed}, sort_keys=True))
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: built once, since building it costs about
    a millisecond per call and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nclp",
        description="Induced Schatten-norm estimates, boundedness bounds, and "
        "counterexample scans for density-weighted matrix maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pd = sub.add_parser("phase-diagram", help="sweep (p, theta) into a CSV")
    pd.add_argument("--p-min", type=float, required=True)
    pd.add_argument("--p-max", type=float, required=True)
    pd.add_argument("--p-step", type=float, required=True)
    pd.add_argument("--theta-step", type=float, required=True)
    pd.add_argument("--with-family", action="store_true",
                    help="scan the 2x2 family per cell with p < 2")
    pd.add_argument("--out", help="output CSV path (default: stdout)")

    nm = sub.add_parser("norm", help="estimate the induced norm of one map")
    nm.add_argument("--map", required=True, help="superoperator JSON path")
    nm.add_argument("--state", required=True, help="density-matrix JSON path")
    nm.add_argument("--p", type=float, required=True)
    nm.add_argument("--theta", type=float, required=True)
    nm.add_argument("--restarts", type=int, default=RESTARTS)
    nm.add_argument("--seed", type=int, default=DEFAULT_SEED)
    nm.add_argument("--out", help="output JSON path (default: stdout)")

    ce = sub.add_parser("counterexample", help="scan the 2x2 family at (p, theta)")
    ce.add_argument("--p", type=float, required=True)
    ce.add_argument("--theta", type=float, required=True)
    ce.add_argument("--tol", type=float, default=1e-6)
    ce.add_argument("--out", help="output JSON path (default: stdout)")

    vf = sub.add_parser("verify", help="run the invariant suite")
    vf.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vf.add_argument("--out", help="JSON report path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a handler replaced after the first call runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValueError, OSError, json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
