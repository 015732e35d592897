import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import cli
from nclp.cpmap import SuperOperator
from nclp.embed import classify_region
from nclp.qubitfamily import family_max, qubit_map, qubit_state


def superop_json(t, kind="action"):
    data = t.action_matrix if kind == "action" else t.choi
    return {"dim": t.dim, "kind": kind, "data": cli.encode_matrix(data)}


QUBIT_MAP_06 = superop_json(qubit_map(0.6))
QUBIT_STATE_06 = {"dim": 2, "data": cli.encode_matrix(qubit_state(0.6).matrix)}
IDENTITY_MAP = superop_json(SuperOperator.identity(2))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def rows_by_cell(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == "p,theta,status,source,family_max"
    table = {}
    for line in lines[1:]:
        p, theta, status, source, fam = line.split(",")
        table[(round(float(p), 9), round(float(theta), 9))] = (status, source, fam)
    return table


# ---------------------------------------------------------------------------
# JSON codecs


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0.5], [-1j, 3.0]])
    assert np.abs(cli.decode_matrix(cli.encode_matrix(m)) - m).max() == 0.0


def test_decode_matrix_accepts_plain_numbers():
    m = cli.decode_matrix([[1, 2], [3, 4]])
    assert np.abs(m - np.array([[1, 2], [3, 4]])).max() == 0.0
    # ints beyond 2**53 round to nearest, ties to even
    m = cli.decode_matrix([[2**53 + 3, 2**64 + 2049]])
    assert m.real.tolist() == [[2.0**53 + 4, 2.0**64 + 4096]]


@pytest.mark.parametrize(
    "bad",
    [[], [[1, 2], [3]], [[{"re": 1}]], "nope", [[[1, 2, 3]]]],
)
def test_decode_matrix_rejects_malformed(bad):
    with pytest.raises(ValueError):
        cli.decode_matrix(bad)


@pytest.mark.parametrize("kind", ["action", "choi"])
def test_superop_round_trip(kind):
    t = qubit_map(0.37)
    back = cli.decode_superop(superop_json(t, kind))
    assert np.abs(back.action_matrix - t.action_matrix).max() < 1e-12


def test_decode_superop_rejects_malformed():
    with pytest.raises(ValueError):
        cli.decode_superop({"dim": 2, "kind": "action", "data": [[1]]})
    with pytest.raises(ValueError):
        cli.decode_superop({"dim": 2, "data": [[1]]})
    with pytest.raises(ValueError):
        cli.decode_superop({"dim": 2, "kind": "kraus", "data": IDENTITY_MAP["data"]})
    with pytest.raises(ValueError):
        cli.decode_superop([[1, 2], [3, 4]])
    # dim must be a JSON integer >= 1: no null, string, float or bool
    for dim in (None, "2", 2.9, True, 0):
        with pytest.raises(ValueError, match="dim"):
            cli.decode_superop({"dim": dim, "kind": "action", "data": IDENTITY_MAP["data"]})
    with pytest.raises(ValueError, match="dim"):
        cli.decode_superop({"dim": True, "kind": "action", "data": [[1]]})


def test_decode_state_accepts_bare_matrix_or_wrapper():
    bare = cli.decode_state(cli.encode_matrix(qubit_state(0.25).matrix))
    wrapped = cli.decode_state(QUBIT_STATE_06)
    assert bare.dim == wrapped.dim == 2


# ---------------------------------------------------------------------------
# phase-diagram


def test_phase_diagram_classifications():
    # acceptance criterion 8 holds the status and source cells of this grid
    table = rows_by_cell(cli.render_phase_diagram_csv(1.0, 3.0, 0.1, 0.5, with_family=True))
    # family column filled only below p = 2
    assert float(table[(1.5, 0.1)][2]) > 1.0
    assert table[(3.0, 0.9)][2] == ""
    assert table[(2.0, 0.5)][2] == ""


def _per_cell_csv(p_values, theta_step, with_family):
    """The phase-diagram CSV built cell by cell from ``classify_region`` and
    ``family_max``, the oracle of the renderer's row passes."""
    count = math.floor(1.0 / theta_step + 1e-9) + 1
    thetas = [min(k * theta_step, 1.0) for k in range(count)]
    lines = ["p,theta,status,source,family_max"]
    for p in p_values:
        for theta in thetas:
            source = classify_region(p, theta)
            fam = "%.17g" % family_max(p, theta).m_value if with_family and p < 2.0 else ""
            lines.append(f"{p:.17g},{theta:.17g},{source.status.value},{source.value},{fam}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("theta_step", [0.07, 0.3])
@pytest.mark.parametrize("with_family", [True, False])
def test_phase_diagram_rows_match_the_per_cell_oracle(theta_step, with_family):
    # off the benchmark grid: several rows per call, the p = 1 row and a row past p = 2
    p_values = [min(1.0 + k * 0.35, 2.05) for k in range(4)]
    csv_text = cli.render_phase_diagram_csv(1.0, 2.05, theta_step, 0.35, with_family=with_family)
    assert csv_text == _per_cell_csv(p_values, theta_step, with_family)


def test_phase_diagram_floats_round_trip():
    # 17 significant digits reproduce the computed grid values exactly
    csv_text = cli.render_phase_diagram_csv(1.0, 1.0, 0.3, 1.0, with_family=False)
    lines = csv_text.strip().split("\n")[1:]
    thetas = [float(line.split(",")[1]) for line in lines]
    assert all(float(line.split(",")[0]) == 1.0 for line in lines)
    assert thetas == [0.0 + k * 0.3 for k in range(4)]


def test_phase_diagram_grid_stops_at_theta_one(tmp_path):
    # the step count allows a 1e-9 step of overshoot; the last theta is
    # capped at 1 instead of landing at 1.00000000016667 and being refused
    out = tmp_path / "grid.csv"
    code = cli.main(
        ["phase-diagram", "--p-min", "1.5", "--p-max", "1.5", "--p-step", "0.1",
         "--theta-step", "0.33333333338889", "--with-family", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert float(lines[-1].split(",")[1]) == 1.0


def test_phase_diagram_rejects_seed_flag():
    # the sweep draws nothing at random, so it takes no seed
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["phase-diagram", "--p-min", "1", "--p-max", "2", "--p-step", "1",
             "--theta-step", "0.5", "--seed", "1"]
        )
    assert exc.value.code == cli.EXIT_INVALID_INPUT


def test_phase_diagram_rejects_bad_range(capsys):
    # the 1e-300 and 5e-324 grids are too large to build: 1e300 and
    # overflowing cell counts
    for p_min, p_max, p_step, theta_step in (
        ("3", "2", "1", "0.5"), ("1", "inf", "1", "0.5"), ("1", "2", "1e-300", "0.5"),
        ("1", "2", "5e-324", "0.5"), ("1", "2", "1", "0"), ("1", "2", "-0.5", "0.5"),
    ):
        code = cli.main(
            ["phase-diagram", "--p-min", p_min, "--p-max", p_max,
             "--p-step", p_step, "--theta-step", theta_step]
        )
        assert code == cli.EXIT_INVALID_INPUT
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# norm


def run_norm(tmp_path, map_obj, state_obj, extra):
    map_path = write_json(tmp_path / "map.json", map_obj)
    state_path = write_json(tmp_path / "state.json", state_obj)
    out_path = tmp_path / "report.json"
    code = cli.main(
        ["norm", "--map", map_path, "--state", state_path, "--out", str(out_path)]
        + extra
    )
    return code, json.loads(out_path.read_text()) if code == 0 else None


def test_norm_identity_map(tmp_path):
    code, report = run_norm(
        tmp_path, IDENTITY_MAP, QUBIT_STATE_06, ["--p", "2", "--theta", "0.3", "--restarts", "4"]
    )
    assert code == 0
    assert report["lower_bound"] == pytest.approx(1.0, abs=1e-9)
    assert report["upper_bound"] == pytest.approx(1.0, abs=1e-9)
    assert report["upper_bound_source"] == "Thm41"
    assert report["cp"] and report["unital"]


def test_norm_qubit_below_p2_reports_no_upper_bound(tmp_path):
    code, report = run_norm(
        tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", "1", "--theta", "0", "--restarts", "8"]
    )
    assert code == 0
    assert report["lower_bound"] >= 1.224744 - 1e-9
    assert report["upper_bound"] is None
    assert report["region_status"] == "unbounded"
    assert report["c1"] == pytest.approx(1.0, abs=1e-10)
    assert report["c_inf"] == pytest.approx(1.0, abs=1e-10)
    # the emitted witness reproduces the bound
    from nclp.embed import build_embedded
    from nclp.matcore import schatten_norm

    emap = build_embedded(qubit_map(0.6), qubit_state(0.6), 1.0, 0.0)
    witness = cli.decode_matrix(report["witness"])
    assert schatten_norm(emap.u_action(witness), 1.0) == pytest.approx(
        report["lower_bound"], rel=1e-10
    )


def test_norm_qubit_at_p2(tmp_path):
    code, report = run_norm(
        tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", "2", "--theta", "0", "--restarts", "4"]
    )
    assert code == 0
    assert report["lower_bound"] == pytest.approx(1.0, abs=1e-6)
    assert report["upper_bound"] == pytest.approx(1.0, abs=1e-6)
    fields = (report["iterations"], report["converged"], report["restarts_used"])
    assert fields == (0, True, 0)


def test_norm_refuses_restarts_beyond_ceiling(tmp_path, capsys):
    code, _ = run_norm(
        tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", "1.5", "--theta", "0", "--restarts", "1025"]
    )
    assert_refused(code, capsys)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("p", ["1.5", "2"])
@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_norm_refuses_seed_outside_key_range(tmp_path, capsys, p, seed):
    code, _ = run_norm(
        tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", p, "--theta", "0", "--seed", seed]
    )
    assert code == cli.EXIT_INVALID_INPUT
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_norm_half_theta_upper_bound(tmp_path):
    code, report = run_norm(
        tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", "1.3", "--theta", "0.5", "--restarts", "4"]
    )
    assert code == 0
    assert report["upper_bound_source"] == "HJXHalf"
    assert report["lower_bound"] <= report["upper_bound"] + 1e-8


def test_norm_non_cp_map_reports_null_cinf(tmp_path):
    transpose = superop_json(SuperOperator.from_map(lambda e: e.T.copy(), 2))
    code, report = run_norm(
        tmp_path, transpose, QUBIT_STATE_06, ["--p", "2", "--theta", "0.5", "--restarts", "2"]
    )
    assert code == 0
    assert report["cp"] is False
    assert report["c_inf"] is None
    assert report["upper_bound"] is None and report["upper_bound_source"] is None
    assert report["c1"] == pytest.approx(1.0, abs=1e-10)
    # the region fields classify the (p, theta) pair, not the map
    assert (report["region_status"], report["region_source"]) == ("bounded", "Thm41")


def test_norm_refuses_non_finite_report(tmp_path, capsys):
    # T(X) = 1e308 X_22 E_11 has finite entries, but its C1 = 0.7e308 / 0.3
    # overflows; a finite c1 here would put the upper bound below the lower
    action = np.zeros((4, 4))
    action[0, 3] = 1e308
    huge = superop_json(SuperOperator(action))
    state = {"dim": 2, "data": cli.encode_matrix(qubit_state(0.3).matrix)}
    with np.errstate(all="ignore"):
        code, _ = run_norm(tmp_path, huge, state, ["--p", "2", "--theta", "0.3"])
    assert code == cli.EXIT_INVALID_INPUT
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_norm_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    state = write_json(tmp_path / "state.json", QUBIT_STATE_06)
    code = cli.main(["norm", "--map", str(bad), "--state", state, "--p", "2", "--theta", "0"])
    assert code == cli.EXIT_INVALID_INPUT


def test_norm_rejects_dimension_mismatch(tmp_path):
    state3 = {"dim": 3, "data": cli.encode_matrix(np.eye(3) / 3)}
    code, _ = run_norm(tmp_path, QUBIT_MAP_06, state3, ["--p", "2", "--theta", "0"])
    assert code == cli.EXIT_INVALID_INPUT


def test_norm_rejects_non_faithful_state(tmp_path):
    singular = {"dim": 2, "data": [[1.0, 0.0], [0.0, 0.0]]}
    code, _ = run_norm(tmp_path, QUBIT_MAP_06, singular, ["--p", "2", "--theta", "0"])
    assert code == cli.EXIT_INVALID_INPUT


def assert_refused(code, capsys):
    assert code == cli.EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_norm_rejects_entry_beyond_float_range(tmp_path, capsys):
    data = np.eye(4).tolist()
    data[0][0] = 10**400
    huge = {"dim": 2, "kind": "action", "data": data}
    code, _ = run_norm(tmp_path, huge, QUBIT_STATE_06, ["--p", "2", "--theta", "0"])
    assert_refused(code, capsys)


def test_norm_rejects_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    state = write_json(tmp_path / "state.json", QUBIT_STATE_06)
    code = cli.main(["norm", "--map", str(deep), "--state", state, "--p", "2", "--theta", "0"])
    assert_refused(code, capsys)


def test_norm_rejects_boolean_entries(tmp_path, capsys):
    data = np.eye(4).tolist()
    data[0][0] = True
    flagged = {"dim": 2, "kind": "action", "data": data}
    code, _ = run_norm(tmp_path, flagged, QUBIT_STATE_06, ["--p", "2", "--theta", "0"])
    assert_refused(code, capsys)


def test_norm_rejects_state_dim_mismatch(tmp_path, capsys):
    state = {"dim": 5, "data": QUBIT_STATE_06["data"]}
    code, _ = run_norm(tmp_path, QUBIT_MAP_06, state, ["--p", "2", "--theta", "0"])
    assert_refused(code, capsys)
    # a bare 2x3 matrix, with no dim to compare against
    bare = [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]
    code, _ = run_norm(tmp_path, QUBIT_MAP_06, bare, ["--p", "2", "--theta", "0"])
    assert_refused(code, capsys)


# ---------------------------------------------------------------------------
# decoder oracle and fuzzing: every input decodes to the oracle's bits or
# raises the oracle's exception, which main turns into exit 2


def _oracle_entry(e) -> complex:
    if isinstance(e, (int, float)) and not isinstance(e, bool):
        parts = (e,)
    elif (
        isinstance(e, list)
        and len(e) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in e)
    ):
        parts = e
    else:
        raise ValueError(f"matrix entry must be a number or [re, im], got {e!r}")
    try:
        return complex(*parts)
    except OverflowError as exc:
        raise ValueError("matrix entry is beyond the float range") from exc


def oracle_decode_matrix(obj) -> np.ndarray:
    """The decoder as it was before homogeneous matrices took one conversion:
    one entry at a time, each through complex()."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix must be a non-empty list of rows")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise ValueError("matrix rows must be non-empty and equally long")
    return np.array([[_oracle_entry(e) for e in row] for row in obj], dtype=complex)


def _outcome(decode, obj):
    """("ok", dtype, shape, bytes) of the decoded array, or the exception's
    type and message; a decoded map or state is read as its matrix."""
    try:
        got = decode(obj)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return ("raised", type(exc), str(exc))
    arr = getattr(got, "action_matrix", getattr(got, "matrix", got))
    return ("ok", arr.dtype, arr.shape, arr.tobytes())


def assert_decodes_as_oracle(decode, obj):
    """``decode`` (one of cli's decoders) gives the bits or the exception that
    it gives with decode_matrix replaced by the oracle."""
    got = _outcome(decode, obj)
    with mock.patch.object(cli, "decode_matrix", oracle_decode_matrix):
        want = _outcome(decode, obj)
    assert got == want


_REFUSED = {
    "true among numbers": [[1.0, True], [0.0, 1.0]],
    "true inside a pair": [[[1.0, 0.0], [True, 0.0]]],
    "string number": [["1.5", 2.0]],
    "null": [[None, 1.0]],
    "ragged rows": [[1.0, 2.0], [3.0]],
    "no rows": [],
    "empty row": [[]],
    "one-part entry": [[[1.0], [2.0, 0.0]]],
    "three-part entry": [[[1.0, 0.0, 2.0]]],
    "int beyond float range": [[1.0, 10**400]],
    "int beyond float range in a pair": [[[0.0, -(10**400)], [1.0, 0.0]]],
}


@pytest.mark.parametrize("obj", list(_REFUSED.values()), ids=list(_REFUSED))
def test_decode_matrix_refuses_as_the_oracle(obj):
    with pytest.raises(ValueError):
        oracle_decode_matrix(obj)
    assert_decodes_as_oracle(cli.decode_matrix, obj)


# ints beyond 2**53 that round, on either side of the int64 range
_ROUNDED = [2**53 + 3, 2**64 + 2049, -(2**63 + 2049)]


@pytest.mark.parametrize(
    "obj",
    [
        [[v] for v in _ROUNDED],
        [[[v, -v]] for v in _ROUNDED],
        [[-0.0, 0.0], [0.0, -0.0]],
        [[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [0.0, 0.0]]],
        [[1.5, [2.0, -0.0]], [[-0.0, 1.0], -3]],  # mixed: the per-entry walk
    ],
    ids=["rounded ints", "rounded int pairs", "signed zeros", "signed zero pairs", "mixed"],
)
def test_decode_matrix_is_exact(obj):
    got = cli.decode_matrix(obj)
    assert got.dtype == complex and got.tobytes() == oracle_decode_matrix(obj).tobytes()


_HUGE = st.integers(min_value=2**1024, max_value=2**1100)
_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**53 + 1, 2**70),
    st.floats(),  # NaN, the infinities and signed zeros included
)
_SCALARS = st.one_of(
    _NUMBERS,
    st.booleans(),
    _HUGE,
    _HUGE.map(lambda v: -v),
    st.none(),
    st.text(max_size=2),
)
_ENTRIES = _SCALARS | st.lists(_SCALARS, min_size=1, max_size=3)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "kind", "data"]), inner, max_size=3),
    max_leaves=8,
)


def _squares(entries):
    return st.sampled_from([1, 2]).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


# any entries, or the homogeneous number and pair matrices of the fast path
_SQUARE = (
    _squares(_ENTRIES)
    | _squares(_NUMBERS)
    | _squares(st.lists(_NUMBERS, min_size=2, max_size=2))
)
_DIMS = st.one_of(st.integers(-1, 3), st.booleans(), _HUGE, st.floats(), st.none())
_FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@_FUZZ
@given(_SQUARE | _JSON)
def test_decode_matrix_fuzz(obj):
    assert_decodes_as_oracle(cli.decode_matrix, obj)


@_FUZZ
@given(
    st.fixed_dictionaries(
        {"dim": _DIMS, "kind": st.sampled_from(["action", "choi", "kraus"]), "data": _SQUARE}
    )
    | _JSON
)
def test_decode_superop_fuzz(obj):
    assert_decodes_as_oracle(cli.decode_superop, obj)


@_FUZZ
@given(
    _SQUARE
    | st.fixed_dictionaries({"data": _SQUARE}, optional={"dim": _DIMS})
    | _JSON
)
def test_decode_state_fuzz(obj):
    assert_decodes_as_oracle(cli.decode_state, obj)


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_witness_payload(capsys):
    code = cli.main(["counterexample", "--p", "1", "--theta", "0", "--tol", "1e-6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_value"] > 1.0 + 1e-6
    assert payload["tensor_factors_to_exceed_10"] >= 1
    assert payload["a"] == 1.0 and payload["b"] == 0.0
    assert payload["t"] == payload["c"] - 0.5
    assert (payload["p"], payload["theta"]) == (1.0, 0.0)


def test_counterexample_near_threshold_counts_factors(capsys):
    # m is within 5e-7 of 1, so the factor count is in the millions
    theta0 = (1.0 - math.sqrt(0.5)) / 2.0
    code = cli.main(
        ["counterexample", "--p", "1.5", "--theta", repr(theta0 - 1e-4), "--tol", "1e-9"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    m, k = payload["m_value"], payload["tensor_factors_to_exceed_10"]
    assert 1.0 + 1e-9 < m < 1.000001
    assert k == math.ceil(math.log(10.0) / math.log(m))
    assert m ** (k - 1) <= 10.0 < m**k


@pytest.mark.parametrize(
    "p, theta, tol, witness",
    [
        ("1", "0", "1e-6", True),
        ("1.5", "0.1", "1e-6", True),
        ("1.1", "0.95", "1e-6", True),
        ("1.5", "0.3", "1e-6", False),
        ("1", "0", "inf", False),
    ],
)
def test_counterexample_verdict(capsys, p, theta, tol, witness):
    code = cli.main(["counterexample", "--p", p, "--theta", theta, "--tol", tol])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    if witness:
        assert payload["m_value"] > 1.0 + float(tol)
    else:
        assert payload == "none"


def test_counterexample_none(capsys):
    code = cli.main(["counterexample", "--p", "1.5", "--theta", "0.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == "none"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_counterexample_refuses_non_positive_tol(capsys, tol):
    code = cli.main(["counterexample", "--p", "1.5", "--theta", "0.1", "--tol", tol])
    assert code == cli.EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tolerance must be positive\n"


def test_counterexample_rejects_bounded_p(capsys):
    code = cli.main(["counterexample", "--p", "2.5", "--theta", "0.1"])
    assert code == cli.EXIT_INVALID_INPUT
    assert "bounded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify wiring


def test_verify_reports_failures_with_exit_3(monkeypatch, capsys):
    from nclp import selfcheck

    def fake_run_all(seed):
        return [selfcheck.CheckResult("fake.check", False, "forced failure")]

    monkeypatch.setattr(selfcheck, "run_all", fake_run_all)
    code = cli.main(["verify"])
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL fake.check" in capsys.readouterr().out


def test_verify_report_file(monkeypatch, tmp_path):
    from nclp import selfcheck

    def fake_run_all(seed):
        return [selfcheck.CheckResult("fake.check", True, "ok")]

    monkeypatch.setattr(selfcheck, "run_all", fake_run_all)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["checks"][0]["name"] == "fake.check"


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_verify_refuses_seed_outside_key_range_before_any_check(monkeypatch, capsys, seed):
    from nclp import selfcheck

    # a check that ran would print its PASS line
    passing = [selfcheck.CheckResult("fake.check", True, "ok")]
    monkeypatch.setattr(selfcheck, "run_all", lambda _seed: passing)
    code = cli.main(["verify", "--seed", seed])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert "seed" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_verify_checks_are_deterministic():
    # representative draw-heavy checks repeated with the same seed
    from nclp import selfcheck

    for check in (
        selfcheck.check_unitary_invariance,
        selfcheck.check_soundness_vs_upper_bound,
        selfcheck.check_family_consistency,
    ):
        assert check(123) == check(123)


# ---------------------------------------------------------------------------
# one parser per process


def test_reused_parser_writes_the_bytes_of_fresh_processes(tmp_path):
    map_path = write_json(tmp_path / "map.json", QUBIT_MAP_06)
    state_path = write_json(tmp_path / "state.json", QUBIT_STATE_06)
    norm = ["norm", "--map", map_path, "--state", state_path, "--p", "1.5", "--theta", "0.25"]
    commands = [
        ["phase-diagram", "--p-min", "1", "--p-max", "1.5", "--p-step", "0.25",
         "--theta-step", "0.25", "--with-family"],
        norm + ["--restarts", "4", "--seed", "5"],
        ["counterexample", "--p", "1.5", "--theta", "0.05"],
        norm,  # the defaults again, not the previous call's options
    ]
    parser = cli._parser()
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for i, command in enumerate(commands):
        reused, fresh = tmp_path / f"reused-{i}", tmp_path / f"fresh-{i}"
        assert cli.main(command + ["--out", str(reused)]) == 0
        subprocess.run(
            [sys.executable, "-m", "nclp", *command, "--out", str(fresh)], env=env, check=True
        )
        assert reused.read_bytes() == fresh.read_bytes(), command
    assert cli._parser() is parser


def test_a_handler_patched_after_a_call_is_the_one_that_runs(tmp_path, monkeypatch):
    assert run_norm(tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", "2", "--theta", "0"])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_norm", lambda args: seen.append(args.p) or 7)
    assert run_norm(tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, ["--p", "3", "--theta", "0"])[0] == 7
    assert seen == [3.0]


def test_an_argparse_error_leaves_the_next_call_intact(tmp_path, capsys):
    extra = ["--p", "1.5", "--theta", "0.5"]
    code, before = run_norm(tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, extra)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "--map", "m.json", "--state", "s.json", "--restarts", "3",
                  "--p", "1.5", "--theta", "half"])
    assert exc.value.code == 2
    assert "invalid float value" in capsys.readouterr().err
    code, after = run_norm(tmp_path, QUBIT_MAP_06, QUBIT_STATE_06, extra)
    assert code == 0 and after == before
