import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp import cli
from nclp.cpmap import SuperOperator
from nclp.qubitfamily import qubit_map, qubit_state


def superop_json(t, kind="action"):
    data = t.action_matrix if kind == "action" else t.choi
    return {"dim": t.dim, "kind": kind, "data": cli.encode_matrix(data)}


QUBIT_MAP_06 = superop_json(qubit_map(0.6))
QUBIT_STATE_06 = {"dim": 2, "data": cli.encode_matrix(qubit_state(0.6).gamma.matrix)}
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
    bare = cli.decode_state(cli.encode_matrix(qubit_state(0.25).gamma.matrix))
    wrapped = cli.decode_state(QUBIT_STATE_06)
    assert bare.dim == wrapped.dim == 2


# ---------------------------------------------------------------------------
# phase-diagram


def test_phase_diagram_classifications():
    csv_text = cli.render_phase_diagram_csv(1.0, 3.0, 0.1, 0.5, with_family=True)
    table = rows_by_cell(csv_text)
    assert table[(3.0, 0.9)][:2] == ("bounded", "Thm41")
    assert table[(1.5, 0.4)][:2] == ("bounded", "Thm43")
    assert table[(1.5, 0.1)][:2] == ("unbounded", "Thm61")
    assert table[(1.5, 0.2)][:2] == ("unknown", "None")
    # family column filled only below p = 2
    assert float(table[(1.5, 0.1)][2]) > 1.0
    assert table[(3.0, 0.9)][2] == ""
    assert table[(2.0, 0.5)][2] == ""


def test_phase_diagram_byte_identical_runs(tmp_path):
    args = dict(p_min=1.0, p_max=2.0, theta_step=0.25, p_step=0.5, with_family=True)
    first = cli.render_phase_diagram_csv(**args)
    second = cli.render_phase_diagram_csv(**args)
    assert first == second

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = cli.main(
            [
                "phase-diagram",
                "--p-min", "1", "--p-max", "2",
                "--p-step", "0.5", "--theta-step", "0.25",
                "--with-family", "--out", str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    # the last two grids are too large to build: 1e300 and overflowing cell counts
    for p_min, p_max, p_step in (
        ("3", "2", "1"), ("1", "inf", "1"), ("1", "2", "1e-300"), ("1", "2", "5e-324"),
    ):
        code = cli.main(
            ["phase-diagram", "--p-min", p_min, "--p-max", p_max,
             "--p-step", p_step, "--theta-step", "0.5"]
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


def test_norm_refuses_non_finite_report(tmp_path, capsys):
    # T(X) = 1e308 X_22 E_11 has finite entries, but its C1 = 0.7e308 / 0.3
    # overflows; a finite c1 here would put the upper bound below the lower
    action = np.zeros((4, 4))
    action[0, 3] = 1e308
    huge = superop_json(SuperOperator(action))
    state = {"dim": 2, "data": cli.encode_matrix(qubit_state(0.3).gamma.matrix)}
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


# ---------------------------------------------------------------------------
# decoder fuzzing: every input decodes or raises one of the two exceptions
# that main turns into exit 2

_HUGE = st.integers(min_value=2**1024, max_value=2**1100)
_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(),  # NaN and the infinities included
    st.booleans(),
    _HUGE,
    _HUGE.map(lambda v: -v),
    st.none(),
    st.text(max_size=2),
)
_ENTRIES = _SCALARS | st.lists(_SCALARS, min_size=2, max_size=2)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "kind", "data"]), inner, max_size=3),
    max_leaves=8,
)
_SQUARE = st.sampled_from([1, 2]).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
)
_DIMS = st.one_of(st.integers(-1, 3), st.booleans(), _HUGE, st.floats(), st.none())
_FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def decodes_or_refuses(decode, obj):
    try:
        decode(obj)
    except (ValueError, np.linalg.LinAlgError):
        pass


@_FUZZ
@given(_SQUARE | _JSON)
def test_decode_matrix_fuzz(obj):
    decodes_or_refuses(cli.decode_matrix, obj)


@_FUZZ
@given(
    st.fixed_dictionaries(
        {"dim": _DIMS, "kind": st.sampled_from(["action", "choi", "kraus"]), "data": _SQUARE}
    )
    | _JSON
)
def test_decode_superop_fuzz(obj):
    decodes_or_refuses(cli.decode_superop, obj)


@_FUZZ
@given(
    _SQUARE
    | st.fixed_dictionaries({"data": _SQUARE}, optional={"dim": _DIMS})
    | _JSON
)
def test_decode_state_fuzz(obj):
    decodes_or_refuses(cli.decode_state, obj)


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


def test_counterexample_none(capsys):
    code = cli.main(["counterexample", "--p", "1.5", "--theta", "0.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == "none"


def test_counterexample_above_theta1(capsys):
    code = cli.main(["counterexample", "--p", "1.1", "--theta", "0.95"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_value"] > 1.0 + 1e-6


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
