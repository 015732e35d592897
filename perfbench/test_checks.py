"""The benchmark's correctness gate can fail: each deliberately wrong output
must give failed_frac > 0, and the untouched output must give 0.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
import nclp  # noqa: E402
import nclp.cli  # noqa: E402

P, THETA = 2.0, 0.25


def failed_frac(*verdicts) -> float:
    tally = checks.Tally()
    for index, reasons in enumerate(verdicts):
        tally.add(f"item-{index}", reasons)
    return tally.failed_frac


@pytest.fixture(scope="module")
def norm_case(tmp_path_factory):
    """A CP map at p = 2: the report has an upper bound and the p = 2 oracle applies."""
    work = tmp_path_factory.mktemp("norm")
    rng = np.random.default_rng(3)
    case = {"id": "case", "n": 2, "kind": "kraus", "p": P, "theta": THETA,
            "action": inputs.random_map(rng, 2, "kraus"), "state": inputs.random_state(rng, 2)}
    [entry] = inputs.write_norm_corpus([case], work)
    out = work / "report.json"
    code = nclp.cli.main(["norm", "--map", entry["map"], "--state", entry["state"],
                          "--p", repr(P), "--theta", repr(THETA), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["upper_bound"] is not None
    return case["action"], case["state"], report


def check(norm_case, **changes):
    action, state, report = norm_case
    reference = changes.pop("reference", report["lower_bound"])
    return checks.check_norm(action, state, P, THETA, dict(report, **changes), reference)


def test_untouched_report_passes(norm_case):
    assert failed_frac(check(norm_case)) == 0.0


@pytest.mark.parametrize("factor", [1 + 1e-7, 1 - 1e-7])
def test_perturbed_lower_bound_fails(norm_case, factor):
    lower = norm_case[2]["lower_bound"]
    assert failed_frac(check(norm_case), check(norm_case, lower_bound=lower * factor)) > 0


def test_lower_bound_below_reference_fails(norm_case):
    lower = norm_case[2]["lower_bound"]
    assert failed_frac(check(norm_case, reference=lower * (1 + 1e-8))) > 0


def test_witness_off_the_unit_sphere_fails(norm_case):
    # Scale witness and value together so that only ||w||_p != 1 is wrong.
    report = norm_case[2]
    witness = [[[1.01 * re, 1.01 * im] for re, im in row] for row in report["witness"]]
    bad = check(norm_case, witness=witness, lower_bound=1.01 * report["lower_bound"],
                upper_bound=None, reference=None)
    assert any("witness norm" in reason for reason in bad)
    assert failed_frac(bad) > 0


def test_lower_bound_above_upper_bound_fails(norm_case):
    lower = norm_case[2]["lower_bound"]
    assert failed_frac(check(norm_case, upper_bound=lower * (1 - 1e-6))) > 0


def test_flipped_csv_byte_fails(tmp_path):
    strip = next(s for s in inputs.phase_strips() if s["id"] == "row-050")
    out = tmp_path / "strip.csv"
    code = nclp.cli.main(["phase-diagram", "--p-min", strip["p_min"], "--p-max", strip["p_max"],
                          "--p-step", inputs.PHASE_P_STEP, "--theta-step", inputs.PHASE_THETA_STEP,
                          "--with-family", "--out", str(out)])
    assert code == 0
    digest = json.loads((HERE / "refs" / "phase-sweep.json").read_text())["strips"][strip["id"]]
    good = out.read_bytes()
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x01
    assert failed_frac(checks.check_strip(good, digest)) == 0.0
    assert failed_frac(checks.check_strip(good, digest), checks.check_strip(bytes(bad), digest)) > 0


def test_tensor_item_with_wrong_factor_count_or_m_fails(tmp_path):
    pair = inputs.tensor_pairs(inputs.DEFAULT_SEED)[1]
    workload = worker.TensorPower(nclp, [pair], inputs.DEFAULT_SEED, tmp_path)
    result = workload.run(pair)
    assert failed_frac(workload.check(pair, result)) == 0.0
    assert result["factors"] is not None
    wrong_count = dict(result, factors=result["factors"] + 1)
    inflated_m = dict(result, m=result["m"] * (1 + 1e-6))
    assert failed_frac(workload.check(pair, wrong_count)) > 0
    assert failed_frac(workload.check(pair, inflated_m)) > 0


def test_references_cover_every_item():
    """A missing reference would silently skip a check, so every item has one."""
    refs = {name: json.loads((HERE / "refs" / f"{name}.json").read_text())
            for name in ("norm-report", "phase-sweep", "tensor-power")}
    assert refs["norm-report"]["seed"] == refs["tensor-power"]["seed"] == inputs.DEFAULT_SEED
    assert set(refs["phase-sweep"]["strips"]) == {s["id"] for s in inputs.phase_strips()}
    assert set(refs["norm-report"]["cases"]) == {
        c["id"] for c in inputs.norm_cases(inputs.DEFAULT_SEED)
    }
    assert set(refs["tensor-power"]["pairs"]) == {
        p["id"] for p in inputs.tensor_pairs(inputs.DEFAULT_SEED)
    }
