"""Every phase-sweep strip of the benchmark renders to its recorded bytes.

The strips and their SHA-256 digests are read from ``perfbench/``, which this
test leaves unchanged, so a change that moves any strip's bytes fails here and
not only in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from nclp import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_phase_sweep_strip_matches_its_digest(tmp_path):
    inputs = _perfbench_inputs()
    refs = json.loads((PERFBENCH / "refs" / "phase-sweep.json").read_text())["strips"]
    out = tmp_path / "strip.csv"
    strips = inputs.phase_strips()
    mismatched = []
    for strip in strips:
        code = cli.main([
            "phase-diagram", "--p-min", strip["p_min"], "--p-max", strip["p_max"],
            "--p-step", inputs.PHASE_P_STEP, "--theta-step", inputs.PHASE_THETA_STEP,
            "--with-family", "--out", str(out),
        ])
        assert code == 0, strip["id"]
        if hashlib.sha256(out.read_bytes()).hexdigest() != refs[strip["id"]]:
            mismatched.append(strip["id"])
    assert len(strips) == 101
    assert not mismatched, f"{len(mismatched)} strips differ: {mismatched}"
