"""One workload process: set-up, warm-up, then a timed or a traced loop.

Started by ``run.py`` with the inputs already written; run directly only
for debugging.  Writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

import calibrate  # noqa: E402  (sibling modules)
import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

# Stop looping after this much wall time, whatever the item count, so that a
# run ends well inside its time limit.
WALL_LIMIT_S = 120.0

# Counts that must repeat exactly between traced passes and traced runs.
EXACT_COUNTS = (
    "matcore.svd.calls",
    "normest.dual_ascent.calls",
    "normest.iters_per_start",
    "normest.svd_per_iter",
    "cpmap.superop_apply.calls",
    "qubitfamily.family_max.calls",
)


def _load_refs(name: str, key: str, seed: int) -> dict:
    """Reference entries recorded for ``seed``; a file without a seed holds for all."""
    path = REFS / f"{name}.json"
    if not path.exists():
        return {}
    refs = json.loads(path.read_text())
    return refs[key] if refs.get("seed") in (None, seed) else {}


# ---------------------------------------------------------------------------
# workloads: ``run`` is timed, ``check`` is not


class NormReport:
    """One item is one ``nclp norm`` call on one corpus case."""

    name = "norm-report"
    trace_extra = 8

    def __init__(self, nclp, manifest, seed, work):
        self.cli = nclp.cli
        self.items = manifest
        self.out = str(work / "norm-out.json")
        self.refs = _load_refs("norm-report", "cases", seed)
        self._decoded = {}
        sizes = {}
        for case in manifest:
            sizes.setdefault(case["n"], case)
        self.warmup_items = list(sizes.values())

    def run(self, case):
        return self.cli.main([
            "norm", "--map", case["map"], "--state", case["state"],
            "--p", repr(case["p"]), "--theta", repr(case["theta"]), "--out", self.out,
        ])

    def check(self, case, code):
        if code != 0:
            return [f"exit code {code}"]
        with open(self.out, encoding="utf-8") as fh:
            report = json.load(fh)
        if case["id"] not in self._decoded:
            with open(case["map"], encoding="utf-8") as fh:
                action = checks.decode_matrix(json.load(fh)["data"])
            with open(case["state"], encoding="utf-8") as fh:
                state = checks.decode_matrix(json.load(fh)["data"])
            self._decoded[case["id"]] = (action, state)
        action, state = self._decoded[case["id"]]
        ref = self.refs.get(case["id"])
        reference = None
        if ref is not None:
            if ref["fingerprint"] != case["fingerprint"]:
                return ["corpus case differs from the one the reference was taken on"]
            reference = ref["lower_bound"]
        return checks.check_norm(action, state, case["p"], case["theta"], report, reference)

    def reference_entry(self, case, _code):
        with open(self.out, encoding="utf-8") as fh:
            lower = json.load(fh)["lower_bound"]
        return {"lower_bound": lower, "fingerprint": case["fingerprint"]}


class PhaseSweep:
    """One item is one ``nclp phase-diagram --with-family`` call on one strip."""

    name = "phase-sweep"
    trace_extra = 20

    def __init__(self, nclp, manifest, seed, work):
        self.cli = nclp.cli
        self.items = manifest
        self.out = str(work / "strip.csv")
        self.refs = _load_refs("phase-sweep", "strips", seed)
        self.warmup_items = [
            next(s for s in manifest if s["p_min"] == s["p_max"]),
            next(s for s in manifest if s["p_min"] != s["p_max"]),
        ]

    def run(self, strip):
        return self.cli.main([
            "phase-diagram", "--p-min", strip["p_min"], "--p-max", strip["p_max"],
            "--p-step", inputs.PHASE_P_STEP, "--theta-step", inputs.PHASE_THETA_STEP,
            "--with-family", "--out", self.out,
        ])

    def _bytes(self):
        with open(self.out, "rb") as fh:
            return fh.read()

    def check(self, strip, code):
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_strip(self._bytes(), self.refs.get(strip["id"]))

    def reference_entry(self, strip, _code):
        return checks.strip_digest(self._bytes())


class TensorPower:
    """One item is one unbounded (p, theta) pair taken through k = 2, 3, 4."""

    name = "tensor-power"
    trace_extra = 20

    def __init__(self, nclp, manifest, seed, work):
        self.nclp = nclp
        self.items = manifest
        self.out = str(work / "counterexample.json")
        self.refs = _load_refs("tensor-power", "pairs", seed)
        self.warmup_items = manifest[:1]
        self.null_factors = 0

    def run(self, pair):
        nclp = self.nclp
        p, theta = pair["p"], pair["theta"]
        code = nclp.cli.main([
            "counterexample", "--p", repr(p), "--theta", repr(theta), "--out", self.out,
        ])
        if code != 0:
            return {"code": code}
        with open(self.out, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload == "none":
            # The family maximum is within the CLI's tolerance of 1; take the
            # witness from the scan itself so the item still runs every step.
            best = nclp.qubitfamily.family_max(p, theta)
            c, a, b, m, factors = best.c, best.a, best.b, best.m_value, None
        else:
            c, a, b, m = payload["c"], payload["a"], payload["b"], payload["m_value"]
            factors = payload["tensor_factors_to_exceed_10"]
        if factors is None:
            self.null_factors += 1
        base, state = nclp.qubitfamily.qubit_map(c), nclp.qubitfamily.qubit_state(c)
        w = np.array([[0.0, a], [b, 0.0]], dtype=complex)
        t_k, s_k, w_k = base, state, w
        powers = []
        for k in inputs.TENSOR_POWERS:
            t_k = nclp.tensor.kron_superop(t_k, base)
            s_k = nclp.tensor.kron_state(s_k, state)
            w_k = np.kron(w_k, w)
            emap = nclp.embed.build_embedded(t_k, s_k, p, theta)
            emap2 = nclp.embed.build_embedded(t_k, s_k, 2.0, theta)
            rep = nclp.cpmap.compatibility(t_k, s_k)
            p2_norm = nclp.embed.exact_norm_p2(emap2)
            image = emap.u_action(w_k)
            value = nclp.matcore.schatten_norm(image, p)
            powers.append({
                "k": k, "witness": w_k, "image": image, "value": value,
                "cp": rep.completely_positive, "unital": rep.unital,
                "c1": rep.c1, "c_inf": rep.c_inf, "p2_norm": p2_norm,
            })
        return {"code": 0, "p": p, "m": m, "factors": factors, "powers": powers}

    def check(self, pair, result):
        if result["code"] != 0:
            return [f"exit code {result['code']}"]
        ref = self.refs.get(pair["id"])
        references = None
        if ref is not None:
            if (ref["p"], ref["theta"]) != (pair["p"], pair["theta"]):
                return ["pair differs from the one the reference was taken on"]
            references = ref["m_k"]
        return checks.check_tensor(result, references)

    def reference_entry(self, pair, result):
        return {"p": pair["p"], "theta": pair["theta"],
                "m_k": [result["m"] ** k for k in inputs.TENSOR_POWERS]}


WORKLOADS = {w.name: w for w in (NormReport, PhaseSweep, TensorPower)}


# ---------------------------------------------------------------------------
# machine stamp


def _blas() -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or None


def machine_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# loops


def _import_nclp():
    import nclp
    import nclp.cli  # noqa: F401

    src = (ROOT / "src").resolve()
    if Path(nclp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported nclp from {nclp.__file__}, not from {src}")
    return nclp


def _run_item(workload, item):
    """Time one item, then check it untimed; an exception is a failed item."""
    t0 = time.perf_counter()
    try:
        output = workload.run(item)
    except Exception as exc:  # the item fails; the loop goes on
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    try:
        reasons = workload.check(item, output)
    except Exception as exc:
        reasons = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, reasons


def _latency_stats(ms: list[float]) -> dict:
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    return {
        "items_per_s": len(ms) / (sum(ms) / 1e3),
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": p90,
        "above_p90": sum(v > p90 for v in ms),
    }


def timed_loop(workload, seconds: float, min_items: int, calibration) -> dict:
    """Closed loop: one item at a time, each after one calibration kernel."""
    tally = checks.Tally()
    ids, wall_ms, kernel_ms = [], [], []
    timed = 0.0
    start = time.monotonic()
    while (timed < seconds or len(ids) < min_items) and time.monotonic() - start < WALL_LIMIT_S:
        item = workload.items[len(ids) % len(workload.items)]
        kernel_ms.append(calibration.measure_ms())
        elapsed, reasons = _run_item(workload, item)
        timed += elapsed
        ids.append(item["id"])
        wall_ms.append(elapsed * 1e3)
        tally.add(item["id"], reasons)
    scaled_ms = calibrate.scaled(wall_ms, kernel_ms)
    return dict(
        _latency_stats(scaled_ms),
        items=len(ids),
        timed_s=timed,
        wall=_latency_stats(wall_ms),
        latencies_ms=[list(row) for row in zip(ids, scaled_ms, wall_ms, kernel_ms)],
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
    )


def _pass(workload, items, tally) -> float:
    total = 0.0
    for item in items:
        elapsed, reasons = _run_item(workload, item)
        total += elapsed
        tally.add(item["id"], reasons)
    return total


def layer_metrics(summary: dict, null_factors: int) -> dict:
    calls, ms, self_ms = summary["calls"], summary["ms"], summary["self_ms"]
    est = summary["estimator"]
    return {
        "matcore.svd.calls": summary["svd_calls"],
        "matcore.schatten_norm.calls": calls.get("matcore.schatten_norm", 0),
        "matcore.schatten_norm.self_ms": self_ms.get("matcore.schatten_norm", 0.0),
        "matcore.dual_element.calls": calls.get("matcore.dual_element", 0),
        "matcore.dual_element.self_ms": self_ms.get("matcore.dual_element", 0.0),
        "normest.estimate_norm.calls": calls.get("normest.estimate_norm", 0),
        "normest.estimate_norm.ms": ms.get("normest.estimate_norm", 0.0),
        "normest.estimate_norm.self_ms": self_ms.get("normest.estimate_norm", 0.0),
        "normest.dual_ascent.calls": calls.get("normest.dual_ascent", 0),
        "normest.dual_ascent.self_ms": self_ms.get("normest.dual_ascent", 0.0),
        "normest.iters_per_start": est["iters_per_start"],
        "normest.iters_per_start_max": est["iters_per_start_max"],
        "normest.svd_per_iter": est["svd_per_iter"],
        "normest.converged_frac": est["converged_frac"],
        "normest.useful_start_frac": est["useful_start_frac"],
        "cpmap.superop_apply.calls": calls.get("cpmap.superop_apply", 0),
        "cpmap.superop_apply.self_ms": self_ms.get("cpmap.superop_apply", 0.0),
        "cpmap.compatibility.calls": calls.get("cpmap.compatibility", 0),
        "cpmap.compatibility.ms": ms.get("cpmap.compatibility", 0.0),
        "cpmap.is_completely_positive.ms": ms.get("cpmap.is_completely_positive", 0.0),
        "embed.build_embedded.calls": calls.get("embed.build_embedded", 0),
        "embed.build_embedded.ms": ms.get("embed.build_embedded", 0.0),
        "embed.exact_norm_p2.ms": ms.get("embed.exact_norm_p2", 0.0),
        "embed.classify_region.calls": calls.get("embed.classify_region", 0),
        "embed.classify_region.ms": ms.get("embed.classify_region", 0.0),
        "qubitfamily.family_max.calls": calls.get("qubitfamily.family_max", 0),
        "qubitfamily.family_max.ms": ms.get("qubitfamily.family_max", 0.0),
        "qubitfamily.find_counterexample.ms": ms.get("qubitfamily.find_counterexample", 0.0),
        "tensor.kron_superop.calls": calls.get("tensor.kron_superop", 0),
        "tensor.kron_superop.ms": ms.get("tensor.kron_superop", 0.0),
        "tensor.kron_state.ms": ms.get("tensor.kron_state", 0.0),
        "tensor.steps_to_exceed.ms": ms.get("tensor.steps_to_exceed", 0.0),
        "cli.main.self_ms": sum(v for k, v in self_ms.items() if k.startswith("cli.")),
        "cli.decode_superop.ms": ms.get("cli.decode_superop", 0.0),
        "cli.decode_state.ms": ms.get("cli.decode_state", 0.0),
        "cli.render_phase_diagram_csv.self_ms": self_ms.get("cli.render_phase_diagram_csv", 0.0),
        "cli.counterexample.null_factors": null_factors,
    }


def traced_loop(workload, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced passes over one fixed item list.

    Counts come from one traced pass and must repeat exactly in every other
    traced pass; times are medians over the traced passes.
    """
    items = workload.warmup_items + workload.items[: workload.trace_extra]
    tracer = Tracer()
    tally = checks.Tally()
    plain_s, traced_s, per_pass = [], [], []
    start = time.monotonic()
    while len(per_pass) < 2 or (
        time.monotonic() - start < seconds and time.monotonic() - start < WALL_LIMIT_S
    ):
        plain_s.append(_pass(workload, items, tally))
        workload.null_factors = 0
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(_pass(workload, items, tally))
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer.summary(), workload.null_factors))
    tracer.dump(spans_path)
    mismatched = [
        name for name in EXACT_COUNTS if len({m[name] for m in per_pass}) != 1
    ]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(plain_s) / statistics.median(traced_s)
    return {
        "pass_items": [item["id"] for item in items],
        "passes": len(per_pass),
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "metrics": metrics,
        "count_mismatches": mismatched,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "refs"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-items", type=int, default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    nclp = _import_nclp()
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    workload = WORKLOADS[args.workload](nclp, manifest, args.seed, manifest_path.parent)
    warm = checks.Tally()
    _pass(workload, workload.warmup_items, warm)
    setup_wall_s = time.monotonic() - args.spawned_at
    calibration = calibrate.Calibration()
    speed = calibration.speed_factor()

    result = {
        "setup_s": setup_wall_s * speed,
        "setup_wall_s": setup_wall_s,
        "warmup_failures": warm.failures,
    }
    if args.mode == "run":
        result.update(timed_loop(workload, args.seconds, args.min_items, calibration))
    elif args.mode == "trace":
        result.update(traced_loop(workload, args.seconds, args.spans))
    elif args.mode == "refs":
        workload.refs = {}
        entries = {}
        for item in workload.items:
            output = workload.run(item)
            reasons = workload.check(item, output)
            if reasons:
                raise SystemExit(f"{item['id']} fails its checks: {reasons}")
            entries[item["id"]] = workload.reference_entry(item, output)
        result["entries"] = entries
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["stamp"] = machine_stamp()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
