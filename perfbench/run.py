"""nclp benchmark: norm-report, phase-sweep and tensor-power workloads.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload norm-report --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a table of every metric by name:

    python3 perfbench/run.py --all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with raw item latencies, failed cases and a machine stamp, is written under
``.perfbench_out/``.  Run from any directory; everything is read and written
inside the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# Set-up is measured in this many workload processes; the median is reported.
# First calls at a new size stall at random, so three were not enough.
SETUP_SAMPLES = 5
# p90 needs at least ten items above it.
MIN_ITEMS = 100
CHILD_TIMEOUT_S = 160


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def build_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs under ``work``; return the manifest path."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "norm-report":
        manifest = inputs.write_norm_corpus(inputs.norm_cases(seed), work / "corpus")
        for case in manifest:
            case["fingerprint"] = _fingerprint(
                Path(case["map"]).read_bytes(), Path(case["state"]).read_bytes(),
                case["p"], case["theta"],
            )
    elif workload == "phase-sweep":
        manifest = inputs.phase_order(seed)
    elif workload == "tensor-power":
        manifest = inputs.tensor_pairs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NCLP_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload: str, seed: int, manifest: Path, mode: str, *, seconds=0.0, spans=None) -> dict:
    """Run one workload process to completion and return its result."""
    result_path = manifest.parent / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--manifest", str(manifest),
        "--mode", mode, "--seconds", str(seconds), "--min-items", str(MIN_ITEMS),
        "--result", str(result_path),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} {mode} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(result_path.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the full result (metrics, failures, stamp)."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        manifest = build_inputs(workload, seed, work)
        if trace:
            spans = OUT / f"{workload}-seed{seed}-spans.jsonl.gz"
            main = spawn(workload, seed, manifest, "trace", seconds=seconds, spans=spans)
            values = dict(main["metrics"])
            setups = [{k: main[k] for k in ("setup_s", "setup_wall_s")}]
        else:
            setups = [spawn(workload, seed, manifest, "setup") for _ in range(SETUP_SAMPLES - 1)]
            main = spawn(workload, seed, manifest, "run", seconds=seconds)
            setups = [{k: s[k] for k in ("setup_s", "setup_wall_s")} for s in setups + [main]]
            values = {
                "items_per_s": main["items_per_s"],
                "item_ms_p50": main["item_ms_p50"],
                "item_ms_p90": main["item_ms_p90"],
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "peak_rss_mb": main["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failures = main["warmup_failures"] + main["failures"]
    mismatches = main.get("count_mismatches", [])
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures and not mismatches,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "failed_frac": main["failed"] / main["attempted"],
        "failures": failures,
        "count_mismatches": mismatches,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "setup_samples": setups,
        "stamp": dict(
            main["stamp"],
            git_commit=_git_commit(),
            nclp_threads_was_set="NCLP_THREADS" in os.environ,
        ),
    }
    for key in ("items", "above_p90", "timed_s", "wall", "latencies_ms", "pass_items", "passes",
                "plain_pass_s", "traced_pass_s"):
        if key in main:
            result[key] = main[key]
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def _print_table(result: dict) -> None:
    name = result["workload"]
    for metric, v in result["metrics"].items():
        print(f"{name:13s} {metric:40s} {v['value']:>14.6g} {v['unit']}")
    if "items" in result:
        print(f"{name:13s} {'items (p90 sample count)':40s} {result['items']:>14d} "
              f"count ({result['above_p90']} above p90)")
    print(f"{name:13s} {'failed_frac':40s} {result['failed_frac']:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"{name:13s} FAILED {failure['case']}: {'; '.join(failure['reasons'])}")
    if result["count_mismatches"]:
        print(f"{name:13s} COUNTS DIFFER BETWEEN TRACED PASSES: {result['count_mismatches']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced twice; the exact counts must repeat."""
    from worker import EXACT_COUNTS

    summary, ok = {}, True
    for workload in [w["name"] for w in _spec()["workloads"]]:
        plain = run_workload(workload, seed, seconds, 0)
        traced = run_workload(workload, seed, seconds, 1)
        again = run_workload(workload, seed, seconds, 1)
        differ = [n for n in EXACT_COUNTS
                  if traced["metrics"][n]["value"] != again["metrics"][n]["value"]]
        for result in (plain, traced):
            _print_table(result)
        if differ:
            print(f"{workload:13s} COUNTS DIFFER BETWEEN TRACED RUNS: {differ}")
        ok = ok and plain["correct"] and traced["correct"] and again["correct"] and not differ
        summary[workload] = {"untraced": plain, "traced": traced, "exact_counts_repeat": not differ}
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def write_refs(seed: int) -> None:
    """Record this commit's reference values (run at the seed commit)."""
    refs_dir = HERE / "refs"
    refs_dir.mkdir(exist_ok=True)
    for workload, key in (("norm-report", "cases"), ("phase-sweep", "strips"),
                          ("tensor-power", "pairs")):
        work = WORK / f"refs-{workload}-{os.getpid()}"
        try:
            manifest = build_inputs(workload, seed, work)
            entries = spawn(workload, seed, manifest, "refs")["entries"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        doc = {key: entries} if workload == "phase-sweep" else {"seed": seed, key: entries}
        (refs_dir / f"{workload}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entries)} {workload} references")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nclp benchmark")
    ap.add_argument("--workload", choices=[w["name"] for w in _spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--write-refs", action="store_true",
                    help="record reference values for --seed under perfbench/refs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nclp" / "__init__.py").is_file():
        print(f"error: no nclp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.write_refs:
        write_refs(args.seed)
        return 0
    if args.all:
        return run_all(args.seed, seconds)
    if not args.workload:
        ap.error("give --workload, --all or --write-refs")
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    _print_table(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
