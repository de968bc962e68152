"""treedpp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload reduce_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/treedpp``.  With
``--trace 0`` it reports the end-to-end metrics: it starts the set-up
probes and one timed pass, each in a fresh interpreter.  Its times are in
reference seconds, wall time scaled by the machine-speed probe in
worker.py; the meta line gives them in wall-clock seconds too.  With
``--trace 1`` it reports the per-layer metrics: a plain pass and a traced
pass of ``--seconds``/2 each, again in fresh interpreters.  Every process
runs with PYTHONHASHSEED fixed.  The last line of standard output is the
result object; the line before it holds the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("reduce_sweep", "reduce_once", "cli_exact")
SETUP_PROBES = 4  # plus the timed pass's own set-up: setup_s is a median of 5
RUN_LIMIT_S = 170  # every run must end within 180 s
HASH_SEED = "0"

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "reductions.gadget_z_exact.calls": "count",
    "reductions.gadget_z_exact.self_ms": "ms",
    "reductions.build_md_gadget.self_ms": "ms",
    "reductions.apreduce.self_ms": "ms",
    "graphs.enumerate_forests.sets": "count",
    "graphs.enumerate_forests.self_ms": "ms",
    "graphs.enumerate_spanning_trees.sets": "count",
    "graphs.enumerate_spanning_trees.self_ms": "ms",
    "graphs.count_spanning_trees.self_ms": "ms",
    "graphs.count_perfect_matchings.self_ms": "ms",
    "linalg.minor_det.calls": "count",
    "linalg.minor_det.nonzero_ratio": "ratio",
    "linalg.minor_det.self_ms": "ms",
    "linalg.is_psd.calls": "count",
    "linalg.is_psd.self_ms": "ms",
    "linalg.ldlt.self_ms": "ms",
    "linalg.det_bareiss.calls": "count",
    "linalg.det_bareiss.self_ms": "ms",
    "linalg.unconstrained_normalizer.self_ms": "ms",
    "dpp.z_tree.self_ms": "ms",
    "dpp.z_forest.self_ms": "ms",
    "dpp.sample_exact.self_ms": "ms",
    "dpp.partition_constrained_sum.self_ms": "ms",
    "matroid.find_witness.self_ms": "ms",
    "matroid.independent.calls": "count",
    "matroid.witness_found_ratio": "ratio",
    "mixed_disc.mixed_discriminant.self_ms": "ms",
    "mixed_disc.build_partition_instance.self_ms": "ms",
    "jsonio.load.self_ms": "ms",
    "cli.run.self_ms": "ms",
    "rational.x_bits": "bits",
    "rational.y_bits": "bits",
    "rational.oracle_value_bits": "bits",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def spawn(role, workload, seed, seconds, deadline, ops_limit=None) -> dict:
    """Run one worker pass in a fresh interpreter and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {role} pass")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, str(WORKER), "--role", role, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if ops_limit is not None:
        cmd += ["--ops-limit", str(ops_limit)]
    cmd += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} pass did not finish within the run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def latency_metrics(latencies: list) -> dict:
    lat = sorted(latencies)
    if len(lat) == 1:
        p50 = p90 = lat[0]
    else:
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": p50 * 1000,
        "latency_p90_ms": p90 * 1000,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(workload, seed, seconds, trace, ops_limit=None) -> tuple:
    """Run the passes for one result: (metrics, attempted, failed, meta)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    meta = {}
    if trace:
        plain = spawn("plain", workload, seed, seconds / 2, deadline, ops_limit)
        traced = spawn("traced", workload, seed, seconds / 2, deadline, ops_limit)
        passes = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (
            latency_metrics(plain["scaled"])["ops_per_s"]
            / latency_metrics(traced["scaled"])["ops_per_s"])
    else:
        setups = [spawn("setup", workload, seed, seconds, deadline)
                  for _ in range(SETUP_PROBES)]
        timed = spawn("plain", workload, seed, seconds, deadline, ops_limit)
        setups.append(timed)
        passes = [timed]
        metrics = latency_metrics(timed["scaled"])
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = timed["peak_rss_mb"]
        wall = latency_metrics(timed["latencies"])
        wall["setup_s"] = statistics.median(s["setup_wall_s"] for s in setups)
        meta["wall_clock"] = wall
        meta["setup_samples_s"] = [s["setup_s"] for s in setups]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    meta.update({
        "rat_backend": passes[0]["backend"],
        "rounds": [p["rounds"] for p in passes],
        "latency_samples": [len(p["latencies"]) for p in passes],
        "probe_median_ms": [p["probe_median_s"] * 1000 for p in passes],
        "fail_ratio": failed / attempted,
        "failures": [note for p in passes for note in p["failures"]],
    })
    return metrics, attempted, failed, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treedpp benchmark: one workload, one run")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops-limit", type=int, default=None,
                        help="stop each pass after N operations (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if "DPP_MAX_ENUM" in os.environ:
        print("error: DPP_MAX_ENUM is set; it changes the enumeration caps, unset it",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "treedpp" / "__init__.py").is_file():
        print(f"error: no treedpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, meta = measure(
            args.workload, args.seed, args.seconds, args.trace, args.ops_limit)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python_hash_seed": HASH_SEED,
    })
    for note in meta["failures"]:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
