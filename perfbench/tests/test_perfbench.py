"""Self-tests of the benchmark: tiny runs, repeatable counts, a negative
control that shows the answer checks can fail, and the refusals."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".sets", "_ratio", "_bits")


def bench(*args, env=None, script=BENCH / "run.py"):
    environ = dict(os.environ)
    environ.pop("DPP_MAX_ENUM", None)
    environ.update(env or {})
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, env=environ, timeout=170)


def tiny(workload, trace, ops=3, seed=7):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--ops-limit", str(ops))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_emitted_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LAYER_UNITS)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run.LAYER_UNITS[metric["name"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (6 if trace else 3)
    units = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_two_traced_runs_of_one_seed_give_identical_counts():
    first, second = (tiny("cli_exact", 1, ops=10)["metrics"] for _ in range(2))
    counts = [k for k in run.LAYER_UNITS
              if k.endswith(COUNT_SUFFIXES) and k != "trace.overhead_ratio"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["linalg.minor_det.calls"]["value"] > 0


@pytest.mark.parametrize("workload, target, ops", [
    ("cli_exact", "treedpp.dpp.z_tree", 1),
    ("reduce_sweep", "treedpp.reductions.gadget_z_exact", 1),
])
def test_perturbed_program_fails_its_checks(workload, target, ops):
    program = worker.Program()
    modname, attr = target.rsplit(".", 1)
    original = getattr(sys.modules[modname], attr)
    undo = tracer.rebind(original, lambda *a, **k: original(*a, **k) * 2 + 1)
    try:
        result = worker.run_pass("plain", workload, 7, 0, time.monotonic(),
                                 ops_limit=ops, program=program)
    finally:
        tracer.restore(undo)
    assert result["failed"] == ops == len(result["latencies"])
    clean = worker.run_pass("plain", workload, 7, 0, time.monotonic(),
                            ops_limit=ops, program=program)
    assert clean["failed"] == 0


def test_refuses_when_dpp_max_enum_is_set():
    proc = bench("--workload", "cli_exact", "--seed", "1", "--seconds", "1",
                 env={"DPP_MAX_ENUM": "30"})
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli_exact", "--seed", "1", "--seconds", "1",
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""
