"""One measured process of the benchmark.

run.py starts this file in a fresh interpreter for every set-up probe and
every pass.  It imports treedpp from the checkout's ``src``, builds the
first round of inputs, runs one warm-up operation on an input outside the
measured set, and then runs whole blocks of operations until the timed
operations add up to ``--seconds``.  Each round's outputs are checked after
the round, outside the timed region.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py --role plain --workload cli_exact --seed 1 \
        --seconds 5 --started "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROLES = ("setup", "plain", "traced")
MAX_FAILURE_NOTES = 5
# The machine speed a reference second stands for: the speed at which probe()
# takes exactly PROBE_REF_S.
PROBE_REF_S = 0.008
PROBE_TERMS = 3000


def probe() -> float:
    """Seconds a fixed stdlib Fraction loop takes now: the machine's speed.

    A shared virtual machine can run the same code up to twice as slow for
    minutes at a time.  Each timed operation is scaled by
    PROBE_REF_S over the probes taken just before and just after it, which
    turns wall seconds into reference seconds.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Program:
    """The treedpp modules a workload drives, imported from SRC."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import treedpp
        import treedpp.cli

        location = Path(treedpp.__file__).resolve()
        if SRC.resolve() not in location.parents:
            raise ImportError(f"treedpp was imported from {location}, not from {SRC}")
        self.cli = treedpp.cli
        self.dpp = treedpp.dpp
        self.graphs = treedpp.graphs
        self.jsonio = treedpp.jsonio
        self.linalg = treedpp.linalg
        self.mixed_disc = treedpp.mixed_disc
        self.reductions = treedpp.reductions
        backend = treedpp.rational.Rat
        self.backend = f"{backend.__module__}.{backend.__qualname__}"


def run_pass(role, workload, seed, seconds, started, ops_limit=None, program=None) -> dict:
    """Set up, warm up, and (unless role is "setup") run the timed rounds.

    started is the time.monotonic() reading taken before the interpreter
    was launched, so setup_s covers start-up, import, building the first
    round and the warm-up operation.  ops_limit stops the pass early, for
    the benchmark's own tests.
    """
    program = program or Program()
    tracer = None
    if role == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = WORKLOADS[workload](program, seed, workdir)
        blocks = wl.round(0)
        wl.warmup().run()
        setup_wall_s = time.monotonic() - started
        speed = statistics.median(probe() for _ in range(3))
        result = {
            "setup_s": setup_wall_s * PROBE_REF_S / speed,
            "setup_wall_s": setup_wall_s,
            "backend": program.backend,
        }
        if role == "setup":
            return result
        result.update(_timed_rounds(wl, blocks, seconds, ops_limit, tracer))
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_rounds(wl, blocks, seconds, ops_limit, tracer) -> dict:
    """Run whole blocks until the timed operations add up to `seconds` of
    wall time.

    Round 0 always runs to the end: it is the window the traced counts are
    taken from.  Outputs are checked after each round.
    """
    latencies: list = []
    scaled: list = []
    probes: list = []
    failures: list = []
    bits: list = []
    self_s = {name: 0.0 for name in tracer.stats} if tracer is not None else None
    window = None
    rounds = 0
    rss_kib = 0
    while True:
        outputs = []
        done = False
        before = probe()
        probes.append(before)
        for block in blocks:
            for op in block:
                if tracer is not None:
                    marks = {name: stat.self_s for name, stat in tracer.stats.items()}
                    tracer.enabled = True
                start = time.perf_counter()
                try:
                    output, error = op.run(), None
                except Exception as exc:  # any raise, CapExceeded included, is a failed operation
                    output, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                after = probe()
                probes.append(after)
                scale = 2 * PROBE_REF_S / (before + after)
                latencies.append(latency)
                scaled.append(latency * scale)
                before = after
                if tracer is not None:
                    for name, stat in tracer.stats.items():
                        self_s[name] += (stat.self_s - marks[name]) * scale
                outputs.append((op, output, error))
                done = ops_limit is not None and len(latencies) >= ops_limit
                if done:
                    break
            done = done or (rounds > 0 and sum(latencies) >= seconds)
            if done:
                break
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op, output, error in outputs:
            if error is None:
                try:
                    error = op.verify(output)
                except Exception as exc:  # output the check cannot read
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
                if error is None:
                    bits.append(op.bits(output))
            if error is not None:
                failures.append(f"{op.kind}: {error}")
        wl.close_round()
        rounds += 1
        if tracer is not None and window is None:
            window = (tracer.snapshot(), len(latencies), bits[:])
        if done or sum(latencies) >= seconds:
            break
        blocks = wl.round(rounds)
    result = {
        "rounds": rounds,
        "latencies": latencies,
        "scaled": scaled,
        "probe_median_s": statistics.median(probes),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_NOTES],
        "peak_rss_mb": rss_kib / 1024,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(self_s, len(latencies), *window)
    return result


def _median_bits(bits: list, key: str) -> float:
    values = [b[key] for b in bits if b is not None and b[key] is not None]
    return statistics.median(values) if values else 0


def layer_metrics(self_s, ops, window_stats, window_ops, window_bits) -> dict:
    """Per-operation layer metrics.

    Self times, in reference seconds, are averaged over every traced
    operation.  Counts, ratios and bit lengths come from the first round
    only, which is the same inputs for a given seed however long the pass
    runs, so they repeat exactly between runs.
    """
    def self_ms(name):
        return self_s[name] * 1000 / ops

    def per_op(name, field):
        return getattr(window_stats[name], field) / window_ops

    def ratio(name):
        stat = window_stats[name]
        return stat.hits / stat.calls if stat.calls else 0.0

    return {
        "reductions.gadget_z_exact.calls": per_op("reductions.gadget_z_exact", "calls"),
        "reductions.gadget_z_exact.self_ms": self_ms("reductions.gadget_z_exact"),
        "reductions.build_md_gadget.self_ms": self_ms("reductions.build_md_gadget"),
        "reductions.apreduce.self_ms": self_ms("reductions.apreduce"),
        "graphs.enumerate_forests.sets": per_op("graphs.enumerate_forests", "sets"),
        "graphs.enumerate_forests.self_ms": self_ms("graphs.enumerate_forests"),
        "graphs.enumerate_spanning_trees.sets": per_op("graphs.enumerate_spanning_trees", "sets"),
        "graphs.enumerate_spanning_trees.self_ms": self_ms("graphs.enumerate_spanning_trees"),
        "graphs.count_spanning_trees.self_ms": self_ms("graphs.count_spanning_trees"),
        "graphs.count_perfect_matchings.self_ms": self_ms("graphs.count_perfect_matchings"),
        "linalg.minor_det.calls": per_op("linalg.minor_det", "calls"),
        "linalg.minor_det.nonzero_ratio": ratio("linalg.minor_det"),
        "linalg.minor_det.self_ms": self_ms("linalg.minor_det"),
        "linalg.is_psd.calls": per_op("linalg.is_psd", "calls"),
        "linalg.is_psd.self_ms": self_ms("linalg.is_psd"),
        "linalg.ldlt.self_ms": self_ms("linalg.ldlt"),
        "linalg.det_bareiss.calls": per_op("linalg.det_bareiss", "calls"),
        "linalg.det_bareiss.self_ms": self_ms("linalg.det_bareiss"),
        "linalg.unconstrained_normalizer.self_ms": self_ms("linalg.unconstrained_normalizer"),
        "dpp.z_tree.self_ms": self_ms("dpp.z_tree"),
        "dpp.z_forest.self_ms": self_ms("dpp.z_forest"),
        "dpp.sample_exact.self_ms": self_ms("dpp.sample_exact"),
        "dpp.partition_constrained_sum.self_ms": self_ms("dpp.partition_constrained_sum"),
        "matroid.find_witness.self_ms": self_ms("matroid.find_witness"),
        "matroid.independent.calls": per_op("matroid.independent", "calls"),
        "matroid.witness_found_ratio": ratio("matroid.find_witness"),
        "mixed_disc.mixed_discriminant.self_ms": self_ms("mixed_disc.mixed_discriminant"),
        "mixed_disc.build_partition_instance.self_ms": self_ms("mixed_disc.build_partition_instance"),
        "jsonio.load.self_ms": self_ms("jsonio.load"),
        "cli.run.self_ms": self_ms("cli.run"),
        "rational.x_bits": _median_bits(window_bits, "x"),
        "rational.y_bits": _median_bits(window_bits, "y"),
        "rational.oracle_value_bits": _median_bits(window_bits, "oracle_value"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=ROLES, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() taken just before this interpreter was launched")
    parser.add_argument("--ops-limit", type=int, default=None)
    args = parser.parse_args(argv)
    result = run_pass(args.role, args.workload, args.seed, args.seconds, args.started,
                      ops_limit=args.ops_limit)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
