"""Seeded inputs and operations for the three workloads.

Inputs come from ``random.Random`` streams keyed by workload, seed and
round, so one seed always gives the same inputs.  A workload hands out its
operations a round at a time; each round has a fixed mix of operation kinds
and is a list of small blocks with fixed mixes.  A run stops only at a
block boundary, so it measures nearly the same mix whatever the seed.
Every operation pairs the call that is timed with a check against an
independent route, which runs outside the timed region.

The program is passed in as its imported modules; this file imports nothing
from treedpp itself.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks

EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
MD_LABELS = ("0", "1", "2")


class Op:
    """One timed call and the untimed check of its output.

    run() returns the output; verify(output) returns None when it is
    correct and a short reason otherwise; bits(output) returns the bit
    lengths of the reduction's scaling factors, or None.
    """

    __slots__ = ("kind", "run", "verify", "bits")

    def __init__(self, kind, run, verify, bits=None):
        self.kind = kind
        self.run = run
        self.verify = verify
        self.bits = bits or (lambda output: None)


def _bit_length(value) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def rand_rational(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def rand_weight(rng) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice((1, 2)))


def gram_rows(rng, dim: int, rank: int) -> list:
    """V V^T for a random dim x rank rational V; redrawn until it has full
    rank `rank` when rank == dim."""
    while True:
        vecs = [[rand_rational(rng) for _ in range(rank)] for _ in range(dim)]
        rows = [
            [sum((vecs[i][t] * vecs[j][t] for t in range(rank)), Fraction(0)) for j in range(dim)]
            for i in range(dim)
        ]
        if rank < dim or checks.det(rows) != 0:
            return rows


def connected_graph(rng, num_vertices: int, extra: int) -> tuple:
    """A random spanning tree plus `extra` further edges: (vertices, edges)."""
    vertices = [f"n{i}" for i in range(num_vertices)]
    pairs = set()
    for i in range(1, num_vertices):
        pairs.add((rng.randrange(i), i))
    others = [
        (i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)
        if (i, j) not in pairs
    ]
    pairs.update(rng.sample(others, extra))
    edges = [(f"e{k:02d}", vertices[i], vertices[j]) for k, (i, j) in enumerate(sorted(pairs))]
    return vertices, edges


def bipartite_edges(rng, n: int, extra: int) -> list:
    """A random perfect matching on n + n vertices plus `extra` further edges."""
    match = list(range(n))
    rng.shuffle(match)
    edges = {(i, match[i]) for i in range(n)}
    others = [(i, j) for i in range(n) for j in range(n) if (i, j) not in edges]
    edges.update(rng.sample(others, extra))
    return sorted(edges)


def _oracle(program, mode: str, rng):
    spec = program.reductions.OracleSpec
    if mode == "exact":
        return spec()
    if mode == "noisy":
        return spec(mode="noisy", seed=rng.getrandbits(32))
    return spec(mode="adversarial", direction=1 if mode == "adv-up" else -1)


class _Reference:
    """The mixed discriminant of one instance, computed on first use."""

    def __init__(self, kernel_rows):
        self.kernel_rows = kernel_rows
        self.value = None

    def __call__(self) -> Fraction:
        if self.value is None:
            self.value = checks.mixed_discriminant_perm(self.kernel_rows)
        return self.value


def _md_instance(program, kernel_rows):
    sym = program.linalg.SymMatrix
    return program.mixed_disc.MDInstance(tuple(sym(MD_LABELS, rows) for rows in kernel_rows))


def reduce_op(program, instance, reference, route, epsilon, mode, oracle) -> Op:
    runner = (program.reductions.apreduce_md_to_zt if route == "tree"
              else program.reductions.apreduce_md_to_zf)

    def run():
        return runner(instance, epsilon, oracle=oracle)

    def verify(report):
        d = reference()
        if d == 0:
            return None if report.declared_zero else f"D = 0 but estimate {report.estimate}"
        if report.declared_zero:
            return f"declared D = 0 but D = {d}"
        lower, upper = checks.reduction_window(mode, epsilon, d)
        if not lower <= report.estimate <= upper:
            return f"estimate {report.estimate} outside [{lower}, {upper}] for D = {d}"
        return None

    def bits(report):
        if report.declared_zero:
            return None
        return {
            "x": _bit_length(report.x),
            "y": None if report.y is None else _bit_length(report.y),
            "oracle_value": _bit_length(report.oracle_value),
        }

    return Op(f"{route}/{mode}", run, verify, bits)


class Workload:
    """Hands out seeded rounds: round(r) is a list of blocks of Ops, and
    warmup() an Op on an input outside every round."""

    name = ""

    def __init__(self, program, seed: int, workdir: str):
        self.program = program
        self.seed = seed
        self.workdir = workdir

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def close_round(self) -> None:
        """Release what the last round left behind (files, for the CLI)."""


class ReduceSweep(Workload):
    """One full-rank n = 3 instance per round, run through the whole
    acceptance grid: route x epsilon x oracle, 18 calls sharing one
    MDInstance.  A block is the tree and the forest call of one epsilon and
    oracle."""

    name = "reduce_sweep"
    MODES = ("exact", "adv-up", "adv-down")

    def _instance(self, rng):
        rows = [gram_rows(rng, 3, 3) for _ in range(3)]
        return _md_instance(self.program, rows), _Reference(rows)

    def warmup(self) -> Op:
        rng = self.rng("warmup")
        instance, reference = self._instance(rng)
        return reduce_op(self.program, instance, reference, "tree", EPSILONS[0], "exact",
                         _oracle(self.program, "exact", rng))

    def round(self, index: int) -> list:
        rng = self.rng(index)
        instance, reference = self._instance(rng)
        return [
            [reduce_op(self.program, instance, reference, route, eps, mode,
                       _oracle(self.program, mode, rng)) for route in ("tree", "forest")]
            for eps in EPSILONS for mode in self.MODES
        ]


class ReduceOnce(Workload):
    """A fresh n = 3 instance per call, with seeded rank, route, epsilon and
    oracle.  A round of 17 calls is first a block of one tree and one forest
    call on instances with a zero kernel (D = 0), then five blocks of two
    tree calls and one forest call on kernels of rank 1-3.  With twice as
    many tree as forest calls the median falls inside the tree calls and
    p90 inside the forest calls, instead of on the edge of either group."""

    name = "reduce_once"
    MODES = ("exact", "noisy", "adv-up", "adv-down")

    def _op(self, rng, route, zero=False):
        rows = [gram_rows(rng, 3, rng.randint(1, 3)) for _ in range(3)]
        if zero:
            rows[rng.randrange(3)] = [[Fraction(0)] * 3 for _ in range(3)]
        mode = rng.choice(self.MODES)
        return reduce_op(self.program, _md_instance(self.program, rows), _Reference(rows),
                         route, rng.choice(EPSILONS), mode, _oracle(self.program, mode, rng))

    def warmup(self) -> Op:
        rng = self.rng("warmup")
        rows = [gram_rows(rng, 3, 3) for _ in range(3)]
        return reduce_op(self.program, _md_instance(self.program, rows), _Reference(rows),
                         "tree", EPSILONS[0], "exact", _oracle(self.program, "exact", rng))

    def round(self, index: int) -> list:
        rng = self.rng(index)
        blocks = [[self._op(rng, "tree", zero=True), self._op(rng, "forest", zero=True)]]
        for _ in range(5):
            routes = ["tree", "tree", "forest"]
            rng.shuffle(routes)
            blocks.append([self._op(rng, route) for route in routes])
        return blocks


class CliExact(Workload):
    """The non-reduction CLI commands, in-process through treedpp.cli.main
    on seeded JSON files.  A round is one block that runs each command
    once."""

    name = "cli_exact"
    SAMPLE_COUNT = 16

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        self._files: list = []

    # -- input files -------------------------------------------------------

    def _write(self, tag, obj) -> str:
        path = os.path.join(self.workdir, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        self._files.append(path)
        return path

    def close_round(self) -> None:
        for path in self._files:
            os.remove(path)
        self._files = []

    def _dense_kernel(self, rng, vertices, edges):
        """Graph, full-rank dense kernel rows and positive weights."""
        p = self.program
        graph = p.graphs.Graph(vertices, edges)
        rows = gram_rows(rng, len(edges), len(edges))
        weights = [rand_weight(rng) for _ in edges]
        ids = [eid for eid, _, _ in edges]
        matrix = p.linalg.WeightedPSD(p.linalg.SymMatrix(ids, rows), dict(zip(ids, weights)))
        return graph, matrix, checks.Minors(rows, weights)

    def _bundle(self, rng, tag, num_vertices, extra, constraint):
        vertices, edges = connected_graph(rng, num_vertices, extra)
        graph, matrix, minors = self._dense_kernel(rng, vertices, edges)
        dpp = self.program.dpp.ConstrainedDPP(matrix, constraint, graph=graph)
        return self._write(tag, self.program.jsonio.dump_bundle(dpp)), graph, minors

    # -- operations --------------------------------------------------------

    def _cli(self, kind, argv, expect) -> Op:
        main = self.program.cli.main

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        def verify(output):
            code, out, err = output
            if code != 0:
                return f"exit {code}: {err.strip()}"
            return expect(out.splitlines())

        return Op(kind, run, verify)

    @staticmethod
    def _equals(reference):
        def expect(lines):
            got = Fraction(lines[0])
            want = reference()
            return None if got == want else f"got {got}, want {want}"
        return expect

    def _tree_sum(self, graph, minors):
        n = graph.num_vertices - 1
        ids = [eid for eid, _, _ in graph.edges]
        is_tree = self.program.graphs.is_spanning_tree
        return lambda: checks.subset_sum(
            minors, [n], lambda s: is_tree(graph, [ids[i] for i in s]))

    def _forest_sum(self, graph, minors):
        ids = [eid for eid, _, _ in graph.edges]
        is_forest = self.program.graphs.is_forest_subset
        return lambda: checks.subset_sum(
            minors, range(len(ids) + 1), lambda s: is_forest(graph, [ids[i] for i in s]))

    def _zt(self, rng, tag):
        path, graph, minors = self._bundle(rng, tag, 10, 3, "tree")
        return self._cli("zt", ["zt", path], self._equals(self._tree_sum(graph, minors)))

    def _zf(self, rng, tag):
        path, graph, minors = self._bundle(rng, tag, 8, 4, "forest")
        return self._cli("zf", ["zf", path], self._equals(self._forest_sum(graph, minors)))

    def _sample(self, rng, tag):
        path, graph, minors = self._bundle(rng, tag, 9, 2, "tree")
        index = {eid: i for i, (eid, _, _) in enumerate(graph.edges)}
        is_tree = self.program.graphs.is_spanning_tree

        def expect(lines):
            draws = [json.loads(line) for line in lines]
            if len(draws) != self.SAMPLE_COUNT:
                return f"{len(draws)} draws, want {self.SAMPLE_COUNT}"
            for draw in draws:
                if not is_tree(graph, draw) or minors([index[e] for e in draw]) == 0:
                    return f"draw {draw} is not a tree with a nonzero minor"
            return None

        argv = ["sample", path, "--seed", str(rng.getrandbits(32)),
                "--count", str(self.SAMPLE_COUNT)]
        return self._cli("sample", argv, expect)

    def _reduce_zt_zf(self, rng, tag):
        path, graph, minors = self._bundle(rng, tag, 7, 3, "tree")
        return self._cli("reduce-zt-zf", ["reduce-zt-zf", path],
                         self._equals(self._tree_sum(graph, minors)))

    def _znorm(self, rng, tag):
        vertices, edges = connected_graph(rng, 8, 3)
        _, matrix, minors = self._dense_kernel(rng, vertices, edges)
        path = self._write(tag, self.program.jsonio.dump_weighted_psd(matrix))
        return self._cli("znorm", ["znorm", path],
                         self._equals(lambda: checks.all_minors_sum(minors)))

    def _count_trees(self, rng, tag):
        vertices, edges = connected_graph(rng, 10, 5)
        graph = self.program.graphs.Graph(vertices, edges)
        weights = {eid: rand_weight(rng) for eid, _, _ in edges}
        path = self._write(tag, self.program.jsonio.dump_graph(graph, weights))
        # Edge weights as a diagonal kernel: its minors are weight products.
        diagonal = [[Fraction(int(i == j)) for j in range(len(edges))] for i in range(len(edges))]
        minors = checks.Minors(diagonal, [weights[eid] for eid, _, _ in edges])
        return self._cli("count-trees", ["count-trees", path],
                         self._equals(self._tree_sum(graph, minors)))

    def _mixed_disc(self, rng, tag, n):
        rows = [gram_rows(rng, n, n) for _ in range(n)]
        sym = self.program.linalg.SymMatrix
        labels = [str(i) for i in range(n)]
        instance = self.program.mixed_disc.MDInstance(tuple(sym(labels, r) for r in rows))
        path = self._write(tag, self.program.jsonio.dump_md_instance(instance))
        return self._cli(f"mixed-disc/{n}", ["mixed-disc", path],
                         self._equals(lambda: checks.mixed_discriminant_polar(rows)))

    def _matchings(self, rng, tag, command, n, extra):
        pairs = bipartite_edges(rng, n, extra)
        left = [f"u{i}" for i in range(n)]
        right = [f"w{j}" for j in range(n)]
        graph = self.program.graphs.BipartiteGraph(left, right, [(left[i], right[j]) for i, j in pairs])
        path = self._write(tag, self.program.jsonio.dump_bipartite(graph))
        adjacency = [[int((i, j) in pairs) for j in range(n)] for i in range(n)]
        return self._cli(command, [command, path],
                         self._equals(lambda: Fraction(checks.permanent_ryser(adjacency))))

    def warmup(self) -> Op:
        return self._zt(self.rng("warmup"), "warmup")

    def round(self, index: int) -> list:
        rng = self.rng(index)
        tag = f"r{index}"
        return [[
            self._zt(rng, f"{tag}-zt"),
            self._zf(rng, f"{tag}-zf"),
            self._sample(rng, f"{tag}-sample"),
            self._reduce_zt_zf(rng, f"{tag}-rzf"),
            self._znorm(rng, f"{tag}-znorm"),
            self._count_trees(rng, f"{tag}-ct"),
            self._mixed_disc(rng, f"{tag}-md5", 5),
            self._mixed_disc(rng, f"{tag}-md6", 6),
            self._matchings(rng, f"{tag}-pm", "count-pm", 5, 7),
            self._matchings(rng, f"{tag}-rpm", "reduce-pm-zt", 4, 5),
        ]]


WORKLOADS = {cls.name: cls for cls in (ReduceSweep, ReduceOnce, CliExact)}
