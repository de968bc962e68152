"""Per-layer tracing from outside the program.

The tracer replaces each listed treedpp function by a wrapper in every
treedpp module namespace that holds it (``from .graphs import
enumerate_forests`` binds the name in ``dpp`` and in ``reductions`` too),
and patches the two listed methods on their classes.  A wrapper opens a
span on entry and closes it on exit; a span stack gives each span its self
time, the span's duration minus the time its child spans cover.  Iterators
returned by ``enumerate_*`` are wrapped as well: each ``__next__`` is a span
and each item it yields counts as one set, because timing only the call
would record almost nothing.

Spans are aggregated per name as they close (calls, self time, sets and a
per-target outcome count); the individual spans are not kept, since one
forest-route reduction alone opens ~160,000 of them.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, defining module, attribute, kind, outcome)
#   kind: "call" for a function, "iter" for a function returning an
#   iterator, "method" for Class.method patched on the class.
#   outcome: what counts as a hit for the span's ratio, or None.
TARGETS = (
    ("reductions.gadget_z_exact", "treedpp.reductions", "gadget_z_exact", "call", None),
    ("reductions.build_md_gadget", "treedpp.reductions", "build_md_gadget", "call", None),
    ("reductions.apreduce", "treedpp.reductions", "apreduce_md_to_zt", "call", None),
    ("reductions.apreduce", "treedpp.reductions", "apreduce_md_to_zf", "call", None),
    ("graphs.enumerate_forests", "treedpp.graphs", "enumerate_forests", "iter", None),
    ("graphs.enumerate_spanning_trees", "treedpp.graphs", "enumerate_spanning_trees", "iter", None),
    ("graphs.count_spanning_trees", "treedpp.graphs", "count_spanning_trees", "call", None),
    ("graphs.count_perfect_matchings", "treedpp.graphs", "count_perfect_matchings", "call", None),
    ("linalg.minor_det", "treedpp.linalg", "SymMatrix.minor_det", "method", "nonzero"),
    ("linalg.is_psd", "treedpp.linalg", "is_psd", "call", None),
    ("linalg.ldlt", "treedpp.linalg", "ldlt", "call", None),
    ("linalg.det_bareiss", "treedpp.linalg", "det_bareiss", "call", None),
    ("linalg.unconstrained_normalizer", "treedpp.linalg", "unconstrained_normalizer", "call", None),
    ("dpp.z_tree", "treedpp.dpp", "z_tree", "call", None),
    ("dpp.z_forest", "treedpp.dpp", "z_forest", "call", None),
    ("dpp.sample_exact", "treedpp.dpp", "sample_exact", "call", None),
    ("dpp.partition_constrained_sum", "treedpp.dpp", "partition_constrained_sum", "call", None),
    ("matroid.find_witness", "treedpp.matroid", "find_witness", "call", "found"),
    ("matroid.independent", "treedpp.matroid", "IndependenceOracle.independent", "method", None),
    ("mixed_disc.mixed_discriminant", "treedpp.mixed_disc", "mixed_discriminant", "call", None),
    ("mixed_disc.build_partition_instance", "treedpp.mixed_disc", "build_partition_instance", "call", None),
    ("jsonio.load", "treedpp.jsonio", "read_json", "call", None),
    ("jsonio.load", "treedpp.jsonio", "load_sym_matrix", "call", None),
    ("jsonio.load", "treedpp.jsonio", "load_weighted_psd", "call", None),
    ("jsonio.load", "treedpp.jsonio", "load_graph", "call", None),
    ("jsonio.load", "treedpp.jsonio", "load_bipartite", "call", None),
    ("jsonio.load", "treedpp.jsonio", "load_bundle", "call", None),
    ("jsonio.load", "treedpp.jsonio", "load_md_instance", "call", None),
    ("cli.run", "treedpp.cli", "run", "call", None),
)

_OUTCOMES = {
    "nonzero": lambda result: result != 0,
    "found": lambda result: result is not None,
}


def rebind(original, replacement) -> list:
    """Point every treedpp module attribute bound to original at replacement.

    Returns the undo list for restore().
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "treedpp" or modname.startswith("treedpp.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    if not undo:
        raise LookupError(f"{original!r} is bound in no treedpp module")
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Stat:
    __slots__ = ("calls", "self_s", "sets", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.sets = 0
        self.hits = 0

    def copy(self) -> "Stat":
        other = Stat()
        other.calls, other.self_s, other.sets, other.hits = (
            self.calls, self.self_s, self.sets, self.hits)
        return other


class Tracer:
    """Wraps the TARGETS while installed; records only while enabled."""

    def __init__(self):
        self.enabled = False
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self._stack: list = []  # one [start, child_seconds] per open span
        self._undo: list = []

    def install(self) -> None:
        for name, modname, attr, kind, outcome in TARGETS:
            module = sys.modules[modname]
            stat = self.stats[name]
            hit = _OUTCOMES[outcome] if outcome else None
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, stat, hit))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(module, attr)
                wrap = self._wrap_iter if kind == "iter" else self._wrap
                self._undo.extend(rebind(original, wrap(original, stat, hit)))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def snapshot(self) -> dict:
        return {name: stat.copy() for name, stat in self.stats.items()}

    def _open(self) -> None:
        self._stack.append([perf_counter(), 0.0])

    def _close(self, stat: Stat) -> None:
        start, child = self._stack.pop()
        duration = perf_counter() - start
        stat.self_s += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, fn, stat: Stat, hit):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stat)
            stat.calls += 1
            if hit is not None and hit(result):
                stat.hits += 1
            return result

        return wrapper

    def _wrap_iter(self, fn, stat: Stat, hit):
        call = self._wrap(fn, stat, hit)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = call(*args, **kwargs)
            return _TracedIterator(self, stat, inner) if self.enabled else inner

        return wrapper


class _TracedIterator:
    __slots__ = ("_tracer", "_stat", "_inner")

    def __init__(self, tracer: Tracer, stat: Stat, inner):
        self._tracer = tracer
        self._stat = stat
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer._open()
        try:
            item = next(self._inner)
        finally:
            tracer._close(self._stat)
        self._stat.sets += 1
        return item
