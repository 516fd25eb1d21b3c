"""Per-layer timing of polyfactor from outside the program.

For a traced call, timing wrappers replace the module attributes through
which the program reaches each layer's functions (``verify.find_roots``,
``verify.BACKENDS[...]``, ``parallel.parallel_build`` and so on) and are
removed again afterwards. Every wrapper records a span; a span's self time is
its duration minus the time of the spans it encloses, so the self times of all
spans add up to the time spent inside the outermost ``factor()`` spans.

Only the calling thread is wrapped: the worker threads of the parallel table
run inside the ``parallel.build`` and ``parallel.sweep`` spans.
"""
from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span): every place the program looks a traced function
# up. Attributes that a version of the program no longer has are skipped, and
# their time falls into the enclosing span.
PATCHES = (
    ("verify", "square_free_decompose", "polynomial.square_free"),
    ("verify", "divide_exact", "polynomial.divide_exact"),
    ("polynomial", "divide_exact", "polynomial.divide_exact"),
    ("verify", "find_roots", "rootfinder.find_roots"),
    ("verify", "build_profile", "rootfinder.build_profile"),
    ("parallel", "parallel_recombine_e", "recombine.backend"),
    ("recombine", "subset_sums", "recombine.subset_sums"),
    ("parallel", "subset_sums", "recombine.subset_sums"),
    ("recombine", "_splat_arrays", "recombine.table_build"),
    ("recombine", "_canonical_filter", "recombine.canonical_filter"),
    ("parallel", "_canonical_filter", "recombine.canonical_filter"),
    ("parallel", "parallel_build", "parallel.build"),
    ("parallel", "parallel_query_sweep", "parallel.sweep"),
    ("verify", "build_candidate", "verify.build_candidate"),
    ("verify", "trace_test", "verify.trace_test"),
    ("verify", "round_and_divide", "verify.round_and_divide"),
)
ROOT = "verify.factor"


def _count_outcome(name: str, out, counts: Counter) -> None:
    if name == "verify.trace_test" and not out:
        counts["trace_rejects"] += 1
    elif name == "verify.round_and_divide":
        counts["division_rejects" if out is None else "confirmed"] += 1


class Tracer:
    """Self time, inclusive time and call count per span name, plus outcome
    counters; one instance per traced run."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.widths: list[int] = []
        self._children: list[float] = []  # time in child spans, one entry per open span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "recombine.backend":
                self.widths.append(len(args[0]))
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.self_s[name] += dt - self._children.pop()
                self.total_s[name] += dt
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += dt
            _count_outcome(name, out, self.counts)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every PATCHES attribute and every verify.BACKENDS entry of
        `modules` (name -> polyfactor submodule), restoring them on exit."""
        undo = []
        try:
            for mod, attr, name in PATCHES:
                owner = modules[mod]
                original = getattr(owner, attr, None)
                if original is not None:
                    setattr(owner, attr, self.wrap(name, original))
                    undo.append(functools.partial(setattr, owner, attr, original))
            backends = modules["verify"].BACKENDS
            for key, original in list(backends.items()):
                backends[key] = self.wrap("recombine.backend", original)
                undo.append(functools.partial(backends.__setitem__, key, original))
            yield self
        finally:
            for restore in reversed(undo):
                restore()
