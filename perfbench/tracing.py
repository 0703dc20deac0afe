"""Spans and counts around qlgraph's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper everywhere a
qlgraph module holds it under a name (``qlgraph.experiments.d_regular_random``
as well as ``qlgraph.graphs.d_regular_random``); methods are replaced on their
class (``Graph.__post_init__``, ``RngSeed.derive``). Each call records a span
(name, start, end, parent) and bumps the counts named in `TARGETS`.
`Tracer.uninstall` puts every original object back. The package itself is
never edited.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

OVERHEAD = "_trace"
WRAPPED_MARK = "__perfbench_original__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the durations of its child spans.

    The tracer is single-threaded and stack-based, so each child lies inside
    its parent and siblings never overlap.
    """
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        duration = s.end - s.start
        out[s.name] += duration
        if s.parent is not None:
            out[spans[s.parent].name] -= duration
    return dict(out)


# Counters run after the traced call returns, inside the wrapper's exit overhead
# span, so their cost is charged to tracing and not to the caller's self time.
def _distinct_inputs(t: "Tracer", name: str, args: dict, result) -> None:
    t.distinct[name].add(repr(sorted(args.items())))


def _graph_edges(t: "Tracer", name: str, args: dict, result) -> None:
    t.counts[f"{name}.edges"] += len(args["self"].edges)


def _eigen_work(t: "Tracer", name: str, args: dict, result) -> None:
    entries = getattr(args["a"], "entries", args["a"])
    t.distinct[name].add(hashlib.blake2b(entries.tobytes(), digest_size=16).digest())
    t.counts[f"{name}.dim3_sum"] += int(entries.shape[0]) ** 3


def _composed_values(t: "Tracer", name: str, args: dict, result) -> None:
    t.counts[f"{name}.values"] += int(result.size)


def _rows_written(t: "Tracer", name: str, args: dict, result) -> None:
    # The CLI hands the writer a fresh StringIO: rows are its lines after the header.
    t.counts[f"{name}.rows"] += args["fh"].getvalue().count("\n") - 1


def _histogram_values(t: "Tracer", name: str, args: dict, result) -> None:
    t.counts[f"{name}.values"] += int(args["values"].size)


@dataclass(frozen=True)
class Target:
    """One traced callable: span name, defining module, attribute path."""

    name: str
    module: str
    attr: str
    counter: Callable | None = None


TARGETS = (
    Target("graphs.d_regular_random", "qlgraph.graphs", "d_regular_random", _distinct_inputs),
    Target("graphs.Graph", "qlgraph.graphs", "Graph.__post_init__", _graph_edges),
    Target("graphs.adjacency", "qlgraph.graphs", "adjacency"),
    Target("graphs.delete_random_edges", "qlgraph.graphs", "delete_random_edges"),
    Target("graphs.apply_diagonal_disorder", "qlgraph.graphs", "apply_diagonal_disorder"),
    Target("graphs.is_connected", "qlgraph.graphs", "is_connected"),
    Target("rng.RngSeed.derive", "qlgraph.rng", "RngSeed.derive"),
    Target("rng.RngSeed.generator", "qlgraph.rng", "RngSeed.generator"),
    Target("qlbits.couple", "qlgraph.qlbits", "couple"),
    Target("qlbits.emergent_pair", "qlgraph.qlbits", "emergent_pair"),
    Target("qlbits.predict_splitting", "qlgraph.qlbits", "predict_splitting"),
    Target("spectra.eigendecompose", "qlgraph.spectra", "eigendecompose", _eigen_work),
    Target("products.compose_spectra", "qlgraph.products", "compose_spectra", _composed_values),
    Target("products.write_composed_spectrum_csv", "qlgraph.products",
           "write_composed_spectrum_csv", _rows_written),
    Target("ensembles.histogram_from_values", "qlgraph.ensembles", "histogram_from_values",
           _histogram_values),
    Target("ensembles.write_histogram_csv", "qlgraph.ensembles", "write_histogram_csv"),
    Target("projection.project_alphas", "qlgraph.projection", "project_alphas"),
    Target("experiments.run_sample", "qlgraph.experiments", "run_sample"),
    Target("cli.main", "qlgraph.cli", "main"),
)


class Tracer:
    """Records spans and counts for the calls of one run at a time.

    Use as a context manager, or call `install` and `uninstall` in pairs;
    `reset` clears what the previous run recorded.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.failed_counters: set[str] = set()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if path:
                self._patch(owner, attr, wrapper)
            else:
                for mod in package_modules(target.module.partition(".")[0]):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, existed = self._patches.pop()
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner, attr: str, wrapper) -> None:
        existed = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), existed))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, original):
        signature = inspect.signature(original)
        name, counter = target.name, target.counter
        clock = time.perf_counter

        # The clock is read first on entry and last on exit. The wrapper's own
        # work before the call starts and after it ends goes into two
        # overhead spans, so none of it lands in the caller's self time.
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if counter is not None and name not in self.failed_counters:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self, name, bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    # The traced function no longer has the shape the counter
                    # reads; its counts are reported as absent.
                    self.failed_counters.add(name)
            self.spans += (Span(OVERHEAD, entered, span.start, parent),
                           Span(OVERHEAD, span.end, clock(), parent))
            return result

        setattr(wrapper, WRAPPED_MARK, original)
        return wrapper


def package_modules(package: str) -> list:
    """The imported modules of `package`, the package itself included."""
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))]

