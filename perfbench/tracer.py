"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` rebinds every public function of each layer (module) to
a timing wrapper in every namespace of the package that holds it, so a call
is traced whichever module it is looked up in: ``analysis.solve_feasibility``
as well as ``feasibility.solve_feasibility``.  Spans carry a name, start,
end and parent; they stay in memory until ``write`` saves them once.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "contextuality"
LAYERS = ("systems", "feasibility", "analysis", "peres", "serialize", "catalog", "cli")
REQUEST = "request"
# Sort keys and per-element helpers: called thousands of times per request
# for a few hundred nanoseconds of work each, so a wrapper would cost more
# than the call and inflate their callers' times.  No layer metric reads them.
UNTRACED = frozenset({
    "systems.setting_key",
    "systems.context_key",
    "serialize.format_rational",
    "serialize.parse_rational",
    "peres.dot",
    "peres.cross",
    "peres.collinear",
    "peres.canonical_ray",
})


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _count_problem(counts, problem):
    counts["feasibility.rows"] += problem.num_rows
    counts["feasibility.cols"] += problem.num_cols
    counts["feasibility.nnz"] += sum(1 for row in problem.matrix for v in row if v)


def _count_outcome(counts, outcome):
    values = getattr(outcome, "p", None)
    if values is None:
        values = getattr(outcome, "y", ())
    counts["feasibility.cert_max_bits"] = max(
        counts["feasibility.cert_max_bits"], _bits(values)
    )


def _count_realizations(counts, realizations):
    counts["analysis.realizations"] += len(realizations)


def _count_verdict(counts, verdict):
    if verdict.decomposition is not None:
        counts["analysis.columns_used"] += len(verdict.decomposition.components)
        counts["analysis.columns_enumerated"] += verdict.realization_count


def _count_search(counts, result):
    stats = getattr(result, "stats", result)
    counts["peres.ks_nodes"] += stats.nodes


# Counters read from return values at the same boundaries as the spans,
# once the enclosing request has closed (the values are immutable).
HOOKS = {
    "feasibility.make_problem": _count_problem,
    "feasibility.solve_feasibility": _count_outcome,
    "analysis.enumerate_ns_realizations": _count_realizations,
    "analysis.classify": _count_verdict,
    "peres.ks_search": _count_search,
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []
        self._pending: list = []  # (hook, return value) until the root closes

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, name, index, parent, start) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)
        if not self._stack:
            # The root span has closed: count what its calls returned, so
            # the counting time lands in no span.
            for hook, result in self._pending:
                hook(self.counts, result)
            self._pending.clear()

    @contextmanager
    def span(self, name: str = REQUEST):
        index, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, index, parent, start)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)
            # Count only work done inside a request, not by the checks.
            if hook is not None and self._stack:
                self._pending.append((hook, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function of every layer, wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or name in UNTRACED
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(module, attr, found[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def layer_times(self) -> tuple[dict, Counter]:
        """Self seconds and call counts per span name, inside requests only.

        A request is a root span named ``REQUEST``; spans outside requests,
        such as the checks' own calls into the library, are left out.
        """
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0 and self.spans[root[i]][0] == REQUEST:
                self_time[name] += end - start - child[i]
                calls[name] += 1
        return dict(self_time), calls

    def write(self, path, **extra) -> None:
        """Save the spans, the counters and ``extra`` once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)
