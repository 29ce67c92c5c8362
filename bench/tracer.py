"""In-memory call tracing of the library's public functions.

The tracer replaces every binding of a traced function (its home module, every
module that imported it with ``from ... import``, the package re-exports, and
``DeFinettiMeasure`` methods) by one wrapper per function. While
``Tracer.active`` is set, each wrapper adds its call to an aggregate keyed by
(parent, function): calls, inclusive seconds and seconds spent in traced
children. No per-call record is kept, so millions of calls cost constant
memory. Outside the active window the wrappers only forward the call, which
keeps the benchmark's own verification out of the figures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("measures", "symmetric", "engine", "linalg", "dynamics", "montecarlo", "cli", "rationals")

# binom runs inside every inner sum (well over a million calls per traced
# phase) and costs less than a wrapper would; its time stays with its callers.
UNTRACED = {"rationals.binom"}


COUNTED = ("engine.check_decomposable", "engine.hoeffding_decomposition",
           "montecarlo.compare_exact_empirical", "montecarlo.urn_histogram")


def _result_counts(name, result, counts):
    """Work counts read off the results of the functions in COUNTED."""
    if name == "engine.check_decomposable":
        counts["engine.triples"] += len(result.residuals)
    elif name == "engine.hoeffding_decomposition":
        counts["engine.layers"] += len(result.components)
    else:
        counts["montecarlo.trials"] += result.trials


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = list(_package_modules(package))
        self.active = False
        self.edges: dict[tuple, list] = {}
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.config_args: set = set()
        self.distinct_configs = 0

    # -- installation ------------------------------------------------------

    def install_counters(self) -> None:
        """Thin wrappers that only record work counts (cheap enough for an
        untraced phase: each wraps a function called once or twice per op)."""
        for name, owner, attr, original in self._targets():
            if name in COUNTED:
                self._replace(owner, attr, original, self._counter(name, original))

    def install_timers(self) -> list[str]:
        """Timing wrappers on every traced function; returns their names."""
        names = []
        for name, owner, attr, original in self._targets():
            self._replace(owner, attr, original, self._timer(name, original))
            names.append(name)
        return names

    def _targets(self):
        """(name, owner, attribute, function) for every traced function."""
        for layer in LAYERS:
            module = getattr(self.package, layer, None)
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    yield name, module, attr, value
        cls = getattr(getattr(self.package, "measures", None), "DeFinettiMeasure", None)
        if cls is not None:
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, classmethod) or inspect.isfunction(value):
                    yield f"measures.{attr}", cls, attr, value

    def _replace(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)
            return
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name, original):
        fn = original.__func__ if isinstance(original, classmethod) else original

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                _result_counts(name, result, self.counts)
            return result

        return wrapper

    def _timer(self, name, original):
        fn = original.__func__ if isinstance(original, classmethod) else original
        edges, stack, clock = self.edges, self.stack, time.perf_counter
        observe_args = name == "measures.config_probability"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if observe_args:
                self.config_args.add((id(args[0]),) + args[1:])
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = edges.get((parent, name))
                if record is None:
                    edges[(parent, name)] = [1, elapsed, frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += frame[1]

        return wrapper

    # -- the active window -------------------------------------------------

    def begin_op(self) -> None:
        self.active = True

    def end_op(self) -> None:
        """Close one op; argument sets are per op because measures die with it."""
        self.active = False
        self.distinct_configs += len(self.config_args)
        self.config_args.clear()

    # -- aggregates --------------------------------------------------------

    def per_function(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds]."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, child) in self.edges.items():
            record = out.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += total - child
        return out

    def top_edges(self, limit: int) -> list[tuple]:
        """The (parent, function) pairs with the most self time."""
        rows = [
            (parent or "<op>", name, calls, total - child)
            for (parent, name), (calls, total, child) in self.edges.items()
        ]
        rows.sort(key=lambda row: -row[3])
        return rows[:limit]


def _package_modules(package):
    prefix = package.__name__ + "."
    yield package
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix) and module is not None:
            yield module
