"""Spans around the library functions that `cli` calls.

`installed` swaps wrappers in for the public functions that cross a
module boundary on a CLI path and restores them on exit.  A
wrapper records one span per call (name, start, end, parent span, op
id) plus one count taken from the call's arguments or result.  Spans
are kept in flat arrays and written out once, at the end of a run.

`scattering.scatter_point` is wrapped only in cli's view of the
`scattering` module: `sweep_scatter` calls it once per grid point, and
those calls stay inside the layer.  `sweep_ideal` is wrapped in its
module, so the scan inside `best_probability_at_entanglement` shows as
a nested span.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from pathlib import Path
from time import perf_counter


def _points(args, result) -> int:
    return len(args[0])


def _found(args, result) -> int:
    return result is not None


def _roots(args, result) -> int:
    return len(result)


SPAN_NAMES = (
    "cli.main", "ideal.sweep", "ideal.optimum", "ideal.simulate", "scattering.sweep",
    "scattering.roots", "scattering.point", "core.measure", "core.partial_trace",
    "entanglement.concurrence",
)


class _ModuleView:
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, module, **replaced):
        self.__dict__.update(replaced)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.op.append(self.op_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name.append(name_id)
            self.end.append(0.0)
            self.count.append(0)
            self._stack.append(span)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.count[span] = count(args, result)
            return result

        return traced

    def patches(self, cli, ideal, scattering, core) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for each layer entry point that cli reaches."""
        return [
            (ideal, "sweep_ideal", self.wrap("ideal.sweep", ideal.sweep_ideal, _points)),
            (ideal, "best_probability_at_entanglement",
             self.wrap("ideal.optimum", ideal.best_probability_at_entanglement, _found)),
            (ideal, "simulate_sequential", self.wrap("ideal.simulate", ideal.simulate_sequential)),
            (scattering, "sweep_scatter", self.wrap("scattering.sweep", scattering.sweep_scatter, _points)),
            (scattering, "find_max_entanglement",
             self.wrap("scattering.roots", scattering.find_max_entanglement, _roots)),
            (core, "measure_site", self.wrap("core.measure", core.measure_site)),
            (core, "partial_trace", self.wrap("core.partial_trace", core.partial_trace)),
            (cli, "concurrence_mixed", self.wrap("entanglement.concurrence", cli.concurrence_mixed)),
            (cli, "scattering", _ModuleView(
                scattering, scatter_point=self.wrap("scattering.point", scattering.scatter_point))),
        ]

    def spans(self):
        """(op, span, parent, name, start, end, count) per span."""
        for i in range(len(self.start)):
            yield (self.op[i], i, self.parent[i], self.names[self.name[i]],
                   self.start[i], self.end[i], self.count[i])

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s,count\n")
            for row in self.spans():
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%d\n" % row)


@contextlib.contextmanager
def installed(patches):
    """Swap the wrappers in for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
