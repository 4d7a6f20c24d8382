"""Spans for the traced run: wrapping the package's functions, and the
arithmetic that turns the recorded spans into per-layer figures.

A span is one call of a wrapped function: its name, its start and end on
``time.perf_counter`` and the index of the span that was open when it
started (its parent, ``-1`` at the top).  Spans are appended to flat arrays
in call order, so a parent always has a smaller index than its children.
They are kept in memory while the command runs and written out once, when
it has returned (:meth:`Tracer.save`).

This module imports nothing heavy at the top, so that wrapping the program
adds no import time to the traced process; NumPy is imported by the
functions that read spans back.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

# Layers are the package's modules.  Every function named in a module's
# ``__all__`` is wrapped, in every module that holds it by name, plus these
# private functions, which are where a step and a file write happen.
EXTRA_FUNCTIONS = {
    "integrators": {"_rk4": "integrators.step", "_rk4_joint": "integrators.step"},
    "cli": {
        "_write_trace": "cli.write",
        "_write_states": "cli.write",
        "_write_json": "cli.write",
    },
}

# Methods are wrapped on their class.
METHODS = (
    ("core", "TripleForm", "contract_pair"),
    ("core", "FluidAlgebra", "solve_metric"),
    ("core", "FluidAlgebra", "solve_linking"),
)

MODULES = ("core", "dynamics", "integrators", "instances", "diagnostics", "cli")


def _contraction_bytes(args):
    # computed bytes of the triple form read by one contraction: the dense
    # n^3 float64 array, or 32 bytes (three indices and a value) per entry
    form = args[0]
    if form.dense is not None:
        return 8 * form.dim ** 3
    return 32 * form.nnz


def _dd_rows(args):
    # dd_values(alg, form, hi, X, X_lo, ...): one row per value in hi
    return len(args[2])


# Quantities summed over the calls of a span name, besides the spans.
SIZES = {
    "core.contract_pair": _contraction_bytes,
    "core.dd_values": _dd_rows,
}


class Tracer:
    """Records one span per call of each function it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, label: str, fn):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        size = SIZES.get(label)
        sizes = self.sizes
        if size is not None:
            sizes.setdefault(label, 0)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if size is not None:
                sizes[label] += size(args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, package) -> int:
        """Wrap the package's functions and methods; returns how many.

        A name missing from the package is skipped, and its figures read 0.
        """
        modules = {name: getattr(package, name) for name in MODULES}
        labels = {}
        for short, mod in modules.items():
            extra = EXTRA_FUNCTIONS.get(short, {})
            for attr in list(getattr(mod, "__all__", ())) + list(extra):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    labels[fn] = extra.get(attr, f"{short}.{attr}")
        wrapped = {fn: self.wrap(label, fn) for fn, label in labels.items()}
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        count = len(wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name, None)
            if isinstance(getattr(cls, meth, None), types.FunctionType):
                setattr(cls, meth, self.wrap(f"{short}.{meth}", getattr(cls, meth)))
                count += 1
        return count

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            size_names=np.array(list(self.sizes), dtype=str),
            size_values=np.array(list(self.sizes.values()), dtype=np.int64),
        )


def self_times(start, end, parent):
    """Durations and self times of spans.

    A span's self time is its duration minus the durations of its direct
    children; children of one span run one after another inside it, so
    their durations add up to the part of the span they cover.
    """
    import numpy as np

    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered


def nearest(name_of, parent, nid):
    """For each span, the index of the closest span named ``nid`` among it
    and its ancestors, or -1."""
    out = [-1] * len(name_of)
    for i, (n, p) in enumerate(zip(name_of, parent)):
        if n == nid:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return out


class SpanTable:
    """Spans of one traced pass, read back from :meth:`Tracer.save`."""

    def __init__(self, names, name_of, parent, start, end, sizes=None):
        import numpy as np

        self.names = [str(n) for n in names]
        self.name_of = np.asarray(name_of)
        self.parent = np.asarray(parent)
        self.dur, self.self_time = self_times(start, end, parent)
        self.sizes = dict(sizes or {})
        self._np = np
        self._within = {}

    @classmethod
    def load(cls, path):
        import numpy as np

        with np.load(path) as z:
            sizes = dict(zip(z["size_names"].tolist(), z["size_values"].tolist()))
            return cls(z["names"], z["name_of"], z["parent"], z["start"],
                       z["end"], sizes)

    def _mask(self, label):
        if label not in self.names:
            return self._np.zeros(self.name_of.shape, dtype=bool)
        return self.name_of == self.names.index(label)

    def calls(self, label) -> int:
        return int(self._mask(label).sum())

    def total(self, label) -> float:
        return float(self.dur[self._mask(label)].sum())

    def self_total(self, label) -> float:
        return float(self.self_time[self._mask(label)].sum())

    def median(self, label) -> float:
        d = self.dur[self._mask(label)]
        return float(self._np.median(d)) if d.size else 0.0

    def self_median(self, label) -> float:
        d = self.self_time[self._mask(label)]
        return float(self._np.median(d)) if d.size else 0.0

    def calls_within(self, label, outer) -> int:
        """Calls of ``label`` made inside a span named ``outer``."""
        if outer not in self.names:
            return 0
        if outer not in self._within:
            self._within[outer] = self._np.asarray(nearest(
                self.name_of.tolist(), self.parent.tolist(),
                self.names.index(outer))) >= 0
        return int((self._mask(label) & self._within[outer]).sum())
