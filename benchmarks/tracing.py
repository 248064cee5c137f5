"""Layer spans recorded from outside the package.

The traced run replaces the package's public functions with timing wrappers
wherever a module looks them up (the defining module and every module that
imported the name), and puts the originals back afterwards.  Nothing inside
``fracbeltrami`` is edited.  Spans are kept in memory; a layer's self time
is its span's duration minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import weakref
from collections import defaultdict

import numpy as np

from fracbeltrami import exterior, extension, geometry, recovery, solvers, spectral

_MODULES = (geometry, spectral, solvers, exterior, extension, recovery)

# (span name, defining module, public function).  Both experiments share one
# span name, so the gauge experiment's call of the distinct one nests inside
# it and their self times add up to the recovery layer's own work.
TRACED = (
    ("geometry.make_metric", geometry, "make_metric"),
    ("spectral.assemble_laplacian", spectral, "assemble_laplacian"),
    ("spectral.decompose", spectral, "decompose"),
    ("spectral.frac_energy_matrix", spectral, "frac_energy_matrix"),
    ("spectral.frac_apply_spectral", spectral, "frac_apply_spectral"),
    ("exterior.solve_exterior_dirichlet", exterior, "solve_exterior_dirichlet"),
    ("exterior.dtn_partial", exterior, "dtn_partial"),
    ("extension.fd_extension_solve", extension, "fd_extension_solve"),
    ("recovery.experiment", recovery, "gauge_experiment"),
    ("recovery.experiment", recovery, "dtn_difference_experiment"),
)

# conjugate gradients serves two layers; the caller's module names the span
CG_SPANS = {exterior: "solvers.exterior_cg", extension: "solvers.extension_cg"}


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    iterations: int = 0
    dense_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _dense_arrays(result) -> list[np.ndarray]:
    """The square 2-d arrays a result is or holds in its own fields."""
    if isinstance(result, np.ndarray):
        candidates = [result]
    elif dataclasses.is_dataclass(result):
        candidates = [getattr(result, f.name) for f in dataclasses.fields(result)]
    else:
        return []
    return [a for a in candidates if isinstance(a, np.ndarray) and a.ndim == 2
            and a.shape[0] == a.shape[1] and a.shape[0] > 1]


class Tracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # arrays already counted, so a cached energy matrix handed out again
        # is not counted twice; weak values let freed ids be reused safely
        self._counted: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, parent=parent, start=time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if name.startswith("solvers."):
                span.iterations = int(result[1])
            for arr in _dense_arrays(result):
                if self._counted.get(id(arr)) is not arr:
                    self._counted[id(arr)] = arr
                    span.dense_bytes += arr.nbytes
            return result
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        named = {id(getattr(mod, fn)): name for name, mod, fn in TRACED}
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is solvers.conjugate_gradient:
                    name = CG_SPANS.get(module)
                else:
                    name = named.get(id(value))
                if name is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def mark(self) -> int:
        """Position in the span list, to total a later stretch of spans."""
        return len(self.spans)

    def totals(self, begin: int, end: int) -> dict[str, float]:
        """Per-name sums over spans[begin:end]: _s, _self_s, _calls, ..."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[begin:end]:
            out[span.name + "_s"] += span.duration
            out[span.name + "_self_s"] += span.self_s
            out[span.name + "_calls"] += 1
            out[span.name + "_iterations"] += span.iterations
            out["spectral.dense_mb"] += span.dense_bytes / 1e6
        return out

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]
