"""Spans around the library's public functions, kept outside the library.

``Tracer.install()`` wraps every public function of the traced kreinkit
layers and the ``numpy.linalg`` / ``scipy.linalg.expm`` entry points, and
rebinds each wrapper in every namespace that holds the original:
``from .spectral import norm2`` leaves copies of ``norm2`` in ``completion``,
``lifting``, ``verify`` and the rest, and patching ``spectral.norm2`` alone
would miss them.  ``restore()`` puts every original back.

Spans (name, start, end, parent) are kept in flat arrays while the run
lasts and written out once at the end.  Since calls nest on one thread and
each span is appended when its call starts, the descendants of span ``i``
are exactly the spans ``i+1 .. k`` that start before span ``i`` ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("spectral", "completion", "factor", "lifting", "quasicontraction",
          "relations", "gens", "jsonio")

# numpy.linalg entry points; the ones not named here count as lapack.other
LAPACK_OWN = ("eigh", "eigvalsh", "svd", "solve", "lstsq")
LAPACK_OTHER = ("inv", "qr", "cholesky", "det", "slogdet", "eig", "eigvals",
                "pinv", "matrix_rank", "matrix_power", "tensorinv", "tensorsolve")


def _exactly_symmetric(a, *args, **kwargs) -> bool:
    arr = np.asarray(a)
    return arr.ndim == 2 and arr.shape[0] == arr.shape[1] and bool(np.array_equal(arr, arr.T))


# per-function argument probes: counted when the probe returns True
PROBES = {
    "spectral.norm2": _exactly_symmetric,
    "spectral.as_symmetric": _exactly_symmetric,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.errors: Counter = Counter()
        self.probed: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        nid = self._id(name)
        probe = PROBES.get(name)
        clock = time.perf_counter
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None and probe(*args, **kwargs):
                self.probed[name] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _rebind(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        import scipy.linalg

        kk = [m for n, m in list(sys.modules.items())
              if m is not None and (n == "kreinkit" or n.startswith("kreinkit."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"kreinkit.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind(fn, self.wrap(f"{layer}.{attr}", fn), kk)
        for attr in LAPACK_OWN + LAPACK_OTHER:
            fn = getattr(np.linalg, attr, None)
            if fn is not None:
                self._rebind(fn, self.wrap(f"lapack.{attr}", fn), [np.linalg] + kk)
        self._rebind(scipy.linalg.expm, self.wrap("lapack.expm", scipy.linalg.expm),
                     [scipy.linalg] + kk)

    def restore(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def columns(self):
        """Spans as arrays: name id, start, end, parent, self time."""
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, start, end, parent, dur - child

    def save(self, path) -> None:
        name, start, end, parent, _ = self.columns()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent)
