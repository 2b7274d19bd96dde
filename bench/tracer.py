"""Per-layer tracing of commspectra from outside the library.

The layers are the library's modules. :class:`Tracer` wraps every public
function of every layer module and installs each wrapper at every name
callers look it up under: the defining module and each module that imported
the function by name (``search.double_commutator_spectrum``,
``spectra.double_commutator_lift``, ...). A wrapper records a span, so a
layer's self time is its span time minus the time its child spans cover.
No library code changes; nothing is installed while tracing is off.

A few functions also carry a hook that reads counters from argument and
result sizes. Flop and byte counts are *computed* from array sizes, never
measured: with N = n^2 the order of a lifted matrix,

* ``lifted.double_commutator_lift``: two Kronecker products and their
  difference (14 N^2) plus the complex product L* L (8 N^3 real flops);
* ``lifted.commutator_lift``: the Kronecker part alone (14 N^2);
* ``eigensolver.eigvalsh``: Householder tridiagonalization, 16/3 N^3;
* ``eigensolver.eigh``: tridiagonalization, eigenvector back-transformation
  (8 N^3) and the library's residual product H V (8 N^3);
* ``eigensolver.svd`` of an order-n matrix: bidiagonalization, 32/3 n^3.

Bytes are the compulsory traffic: operands read plus results written, 16
bytes per complex and 8 per real entry; temporaries and cache misses are
ignored. A hook whose target no longer exists is listed in
:attr:`Tracer.absent` and its counters stay at zero, so the benchmark keeps
running when later changes merge or delete functions.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = (
    "ensembles",
    "matrices",
    "lifted",
    "eigensolver",
    "spectra",
    "search",
    "closed_forms",
    "conjectures",
    "verdicts",
    "reporting",
    "matrixio",
    "cli",
)
# layers whose escaping exceptions are counted, and the classes broken out
FAILURE_LAYERS = ("spectra", "search")
FAILURE_CLASSES = ("InvariantViolationError", "DegenerateInputError")

COMPLEX_BYTES = 16
REAL_BYTES = 8

# hook counters reported per traced operation, with their units
PER_OP_COUNTERS = {
    "lifted.flops_computed": "flop/op",
    "lifted.bytes_computed": "B/op",
    "eigensolver.flops_computed": "flop/op",
    "eigensolver.bytes_computed": "B/op",
    "eigensolver.eigvalsh_s": "s/op",
    "eigensolver.eigh_s": "s/op",
    "reporting.validate_s": "s/op",
    "matrixio.bytes_read": "B/op",
    "verdicts.bundles_written": "count/op",
}


def metric_units() -> dict[str, str]:
    """Every metric :meth:`Tracer.per_op` reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
    units.update(PER_OP_COUNTERS)
    units["eigensolver.max_order"] = "count"
    units["eigensolver.vectors_used_share"] = "ratio"
    units["search.iterations"] = "iter/restart"
    for layer in FAILURE_LAYERS:
        for suffix in ("", *(f".{cls}" for cls in FAILURE_CLASSES), ".other"):
            units[f"{layer}.failed{suffix}"] = "count"
    return units


class _ColumnUse(np.ndarray):
    """Eigenvector matrix that records which columns its consumers read.

    Indexing records the selected columns; any other use (arithmetic, numpy
    functions) counts every column as read.
    """

    def __array_finalize__(self, obj):
        self.used = getattr(obj, "used", None)

    def _mark_all(self):
        if self.used is not None and self.ndim == 2:
            self.used.update(range(self.shape[1]))

    def __getitem__(self, key):
        if self.used is not None and self.ndim == 2:
            cols = key[1] if isinstance(key, tuple) and len(key) == 2 else slice(None)
            self.used.update(np.arange(self.shape[1])[cols].ravel().tolist())
        return self.view(np.ndarray)[key]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []
        for x in inputs:
            if isinstance(x, _ColumnUse):
                x._mark_all()
                x = x.view(np.ndarray)
            plain.append(x)
        if "out" in kwargs:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _ColumnUse) else o
                for o in kwargs["out"]
            )
        return getattr(ufunc, method)(*plain, **kwargs)

    def __array_function__(self, func, types_, args, kwargs):
        def plain(x):
            if isinstance(x, _ColumnUse):
                x._mark_all()
                return x.view(np.ndarray)
            if isinstance(x, (list, tuple)):
                return type(x)(plain(y) for y in x)
            return x

        return func(*plain(args), **{k: plain(v) for k, v in kwargs.items()})


def _order(args, kwargs) -> int:
    operand = args[0] if args else next(iter(kwargs.values()), None)
    shape = np.shape(operand)
    return int(shape[-1]) if shape else 0


def _hook_lift(tracer, args, kwargs, result, dt):
    n = _order(args, kwargs)
    N = n * n
    tracer.count("lifted.flops_computed", 8 * N**3 + 14 * N**2)
    tracer.count("lifted.bytes_computed", COMPLEX_BYTES * (n * n + N * N))
    return result


def _hook_commutator_lift(tracer, args, kwargs, result, dt):
    n = _order(args, kwargs)
    N = n * n
    tracer.count("lifted.flops_computed", 14 * N**2)
    tracer.count("lifted.bytes_computed", COMPLEX_BYTES * (n * n + N * N))
    return result


def _hook_eigvalsh(tracer, args, kwargs, result, dt):
    N = _order(args, kwargs)
    tracer.count("eigensolver.eigvalsh_s", dt)
    tracer.count("eigensolver.flops_computed", 16 * N**3 / 3)
    tracer.count("eigensolver.bytes_computed", COMPLEX_BYTES * N * N + REAL_BYTES * N)
    tracer.see_order(N)
    return result


def _hook_eigh(tracer, args, kwargs, result, dt):
    N = _order(args, kwargs)
    tracer.count("eigensolver.eigh_s", dt)
    tracer.count("eigensolver.flops_computed", (16 / 3 + 16) * N**3)
    tracer.count(
        "eigensolver.bytes_computed", 2 * COMPLEX_BYTES * N * N + REAL_BYTES * N
    )
    tracer.see_order(N)
    vectors = getattr(result, "vectors", None)
    if not (dataclasses.is_dataclass(result) and isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        return result
    tracked = vectors.view(_ColumnUse)
    tracked.used = set()
    tracer.eigenvectors.append(tracked)
    return dataclasses.replace(result, vectors=tracked)


def _hook_svd(tracer, args, kwargs, result, dt):
    n = _order(args, kwargs)
    tracer.count("eigensolver.flops_computed", 32 * n**3 / 3)
    tracer.count("eigensolver.bytes_computed", COMPLEX_BYTES * n * n + REAL_BYTES * n)
    tracer.see_order(n)
    return result


def _hook_validate(tracer, args, kwargs, result, dt):
    tracer.count("reporting.validate_s", dt)
    return result


def _hook_read(tracer, args, kwargs, result, dt):
    path = args[0] if args else kwargs.get("path")
    try:
        tracer.count("matrixio.bytes_read", os.path.getsize(path))
    except (OSError, TypeError):
        pass
    return result


def _hook_bundle(tracer, args, kwargs, result, dt):
    tracer.count("verdicts.bundles_written", 1)
    return result


def _hook_ascend(tracer, args, kwargs, result, dt):
    restarts = getattr(result, "restarts", ())
    tracer.count("search.restarts", len(restarts))
    tracer.count("search.iteration_total", sum(r.iterations for r in restarts))
    return result


HOOKS = {
    "lifted.double_commutator_lift": _hook_lift,
    "lifted.commutator_lift": _hook_commutator_lift,
    "eigensolver.eigvalsh": _hook_eigvalsh,
    "eigensolver.eigh": _hook_eigh,
    "eigensolver.svd": _hook_svd,
    "reporting.validate_report": _hook_validate,
    "matrixio.load_matrix": _hook_read,
    "matrixio.load_check_payload": _hook_read,
    "matrixio.sha256_digest": _hook_read,
    "verdicts.write_bundle": _hook_bundle,
    "search.ascend": _hook_ascend,
}


class Tracer:
    """Span recorder for the commspectra layers.

    Build it once, then bracket each traced operation with :meth:`install`
    and :meth:`uninstall`. Totals accumulate across operations; the caller
    divides by the operation count.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.failed = Counter()
        self.counters = Counter()
        self.max_order = 0
        self.eigenvectors: list[_ColumnUse] = []
        self.vectors_used = 0
        self.vectors_computed = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [layer, time covered by child spans]
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []
        self._prepare()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def see_order(self, N: int) -> None:
        self.max_order = max(self.max_order, N)

    def _prepare(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"commspectra.{layer}")
            except ImportError:
                self.absent.append(layer)
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj, HOOKS.get(f"{layer}.{name}")))
        for target in HOOKS:
            layer, name = target.split(".")
            fn = getattr(modules.get(layer), name, None)
            if id(fn) not in wrappers:
                self.absent.append(target)
        package = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "commspectra" or key.startswith("commspectra."))
        ]
        for mod in package:
            for name, obj in vars(mod).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, name, obj, entry[1]))

    def _wrap(self, layer, fn, hook):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer in FAILURE_LAYERS and (len(stack) < 2 or stack[-2][0] != layer):
                    tracer.failed[layer, type(exc).__name__] += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                result = hook(tracer, args, kwargs, result, dt)
            return result

        return span

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)
        for tracked in self.eigenvectors:
            self.vectors_used += len(tracked.used)
            self.vectors_computed += tracked.shape[1]
        self.eigenvectors.clear()

    def failures(self) -> dict[str, int]:
        """Exceptions that left a failure layer, total and by class."""
        out = {}
        for layer in FAILURE_LAYERS:
            by_class = {
                cls: n for (lay, cls), n in self.failed.items() if lay == layer
            }
            out[f"{layer}.failed"] = sum(by_class.values())
            for cls in FAILURE_CLASSES:
                out[f"{layer}.failed.{cls}"] = by_class.get(cls, 0)
            out[f"{layer}.failed.other"] = sum(
                n for cls, n in by_class.items() if cls not in FAILURE_CLASSES
            )
        return out

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer figures per traced operation (counts of failures are totals)."""
        ops = max(ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.self_s"] = self.self_s[layer] / ops
        for name in PER_OP_COUNTERS:
            out[name] = self.counters[name] / ops
        out["eigensolver.max_order"] = self.max_order
        out["eigensolver.vectors_used_share"] = (
            self.vectors_used / self.vectors_computed if self.vectors_computed else 0.0
        )
        restarts = self.counters["search.restarts"]
        out["search.iterations"] = (
            self.counters["search.iteration_total"] / restarts if restarts else 0.0
        )
        out.update(self.failures())
        return out
