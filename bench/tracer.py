"""Span and counter recording at the program's layer boundaries.

The tracer wraps module-level names through which one layer of
`lattice_choquard` calls the next (for example `solver.fiber_coefficients`
or `nehari.convolve`).  Each call through a span-wrapped name records one
span `(id, layer, start, end, parent id, thread id)`; counter-wrapped names
only count calls.  Spans stay in memory until `write` is called, and
`restore` puts every original name back.

A name that no longer exists is reported in `missing` and skipped, so a
refactor of the program degrades the traced run instead of breaking it.
Only the traced run imports this module; the end-to-end runs install no
wrappers.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_clock = time.perf_counter


class _ModuleProxy:
    """Stand-in for a module binding: selected attributes are replaced."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- per-thread state -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def add(self, name: str, amount=1) -> None:
        counts = self._counts()
        counts[name] = counts.get(name, 0) + amount

    def counts(self) -> dict:
        total: dict = {}
        with self._lock:
            for counts in self._thread_counts:
                for name, value in counts.items():
                    total[name] = total.get(name, 0) + value
        return total

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                self.spans.append(
                    (sid, layer, start, end, parent, threading.get_ident())
                )
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner, attr: str, layer: str, on_call=None, on_result=None):
        self._replace(
            owner, attr, lambda fn: self._span(layer, fn, on_call, on_result)
        )

    def count(self, owner, attr: str, name: str):
        self._replace(owner, attr, lambda fn: self._counter(name, fn))

    def span_attribute(self, owner, attr: str, inner: str, layer: str):
        """Wrap `owner.attr.inner` for this binding only, via a proxy."""

        def make(target):
            fn = getattr(target, inner, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}.{inner}")
                return target
            return _ModuleProxy(target, {inner: self._span(layer, fn)})

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, main_thread: int) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "main_thread": main_thread,
                    "missing": self.missing,
                    "counts": self.counts(),
                    "spans": self.spans,
                },
                fh,
            )


_FFT_POINTS: dict = {}


def _fft_points(tracer: Tracer, args, kwargs) -> None:
    """Count the real-FFT transform size of one `kernel.convolve` call.

    This mirrors how `scipy.signal.fftconvolve` pads a real linear
    convolution (next fast length of the full size, per axis); it is
    computed from array shapes, not measured.
    """
    table, w = args[0], args[1]
    method = kwargs.get("method", args[2] if len(args) > 2 else "fft")
    if method != "fft":
        return
    key = (w.spec.shape, table.values.shape)
    points = _FFT_POINTS.get(key)
    if points is None:
        from scipy.fft import next_fast_len

        points = 1
        for a, b in zip(*key):
            points *= next_fast_len(a + b - 1, True)
        _FFT_POINTS[key] = points
    tracer.add("kernel.convolve.fft_points", points)


def _iterations(tracer: Tracer, result) -> None:
    tracer.add("solver.iterations", int(getattr(result, "iterations", 0)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import lattice_choquard as pkg
    from lattice_choquard import cli, energy, lattice, nehari, solver, verify

    # top level: what the CLI (or the oracle workload) calls directly
    for owner in (cli, pkg):
        tracer.span(owner, "make_context", "energy.make_context")
        tracer.span(owner, "minimize_ground_state", "solver.minimize")
    tracer.span(pkg, "ground_state_oracle", "verify.oracle")
    tracer.span(cli, "center_normalize", "solver.center_normalize")
    tracer.span(cli, "run_all_checks", "verify.run_all_checks")
    for attr in ("_json_dump", "write_field_csv", "write_checks_json"):
        tracer.span(cli, attr, "cli.artifacts")

    # kernel
    tracer.span(energy, "build_table", "kernel.build_table")
    for owner in (nehari, energy, verify):
        tracer.span(owner, "convolve", "kernel.convolve", on_call=_fft_points)
    tracer.span(verify, "dense_operator", "kernel.dense_operator")

    # energy
    tracer.span(solver, "pairing_field", "energy.pairing_field")
    for owner, attr in (
        (solver, "h_norm"),
        (nehari, "h_norm"),
        (nehari, "h_norm_pow"),
        (verify, "h_norm"),
        (verify, "h_norm_pow"),
    ):
        tracer.span(owner, attr, "energy.h_norm")

    # nehari
    for owner in (solver, nehari, verify):
        tracer.span(owner, "fiber_coefficients", "nehari.fiber_coefficients")
    for owner in (solver, nehari):
        tracer.span(owner, "_phi_root", "nehari.fiber_root")
    tracer.count(nehari.FiberCoefficients, "phi", "nehari.phi_evals")

    # solver
    tracer.span(solver, "_descend", "solver.descend", on_result=_iterations)

    # verify
    tracer.span(verify, "hls_sampler", "verify.hls")
    tracer.span(verify, "_random_supported", "verify.random_fields")
    tracer.count(lattice.LatticeSpec, "index_of", "lattice.index_of.calls")
    for attr in (
        "fiber_growth_check",
        "ar_condition_check",
        "su_uniqueness_scan",
        "nehari_floor_check",
    ):
        tracer.span(verify, attr, "verify.other_checks")
    tracer.span_attribute(verify, "optimize", "minimize", "verify.oracle.polish")
    tracer.count(verify, "_direct_fiber_max", "verify.oracle.fiber_evals")
