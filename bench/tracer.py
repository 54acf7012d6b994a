"""Spans and counts around dipgpe's modules, installed from the benchmark.

dipgpe's source is not instrumented.  The tracer replaces module
attributes with thin wrappers: the public functions the benchmark calls,
the cross-module names dipgpe resolves at call time (``record_observables``
inside ``propagator``, ``build_symbol`` inside ``reduction``, ...), and the
``_fft`` name each module uses for ``scipy.fft``.  Every replacement is a
``unittest.mock.patch.object`` entered on a ``contextlib.ExitStack``, so
closing the stack puts the originals back; :func:`installed_wrappers` lists
any that are left, and the untraced runs refuse to start while one is.

The transforms of ``scipy.fft`` and ``numpy.fft`` themselves are counted
as well.  A transform that reaches them without passing through a
module's ``_fft`` proxy has no span, and :meth:`Tracer.escaped_transforms`
reports it.

A span is (layer, name, start, end, parent) where the layer is the dipgpe
module the call goes into.  Spans nest per thread, so the pool threads of
``epsilon_sweep`` get their own trees.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from dataclasses import dataclass
from unittest import mock

import numpy as np
from scipy import fft as scipy_fft

import dipgpe
from dipgpe import config, grid, kernel, propagator, reduction, regimes, state

WRAPPED = "__bench_wrapped__"

# Modules whose ``_fft`` name the tracer and the single-thread baseline replace.
FFT_USERS = (grid, kernel, state, propagator)

# (owner, attribute, layer): calls traced as spans.  Package-level names are
# the benchmark's own call sites; module-level names are dipgpe's internal
# cross-module calls.
SPANNED = (
    (dipgpe, "parse_config", "config"),
    (dipgpe, "build_initial_field", "config"),
    (dipgpe, "build_symbol_from_config", "config"),
    (dipgpe, "linear_eigenstate", "propagator"),
    (dipgpe, "evolve", "propagator"),
    (dipgpe, "write_snapshot", "propagator"),
    (dipgpe, "classify", "regimes"),
    (dipgpe, "epsilon_sweep", "reduction"),
    (dipgpe, "sweep_to_csv", "reduction"),
    (config, "build_symbol", "kernel"),
    (reduction, "build_symbol", "kernel"),
    (state, "apply_kernel", "kernel"),
    (propagator, "record_observables", "state"),
    (propagator, "spectral_tail_fraction", "state"),
    (propagator, "gradient_norm_sq", "state"),
    (propagator, "check_resolution", "state"),
    (state.ObservableSeries, "to_csv", "state"),
    (reduction, "evolve", "propagator"),
    (reduction, "run_reduced_snapshots", "reduction"),
    (reduction, "_study", "reduction"),
)

IO_NAMES = ("write_snapshot", "to_csv", "sweep_to_csv")

TRANSFORMS = {"fftn": "c2c", "ifftn": "c2c", "rfftn": "r2c", "irfftn": "r2c"}

# Transforms of scipy.fft and numpy.fft counted at their source.
RAW_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# Every per-layer metric of a traced run, with its unit.  run.py adds the
# last three: two single-thread baselines and the trace's own overhead.
LAYER_UNITS = {
    "grid.fft_c2c_per_step": "count",
    "grid.fft_r2c_per_step": "count",
    "grid.fft_c2c_per_sample": "count",
    "grid.fft_s": "s",
    "grid.fft_share": "ratio",
    "grid.fft_bytes_computed": "bytes",
    "kernel.build_s.analytic3d": "s",
    "kernel.build_s.effective1d": "s",
    "kernel.quad_calls": "count",
    "kernel.cache_misses": "count",
    "kernel.apply_calls": "count",
    "kernel.apply_s": "s",
    "state.samples": "count",
    "state.sample_ms": "ms",
    "state.sample_share": "ratio",
    "state.tail_ms": "ms",
    "propagator.steps": "count",
    "propagator.step_ms": "ms",
    "propagator.self_ms_per_step": "ms",
    "propagator.io_s": "s",
    "regimes.classify_s": "s",
    "reduction.reduced_s": "s",
    "reduction.member_s_max": "s",
    "reduction.member_s_median": "s",
    "reduction.overlap": "ratio",
    "reduction.straggler": "ratio",
    "config.parse_ms": "ms",
    "grid.fft_thread_speedup": "ratio",
    "reduction.pool_speedup": "ratio",
    "trace.overhead": "ratio",
}


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when there is nothing to divide by."""
    return num / den if den > 0.0 else 0.0


def installed_wrappers() -> list[str]:
    """Names of benchmark wrappers still installed in dipgpe."""
    owners = [dipgpe, config, grid, kernel, propagator, reduction, regimes, state]
    owners += [state.ObservableSeries, scipy_fft, np.fft]
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, WRAPPED, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


class FFTProxy:
    """Stands in for ``scipy.fft`` inside a dipgpe module.

    With a tracer, each transform becomes a span of layer ``grid``; with
    ``workers`` set, every transform runs with that worker count.
    """

    __bench_wrapped__ = True

    def __init__(self, tracer: "Tracer | None" = None, workers: "int | None" = None) -> None:
        self._tracer = tracer
        self._workers = workers

    def __getattr__(self, name: str):
        return getattr(scipy_fft, name)

    def _transform(self, name: str, x, args, kwargs):
        if self._workers is not None:
            kwargs["workers"] = self._workers
        fn = getattr(scipy_fft, name)
        if self._tracer is None:
            return fn(x, *args, **kwargs)
        return self._tracer.call(
            "grid", name, fn, (x,) + args, kwargs, kind=TRANSFORMS[name], nbytes_in=x.nbytes
        )

    def fftn(self, x, *args, **kwargs):
        return self._transform("fftn", x, args, kwargs)

    def ifftn(self, x, *args, **kwargs):
        return self._transform("ifftn", x, args, kwargs)

    def rfftn(self, x, *args, **kwargs):
        return self._transform("rfftn", x, args, kwargs)

    def irfftn(self, x, *args, **kwargs):
        return self._transform("irfftn", x, args, kwargs)


def single_thread(stack: contextlib.ExitStack) -> None:
    """Make every dipgpe transform run on one worker until stack closes."""
    proxy = FFTProxy(workers=1)
    for module in FFT_USERS:
        stack.enter_context(mock.patch.object(module, "_fft", proxy))


@dataclass(eq=False)
class Span:
    layer: str
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0
    kind: str = ""
    nbytes: int = 0
    steps: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def ancestor(self, name: str) -> "Span | None":
        node = self.parent
        while node is not None and node.name != name:
            node = node.parent
        return node


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.quad_calls = 0
        self.cache_misses = 0
        self.raw_transforms = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, name, fn, args, kwargs, kind="", nbytes_in=None):
        stack = self._stack()
        span = Span(layer, name, stack[-1] if stack else None, kind=kind)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.children_s += span.duration
            with self._lock:
                self.spans.append(span)
        if nbytes_in is not None:
            span.nbytes = nbytes_in + result.nbytes
        if name == "build_symbol":
            provenance = args[1] if len(args) > 1 else kwargs["provenance"]
            span.kind = type(provenance).__name__.lower()
        return result

    def _spanned(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _counted(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        wrapper.__bench_wrapped__ = True
        return wrapper

    def install(self, stack: contextlib.ExitStack) -> None:
        """Install every wrapper on stack; closing it removes them."""

        def replace(owner, attr, value):
            stack.enter_context(mock.patch.object(owner, attr, value))

        for owner, attr, layer in SPANNED:
            replace(owner, attr, self._spanned(layer, attr, getattr(owner, attr)))
        proxy = FFTProxy(tracer=self)
        for module in FFT_USERS:
            replace(module, "_fft", proxy)
        for source in (scipy_fft, np.fft):
            for name in RAW_TRANSFORMS:
                replace(source, name, self._counted("raw_transforms", getattr(source, name)))

        nonlinear_phase = propagator._nonlinear_phase

        def step(*args, **kwargs):
            # _nonlinear_phase runs exactly once per splitting step of evolve.
            for span in reversed(self._stack()):
                if span.name == "evolve":
                    span.steps += 1
                    break
            return nonlinear_phase(*args, **kwargs)

        read_cache = kernel._read_cache

        def counted_read(*args, **kwargs):
            values = read_cache(*args, **kwargs)
            if values is None:
                with self._lock:
                    self.cache_misses += 1
            return values

        for owner, attr, fn in (
            (propagator, "_nonlinear_phase", step),
            (kernel, "_quad", self._counted("quad_calls", kernel._quad)),
            (kernel, "_read_cache", counted_read),
        ):
            fn.__bench_wrapped__ = True
            replace(owner, attr, fn)

    # -- checks on the trace itself ----------------------------------------

    def escaped_transforms(self) -> int:
        """Transforms of scipy.fft or numpy.fft that ran without a grid span."""
        return self.raw_transforms - sum(1 for s in self.spans if s.layer == "grid")

    def run_steps(self) -> int:
        """Splitting steps of the runs, leaving out sweep1d's reduced 1D model."""
        return sum(
            s.steps
            for s in self.spans
            if s.name == "evolve" and s.ancestor("run_reduced_snapshots") is None
        )

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics of the traced spans.

        Counts and times are per unit (the traced spans cover ``units``
        set-up-and-run units); ``*_ms`` metrics and ``kernel.build_s.*`` are
        means per call, as set-up repeats.  Metrics of a layer the workload
        does not reach read 0.
        """
        spans = self.spans
        named: dict[str, list[Span]] = {}
        for span in spans:
            named.setdefault(span.name, []).append(span)

        def total(name: str) -> float:
            return sum(s.duration for s in named.get(name, ()))

        def mean_ms(name: str) -> float:
            found = named.get(name, ())
            return 1e3 * total(name) / len(found) if found else 0.0

        def mean_build(kind: str) -> float:
            found = [s.duration for s in named.get("build_symbol", ()) if s.kind == kind]
            return statistics.fmean(found) if found else 0.0

        evolves = named.get("evolve", [])
        evolve_s = total("evolve")
        steps = sum(s.steps for s in evolves)
        samples = len(named.get("record_observables", ()))

        ffts = [s for s in spans if s.kind in ("c2c", "r2c")]
        in_evolve = [s for s in spans if s.name != "evolve" and s.ancestor("evolve")]
        ffts_in_evolve = [s for s in ffts if s.ancestor("evolve")]

        def per_step(kind: str) -> float:
            n = sum(1 for s in ffts if s.kind == kind and s.parent is not None and s.parent.name == "evolve")
            return ratio(n, steps)

        def sampling(span: Span) -> bool:
            node = span.parent
            while node is not None and node.name != "evolve":
                if node.layer == "state":
                    return True
                node = node.parent
            return False

        c2c_sample = sum(1 for s in ffts_in_evolve if s.kind == "c2c" and sampling(s))
        sampling_s = sum(
            s.duration for s in in_evolve if s.layer == "state" and s.parent.name == "evolve"
        )
        propagator_self = sum(s.self_s for s in evolves)

        members = sorted(s.duration for s in named.get("_study", ()))
        member_median = statistics.median(members) if members else 0.0

        metrics = {
            "grid.fft_c2c_per_step": per_step("c2c"),
            "grid.fft_r2c_per_step": per_step("r2c"),
            "grid.fft_c2c_per_sample": ratio(c2c_sample, samples),
            "grid.fft_s": sum(s.duration for s in ffts) / units,
            "grid.fft_share": ratio(sum(s.duration for s in ffts_in_evolve), evolve_s),
            "grid.fft_bytes_computed": sum(s.nbytes for s in ffts) / units,
            "kernel.build_s.analytic3d": mean_build("analytic3d"),
            "kernel.build_s.effective1d": mean_build("effective1d"),
            "kernel.quad_calls": self.quad_calls / units,
            "kernel.cache_misses": self.cache_misses / units,
            "kernel.apply_calls": len(named.get("apply_kernel", ())) / units,
            "kernel.apply_s": total("apply_kernel") / units,
            "state.samples": samples / units,
            "state.sample_ms": mean_ms("record_observables"),
            "state.sample_share": ratio(sampling_s, evolve_s),
            "state.tail_ms": mean_ms("spectral_tail_fraction"),
            "propagator.steps": steps / units,
            "propagator.step_ms": 1e3 * ratio(evolve_s - sampling_s, steps),
            "propagator.self_ms_per_step": 1e3 * ratio(propagator_self, steps),
            "propagator.io_s": sum(total(name) for name in IO_NAMES) / units,
            "regimes.classify_s": total("classify") / units,
            "reduction.reduced_s": total("run_reduced_snapshots") / units,
            "reduction.member_s_max": members[-1] if members else 0.0,
            "reduction.member_s_median": member_median,
            "reduction.overlap": ratio(sum(members), total("epsilon_sweep")),
            "reduction.straggler": ratio(members[-1], member_median) if members else 0.0,
            "config.parse_ms": mean_ms("parse_config"),
        }
        return metrics
