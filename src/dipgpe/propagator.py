"""Strang-splitting time integrator with collapse-aware termination.

One step is A(dt/2) B(dt) A(dt/2): A is the exact kinetic flow, a
frequency-space phase exp(-i dt |xi|^2 / 4) for a half step, and B is
the exact potential-plus-nonlinear flow, a physical-space phase
exp(-i dt (V + lambda1 rho + lambda2 K*rho)) evaluated once from the
entering density, which pure phase multiplication leaves invariant.
Both substeps preserve the pointwise modulus or the spectral modulus,
so mass is conserved to roundoff and the step is time-symmetric.

Across consecutive steps the two adjacent kinetic half-steps fuse into
one full step, so the integrator carries the pre-B state y and only
materializes the physical field at sampling times.  strang_step and
evolve share one step routine (_Splitting): B(dt) builds the half angle
-(dt/2) (V + lambda1 rho + lambda2 K*rho), turns it into the rotor
exp(i theta) through one tangent (the half-angle formulas, see
_nonlinear_phase) and multiplies y in place; the forward transform of
the result and the kinetic multiply reuse the same array.  A step costs
two complex and two real transforms.

The pointwise passes of a step run over flat blocks of _BLOCK elements,
so each block's work stays in cache.  B(dt) makes two block loops, one
for the density, which the convolution needs whole, and one for the
half angle, the rotor and the multiply; the full kinetic step forms
khalf^2 per block.  The step holds two full lattices, the density and
khalf, and block scratch; every element goes through the same
operations as in full-lattice passes, so the results are the same to
the last bit.

At a sample, the spectrum the loop already holds gives psi_hat.  The
collapse monitor runs on the calling thread: the gradient norm and the
spectral tail come from the power of psi_hat with no transform.  The
ObservableRecord reuses psi_hat too (see the state module): a 3D record
adds one inverse transform for psi, three for its gradient and one real
transform for the dipolar energy.  evolve takes each record on one
recorder thread while the loop steps on.  At most one record is in
flight: a sample first joins the previous record, so records reach the
series in order.  psi is materialized on the calling thread only where a
callback, the final step or a tripped monitor needs it, and by the
record otherwise; the pending record is joined before a callback fires
and before evolve returns.  A caller that discards the series (evolve
with observables=False, as the reduction module's snapshot runs do)
takes monitor-only samples and starts no thread.  _harmonic_profile
builds the trap ground state on any set of axes, for linear_eigenstate
and for the reduction module's transverse profile.

Blow-up cannot be followed on a fixed lattice.  The monitor reports
under-resolution consistent with collapse when the gradient norm or the
top-octave spectral fraction crosses its threshold, and the run ends
with a CollapseReport instead of an exception.
"""

from __future__ import annotations

import contextvars
import math
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import fft as _fft

from .grid import FFT_WORKERS, GridError, SpectralGrid, make_grid, mesh_product
from .kernel import KernelSymbol, _apply_symbol_real
from .state import (
    FieldSpectrum,
    ObservableRecord,
    ObservableSeries,
    PhysicalParams,
    WaveField,
    density,
    field_spectrum,
    gradient_norm_sq,
    record_observables,
    spectral_tail_fraction,
    check_resolution,
)


class NonFiniteStateError(ArithmeticError):
    """The field left the representable range (overflow or nan)."""

    def __init__(self, message: str, t: float, step: int) -> None:
        super().__init__(message)
        self.t = t
        self.step = step


@dataclass(frozen=True)
class MonitorSpec:
    """Sampling stride and collapse thresholds for evolve.

    grad_threshold overrides the default grad_factor * (initial gradient
    norm squared) when set.  spectral_tail is the top-octave mass
    fraction above which the state counts as under-resolved.
    """

    stride: int = 10
    grad_factor: float = 1e4
    grad_threshold: "float | None" = None
    spectral_tail: float = 1e-3

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")


@dataclass(frozen=True)
class CollapseReport:
    """Terminal record of a run stopped by the collapse monitor."""

    t_stop: float
    step: int
    reason: str
    grad_sq: float
    tail_fraction: float
    field: WaveField

    def describe(self) -> str:
        return (
            f"under-resolution consistent with collapse at t = {self.t_stop:.6g} "
            f"(step {self.step}, {self.reason}: grad_sq = {self.grad_sq:.6g}, "
            f"top-octave fraction = {self.tail_fraction:.3e})"
        )


def _harmonic_profile(
    grid: SpectralGrid, axes: Sequence[int], omegas: Sequence[float]
) -> np.ndarray:
    """Product of (w/pi)^(1/4) exp(-w x^2 / 2) over axes; length one on the others."""
    mesh = grid.coord_mesh
    return mesh_product(
        (w / math.pi) ** 0.25 * np.exp(-0.5 * w * mesh[axis] * mesh[axis])
        for axis, w in zip(axes, omegas)
    )


def linear_eigenstate(grid: SpectralGrid, omega: Sequence[float]) -> tuple[WaveField, float]:
    """Ground state of the linear trapped problem and its frequency.

    Product Gaussian with per-axis width 1/sqrt(omega_j), renormalized
    to unit lattice mass; the frequency is sum(omega_j) / 2.
    """
    omega = tuple(float(w) for w in omega)
    if len(omega) != grid.dim:
        raise GridError(
            f"expected {grid.dim} trap frequencies, got {len(omega)}"
        )
    if any(w <= 0.0 for w in omega):
        raise ValueError("linear eigenstate requires all trap frequencies positive")
    values = _harmonic_profile(grid, range(grid.dim), omega)
    # times the reciprocal, not a division: the frozen outputs hold a * (1/c)
    values *= 1.0 / math.sqrt(float(np.sum(values * values)) * grid.cell_volume)
    mu = 0.5 * sum(omega)
    return WaveField(values=values.astype(complex), grid=grid, t=0.0), mu


# Elements per block of the pointwise passes of a step.  A block's real
# scratch is 512 KiB and its complex scratch 1 MiB, so the passes over one
# block run in cache; a lattice no larger than one block runs as one block.
_BLOCK = 1 << 16


def _nonlinear_phase(
    values: np.ndarray,
    dt: float,
    params: PhysicalParams,
    symbol: "KernelSymbol | None",
    potential: np.ndarray,
    rho: np.ndarray,
    phase: np.ndarray,
    rotor: np.ndarray,
) -> None:
    """Apply the exact potential-plus-nonlinear substep to values in place.

    The rotor exp(i theta), theta = -dt (V + lambda1 rho + lambda2 K*rho),
    is built from t = tan(theta/2) as cos theta = 2/(1+t^2) - 1 and
    sin theta = 2t/(1+t^2): one tan in place of a cos and a sin, because
    numpy vectorizes float64 tan on x86-64 with AVX-512 but runs cos and
    sin scalar there.  At theta = pi, the pole of tan(theta/2), t is
    about 1.6e16, 1 + t^2 stays finite and the rotor is -1.

    values, the trap potential V and the real work buffer rho are
    C-contiguous arrays of the lattice shape.  The pointwise passes run
    over flat blocks of at most _BLOCK elements: the first fills rho, the
    input of the convolution, and the second forms theta/2 per block as
    ((rho * c1) + (-dt/2) V) + (K*rho) * c2 in phase, then the rotor in
    rotor, and multiplies.  phase (real) and rotor (complex) are block
    scratch of at least min(_BLOCK, values.size) elements.
    """
    y_flat = values.reshape(-1)
    rho_flat = rho.reshape(-1)
    v_flat = potential.reshape(-1)
    blocks = range(0, y_flat.size, _BLOCK)
    for start in blocks:
        stop = start + _BLOCK
        y = y_flat[start:stop]
        r = rho_flat[start:stop]
        w = phase[: y.size]
        np.multiply(y.real, y.real, out=r)
        np.multiply(y.imag, y.imag, out=w)
        r += w
    phi = None
    if params.lambda2 != 0.0:
        phi = _apply_symbol_real(symbol, rho).reshape(-1)
    c0 = -0.5 * dt
    c1 = -0.5 * dt * params.lambda1
    c2 = -0.5 * dt * params.lambda2
    for start in blocks:
        stop = start + _BLOCK
        y = y_flat[start:stop]
        r = rho_flat[start:stop]
        w = phase[: y.size]
        z = rotor[: y.size]
        np.multiply(r, c1, out=w)
        # rho is spent once read: it takes the trap term, then 2/(1+t^2)
        np.multiply(v_flat[start:stop], c0, out=r)
        w += r
        if phi is not None:
            p = phi[start:stop]
            p *= c2
            w += p
        # w holds theta/2
        np.tan(w, out=w)
        np.multiply(w, w, out=r)
        r += 1.0
        np.divide(2.0, r, out=r)
        np.subtract(r, 1.0, out=z.real)
        np.multiply(w, r, out=z.imag)
        y *= z


class _Splitting:
    """The splitting step at one dt, with the buffers it reuses.

    The step is carried on the pre-B state y = A(dt/2) psi: ``advance``
    applies B(dt) to y in place and returns the spectrum of the result,
    from which ``kinetic`` with khalf gives psi and ``kinetic_full`` the
    next y.  It owns two full lattices: rho, the density the convolution
    transforms, and khalf, the half-step kinetic phase.  phase and rotor
    are block scratch, min(_BLOCK, grid.size) long.  The trap term
    (-dt/2) V is formed per block from the potential the caller holds,
    and the full-step phase khalf^2 per block in rotor.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        dt: float,
        params: PhysicalParams,
        symbol: "KernelSymbol | None",
        potential_mesh: np.ndarray,
    ) -> None:
        if params.lambda2 != 0.0 and symbol is None:
            raise ValueError("a kernel symbol is required when lambda2 != 0")
        self.grid = grid
        self.params = params
        self.symbol = symbol
        self.potential_mesh = potential_mesh
        self.rho = np.empty(grid.shape)
        self.khalf = np.empty(grid.shape, dtype=complex)
        self._khalf_flat = self.khalf.reshape(-1)
        block = min(_BLOCK, grid.size)
        self.phase = np.empty(block)
        self.rotor = np.empty(block, dtype=complex)
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        self.dt = dt
        np.multiply(self.grid.ksq, -0.25j * dt, out=self.khalf)
        np.exp(self.khalf, out=self.khalf)

    def advance(self, y: np.ndarray) -> np.ndarray:
        """B(dt) on y in place, then its forward transform (reusing y)."""
        _nonlinear_phase(
            y, self.dt, self.params, self.symbol, self.potential_mesh,
            self.rho, self.phase, self.rotor,
        )
        return _fft.fftn(y, workers=FFT_WORKERS, overwrite_x=True)

    @staticmethod
    def kinetic(spec: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        """Inverse transform of spec * multiplier, reusing spec."""
        spec *= multiplier
        return _fft.ifftn(spec, workers=FFT_WORKERS, overwrite_x=True)

    def kinetic_full(self, spec: np.ndarray) -> np.ndarray:
        """Inverse transform of spec * khalf^2, reusing spec."""
        flat = spec.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            stop = start + _BLOCK
            k = self._khalf_flat[start:stop]
            s = flat[start:stop]
            kfull = self.rotor[: k.size]
            np.multiply(k, k, out=kfull)
            s *= kfull
        return _fft.ifftn(spec, workers=FFT_WORKERS, overwrite_x=True)


def strang_step(
    field: WaveField,
    dt: float,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
    potential_mesh: "np.ndarray | None" = None,
) -> WaveField:
    """One splitting step; dt may be negative to run backwards."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    grid = field.grid
    if potential_mesh is None:
        potential_mesh = params.potential(grid)
    split = _Splitting(grid, dt, params, symbol, potential_mesh)
    y = split.kinetic(_fft.fftn(field.values, workers=FFT_WORKERS), split.khalf)
    out = split.kinetic(split.advance(y), split.khalf)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteStateError(
            f"non-finite field after step at t = {field.t:.6g}", field.t, -1
        )
    return WaveField(values=out, grid=grid, t=field.t + dt)


def _materialize(
    spectrum: FieldSpectrum, grid: SpectralGrid, t: float, step: int
) -> WaveField:
    """The field of a spectrum (one inverse transform), checked finite."""
    values = _fft.ifftn(spectrum.values, workers=FFT_WORKERS)
    if not np.all(np.isfinite(values.view(float))):
        raise NonFiniteStateError(f"non-finite field at t = {t:.6g}", t, step)
    return WaveField(values=values, grid=grid, t=t)


class _Recorder:
    """Runs evolve's records on one thread, one at a time, beside the loop.

    submit joins the pending record before it hands over the next, so
    records reach the series in order; join appends the pending record
    and re-raises whatever it raised.  The thread starts at the first
    submit and is joined on exit, so none outlives evolve.  A record runs
    in a copy of the submitting thread's context, so numpy's error state
    (np.errstate) holds there as on the calling thread.
    """

    def __init__(self, series: ObservableSeries) -> None:
        self.series = series
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dipgpe-recorder")
        self._pending: "Future[ObservableRecord] | None" = None

    def __enter__(self) -> "_Recorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True)

    def submit(self, record: Callable[..., ObservableRecord], *args) -> None:
        self.join()
        self._pending = self._pool.submit(contextvars.copy_context().run, record, *args)

    def join(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            self.series.append(pending.result())


def _warn_phase_scale(
    field0: WaveField,
    params: PhysicalParams,
    symbol: "KernelSymbol | None",
    potential_mesh: np.ndarray,
    dt: float,
) -> None:
    """Warn when dt * max|V + nonlinear potential| of field0 reaches pi."""
    rho0 = density(field0)
    scale = potential_mesh + params.lambda1 * rho0
    if params.lambda2 != 0.0 and symbol is not None:
        scale += params.lambda2 * _apply_symbol_real(symbol, rho0)
    phase_scale = float(np.max(np.abs(scale)))
    if dt * phase_scale >= math.pi:
        warnings.warn(
            f"dt * max|V + nonlinear potential| = {dt * phase_scale:.3g} >= pi; "
            "the nonlinear phase per step is under-resolved",
            RuntimeWarning,
            stacklevel=3,
        )


def evolve(
    field0: WaveField,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
    *,
    dt: float,
    T: float,
    monitor: MonitorSpec = MonitorSpec(),
    callback: "Callable[[WaveField], None] | None" = None,
    sample_times: "Sequence[float] | None" = None,
    warn_resolution: bool = True,
    observables: bool = True,
) -> tuple[ObservableSeries, "WaveField | CollapseReport"]:
    """Propagate to time T, recording observables every monitor.stride steps.

    Consecutive kinetic half-steps are fused; the physical field is
    materialized only where it is needed.  At every stride sample the
    collapse monitor runs on the calling thread, from the spectrum the
    loop holds (the gradient norm, which must be finite, and the spectral
    tail).  When sample_times is given, each entry must coincide with a
    step time (the caller arranges divisibility) and callback fires there
    with the materialized field; otherwise callback fires at every stride
    sample.

    Each ObservableRecord, the one at t = 0 included, is taken on one
    recorder thread while the loop steps on.  At most one record is in
    flight: the next sample waits for the previous record before it
    submits its own.  The field is materialized on the calling thread at a
    callback step, at the final step and when the monitor trips, and by
    the record otherwise.  The pending record is joined before a callback
    fires, so the callback runs after its step's record, and before evolve
    returns; an exception raised in a record propagates out of evolve.
    With observables=False no record is taken, the series comes back empty
    and the recorder thread never starts.

    Returns the series together with the final field, or with a
    CollapseReport if a threshold tripped first.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = field0.grid
    field0.validate_finite()
    potential_mesh = params.potential(grid)

    n_steps = max(1, math.ceil(T / dt - 1e-12))
    last_dt = T - (n_steps - 1) * dt
    if last_dt <= 0.0:
        n_steps -= 1
        last_dt = T - (n_steps - 1) * dt

    callback_steps: set[int] = set()
    if sample_times is not None:
        for t_req in sample_times:
            k = int(round(t_req / dt))
            t_k = k * dt if k < n_steps else (n_steps - 1) * dt + last_dt
            if abs(t_k - t_req) > 1e-6 * dt + 1e-12:
                raise ValueError(
                    f"sample time {t_req!r} does not lie on the step lattice (dt = {dt!r})"
                )
            if k < 1 or k > n_steps:
                raise ValueError(f"sample time {t_req!r} outside (0, T]")
            callback_steps.add(k)

    sample_steps = set(range(monitor.stride, n_steps, monitor.stride))
    sample_steps.add(n_steps)
    sample_steps |= callback_steps

    spectrum0 = field_spectrum(field0)
    grad0 = gradient_norm_sq(field0, spectrum0)
    grad_threshold = (
        monitor.grad_threshold
        if monitor.grad_threshold is not None
        else monitor.grad_factor * max(grad0, 1e-300)
    )

    if warn_resolution:
        check_resolution(field0, spectrum=spectrum0)
        _warn_phase_scale(field0, params, symbol, potential_mesh, dt)

    def record(psi, spectrum, t, step):
        # on the recorder thread; _materialize, record_observables and the
        # transforms under them resolve through the module globals
        if psi is None:
            psi = _materialize(spectrum, grid, t, step)
        return record_observables(
            psi, params, symbol, potential_mesh=potential_mesh, spectrum=spectrum
        )

    series = ObservableSeries()
    split = _Splitting(grid, dt, params, symbol, potential_mesh)
    t0 = field0.t
    with _Recorder(series) as recorder:
        if observables:
            recorder.submit(record, field0, spectrum0, t0, 0)
        if callback is not None and sample_times is None:
            recorder.join()
            callback(field0)

        # pre-B state: initial half kinetic step, leaving spectrum0 to the record
        y = _fft.ifftn(
            np.multiply(spectrum0.values, split.khalf), workers=FFT_WORKERS, overwrite_x=True
        )
        del spectrum0

        for step in range(1, n_steps + 1):
            step_dt = dt if step < n_steps else last_dt
            if step == n_steps and abs(last_dt - dt) > 1e-15 * max(dt, 1.0):
                # re-split the carried half step: the stored y already includes
                # a dt/2 kinetic phase, so advance by the difference first
                delta = np.exp(-0.25j * (step_dt - dt) * grid.ksq)
                y = split.kinetic(_fft.fftn(y, workers=FFT_WORKERS, overwrite_x=True), delta)
                split.set_dt(step_dt)
            w_spec = split.advance(y)
            t_now = t0 + (step - 1) * dt + step_dt if step == n_steps else t0 + step * dt

            if step in sample_steps:
                # the previous record's arrays go before this sample's come
                recorder.join()
                spectrum = FieldSpectrum(split.khalf * w_spec)
                # given a spectrum, the monitor functions read only field0's grid
                grad_sq = gradient_norm_sq(field0, spectrum)
                if not math.isfinite(grad_sq):
                    raise NonFiniteStateError(
                        f"non-finite field at t = {t_now:.6g}", t_now, step
                    )
                tail = spectral_tail_fraction(field0, spectrum)
                tripped = grad_sq > grad_threshold or tail > monitor.spectral_tail
                fires = callback is not None and (
                    step in callback_steps if sample_times is not None else True
                )
                ends = tripped or step == n_steps
                psi = _materialize(spectrum, grid, t_now, step) if fires or ends else None
                if observables:
                    recorder.submit(record, psi, spectrum, t_now, step)
                del spectrum
                if fires or ends:
                    recorder.join()
                if fires:
                    callback(psi)
                if tripped:
                    reason = (
                        "gradient-threshold" if grad_sq > grad_threshold else "spectral-tail"
                    )
                    report = CollapseReport(
                        t_stop=t_now,
                        step=step,
                        reason=reason,
                        grad_sq=grad_sq,
                        tail_fraction=tail,
                        field=psi,
                    )
                    return series, report
                if step == n_steps:
                    return series, psi
            y = split.kinetic_full(w_spec)

    raise AssertionError("unreachable: loop must return at the final step")


def write_snapshot(field: WaveField, path: "str | Path") -> None:
    """Binary field snapshot; see read_snapshot for the inverse."""
    grid = field.grid
    header = " ".join(
        ["GPEF", "v1", str(grid.dim)]
        + [str(n) for n in grid.shape]
        + ["%.17g" % L for L in grid.extents]
        + ["%.17g" % field.t]
    )
    payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(payload)


def read_snapshot(path: "str | Path", grid: "SpectralGrid | None" = None) -> WaveField:
    """Read a field snapshot, rebuilding its grid from the header.

    When a grid is supplied it must match the header exactly and is
    reused (so symbols and meshes stay shared).
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        payload = fh.read()
    if len(header) < 4 or header[0] != "GPEF" or header[1] != "v1":
        raise ValueError(f"not a field snapshot: {path}")
    dim = int(header[2])
    tokens = header[3:]
    if len(tokens) != 2 * dim + 1:
        raise ValueError(f"malformed snapshot header in {path}")
    shape = tuple(int(v) for v in tokens[:dim])
    extents = tuple(float(v) for v in tokens[dim : 2 * dim])
    t = float(tokens[2 * dim])
    if grid is None:
        grid = make_grid(dim, extents, shape)
    elif grid.dim != dim or grid.shape != shape or grid.extents != extents:
        raise GridError(f"snapshot geometry does not match the supplied grid")
    values = np.frombuffer(payload, dtype="<c16")
    if values.size != grid.size:
        raise ValueError(
            f"snapshot payload has {values.size} values, expected {grid.size}"
        )
    return WaveField(values=values.reshape(grid.shape).copy(), grid=grid, t=t)
