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
evolve share one step routine (_Splitting), the only owner of B(dt); its
one block sum, _Splitting.potential_blocks, forms
c (V + lambda1 rho + lambda2 K*rho) for B(dt) (c = -dt/2, turned into a
rotor by one tangent, _nonlinear_phase) and for evolve's check before
the first step (c = 1, _Splitting.phase_scale).  A step costs two
complex and two real transforms and holds one full lattice, the
density: its pointwise passes run over the blocks of
grid.lattice_blocks, and the trap and the kinetic phases are formed per
block from per-axis terms (grid.MeshBlocks), bit for bit the
full-lattice tables.

At a sample, the spectrum the loop holds, times the half-step phase,
gives psi_hat in a sample array, which evolve owns; its FieldSpectrum
keeps only the power sums.  The collapse monitor reads the gradient
norm and the spectral tail from them, with no transform; psi is then
materialized in place over the sample array (_materialize) for the
ObservableRecord, which evolve takes on one recorder thread beside the
loop (see evolve), or for no record with observables=False, as the
reduction module's snapshot runs take.
_harmonic_factors gives the trap ground state's per-axis factors:
linear_eigenstate forms their product with state.separable_field, held
on the octant of two or three axes, and the reduction module takes it
on the tight axes (_harmonic_profile).

The trap, the contact term and the kernel are all even in each
coordinate separately, so a field that equals its mirror image along
some axes (grid.mirror_even_axes, bit for bit) stays so, and so does its
spectrum.  evolve runs such a field0 on the lattice that holds indices
0..n/2 along those axes (grid.SpectralGrid.sublattice), with a DCT-I in
place of the FFT along each even axis and its weights in every lattice
sum: the octant's (n/2 + 1)^d points instead of n^d for a field even
along every axis, 17 * 17 * 32 of a 32^3 lattice for one centred in x
and y but displaced along z.  A held field0 (state.WaveField.table)
runs on its table as it is, never written.  Every field is read
through WaveField.held(), the library's one read of a field: the array
the field holds and the lattice it lies on.  evolve builds its fields
on field0's grid, held by the arrays the run materialized, and hands
them on as built; strang_step steps the lattice its field holds and
returns a field of the same grid, held if its field was.  Nothing
selects the lattice but the data, so no option turns it on or off.

Blow-up cannot be followed on a fixed lattice.  The monitor reports
under-resolution consistent with collapse when the gradient norm or the
top-octave spectral fraction crosses its threshold, and the run ends
with a CollapseReport instead of an exception.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import fft as _fft  # noqa: F401  read only by bench/tracer.py

from .grid import (
    _BLOCK,
    GridError,
    MeshBlocks,
    SpectralGrid,
    _unfold,
    lattice_blocks,
    make_grid,
    mesh_product,
)
from .kernel import KernelSymbol, _apply_symbol_real
from .state import (
    FieldSpectrum,
    ObservableRecord,
    ObservableSeries,
    PhysicalParams,
    WaveField,
    _density_into,
    _run_lattice,
    _symbol_on,
    gradient_norm_sq,
    record_observables,
    separable_field,
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
        if not isinstance(self.stride, numbers.Integral) or self.stride < 1:
            raise ValueError("stride must be a positive integer")
        # a NaN threshold never trips and a nonpositive gradient threshold
        # trips at the first sample; the comparisons are false for NaN
        if not self.grad_factor > 0.0:
            raise ValueError(f"grad_factor must be positive, got {self.grad_factor!r}")
        if self.grad_threshold is not None and not self.grad_threshold > 0.0:
            raise ValueError(f"grad_threshold must be positive, got {self.grad_threshold!r}")
        if not self.spectral_tail >= 0.0:
            raise ValueError(f"spectral_tail must be nonnegative, got {self.spectral_tail!r}")


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


def _harmonic_factors(grid: SpectralGrid, axes: Sequence[int], omegas: Sequence[float]) -> list:
    """Per axis of axes, (w/pi)^(1/4) exp(-w x^2 / 2) as a sparse mesh."""
    x = grid.coord_mesh
    return [(w / math.pi) ** 0.25 * np.exp(-0.5 * w * x[a] * x[a]) for a, w in zip(axes, omegas)]


def _harmonic_profile(grid: SpectralGrid, axes: Sequence[int], omegas: Sequence[float]):
    """Product of the harmonic factors over axes; length one on the others."""
    return mesh_product(_harmonic_factors(grid, axes, omegas))


def linear_eigenstate(grid: SpectralGrid, omega: Sequence[float]) -> tuple[WaveField, float]:
    """Ground state of the linear trapped problem and its frequency.

    Product Gaussian with per-axis width 1/sqrt(omega_j), renormalized
    to unit lattice mass and, on two or three axes, held on the octant
    (state.separable_field); the frequency is sum(omega_j) / 2.
    """
    omega = tuple(float(w) for w in omega)
    if len(omega) != grid.dim:
        raise GridError(f"expected {grid.dim} trap frequencies, got {len(omega)}")
    if not all(0.0 < w < math.inf for w in omega):
        raise ValueError("linear eigenstate requires all trap frequencies positive")
    factors = _harmonic_factors(grid, range(grid.dim), omega)
    return separable_field(grid, factors, unit_mass=True), 0.5 * sum(omega)


def _nonlinear_phase(split: "_Splitting", values: np.ndarray) -> None:
    """Apply the exact potential-plus-nonlinear substep to values in place.

    The rotor exp(i theta), theta = -dt (V + lambda1 rho + lambda2 K*rho),
    is built from t = tan(theta/2) as cos theta = 2/(1+t^2) - 1 and
    sin theta = 2t/(1+t^2): one tan in place of a cos and a sin, because
    numpy vectorizes float64 tan on x86-64 with AVX-512 but runs cos and
    sin scalar there.  At theta = pi, the pole of tan(theta/2), t is
    about 1.6e16, 1 + t^2 stays finite and the rotor is -1.

    values is a C-contiguous array of split's lattice.
    split.potential_blocks gives theta/2 a block at a time; each block's
    rotor is formed in the split's rotor scratch, with the block's spent
    density holding 2/(1+t^2), and multiplies the block of values.
    """
    y_flat = values.reshape(-1)
    for start, stop, w, r in split.potential_blocks(values, -0.5 * split.dt):
        y = y_flat[start:stop]
        z = split.rotor[: y.size]
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
    from which ``kinetic`` with ``half`` gives psi and with ``full`` the
    next y.  B(dt) and evolve's check before the first step
    (``phase_scale``) read V + lambda1 rho + lambda2 K*rho from one block
    sum, ``potential_blocks``.
    The split owns one full lattice, rho, the density the convolution
    transforms; phase and rotor are block scratch, min(_BLOCK, grid.size)
    long.  The trap V (``potential``, from PhysicalParams.trap_terms) and
    the kinetic phases exp(-i dt |xi|^2 / 4) (``half``) and
    exp(-i dt |xi|^2 / 2) (``full``) are MeshBlocks of their per-axis
    terms and factors, formed per block in mesh_sum's and mesh_product's
    order, or kept whole for a lattice of one block; no trap, |xi|^2 or
    phase lattice is built.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        dt: float,
        params: PhysicalParams,
        symbol: "KernelSymbol | None",
    ) -> None:
        self.grid = grid
        self.params = params
        self.symbol = _symbol_on(symbol, grid, params)
        self.potential = MeshBlocks(np.add, params.trap_terms(grid))
        self._blocks = lattice_blocks(grid.shape)
        self.rho = np.empty(grid.shape)
        block = min(_BLOCK, grid.size)
        self.phase = np.empty(block)
        self.rotor = np.empty(block, dtype=complex)
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        """The per-axis factors exp(-i dt xi_j^2 / 4) and exp(-i dt xi_j^2 / 2)."""
        self.dt = dt
        squares = [f * f for f in self.grid.freq_mesh]
        self.half = MeshBlocks(np.multiply, (np.exp(s * (-0.25j * dt)) for s in squares))
        self.full = MeshBlocks(np.multiply, (np.exp(s * (-0.5j * dt)) for s in squares))

    def potential_blocks(
        self, values: np.ndarray, c: float
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (start, stop, w, r) per block: w = c (V + lambda1 rho + lambda2 K*rho).

        rho = |values|^2 fills self.rho first, the input of the
        convolution; each block then forms ((rho * c lambda1) + c V) +
        (K*rho) * c lambda2 in the phase scratch, w.  r is the block of
        rho, spent once w is formed: the caller may overwrite it, and w.
        """
        params = self.params
        _density_into(values, self.rho, self.phase)
        phi = None
        if params.lambda2 != 0.0:
            phi = _apply_symbol_real(self.symbol, self.rho).reshape(-1)
        c1 = c * params.lambda1
        c2 = c * params.lambda2
        rho_flat = self.rho.reshape(-1)
        for start, stop in self._blocks:
            r = rho_flat[start:stop]
            w = self.phase[: stop - start]
            np.multiply(r, c1, out=w)
            # rho is spent once read: it takes the trap term
            np.multiply(self.potential.block(start, stop, r), c, out=r)
            w += r
            if phi is not None:
                p = phi[start:stop]
                p *= c2
                w += p
            yield start, stop, w, r

    def phase_scale(self, values: np.ndarray) -> float:
        """max|V + lambda1 rho + lambda2 K*rho| over the lattice, rho = |values|^2."""
        scale = 0.0
        for _, _, w, _ in self.potential_blocks(values, 1.0):
            scale = max(scale, float(np.max(np.abs(w, out=w))))
        return scale

    def advance(self, y: np.ndarray) -> np.ndarray:
        """B(dt) on y in place, then its forward transform (reusing y)."""
        _nonlinear_phase(self, y)
        return self.grid.fft(y, overwrite=True)

    def multiply(self, spec: np.ndarray, phase: MeshBlocks, out: np.ndarray) -> np.ndarray:
        """out = spec * the lattice of phase, a block at a time; out may be spec."""
        src, dst = spec.reshape(-1), out.reshape(-1)
        for start, stop in self._blocks:
            np.multiply(
                src[start:stop], phase.block(start, stop, self.rotor), out=dst[start:stop]
            )
        return out

    def kinetic(self, spec: np.ndarray, phase: MeshBlocks) -> np.ndarray:
        """Inverse transform of spec * the lattice of phase, reusing spec."""
        self.multiply(spec, phase, spec)
        return self.grid.ifft(spec, overwrite=True)


def strang_step(
    field: WaveField,
    dt: float,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
) -> WaveField:
    """One splitting step; dt may be negative to run backwards.

    The step runs on the lattice the field holds (WaveField.held()), and
    the field it returns lies on the same grid, held if field was.
    """
    if dt == 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")
    values, lattice = field.held()
    split = _Splitting(lattice, dt, params, symbol)
    y = split.kinetic(lattice.fft(values), split.half)
    out = split.kinetic(split.advance(y), split.half)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteStateError(
            f"non-finite field after step at t = {field.t:.6g}", field.t, -1
        )
    return WaveField(values=out, grid=field.grid, t=field.t + dt)


def _materialize(
    array: np.ndarray, lattice: SpectralGrid, grid: SpectralGrid, t: float, step: int
) -> WaveField:
    """The field of grid whose transform on lattice is array, checked finite.

    One inverse transform in place: the field takes over array, and is
    held by it when lattice is a sublattice of grid.
    """
    values = lattice.ifft(array, overwrite=True)
    if not np.all(np.isfinite(values.view(float))):
        raise NonFiniteStateError(f"non-finite field at t = {t:.6g}", t, step)
    return WaveField(values=values, grid=grid, t=t)


def _record(
    psi: "WaveField | None",
    array: "np.ndarray | None",
    spectrum: FieldSpectrum,
    grid: SpectralGrid,
    t: float,
    step: int,
    params: PhysicalParams,
    symbol: "KernelSymbol | None",
) -> ObservableRecord:
    """One of evolve's records, from psi and the power sums of its spectrum.

    Without psi, psi is materialized in place over array, the transform
    the spectrum summed, as a field of grid, so a record in flight holds
    psi and one work lattice.  It runs on the recorder thread;
    _materialize, record_observables and the transforms under them
    resolve through the module globals.
    """
    if psi is None:
        psi = _materialize(array, spectrum.lattice, grid, t, step)
    return record_observables(psi, params, symbol, spectrum=spectrum)


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
    """Propagate field0 by T, recording observables every monitor.stride steps.

    Consecutive kinetic half-steps are fused; the physical field is
    materialized only where it is needed.  At every stride sample the
    collapse monitor runs on the calling thread, from the spectrum the
    loop holds (the gradient norm, which must be finite, and the spectral
    tail).  T and sample_times count from field0.t.  When sample_times is
    given, each entry must coincide with a step time (the caller arranges
    divisibility) and callback fires there with the materialized field; a
    field at sample time s has t = field0.t + s.  Otherwise callback fires
    at every stride sample.

    With warn_resolution, field0 is checked before the first step: the
    resolution check of the state module, and a RuntimeWarning when
    dt * max|V + lambda1 rho + lambda2 K*rho| reaches pi
    (_Splitting.phase_scale, from the block sum the step uses).

    Each ObservableRecord, the one of field0 included, is taken on one
    recorder thread while the loop steps on.  At most one record is in
    flight: the next sample waits for the previous record before it
    submits its own.  The field is materialized on the calling thread at a
    callback step, at the final step and when the monitor trips, and by
    the record otherwise.  The pending record is joined before a callback
    fires, so the callback runs after its step's record, and before evolve
    returns; an exception raised in a record propagates out of evolve.
    With observables=False no record is taken, the series comes back empty
    and the recorder thread never starts.

    A field0 mirror-even along some axes, bit for bit, or held, runs on
    the lattice even along them (module docstring); every field evolve
    builds is of field0's grid, held there, and the series is the full
    lattice's to roundoff.

    Returns the series together with the final field, or with a
    CollapseReport if a threshold tripped first.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not math.isfinite(field0.t):
        raise ValueError(f"field0.t must be finite, got {field0.t!r}")
    grid = field0.grid
    field0.validate_finite()

    n_steps = max(1, math.ceil(T / dt - 1e-12))
    last_dt = T - (n_steps - 1) * dt
    if last_dt <= 0.0:
        n_steps -= 1
        last_dt = T - (n_steps - 1) * dt

    callback_steps: set[int] = set()
    if sample_times is not None:
        tol = 1e-6 * dt + 1e-12
        for t_req in sample_times:
            # T is the last step's time, however short that step is
            k = n_steps if abs(t_req - T) <= tol else int(round(t_req / dt))
            if k < 1 or k > n_steps:
                raise ValueError(
                    f"sample time {t_req!r} outside (0, T], counted from field0.t"
                )
            t_k = k * dt if k < n_steps else (n_steps - 1) * dt + last_dt
            if abs(t_k - t_req) > tol:
                raise ValueError(
                    f"sample time {t_req!r} does not lie on the step lattice (dt = {dt!r})"
                )
            callback_steps.add(k)

    sample_steps = set(range(monitor.stride, n_steps, monitor.stride))
    sample_steps.add(n_steps)
    sample_steps |= callback_steps

    # field0 runs held on the lattice even along its mirror-even axes, and
    # every field the run builds is of grid, held by the run's arrays
    start = _run_lattice(field0)
    values0, lattice = start.held()
    # the transform of field0, summed for t = 0 and kept for the first half step
    y = lattice.fft(values0)
    spectrum0 = FieldSpectrum(y, lattice)
    grad0 = gradient_norm_sq(start, spectrum0)
    grad_threshold = (
        monitor.grad_threshold
        if monitor.grad_threshold is not None
        else monitor.grad_factor * max(grad0, 1e-300)
    )

    split = _Splitting(lattice, dt, params, symbol)
    # the records read the split's symbol, already on the lattice
    symbol = split.symbol
    if warn_resolution:
        check_resolution(start, spectrum=spectrum0)
        phase_scale = split.phase_scale(values0)
        if dt * phase_scale >= math.pi:
            warnings.warn(
                f"dt * max|V + nonlinear potential| = {dt * phase_scale:.3g} >= pi; "
                "the nonlinear phase per step is under-resolved",
                RuntimeWarning,
                stacklevel=2,
            )

    series = ObservableSeries()
    t0 = field0.t
    with _Recorder(series) as recorder:
        if observables:
            recorder.submit(_record, start, None, spectrum0, grid, t0, 0, params, symbol)
        if callback is not None and sample_times is None:
            recorder.join()
            callback(field0)

        # pre-B state: the initial half kinetic step, in place over field0's
        # transform; the record at t = 0 reads only spectrum0's power sums
        y = split.kinetic(y, split.half)
        # A sample's array holds psi_hat, then psi; the next sample reuses it
        # unless psi went to a callback or the caller.  A lattice freed per
        # sample let glibc's malloc hand heap pages back to the system, and
        # the step's real transforms then faulted them in again.
        spare = None

        for step in range(1, n_steps + 1):
            step_dt = dt if step < n_steps else last_dt
            if step == n_steps and abs(last_dt - dt) > 1e-15 * max(dt, 1.0):
                # re-split the carried half step: the stored y already includes
                # a dt/2 kinetic phase, so advance by the difference first,
                # with half holding the phase of that difference
                split.set_dt(step_dt - dt)
                y = split.kinetic(lattice.fft(y, overwrite=True), split.half)
                split.set_dt(step_dt)
            w_spec = split.advance(y)
            t_now = t0 + (step - 1) * dt + step_dt if step == n_steps else t0 + step * dt

            if step in sample_steps:
                # the previous record's arrays go before this sample's come
                recorder.join()
                buffer = spare if spare is not None else np.empty_like(w_spec)
                spare = None
                spectrum = FieldSpectrum(split.multiply(w_spec, split.half, buffer), lattice)
                # given a spectrum, the monitor functions read only start's grid
                grad_sq = gradient_norm_sq(start, spectrum)
                if not math.isfinite(grad_sq):
                    raise NonFiniteStateError(
                        f"non-finite field at t = {t_now:.6g}", t_now, step
                    )
                tail = spectral_tail_fraction(start, spectrum)
                tripped = grad_sq > grad_threshold or tail > monitor.spectral_tail
                fires = callback is not None and (
                    step in callback_steps if sample_times is not None else True
                )
                ends = tripped or step == n_steps
                psi = _materialize(buffer, lattice, grid, t_now, step) if fires or ends else None
                if observables:
                    recorder.submit(
                        _record, psi, buffer, spectrum, grid, t_now, step, params, symbol
                    )
                if psi is None:
                    # only the record reads this sample: once it is joined,
                    # the array serves the next sample
                    spare = buffer
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
            y = split.kinetic(w_spec, split.full)

    raise AssertionError("unreachable: loop must return at the final step")


def write_snapshot(field: WaveField, path: "str | Path") -> None:
    """Binary field snapshot; see read_snapshot for the inverse.

    The payload is the full lattice, little-endian complex128 in C order,
    written an axis-0 plane at a time from the array the field holds,
    each plane of a held field mirrored from its table, so no full
    lattice is formed.  A non-finite time is refused before the file is
    opened, as read_snapshot would refuse the file.
    """
    if not math.isfinite(field.t):
        raise ValueError(f"snapshot time must be finite, got {field.t!r}")
    grid = field.grid
    header = " ".join(
        ["GPEF", "v1", str(grid.dim)]
        + [str(n) for n in grid.shape]
        + ["%.17g" % L for L in grid.extents]
        + ["%.17g" % field.t]
    )
    held, _ = field.held()
    plane = (1,) + grid.shape[1:]
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        # the held index of each full axis-0 index
        for k in _unfold(np.arange(held.shape[0]), grid.shape[:1]):
            fh.write(_bytes_view(_unfold(held[k : k + 1], plane)))


def _bytes_view(values: np.ndarray) -> memoryview:
    """The bytes of an array as little-endian complex128, without a copy when it is one."""
    return memoryview(np.ascontiguousarray(values, dtype="<c16").reshape(-1).view(np.uint8))


def read_snapshot(path: "str | Path", grid: "SpectralGrid | None" = None) -> WaveField:
    """Read a field snapshot, rebuilding its grid from the header.

    When a grid is supplied it must match the header exactly and is
    reused (so symbols and meshes stay shared).  The payload's byte count
    is checked against the header's point count before the field's array
    is allocated, and the payload is read into that array directly.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) < 4 or header[0] != "GPEF" or header[1] != "v1":
            raise ValueError(f"not a field snapshot: {path}")
        dim = int(header[2])
        tokens = header[3:]
        if len(tokens) != 2 * dim + 1:
            raise ValueError(f"malformed snapshot header in {path}")
        shape = tuple(int(v) for v in tokens[:dim])
        extents = tuple(float(v) for v in tokens[dim : 2 * dim])
        t = float(tokens[2 * dim])
        if not math.isfinite(t):
            raise ValueError(f"snapshot time must be finite, got {t!r} in {path}")
        if grid is None:
            grid = make_grid(dim, extents, shape)
        elif grid.dim != dim or grid.shape != shape or grid.extents != extents:
            raise GridError(f"snapshot geometry does not match the supplied grid")
        nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes != 16 * grid.size:
            raise ValueError(
                f"snapshot payload has {nbytes} bytes, expected {16 * grid.size} "
                f"({grid.size} values)"
            )
        values = np.empty(grid.shape, dtype="<c16")
        if fh.readinto(values.reshape(-1).view(np.uint8)) != nbytes:
            raise ValueError(f"snapshot payload of {path} ended early")
    return WaveField(values=values, grid=grid, t=t)
