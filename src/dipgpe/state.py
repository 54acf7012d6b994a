"""Wavefunction container and every observable the analysis relies on.

Mass, the four-part energy, gradient norm, variance of the position
density and its growth rate, plus spectral diagnostics.  All derivatives
are spectral so that what the propagator conserves exactly is what these
functions measure.

The spectral observables share one FieldSpectrum, the raw transform
psi_hat = fftn(psi) and its power |psi_hat|^2: the power gives the
gradient norm and the top-octave tail, and d_j psi = ifftn(i xi_j psi_hat)
gives the variance rate.  The dipolar energy pairs the density with its
convolution by Parseval, from one real transform of the density.  A
sample therefore costs one forward complex transform when no spectrum is
passed (none when the caller holds one, as evolve does), one inverse
complex transform per axis and one real transform.

An evolution is summarized by an ObservableSeries, one record per
sampling time, which serializes to CSV with the fixed header

    t,mass,E,Ekin,Epot,Ecubic,Edip,y,ydot,maxpsi,gradsq

written in full round-trip precision (17 significant digits).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import fft as _fft

from .grid import FFT_WORKERS, GridError, SpectralGrid, mesh_sum
from .kernel import KernelSymbol, _pair_symbol_real
from .kernel import apply_kernel  # noqa: F401  bench/tracer.py spans state.apply_kernel

CSV_HEADER = "t,mass,E,Ekin,Epot,Ecubic,Edip,y,ydot,maxpsi,gradsq"

# Top-octave share of the spectral mass above which check_resolution warns.
_TAIL_WARN = 1e-6


def in_stable_cone(lambda1: float, lambda2: float) -> bool:
    """lambda1 >= (4 pi / 3) lambda2 >= 0, the global-existence cone."""
    return lambda2 >= 0.0 and lambda1 >= (4.0 * math.pi / 3.0) * lambda2


@dataclass(eq=False)
class PhysicalParams:
    """Trap frequencies and coupling constants.

    omega are the per-axis harmonic trap frequencies (nonnegative; zero
    means untrapped along that axis), lambda1 the contact coupling and
    lambda2 the dipolar coupling.  The dipole axis is fixed to the last
    coordinate axis by convention.
    """

    dim: int
    omega: tuple[float, ...]
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        self.omega = tuple(float(w) for w in self.omega)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.omega) != self.dim:
            raise ValueError(
                f"expected {self.dim} trap frequencies, got {len(self.omega)}"
            )
        for w in self.omega:
            if w < 0.0 or not math.isfinite(w):
                raise ValueError(f"trap frequencies must be nonnegative, got {w}")
        self.lambda1 = float(self.lambda1)
        self.lambda2 = float(self.lambda2)

    @cached_property
    def omega_min(self) -> float:
        return min(self.omega)

    def in_stable_regime(self) -> bool:
        return in_stable_cone(self.lambda1, self.lambda2)

    def potential(self, grid: SpectralGrid) -> np.ndarray:
        """Harmonic trap 0.5 * sum_j omega_j^2 x_j^2 on the full lattice."""
        if grid.dim != self.dim:
            raise GridError(
                f"params are {self.dim}-dimensional but grid is {grid.dim}-dimensional"
            )
        return mesh_sum((0.5 * w * w) * (c * c) for w, c in zip(self.omega, grid.coord_mesh))


@dataclass(eq=False)
class WaveField:
    """Complex field sampled on a grid at one instant."""

    values: np.ndarray
    grid: SpectralGrid
    t: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        self.grid._check_shape(self.values)

    def validate_finite(self) -> None:
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "WaveField":
        return WaveField(values=self.values.copy(), grid=self.grid, t=self.t)


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    cubic: float
    dipolar: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential + self.cubic + self.dipolar


@dataclass(eq=False)
class FieldSpectrum:
    """Raw transform fftn(psi) of a field (FFT order, unnormalized).

    The power |psi_hat|^2 is computed once, on first use, and shared by
    every observable that reads it.  So is the gradient norm: the first
    gradient_norm_sq of the spectrum keeps it, with the grid it was
    summed on, and a later call on that grid returns it.
    """

    values: np.ndarray
    _grad_sq: "tuple[SpectralGrid, float] | None" = dataclass_field(
        default=None, init=False, repr=False
    )

    @cached_property
    def power(self) -> np.ndarray:
        v = self.values
        return v.real * v.real + v.imag * v.imag


def field_spectrum(field: "WaveField") -> FieldSpectrum:
    """The FieldSpectrum of a field: one forward complex transform."""
    return FieldSpectrum(_fft.fftn(field.values, workers=FFT_WORKERS))


def density(field: WaveField) -> np.ndarray:
    values = field.values
    return (values.real * values.real + values.imag * values.imag)


def mass(field: WaveField) -> float:
    return _mass(field, density(field))


def _mass(field: WaveField, rho: np.ndarray) -> float:
    return float(np.sum(rho)) * field.grid.cell_volume


def max_abs(field: WaveField) -> float:
    return float(np.sqrt(density(field).max()))


def gradient_norm_sq(field: WaveField, spectrum: "FieldSpectrum | None" = None) -> float:
    """Squared L2 norm of the spectral gradient."""
    grid = field.grid
    if spectrum is None:
        spectrum = field_spectrum(field)
    elif spectrum._grad_sq is not None and spectrum._grad_sq[0] is grid:
        return spectrum._grad_sq[1]
    value = float(np.sum(grid.ksq * spectrum.power)) * grid.cell_volume / grid.size
    spectrum._grad_sq = (grid, value)
    return value


def quartic_norm(field: WaveField) -> float:
    """Integral of |psi|^4 evaluated in physical space."""
    rho = density(field)
    return float(np.sum(rho * rho)) * field.grid.cell_volume


def quartic_norm_spectral(field: WaveField) -> float:
    """Integral of |psi|^4 via the squared spectrum of the density.

    Equals quartic_norm by the discrete Plancherel identity; kept as an
    independent route for cross-checks.
    """
    grid = field.grid
    rho_spec = _fft.fftn(density(field), workers=FFT_WORKERS)
    return float(np.sum(np.abs(rho_spec) ** 2)) * grid.cell_volume / grid.size


def energy(
    field: WaveField,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
    potential_mesh: "np.ndarray | None" = None,
) -> EnergyBreakdown:
    """Four-part energy of a field.

    The kinetic part is spectral, the trap and contact parts are lattice
    sums, and the dipolar part pairs the density against the convolved
    potential (by Parseval, see the module docstring).  A symbol is
    required whenever lambda2 is nonzero.  potential_mesh may pass a
    precomputed trap to avoid rebuilding it in sampling loops.
    """
    return _energy(field, density(field), params, symbol, potential_mesh, None)


def _energy(field, rho, params, symbol, potential_mesh, spectrum) -> EnergyBreakdown:
    grid = field.grid
    dv = grid.cell_volume
    kinetic = 0.5 * gradient_norm_sq(field, spectrum)
    if potential_mesh is None:
        potential_mesh = params.potential(grid)
    potential = float(np.sum(potential_mesh * rho)) * dv
    cubic = 0.5 * params.lambda1 * float(np.sum(rho * rho)) * dv
    if params.lambda2 == 0.0:
        dipolar = 0.0
    else:
        if symbol is None:
            raise ValueError("a kernel symbol is required when lambda2 != 0")
        grid._check_shape(symbol.values)
        dipolar = 0.5 * params.lambda2 * _pair_symbol_real(symbol, rho) * dv
    return EnergyBreakdown(
        kinetic=kinetic, potential=potential, cubic=cubic, dipolar=dipolar
    )


def variance(field: WaveField) -> float:
    """Position variance y = int |x|^2 |psi|^2."""
    return _variance(field, density(field))


def _variance(field: WaveField, rho: np.ndarray) -> float:
    return float(np.sum(field.grid.radius_sq * rho)) * field.grid.cell_volume


def variance_and_rate(field: WaveField) -> tuple[float, float]:
    """Position variance y = int |x|^2 |psi|^2 and its time derivative.

    The rate uses the standard identity dy/dt = 2 Im int conj(psi)
    (x . grad psi); the gradient is spectral.
    """
    return _variance(field, density(field)), _variance_rate(field, None)


def _variance_rate(field: WaveField, spectrum: "FieldSpectrum | None") -> float:
    grid = field.grid
    if spectrum is None:
        spectrum = field_spectrum(field)
    psi = field.values
    # one complex buffer serves every axis
    g = np.empty_like(spectrum.values)
    acc = 0.0
    for freq, coord in zip(grid.freq_mesh, grid.coord_mesh):
        # g = ifftn(xi_j psi_hat) = -i d_j psi, so the integrand
        # Im(conj(psi) x_j d_j psi) is Re(conj(psi) x_j g).  It is summed
        # without BLAS: a BLAS dot leaves its threads spinning, which
        # starves the other members of a sweep.
        np.multiply(freq, spectrum.values, out=g)
        g = _fft.ifftn(g, workers=FFT_WORKERS, overwrite_x=True)
        g *= coord
        # each half of g is spent once read, so it takes its own product
        re, im = g.real, g.imag
        np.multiply(psi.real, re, out=re)
        np.multiply(psi.imag, im, out=im)
        re += im
        acc += float(np.sum(re))
    return 2.0 * acc * grid.cell_volume


def spectral_tail_fraction(
    field: WaveField, spectrum: "FieldSpectrum | None" = None
) -> float:
    """Fraction of spectral mass in the top frequency octave."""
    if spectrum is None:
        spectrum = field_spectrum(field)
    power = spectrum.power
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    # a masked reduction: gathering power[mask] would copy 7/8 of the lattice
    return float(np.sum(power, where=field.grid.top_octave_mask)) / total


def field_std(field: WaveField) -> tuple[float, ...]:
    """Per-axis standard deviation of the position density."""
    grid = field.grid
    rho = density(field)
    total = float(np.sum(rho))
    if total == 0.0:
        return tuple(0.0 for _ in range(grid.dim))
    out = []
    for axis in range(grid.dim):
        coord = grid.coord_mesh[axis]
        mean = float(np.sum(coord * rho)) / total
        var = float(np.sum((coord - mean) ** 2 * rho)) / total
        out.append(math.sqrt(max(var, 0.0)))
    return tuple(out)


def check_resolution(field: WaveField, spectrum: "FieldSpectrum | None" = None) -> None:
    """Warn when the box or the lattice look too small for the state.

    The box should span at least 8 standard deviations per axis so the
    periodic images stay negligible, and no more than 1e-6 of the
    spectral mass should sit in the top frequency octave.
    """
    grid = field.grid
    sigma = field_std(field)
    for axis, (L, s) in enumerate(zip(grid.extents, sigma)):
        if s > 0.0 and L < 8.0 * s:
            warnings.warn(
                f"box extent {L:g} on axis {axis} is below 8 standard deviations "
                f"({8.0 * s:g}); periodic truncation error may be significant",
                RuntimeWarning,
                stacklevel=2,
            )
    tail = spectral_tail_fraction(field, spectrum)
    if tail > _TAIL_WARN:
        warnings.warn(
            f"spectral tail fraction {tail:.3e} exceeds {_TAIL_WARN:g}; "
            "the state is marginally resolved",
            RuntimeWarning,
            stacklevel=2,
        )


@dataclass(frozen=True)
class ObservableRecord:
    t: float
    mass: float
    E: float
    Ekin: float
    Epot: float
    Ecubic: float
    Edip: float
    y: float
    ydot: float
    maxpsi: float
    gradsq: float

    def __post_init__(self) -> None:
        parts = self.Ekin + self.Epot + self.Ecubic + self.Edip
        scale = max(abs(self.E), abs(parts), 1e-300)
        if abs(self.E - parts) > 1e-12 * scale:
            raise ValueError(
                f"energy parts sum to {parts!r} but total is {self.E!r}"
            )


def record_observables(
    field: WaveField,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
    potential_mesh: "np.ndarray | None" = None,
    spectrum: "FieldSpectrum | None" = None,
) -> ObservableRecord:
    """Every series column at one instant, from one density and one spectrum."""
    if spectrum is None:
        spectrum = field_spectrum(field)
    rho = density(field)
    e = _energy(field, rho, params, symbol, potential_mesh, spectrum)
    return ObservableRecord(
        t=field.t,
        mass=float(np.sum(rho)) * field.grid.cell_volume,
        E=e.total,
        Ekin=e.kinetic,
        Epot=e.potential,
        Ecubic=e.cubic,
        Edip=e.dipolar,
        y=_variance(field, rho),
        ydot=_variance_rate(field, spectrum),
        maxpsi=float(np.sqrt(rho.max())),
        gradsq=2.0 * e.kinetic,
    )


@dataclass
class ObservableSeries:
    records: list[ObservableRecord] = dataclass_field(default_factory=list)

    def append(self, record: ObservableRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise ValueError(
                f"record times must increase strictly: {record.t} after {self.records[-1].t}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self, path: "str | Path") -> None:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                ",".join(
                    "%.17g" % getattr(r, name) for name in CSV_HEADER.split(",")
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: "str | Path") -> "ObservableSeries":
        text = Path(path).read_text().strip().splitlines()
        if not text or text[0].strip() != CSV_HEADER:
            raise ValueError(f"unrecognized series header in {path}")
        series = cls()
        names = CSV_HEADER.split(",")
        for line in text[1:]:
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"malformed series row: {line!r}")
            series.append(
                ObservableRecord(**{n: float(v) for n, v in zip(names, fields)})
            )
        return series
