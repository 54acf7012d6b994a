"""Dipolar interaction as a frequency-space multiplier.

The physical kernel (1 - 3 cos^2 theta)/|x|^3 with dipole axis (0,0,1)
enters only through its Fourier symbol.  Three symbol families are
provided:

* the closed-form 3D symbol,
* an effective 1D symbol for tightly confined transverse directions,
  obtained by averaging the 3D symbol against the transverse harmonic
  ground-state density in frequency space,
* the analogous effective 2D symbol for tight confinement along the
  dipole axis.

The effective symbols need one adaptive quadrature per distinct lattice
frequency, so tabulations are cached to disk keyed by a content hash of
the grid and trap frequencies.  The cache lives in the directory named by
the GPE_CACHE_DIR environment variable, or ~/.cache/dipgpe when it is
unset.

Applying a symbol to a density is pointwise multiplication between an
FFT/inverse-FFT pair; no normalization factors appear because they
cancel between the two directions.  The dipolar energy needs only the
pairing rho . (K * rho), which Parseval turns into a weighted sum over
one real transform of the density.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np
from scipy import fft as _fft
from scipy import integrate, special

from .grid import FFT_WORKERS, GridError, SpectralGrid

SYMBOL_MAX = 8.0 * math.pi / 3.0
SYMBOL_MIN = -4.0 * math.pi / 3.0


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class KernelRealityError(ArithmeticError):
    """Kernel application produced a non-negligible imaginary part."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the effective-symbol quadratures."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    limit: int = 200


@dataclass(frozen=True)
class Analytic3D:
    """Closed-form 3D symbol provenance."""

    dim = 3


@dataclass(frozen=True)
class Effective1D:
    """Transverse-averaged symbol for a wire-like geometry.

    omega1, omega2 are the tight transverse trap frequencies.
    """

    omega1: float
    omega2: float
    dim = 1


@dataclass(frozen=True)
class Effective2D:
    """Axially averaged symbol for a pancake geometry.

    omega3 is the tight trap frequency along the dipole axis.
    """

    omega3: float
    dim = 2


Provenance = Union[Analytic3D, Effective1D, Effective2D]


def symbol3d(xi1, xi2, xi3):
    """Dipolar symbol (4*pi/3) * (2 xi3^2 - xi1^2 - xi2^2) / |xi|^2.

    Vectorized; defined as 0 at the origin, where the formula has no
    directional limit but the kernel's vanishing spherical average
    singles out zero.
    """
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    xi3 = np.asarray(xi3, dtype=float)
    nsq = xi1 * xi1 + xi2 * xi2 + xi3 * xi3
    num = 2.0 * xi3 * xi3 - xi1 * xi1 - xi2 * xi2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (4.0 * math.pi / 3.0) * np.where(nsq > 0.0, num / np.where(nsq > 0.0, nsq, 1.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def bessel_radial_check(r_max: float, tol: float) -> float:
    """Integrate j2(r)/r from 0 to r_max; the limit is exactly 1/3.

    The integrand is smooth at 0 (j2(r)/r -> r/15) and oscillatory with
    a 1/r^2 envelope, so composite Gauss-Legendre on pi-length panels
    converges fast.  The result is compared against a refined rule and
    the analytic tail bound |j1(r_max)/r_max| <= (1/r_max + 1/r_max^2)/r_max;
    if their sum exceeds tol the quadrature is rejected.

    This is a self-test of the symbol derivation, not a production path.
    """
    if r_max < 100.0:
        raise ValueError(f"r_max must be >= 100, got {r_max}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    def composite(order: int) -> float:
        edges = np.append(np.arange(0.0, r_max, math.pi), r_max)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        lo = edges[:-1][:, None]
        hi = edges[1:][:, None]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        r = (mid + half * nodes[None, :]).ravel()
        w = (half * weights[None, :]).ravel()
        return float(np.sum(w * special.spherical_jn(2, r) / r))

    value = composite(10)
    refined = composite(20)
    tail_bound = (1.0 / r_max + 1.0 / r_max**2) / r_max
    estimate = abs(value - refined) + tail_bound
    if estimate > tol:
        raise QuadratureError(
            f"radial check error estimate {estimate:.3e} exceeds tol {tol:.3e}"
        )
    return refined


def _quad(func, lo, hi, quad: QuadratureSpec, points=None) -> float:
    kwargs = dict(epsabs=quad.abs_tol, epsrel=quad.rel_tol, limit=quad.limit, full_output=1)
    if points is not None and np.isfinite(hi):
        kwargs["points"] = points
    result = integrate.quad(func, lo, hi, **kwargs)
    if len(result) > 3:
        raise QuadratureError(f"quadrature on [{lo}, {hi}] failed: {result[3]}")
    return result[0]


def symbol1d_effective(
    xi3: float, omega1: float, omega2: float, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Effective 1D symbol at axial frequency xi3.

    Averages the 3D symbol against the transverse harmonic ground-state
    density e^(-xi1^2/(4 omega1) - xi2^2/(4 omega2)) / (2 pi)^2.  After
    polar integration the angular part becomes a scaled Bessel I0 and a
    single radial quadrature in s = |xi_perp|^2 remains:

        (1/3) * int_0^inf (2 xi3^2 - s)/(s + xi3^2)
                          * exp(-(p - q) s) * i0e(q s) ds

    with p = (1/omega1 + 1/omega2)/8 and q = |1/omega1 - 1/omega2|/8.
    Even in xi3, bounded, and -> (8/3) sqrt(omega1 omega2) as |xi3| -> inf.
    """
    if omega1 <= 0.0 or omega2 <= 0.0:
        raise ValueError("trap frequencies must be positive")
    xi3sq = float(xi3) * float(xi3)
    p = (1.0 / omega1 + 1.0 / omega2) / 8.0
    q = abs(1.0 / omega1 - 1.0 / omega2) / 8.0

    def integrand(s: float) -> float:
        den = s + xi3sq
        ratio = (2.0 * xi3sq - s) / den if den > 0.0 else -1.0
        return ratio * math.exp(-(p - q) * s) * special.i0e(q * s) / 3.0

    split = 80.0 / (p - q)
    points = [xi3sq] if 0.0 < xi3sq < split else None
    head = _quad(integrand, 0.0, split, quad, points=points)
    tail = _quad(integrand, split, np.inf, quad)
    return head + tail


def symbol2d_effective(
    xi1: float, xi2: float, omega3: float, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Effective 2D symbol at in-plane frequency (xi1, xi2).

    Averages the 3D symbol against the axial harmonic ground-state
    density e^(-xi3^2/(4 omega3)) / (2 pi):

        (4/3) * int_0^inf (2 t^2 - R^2)/(t^2 + R^2) * exp(-t^2/(4 omega3)) dt

    with R^2 = xi1^2 + xi2^2.  Depends on (xi1, xi2) only through R,
    starts at (8/3) sqrt(pi omega3) and falls to -(4/3) sqrt(pi omega3)
    as R -> inf.
    """
    if omega3 <= 0.0:
        raise ValueError("trap frequency must be positive")
    rsq = float(xi1) * float(xi1) + float(xi2) * float(xi2)
    r = math.sqrt(rsq)

    def integrand(t: float) -> float:
        den = t * t + rsq
        ratio = (2.0 * t * t - rsq) / den if den > 0.0 else 2.0
        return (4.0 / 3.0) * ratio * math.exp(-t * t / (4.0 * omega3))

    split = math.sqrt(160.0 * omega3)
    points = [r] if 0.0 < r < split else None
    head = _quad(integrand, 0.0, split, quad, points=points)
    tail = _quad(integrand, split, np.inf, quad)
    return head + tail


@dataclass(eq=False)
class KernelSymbol:
    """Real, even Fourier multiplier tabulated on a grid's frequency lattice.

    values are stored in FFT order.  half_values is the slice matching
    the real-input transform layout; the propagator and the dipolar
    energy use it to halve the cost of the nonlocal term.  Both read only
    the even part of the symbol, so the first use of half_values checks
    evenness.
    """

    dim: int
    values: np.ndarray
    provenance: Provenance
    grid: SpectralGrid

    @cached_property
    def half_values(self) -> np.ndarray:
        if not self._is_even():
            raise KernelRealityError(
                "symbol is not even on the frequency lattice; its real-transform "
                "application would drop the odd part"
            )
        n_last = self.grid.shape[-1]
        return np.ascontiguousarray(self.values[..., : n_last // 2 + 1])

    def validate(self) -> None:
        """Enforce the type invariants; raises ValueError on violation."""
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"symbol shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol contains non-finite values")
        if isinstance(self.provenance, Analytic3D):
            slack = 1e-12
            if self.values.min() < SYMBOL_MIN - slack or self.values.max() > SYMBOL_MAX + slack:
                raise ValueError("3D symbol values outside [-4pi/3, 8pi/3]")
            origin = self.values[(0,) * self.dim]
            if origin != 0.0:
                raise ValueError(f"3D symbol must vanish at the origin, got {origin}")
        else:
            bound = self._effective_bound() * (1.0 + 1e-8) + 1e-10
            if np.abs(self.values).max() > bound:
                raise ValueError("effective symbol values exceed the analytic envelope")
        if not self._is_even():
            raise ValueError("symbol is not even on the frequency lattice")

    def _is_even(self) -> bool:
        """Even symmetry on non-Nyquist modes: index k maps to -k under flip+roll."""
        mirrored = self.values
        for axis in range(self.dim):
            mirrored = np.roll(np.flip(mirrored, axis=axis), 1, axis=axis)
        interior = np.ones(self.grid.shape, dtype=bool)
        for axis, n in enumerate(self.grid.shape):
            sel = np.ones(n, dtype=bool)
            sel[n // 2] = False
            interior &= sel.reshape([-1 if a == axis else 1 for a in range(self.dim)])
        return np.allclose(self.values[interior], mirrored[interior], rtol=0.0, atol=1e-12)

    def _effective_bound(self) -> float:
        if isinstance(self.provenance, Effective1D):
            return (8.0 / 3.0) * math.sqrt(self.provenance.omega1 * self.provenance.omega2)
        if isinstance(self.provenance, Effective2D):
            return (8.0 / 3.0) * math.sqrt(math.pi * self.provenance.omega3)
        raise TypeError(f"unknown provenance {self.provenance!r}")


def _cache_dir() -> Path:
    env = os.environ.get("GPE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dipgpe"


def _cache_omegas(provenance: Provenance) -> tuple[float, ...]:
    if isinstance(provenance, Effective1D):
        return (provenance.omega1, provenance.omega2)
    if isinstance(provenance, Effective2D):
        return (provenance.omega3,)
    return ()


def _cache_path(grid: SpectralGrid, provenance: Provenance, base: Path) -> Path:
    key = "|".join(
        [
            type(provenance).__name__,
            repr(grid.dim),
            ",".join(repr(n) for n in grid.shape),
            ",".join(repr(L) for L in grid.extents),
            ",".join(repr(w) for w in _cache_omegas(provenance)),
        ]
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return base / f"symbol-{digest}.gpek1"


def _write_cache(path: Path, grid: SpectralGrid, provenance: Provenance, values: np.ndarray) -> None:
    omegas = _cache_omegas(provenance)
    header = " ".join(
        ["GPEK1", "v1", str(grid.dim)]
        + [str(n) for n in grid.shape]
        + [f"{w:.17g}" for w in omegas]
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n")
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_cache(path: Path, grid: SpectralGrid, provenance: Provenance) -> "np.ndarray | None":
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
            payload = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    omegas = _cache_omegas(provenance)
    expected = (
        ["GPEK1", "v1", str(grid.dim)]
        + [str(n) for n in grid.shape]
        + [f"{w:.17g}" for w in omegas]
    )
    if header != expected:
        return None
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != grid.size:
        return None
    return values.reshape(grid.shape).astype(float)


def build_symbol(
    grid: SpectralGrid,
    provenance: Provenance,
    quad: QuadratureSpec = QuadratureSpec(),
) -> KernelSymbol:
    """Tabulate a symbol on the grid's frequency lattice.

    The provenance selects the family and carries its trap frequencies;
    its dimension must match the grid.  Effective tabulations are cached
    on disk (see module docstring); the closed-form 3D symbol is cheap
    and never cached.
    """
    if provenance.dim != grid.dim:
        raise GridError(
            f"provenance is {provenance.dim}-dimensional but grid is {grid.dim}-dimensional"
        )

    if isinstance(provenance, Analytic3D):
        f1, f2, f3 = grid.freq_mesh
        values = np.asarray(symbol3d(f1, f2, f3))
        values = np.ascontiguousarray(np.broadcast_to(values, grid.shape))
        symbol = KernelSymbol(dim=3, values=values, provenance=provenance, grid=grid)
        symbol.validate()
        return symbol

    path = _cache_path(grid, provenance, _cache_dir())
    cached = _read_cache(path, grid, provenance)
    if cached is not None:
        symbol = KernelSymbol(dim=grid.dim, values=cached, provenance=provenance, grid=grid)
        symbol.validate()
        return symbol

    if isinstance(provenance, Effective1D):
        xi = grid.freqs[0]
        magnitudes, inverse = np.unique(np.abs(xi), return_inverse=True)
        table = np.array(
            [
                symbol1d_effective(m, provenance.omega1, provenance.omega2, quad)
                for m in magnitudes
            ]
        )
        values = table[inverse]
    elif isinstance(provenance, Effective2D):
        rsq = np.asarray(grid.ksq)
        magnitudes, inverse = np.unique(rsq.ravel(), return_inverse=True)
        table = np.array(
            [
                symbol2d_effective(math.sqrt(m), 0.0, provenance.omega3, quad)
                for m in magnitudes
            ]
        )
        values = table[inverse].reshape(grid.shape)
    else:
        raise TypeError(f"unknown provenance {provenance!r}")

    values = np.ascontiguousarray(values, dtype=float)
    symbol = KernelSymbol(dim=grid.dim, values=values, provenance=provenance, grid=grid)
    symbol.validate()
    _write_cache(path, grid, provenance, values)
    return symbol


def apply_kernel(symbol: KernelSymbol, density: np.ndarray) -> np.ndarray:
    """Convolve the kernel with a real density: Phi = ifft(symbol * fft(rho)).

    The output of the transform pair is checked to be real up to
    roundoff; a larger imaginary residue means the symbol lost its even
    symmetry and is reported instead of silently discarded.
    """
    grid = symbol.grid
    grid._check_shape(density)
    if np.iscomplexobj(density):
        raise TypeError("density must be a real array")
    spectrum = _fft.fftn(density, workers=FFT_WORKERS)
    spectrum *= symbol.values
    phi = _fft.ifftn(spectrum, workers=FFT_WORKERS)
    scale = float(np.linalg.norm(density.ravel()))
    residue = float(np.linalg.norm(phi.imag.ravel()))
    if residue > 1e-8 * scale:
        raise KernelRealityError(
            f"imaginary residue {residue:.3e} exceeds 1e-8 * |rho| = {1e-8 * scale:.3e}"
        )
    return np.ascontiguousarray(phi.real)


def _apply_symbol_real(symbol: KernelSymbol, density: np.ndarray) -> np.ndarray:
    """Real-transform fast path for the inner propagator loop.

    Skips the reality check performed by apply_kernel; half_values
    checks the symbol's even symmetry once instead.
    """
    spectrum = _fft.rfftn(density, workers=FFT_WORKERS)
    spectrum *= symbol.half_values
    return _fft.irfftn(spectrum, s=symbol.grid.shape, workers=FFT_WORKERS)


def _pair_symbol_real(symbol: KernelSymbol, density: np.ndarray) -> float:
    """Lattice sum of density * (K * density) from one real transform.

    By Parseval this is (1/N) sum_k symbol_k |rho_hat_k|^2 over the full
    lattice.  The real-transform layout holds each interior mode of the
    last axis for itself and its mirror image, so those count twice; the
    zero and Nyquist planes of the last axis count once.
    """
    spectrum = _fft.rfftn(density, workers=FFT_WORKERS)
    power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
    power *= symbol.half_values
    total = (
        2.0 * float(np.sum(power))
        - float(np.sum(power[..., 0]))
        - float(np.sum(power[..., -1]))
    )
    return total / symbol.grid.size
