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

Every family is tabulated in closed form and nothing is cached.  The
effective 2D symbol is (8/3) sqrt(pi omega3) - 2 pi R erfcx(R / (2
sqrt(omega3))) with R = |xi| (Cai, Rosenkranz, Lei, Bao, PRA 82, 043623
(2010)); the effective 1D symbol is an angular mean of the isotropic
closed form (_effective1d_table).  symbol1d_effective and
symbol2d_effective are adaptive quadratures of the same averages, kept
as references.  They import scipy.integrate on first use, which pulls in
scipy.linalg, scipy.optimize, scipy.sparse and scipy.spatial, about
24 MB of resident memory and 0.3 s of start-up on numpy 2.4 and scipy
1.17; no tabulation needs more than scipy.special.

The closed-form 3D symbol is evaluated on one octant of the lattice,
indices 0..n/2 of each axis; fftfreq gives xi[n - k] = -xi[k] bit for bit,
so the rest of the lattice is filled by mirrored slice copies.  The
evenness check compares mirrored views of the same pieces, {0}, [1, n/2)
and (n/2, n) per axis, instead of gathering s(-k) into a new array.

Applying a symbol to a density is pointwise multiplication between an
FFT/inverse-FFT pair; no normalization factors appear because they
cancel between the two directions.  The dipolar energy needs only the
pairing rho . (K * rho), which Parseval turns into a weighted sum over
one real transform of the density.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy import fft as _fft
from scipy import special

from .grid import FFT_WORKERS, GridError, SpectralGrid

SYMBOL_MAX = 8.0 * math.pi / 3.0
SYMBOL_MIN = -4.0 * math.pi / 3.0


class QuadratureError(ArithmeticError):
    """A quadrature or angular mean failed to reach its tolerance."""


class KernelRealityError(ArithmeticError):
    """Kernel application produced a non-negligible imaginary part."""


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


# Tolerances of the quadrature references.
_QUAD_ABS_TOL = 1e-12
_QUAD_REL_TOL = 1e-10
_QUAD_LIMIT = 200


def _quad(func, lo, hi, points=None) -> float:
    # deferred: importing scipy.integrate costs about 24 MB and 0.3 s, and
    # only the quadrature references need it
    from scipy import integrate

    kwargs = dict(epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL, limit=_QUAD_LIMIT, full_output=1)
    if points is not None and np.isfinite(hi):
        kwargs["points"] = points
    result = integrate.quad(func, lo, hi, **kwargs)
    if len(result) > 3:
        raise QuadratureError(f"quadrature on [{lo}, {hi}] failed: {result[3]}")
    return result[0]


def symbol1d_effective(xi3: float, omega1: float, omega2: float) -> float:
    """Effective 1D symbol at axial frequency xi3.

    Averages the 3D symbol against the transverse harmonic ground-state
    density e^(-xi1^2/(4 omega1) - xi2^2/(4 omega2)) / (2 pi)^2.  After
    polar integration the angular part becomes a scaled Bessel I0 and a
    single radial quadrature in s = |xi_perp|^2 remains:

        (1/3) * int_0^inf (2 xi3^2 - s)/(s + xi3^2)
                          * exp(-(p - q) s) * i0e(q s) ds

    with p = (1/omega1 + 1/omega2)/8 and q = |1/omega1 - 1/omega2|/8.
    Even in xi3, bounded, and -> (8/3) sqrt(omega1 omega2) as |xi3| -> inf.
    build_symbol tabulates the angular mean of the closed form (module
    docstring); this quadrature is its reference.
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
    head = _quad(integrand, 0.0, split, points=points)
    tail = _quad(integrand, split, np.inf)
    return head + tail


def symbol2d_effective(xi1: float, xi2: float, omega3: float) -> float:
    """Effective 2D symbol at in-plane frequency (xi1, xi2).

    Averages the 3D symbol against the axial harmonic ground-state
    density e^(-xi3^2/(4 omega3)) / (2 pi):

        (4/3) * int_0^inf (2 t^2 - R^2)/(t^2 + R^2) * exp(-t^2/(4 omega3)) dt

    with R^2 = xi1^2 + xi2^2.  Depends on (xi1, xi2) only through R,
    starts at (8/3) sqrt(pi omega3) and falls to -(4/3) sqrt(pi omega3)
    as R -> inf.  build_symbol tabulates the closed form of this average
    (module docstring); this quadrature is its reference.
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
    head = _quad(integrand, 0.0, split, points=points)
    tail = _quad(integrand, split, np.inf)
    return head + tail


# Above the cut, z e^z E1(z) is its asymptotic series sum_k (-1)^k k! / z^k
# to k = 20, whose error is below the next term, 21!/50^21 ~ 1e-16; e^z
# alone overflows from z ~ 710.
_EXP1_CUT = 50.0
_EXP1_SERIES = [(-1.0) ** k * math.factorial(k) for k in range(21)]

# Midpoint nodes of the angular mean: 8, doubled up to this cap.
_ANGLE_NODES_MAX = 4096


def _z_exp_exp1(z: np.ndarray) -> np.ndarray:
    """z e^z E1(z) for z >= 0: 0 at z = 0, rising to 1 as z -> inf, finite throughout."""
    out = np.zeros_like(z)
    near = (z > 0.0) & (z <= _EXP1_CUT)
    zn = z[near]
    out[near] = zn * np.exp(zn) * special.exp1(zn)
    far = z > _EXP1_CUT
    out[far] = np.polynomial.polynomial.polyval(1.0 / z[far], _EXP1_SERIES)
    return out


def _effective1d_table(xi3: np.ndarray, omega1: float, omega2: float) -> np.ndarray:
    """symbol1d_effective at each frequency of xi3, as a mean over one angle.

    Along the transverse direction phi the weight is the isotropic one of
    w(phi) = 1/(cos^2 phi/omega1 + sin^2 phi/omega2), whose average is
    the closed form -4w/3 + 4w g(xi3^2/(4w)) with g(z) = z e^z E1(z); the
    symbol is its mean over phi.  Substituting
    tan phi = sqrt(omega2/omega1) tan theta turns the mean into

        sqrt(omega1 omega2) * (4 mean_theta g(xi3^2/(4 v(theta))) - 4/3),
        v(theta) = omega1 cos^2 theta + omega2 sin^2 theta,

    which is exact at xi3 = 0 and whose nodes stay inside the envelope.
    The integrand is smooth and periodic, so the midpoint rule on
    [0, pi/2] converges geometrically, more slowly as omega1/omega2 moves
    away from 1.  The node count doubles from 8 until two tables agree to
    1e-14 of the envelope (8/3) sqrt(omega1 omega2); the finer one is
    returned.
    """
    if not (omega1 > 0.0 and omega2 > 0.0):
        raise ValueError("trap frequencies must be positive")
    scale = math.sqrt(omega1 * omega2)
    quarter_xi3sq = 0.25 * np.square(xi3, dtype=float)[:, None]

    def mean_g(m: int) -> np.ndarray:
        theta = (np.arange(m) + 0.5) * (0.5 * math.pi / m)
        v = omega1 * np.cos(theta) ** 2 + omega2 * np.sin(theta) ** 2
        return np.mean(_z_exp_exp1(quarter_xi3sq / v), axis=1)

    m = 8
    table = mean_g(m)
    while m < _ANGLE_NODES_MAX:
        m *= 2
        finer = mean_g(m)
        # 4 scale (finer - table) against 1e-14 (8/3) scale
        if np.max(np.abs(finer - table)) <= (2.0 / 3.0) * 1e-14:
            return scale * (4.0 * finer - 4.0 / 3.0)
        table = finer
    raise QuadratureError(
        f"angular mean of Effective1D({omega1}, {omega2}) unsettled at {m} nodes"
    )


# Piece 1 and piece 2 of _mirror_pieces are each other's mirror image.
_MIRROR_PIECE = (0, 2, 1)


def _mirror_pieces(n: int) -> tuple[tuple[slice, slice], ...]:
    """The pieces {0}, [1, n/2) and (n/2, n) of an even FFT-ordered axis.

    Each piece comes with the reversed slice that holds its mirror image:
    index k and index n - k carry opposite frequencies.  The Nyquist
    index n/2 lies in no piece.
    """
    h = n // 2
    return (
        (slice(0, 1), slice(0, 1)),
        (slice(1, h), slice(n - 1, h, -1)),
        (slice(h + 1, n), slice(h - 1, 0, -1)),
    )


@dataclass(eq=False)
class KernelSymbol:
    """Real, even Fourier multiplier tabulated on a grid's frequency lattice.

    values are stored in FFT order.  half_values is the slice matching
    the real-input transform layout; the propagator and the dipolar
    energy use it to halve the cost of the nonlocal term.  Both read only
    the even part of the symbol, so half_values requires evenness; the
    verdict is computed once and shared with validate.
    """

    dim: int
    values: np.ndarray
    provenance: Provenance
    grid: SpectralGrid

    @cached_property
    def _even(self) -> bool:
        return self._is_even()

    @cached_property
    def half_values(self) -> np.ndarray:
        if not self._even:
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
        # min and max propagate NaN, so they also decide finiteness
        lo, hi = float(self.values.min()), float(self.values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("symbol contains non-finite values")
        if isinstance(self.provenance, Analytic3D):
            slack = 1e-12
            if lo < SYMBOL_MIN - slack or hi > SYMBOL_MAX + slack:
                raise ValueError("3D symbol values outside [-4pi/3, 8pi/3]")
            origin = self.values[(0,) * self.dim]
            if origin != 0.0:
                raise ValueError(f"3D symbol must vanish at the origin, got {origin}")
        else:
            bound = self._effective_bound() * (1.0 + 1e-8) + 1e-10
            if max(hi, -lo) > bound:
                raise ValueError("effective symbol values exceed the analytic envelope")
        if not self._even:
            raise ValueError("symbol is not even on the frequency lattice")

    def _is_even(self) -> bool:
        """Even symmetry, |s(k) - s(-k)| <= 1e-12 on every mode off the Nyquist planes.

        Each axis splits into the pieces of _mirror_pieces, so s(-k) over
        a product of pieces is a view of the values with the mirrored
        pieces; the Nyquist planes lie in no piece.  A block and its
        mirror image make the same comparisons, so only one of each pair
        is compared.  A NaN off the Nyquist planes fails the check.
        """
        values = self.values
        pieces = [_mirror_pieces(n) for n in values.shape]
        for choice in itertools.product(range(3), repeat=values.ndim):
            if choice > tuple(_MIRROR_PIECE[c] for c in choice):
                continue
            here = tuple(pieces[a][c][0] for a, c in enumerate(choice))
            there = tuple(pieces[a][c][1] for a, c in enumerate(choice))
            diff = values[here] - values[there]
            if not (np.abs(diff, out=diff).max() <= 1e-12):
                return False
        return True

    def _effective_bound(self) -> float:
        if isinstance(self.provenance, Effective1D):
            return (8.0 / 3.0) * math.sqrt(self.provenance.omega1 * self.provenance.omega2)
        if isinstance(self.provenance, Effective2D):
            return (8.0 / 3.0) * math.sqrt(math.pi * self.provenance.omega3)
        raise TypeError(f"unknown provenance {self.provenance!r}")


def _read_cache(*args) -> None:
    # No symbol is cached.  Kept only because bench/tracer.py wraps this
    # name to count cache misses; nothing calls it.
    return None


def build_symbol(grid: SpectralGrid, provenance: Provenance) -> KernelSymbol:
    """Tabulate a symbol on the grid's frequency lattice.

    The provenance selects the family and carries its trap frequencies;
    its dimension must match the grid.  The closed-form 3D symbol runs on
    the octant of indices 0..n/2 per axis and one mirrored slice copy per
    axis fills the rest, bit for bit the values symbol3d gives on the
    full lattice.  The effective 2D symbol is its closed form on
    grid.ksq, and the effective 1D symbol its angular mean (see module
    docstring) over the distinct |xi3|.  Nothing is cached.
    """
    if provenance.dim != grid.dim:
        raise GridError(
            f"provenance is {provenance.dim}-dimensional but grid is {grid.dim}-dimensional"
        )

    if isinstance(provenance, Analytic3D):
        # symbol3d on indices 0..n/2 of each axis; index n - k holds -xi[k]
        # bit for bit, so the rest of each axis is a mirrored copy
        octant = tuple(slice(0, n // 2 + 1) for n in grid.shape)
        values = np.empty(grid.shape)
        values[octant] = symbol3d(*(f[octant] for f in grid.freq_mesh))
        for axis, n in enumerate(grid.shape):
            _, _, (upper, lower) = _mirror_pieces(n)
            head = (slice(None),) * axis
            values[head + (upper,) + octant[axis + 1 :]] = values[
                head + (lower,) + octant[axis + 1 :]
            ]
    elif isinstance(provenance, Effective2D):
        w3 = provenance.omega3
        if w3 <= 0.0:
            raise ValueError("trap frequency must be positive")
        r = np.sqrt(grid.ksq)
        values = (8.0 / 3.0) * math.sqrt(math.pi * w3) - 2.0 * math.pi * r * special.erfcx(
            r / (2.0 * math.sqrt(w3))
        )
    elif isinstance(provenance, Effective1D):
        magnitudes, inverse = np.unique(np.abs(grid.freqs[0]), return_inverse=True)
        values = _effective1d_table(magnitudes, provenance.omega1, provenance.omega2)[inverse]
    else:
        raise TypeError(f"unknown provenance {provenance!r}")

    symbol = KernelSymbol(dim=grid.dim, values=values, provenance=provenance, grid=grid)
    symbol.validate()
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
