"""Dipolar interaction as a frequency-space multiplier.

The physical kernel (1 - 3 cos^2 theta)/|x|^3 with dipole axis (0,0,1)
enters only through its Fourier symbol.  Three symbol families are
provided, each one provenance class, which alone tabulates its symbol on
a grid's octant (table) and checks its range (check), and one entry of
_FAMILIES, which names it for the config, the CLI and the reduction:

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

The dipole lies along the last axis, so every family is even in each
frequency separately.  A KernelSymbol holds one array, its table on the
grid's octant, indices 0..n/2 of each axis; fftfreq gives xi[n - k] =
-xi[k] bit for bit, so the symbol is the one even along every axis that
takes those values, and build_symbol evaluates each family there alone.
Every other layout is mirrored from the table along the periodic axes
of the symbol's lattice (KernelSymbol), and KernelSymbol.on is the one
placement of a symbol on another lattice of its box.

Applying a symbol to a density is pointwise multiplication between an
FFT/inverse-FFT pair; no normalization factors appear because they
cancel between the two directions.  The dipolar energy needs only the
pairing rho . (K * rho), which Parseval turns into a weighted sum over
one real transform of the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np
from scipy import fft as _fft  # noqa: F401  read only by bench/tracer.py
from scipy import special

from .grid import (
    _BLOCK,
    GridError,
    SpectralGrid,
    _accumulate,
    _mirror_pieces,
    _unfold,
    fold_rows,
    mesh_sum,
)

SYMBOL_MAX = 8.0 * math.pi / 3.0
SYMBOL_MIN = -4.0 * math.pi / 3.0


class QuadratureError(ArithmeticError):
    """A quadrature or angular mean failed to reach its tolerance."""


class KernelRealityError(ArithmeticError):
    """Kernel application produced a non-negligible imaginary part."""


# Elements per block of symbol3d: the three real blocks it works on (the
# output's, |xi|^2 and one term) take 128 KiB each and stay in cache, and
# its scratch is smaller than the table of a 64^3 grid's octant.
_SYMBOL_BLOCK = _BLOCK // 4


def symbol3d(xi1, xi2, xi3):
    """Dipolar symbol (4*pi/3) * (2 xi3^2 - xi1^2 - xi2^2) / |xi|^2.

    Vectorized over broadcastable arguments; defined as 0 at the origin,
    where the formula has no directional limit but the kernel's vanishing
    spherical average singles out zero.  A NaN component gives NaN.
    Scalar arguments give a float, taken from a one-element result.

    An array result is one array, written a block of whole first-axis
    rows at a time (at most _SYMBOL_BLOCK elements, or one row where a
    row holds more), with one block of scratch for |xi|^2 and one for the
    term being added.  The arguments are broadcast into each block, an
    argument without the first axis whole and one with it by the block's
    rows, so the blocks are runs of rows rather than the flat ranges of
    grid.lattice_blocks.  The squares and the first operation of each
    sum, xi1^2 + xi2^2 and 2 xi3^2 - xi1^2, are formed on the arguments'
    own broadcast shapes (a plane of a sparse mesh) and copied into a
    block before the rest of the arithmetic, because a numpy operation on
    broadcast operands allocates its own buffers.
    Each element is ((xi1^2 + xi2^2) + xi3^2), ((2 xi3^2 - xi1^2) -
    xi2^2) and (4 pi/3) (num / |xi|^2), in that order, and 0 where
    |xi|^2 = 0.
    """
    xi = [np.asarray(x, dtype=float) for x in (xi1, xi2, xi3)]
    shape = np.broadcast_shapes(*(x.shape for x in xi))
    out = np.empty(shape or (1,))
    if out.size == 0:
        return out
    sq1, sq2, sq3 = (x * x for x in xi)
    nsq12, num31 = sq1 + sq2, 2.0 * xi[2] * xi[2] - sq1

    def rows(a, block):
        # a's part of out[block]: a broadcasts whole where out's first axis is broadcast in it
        return a[block] if a.ndim == out.ndim and len(a) > 1 else a

    inner = out.size // len(out)
    rows_per_block = max(1, _SYMBOL_BLOCK // inner)
    n = min(rows_per_block, len(out)) * inner
    nsq_buf = np.empty(n)
    term_buf = np.empty(n)
    zero_buf = np.empty(n, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, len(out), rows_per_block):
            block = slice(start, start + rows_per_block)
            o = out[block]
            s, t, zero = (a[: o.size].reshape(o.shape) for a in (nsq_buf, term_buf, zero_buf))
            np.copyto(o, rows(num31, block))
            np.copyto(t, rows(sq2, block))
            o -= t
            np.copyto(s, rows(nsq12, block))
            np.copyto(t, rows(sq3, block))
            s += t
            np.equal(s, 0.0, out=zero)
            o /= s
            np.copyto(o, 0.0, where=zero)
            o *= 4.0 * math.pi / 3.0
    return out if shape else float(out[0])


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


class Provenance(Protocol):
    """A symbol family with its parameters; build_symbol reads only these."""

    dim: int
    def table(self, octant: SpectralGrid) -> np.ndarray: ...  # values on the octant
    # ValueError off the family's range; lo and hi are the table's min and max
    def check(self, table: np.ndarray, lo: float, hi: float) -> None: ...


@dataclass(frozen=True)
class Analytic3D:
    """Closed-form 3D symbol provenance."""

    dim = 3

    def table(self, octant: SpectralGrid) -> np.ndarray:
        return symbol3d(*octant.freq_mesh)

    def check(self, table: np.ndarray, lo: float, hi: float) -> None:
        if lo < SYMBOL_MIN - 1e-12 or hi > SYMBOL_MAX + 1e-12:
            raise ValueError("3D symbol values outside [-4pi/3, 8pi/3]")
        if table.flat[0] != 0.0:
            raise ValueError(f"3D symbol must vanish at the origin, got {table.flat[0]}")


def _check_envelope(lo: float, hi: float, envelope: float) -> None:
    if max(hi, -lo) > envelope * (1.0 + 1e-8) + 1e-10:
        raise ValueError("effective symbol values exceed the analytic envelope")


@dataclass(frozen=True)
class Effective1D:
    """Transverse-averaged symbol for a wire-like geometry.

    omega1, omega2 are the tight transverse trap frequencies.
    """

    omega1: float
    omega2: float
    dim = 1

    def table(self, octant: SpectralGrid) -> np.ndarray:
        # |xi3| on the octant is 0, dxi, ..., pi n / L: distinct, ascending
        return _effective1d_table(np.abs(octant.freqs[0]), self.omega1, self.omega2)

    def check(self, table: np.ndarray, lo: float, hi: float) -> None:
        _check_envelope(lo, hi, (8.0 / 3.0) * math.sqrt(self.omega1 * self.omega2))


@dataclass(frozen=True)
class Effective2D:
    """Axially averaged symbol for a pancake geometry.

    omega3 is the tight trap frequency along the dipole axis.
    """

    omega3: float
    dim = 2

    def table(self, octant: SpectralGrid) -> np.ndarray:
        if self.omega3 <= 0.0:
            raise ValueError("trap frequency must be positive")
        r = np.sqrt(mesh_sum(f * f for f in octant.freq_mesh))
        return (8.0 / 3.0) * math.sqrt(math.pi * self.omega3) - 2.0 * math.pi * r * special.erfcx(
            r / (2.0 * math.sqrt(self.omega3))
        )

    def check(self, table: np.ndarray, lo: float, hi: float) -> None:
        _check_envelope(lo, hi, (8.0 / 3.0) * math.sqrt(math.pi * self.omega3))


# Every symbol family by its kernel.kind, in the config enum's order, with
# the number of transverse trap frequencies its provenance takes.  The first
# family of each dimension is its own: kernel.kind = auto, the kernel
# command's flags and the reduced models take it (_FAMILY_OF_DIM).
_FAMILIES = {
    "analytic3d": (Analytic3D, 0),
    "effective1d": (Effective1D, 2),
    "effective2d": (Effective2D, 1),
}
_FAMILY_OF_DIM = {family.dim: kind for kind, (family, _) in reversed(_FAMILIES.items())}


def _check_mirror_even(values: np.ndarray) -> None:
    """Raise KernelRealityError unless values are even along every axis to 1e-12.

    Per axis, the piece [1, n/2) is compared with the mirrored view of
    (n/2, n), whole along the other axes (mirror_even_axes' comparison,
    with a tolerance in place of bits), so a point on a Nyquist plane is
    compared along the other axes.  A NaN in a compared piece fails.
    """
    for axis, n in enumerate(values.shape):
        (here, there), _ = _mirror_pieces(n)
        head = (slice(None),) * axis
        diff = values[head + (here,)] - values[head + (there,)]
        if not (np.abs(diff, out=diff).max() <= 1e-12):
            raise KernelRealityError(
                f"symbol is not even along axis {axis}: it differs from its mirror "
                "image by more than 1e-12"
            )


class KernelSymbol:
    """Real Fourier multiplier, even along every axis, on a grid's frequency lattice.

    Its dimension is its grid's, and a provenance of another dimension
    is refused (GridError) before anything is tabulated.  The one array
    it holds is its table on the grid's octant (table).  values, given
    to the constructor, is the table on grid or on grid.octant, or None
    for the family's own (provenance.table), as build_symbol takes it;
    one on grid is checked, mirrored to the full lattice, for evenness
    along every axis to 1e-12 (KernelRealityError names the axis), and
    only its octant is kept.  half_values (rfft's layout, for a run's
    step and the dipolar energy) and values (apply_kernel, the kernel
    CSV) are mirrored from the table along grid's periodic axes on first
    read.  on(lattice) is the symbol on any lattice of grid's box, put
    there by its table, and octant the one on grid.octant.
    """

    def __init__(
        self, values: "np.ndarray | None", provenance: Provenance, grid: SpectralGrid
    ) -> None:
        if provenance.dim != grid.dim:
            raise GridError(
                f"provenance is {provenance.dim}-dimensional but grid is {grid.dim}-dimensional"
            )
        self.provenance = provenance
        self.grid = grid
        octant = grid.octant
        if values is None:
            values = provenance.table(octant)
        elif values.shape != octant.shape:
            if values.shape != grid.shape:
                raise GridError(
                    f"symbol shape {values.shape} matches neither grid {grid.shape} "
                    f"nor its octant {octant.shape}"
                )
            _check_mirror_even(grid.unfold(values))
            values = octant.restrict(values)
        self.table = values

    @cached_property
    def values(self) -> np.ndarray:
        return _unfold(self.table, self.grid.shape)

    @cached_property
    def half_values(self) -> np.ndarray:
        return _unfold(self.table, self.grid.half_shape)

    def on(self, lattice: SpectralGrid) -> "KernelSymbol":
        """The symbol on lattice, any lattice of its box: itself when it lies there.

        A lattice of another box, even one of the same point count, has
        other frequencies, so it is refused (GridError) rather than read.
        """
        tabulated, grid = self.grid.full, lattice.full
        if tabulated.shape != grid.shape or tabulated.extents != grid.extents:
            raise GridError(
                f"symbol is tabulated on {tabulated.shape} points over {tabulated.extents}, "
                f"the field lies on {grid.shape} points over {grid.extents}"
            )
        return self if self.grid is lattice else KernelSymbol(self.table, self.provenance, lattice)

    @cached_property
    def octant(self) -> "KernelSymbol":
        """The symbol on grid.octant."""
        return self.on(self.grid.octant)

    def validate(self) -> None:
        """Enforce the type invariants on the table; raises ValueError on violation."""
        table = self.table
        # min and max propagate NaN, so they also decide finiteness; they are
        # read once, here, and the family's range check takes them
        lo, hi = float(table.min()), float(table.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("symbol contains non-finite values")
        self.provenance.check(table, lo, hi)


def _read_cache(*args) -> None:
    # No symbol is cached.  Kept only because bench/tracer.py wraps this
    # name to count cache misses; nothing calls it.
    return None


def build_symbol(grid: SpectralGrid, provenance: Provenance) -> KernelSymbol:
    """Tabulate a symbol on the grid's frequency lattice.

    The provenance selects the family and carries its trap frequencies;
    its dimension must match the grid (KernelSymbol checks it).  Every
    family is even along every axis, and every family is evaluated on
    the octant of indices 0..n/2 per axis alone (provenance.table), the
    table KernelSymbol holds, so no evenness check runs: fftfreq gives
    xi[n - k] = -xi[k] bit for bit, so the full lattice mirrored from
    that table (KernelSymbol.values) is bit for bit the values the
    formula gives there.  The closed-form 3D symbol
    is symbol3d, the effective 2D symbol its closed form in |xi|, and the
    effective 1D symbol its angular mean (see module docstring) over the
    distinct |xi3|.  The table is validated; nothing is cached.
    """
    symbol = KernelSymbol(None, provenance, grid)
    symbol.validate()
    return symbol


def apply_kernel(symbol: KernelSymbol, density: np.ndarray) -> np.ndarray:
    """Convolve the kernel with a real density: Phi = ifft(symbol * fft(rho)).

    The output of the transform pair is checked to be real up to
    roundoff; a larger imaginary residue means the symbol lost its even
    symmetry and is reported instead of silently discarded.  A non-finite
    density is bad input (ValueError): one NaN would spread through the
    transform to every output.
    """
    grid = symbol.grid
    grid._check_shape(density)
    if np.iscomplexobj(density):
        raise TypeError("density must be a real array")
    if not np.all(np.isfinite(density)):
        raise ValueError("density contains non-finite values")
    spectrum = grid.fft(density)
    spectrum *= symbol.values
    phi = grid.ifft(spectrum)
    scale = float(np.linalg.norm(density.ravel()))
    residue = float(np.linalg.norm(phi.imag.ravel()))
    if residue > 1e-8 * scale:
        raise KernelRealityError(
            f"imaginary residue {residue:.3e} exceeds 1e-8 * |rho| = {1e-8 * scale:.3e}"
        )
    return np.ascontiguousarray(phi.real)


def _apply_symbol_real(symbol: KernelSymbol, density: np.ndarray) -> np.ndarray:
    """Real-transform fast path for the inner propagator loop.

    Skips the reality check performed by apply_kernel: a KernelSymbol is
    even along every axis by construction.  The inverse transform may
    reuse the spectrum, so on the octant, where it is a DCT-I, the
    potential takes over the spectrum's array.
    """
    spectrum = symbol.grid.rfft(density)
    spectrum *= symbol.half_values
    return symbol.grid.irfft(spectrum, overwrite=True)


def _pair_symbol_real(symbol: KernelSymbol, density: np.ndarray) -> float:
    """Lattice sum of density * (K * density) from one real transform.

    By Parseval this is (1/N) sum_k symbol_k |rho_hat_k|^2 over the full
    lattice.  On rfft's layout the halved axis and every even axis weigh
    1, 2, ..., 2, 1, so the last axis always does: the weighted power is
    summed over each row by einsums of the real and imaginary parts, so
    no power lattice is formed, then folded along the last axis
    (fold_rows) and weighted by the leading axes (half_row_weights, all
    ones where none is even).
    """
    grid = symbol.grid
    spectrum = grid.rfft(density)
    v = spectrum.reshape(-1, spectrum.shape[-1])
    w = symbol.half_values.reshape(v.shape)
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    rows = _accumulate(np.add, (np.einsum("ij,ij,ij->i", p, p, w) for p in parts))
    first = _accumulate(np.add, (p[:, 0] * p[:, 0] * w[:, 0] for p in parts))
    last = _accumulate(np.add, (p[:, -1] * p[:, -1] * w[:, -1] for p in parts))
    folded = fold_rows(rows, first, last)
    return float(np.einsum("i,i->", folded, grid.half_row_weights)) / grid.full.size
