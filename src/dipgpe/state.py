"""Wavefunction container and every observable the analysis relies on.

Mass, the four-part energy, gradient norm, variance of the position
density and its growth rate, plus spectral diagnostics.  All derivatives
are spectral so that what the propagator conserves exactly is what these
functions measure.

Every moment a sample takes comes from 1D per-axis sums, each a numpy
reduction (an axis sum or an einsum without optimize, which calls no
BLAS) over the (rows, last axis) view of a lattice, so no sum forms a
full-lattice temporary.  Mass, trap energy, y and field_std read the
per-axis marginals of the density, which density() forms as its one
lattice, beside 32 KiB of scratch.  The spectral observables share one
FieldSpectrum, the power sums of the raw transform psi_hat =
grid.fft(psi), taken when the spectrum is made: the power marginals give
the gradient norm and the top-octave mass, and the spectrum keeps no
array, so its maker may reuse psi_hat at once.  The variance rate
takes d_j psi from one-axis transforms of psi there and back, and the
dipolar energy pairs the density with its convolution by Parseval, from
one real transform.

Every field the package builds lies on its box's full grid.  One
mirror-even along some axes may be held by its table on the sublattice
even along them alone (grid.SpectralGrid, WaveField.table), and its
values are mirrored from the table only when a caller reads them.
WaveField.held() is the library's one read of a field: the array it
holds, its table or its values, and the lattice that array lies on.
Every observable, classify and strang_step read the field there, and
evolve runs data mirror-even along some axes held on that sublattice
(_run_lattice), so no library call mirrors a held field.  A symbol is
put on the lattice a field is read on by its octant table
(KernelSymbol.on); _symbol_on adds only that lambda2 = 0 takes none.
On any lattice every observable is the full
lattice's: each sum takes the even axes' weights (1 at indices 0 and
n/2, 2 between) as per-axis factors, the marginals are unfolded to the
full axes, and Parseval's 1/N counts the full lattice.  A full
lattice's row weights are ones, so a sum has one path on every lattice.
Only the variance rate's term along an even axis takes another form
(_rate_term): x = -L/2 at index 0 and the Nyquist frequency are their
own mirror images, so neither is odd.

Separable data, a product of factors each spanning some axes, is formed
in one place, separable_field: the trap ground state and the gaussian
initial data (normalised and chirped there), the squeezed family of the
regimes module and the reduction's well-prepared data.  It reads each factor's
evenness, never the product's, and forms the product on the held
indices alone (SpectralGrid.held_product), so centred data is held from
the start.

An evolution is summarized by an ObservableSeries, one record per
sampling time, which serializes to CSV with the fixed header

    t,mass,E,Ekin,Epot,Ecubic,Edip,y,ydot,maxpsi,gradsq

written in full round-trip precision (17 significant digits).  Every
numeric table the package writes (series, eps sweep, energy ledger,
tabulated symbol) goes through the one CSV writer, csv_table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import fft as _fft  # noqa: F401  read only by bench/tracer.py

from .grid import (
    GridError,
    SpectralGrid,
    _unfold,
    fold_rows,
    mirror_even_axes,
)
from .kernel import KernelSymbol, _pair_symbol_real
from .kernel import apply_kernel  # noqa: F401  bench/tracer.py spans state.apply_kernel

CSV_HEADER = "t,mass,E,Ekin,Epot,Ecubic,Edip,y,ydot,maxpsi,gradsq"


def csv_table(header: str, rows: Iterable[Iterable[float]]) -> str:
    """CSV text: the header line, then each row's numbers at 17 significant digits."""
    lines = [header]
    lines.extend(",".join("%.17g" % v for v in row) for row in rows)
    return "\n".join(lines) + "\n"


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
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @cached_property
    def omega_min(self) -> float:
        return min(self.omega)

    def in_stable_regime(self) -> bool:
        return in_stable_cone(self.lambda1, self.lambda2)

    def _check_grid(self, grid: SpectralGrid) -> None:
        if grid.dim != self.dim:
            raise GridError(
                f"params are {self.dim}-dimensional but grid is {grid.dim}-dimensional"
            )

    def trap_terms(self, grid: SpectralGrid) -> list[np.ndarray]:
        """Per-axis terms 0.5 * omega_j^2 x_j^2 of the trap, as sparse meshes."""
        self._check_grid(grid)
        return [(0.5 * w * w) * (c * c) for w, c in zip(self.omega, grid.coord_mesh)]


class WaveField:
    """Complex field sampled on a grid at one instant.

    values, given to the constructor, is the field on grid, or its table
    on a sublattice of grid (grid.lattice_for) for a field mirror-even
    along that lattice's even axes.  Such a field is held: table is the
    one array it holds, and values, mirrored from it on first read, is
    from then on the field (a write to it is a write to the field) and
    table None.  held() gives the array the field holds and its
    lattice, and is the library's one read of a field: the observables,
    classify, strang_step, evolve, validate_finite and copy read the
    field through it, never through values, and never write to a table.
    """

    def __init__(self, values: np.ndarray, grid: SpectralGrid, t: float = 0.0) -> None:
        values = np.ascontiguousarray(values, dtype=complex)
        self.grid = grid
        self.t = t
        self.table = None
        self._values = values
        if values.shape != grid.shape:
            grid.lattice_for(values.shape)
            self.table, self._values = values, None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _unfold(self.table, self.grid.shape)
            self.table = None
        return self._values

    def held(self) -> tuple[np.ndarray, SpectralGrid]:
        """The array the field holds, its table or its values, and the lattice it lies on."""
        array = self.values if self.table is None else self.table
        return array, self.grid.lattice_for(array.shape)

    def validate_finite(self) -> None:
        if not np.all(np.isfinite(self.held()[0].view(float))):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "WaveField":
        return WaveField(values=self.held()[0].copy(), grid=self.grid, t=self.t)


def separable_field(
    grid: SpectralGrid, factors: Sequence, unit_mass: bool = False, phase: Sequence = ()
) -> WaveField:
    """The field of grid that is the left-to-right product of factors, then of phase, held.

    Each factor broadcasts against grid's full lattice and spans its own
    axes whole.  Each factor of factors and of phase is checked for
    mirror evenness bit for bit (mirror_even_axes), never the product;
    the product is formed at the held indices of the sublattice even
    along every axis where all of them are (SpectralGrid.held_product),
    and the field is held by that table.  A lattice of one axis is
    formed whole.  With unit_mass the product of factors, real, is
    scaled to unit mass by its sum of squares over its lattice before it
    is made complex: the weighted sum _sum_sq on a lattice with even
    axes, and np.sum on the full lattice, the sum every normalized field
    took before any was held, so data even along no axis keeps its
    bits.  The product of phase, a chirp of unit modulus, multiplies
    the scaled product after it.
    """
    lattice = grid
    if grid.dim > 1:
        # a lattice of one axis is formed whole, as MeshBlocks keeps it:
        # its table saves n/2 - 1 points and the set-up costs more
        even = map(mirror_even_axes, [*factors, *phase])
        lattice = grid.sublattice(set(range(grid.dim)).intersection(*even))
    table = lattice.held_product(factors)
    if unit_mass:
        total = _sum_sq(table, lattice) if lattice.even else float(np.sum(table * table))
        # times the reciprocal, not a division: the frozen outputs hold a * (1/c)
        table *= 1.0 / math.sqrt(total * grid.cell_volume)
    table = lattice.held_product(phase) * table if phase else table
    return WaveField(table, grid)


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    cubic: float
    dipolar: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential + self.cubic + self.dipolar


class FieldSpectrum:
    """The power sums of a raw transform grid.fft(psi) (FFT order, unnormalized).

    The per-axis marginals of the power |psi_hat|^2, its total and its
    top-octave mass are summed when the spectrum is made, and shared by
    every observable that reads them: the gradient norm and the spectral
    tail.  The spectrum keeps them and lattice alone, never the
    transform, so its caller may reuse the array at once (evolve
    materializes psi over it).  lattice is the one the transform lies
    on, whose even axes' weights make the sums the full lattice's.

    Row, column and top-band row sums of the (rows, last axis) view are
    each one einsum of its contiguous float view (real and imaginary
    parts side by side) with itself, so no power lattice is formed; the
    last axis' marginal pairs adjacent float columns.
    """

    def __init__(self, values: np.ndarray, lattice: SpectralGrid) -> None:
        self.lattice = grid = lattice
        shape = values.shape
        rw = grid.row_weights
        f = values.reshape(-1, shape[-1]).view(float)
        band = grid.bands[-1]
        row_sums = np.einsum("ij,ij->i", f, f)
        b = f[:, 2 * band.start : 2 * band.stop]
        band_rows = np.einsum("ij,ij->i", b, b)
        float_cols = np.einsum("ij,ij,i->j", f, f, rw)
        if grid.weights[-1] is not None:
            # an even last axis' weights, in the row sums; the band ends
            # at its index n/2
            last = _power(f[:, -2:])
            row_sums = fold_rows(row_sums, _power(f[:, :2]), last)
            band_rows = fold_rows(band_rows, 0.0, last)
        row_sums *= rw
        band_rows *= rw
        marginals = _axis_marginals(row_sums, float_cols[0::2] + float_cols[1::2], shape, grid)
        # The top octave as disjoint boxes: high on leading axis a and low
        # on the leading axes before it, then low on every leading axis and
        # high on the last.  Summed directly, never as total - low, which
        # would cancel a tail of 1e-26 away.
        rows = row_sums.reshape(shape[:-1])
        band_rows = band_rows.reshape(shape[:-1])
        top = 0.0
        for axis, high in enumerate(grid.bands[:-1]):
            top += float(np.sum(rows[(slice(None),) * axis + (high,)]))
            rows = np.delete(rows, high, axis=axis)
            band_rows = np.delete(band_rows, high, axis=axis)
        top += float(np.sum(band_rows))
        # marginals of |psi_hat|^2, its total and its top-octave mass
        self._power_sums = marginals, float(np.sum(row_sums)), top


def _power(pairs: np.ndarray) -> np.ndarray:
    """|z|^2 per row of a column of complex values given as (real, imaginary) float pairs."""
    return np.einsum("ij,ij->i", pairs, pairs)


def _run_lattice(field: WaveField) -> WaveField:
    """field held on the lattice a run takes for it, on the same grid.

    The trap, the contact term and the kernel are even in each coordinate
    separately, so a field equal to its mirror image along some axes, bit
    for bit (mirror_even_axes), stays so: it runs held on the sublattice
    even along them, by a copy of its held indices.  A held field runs on
    its table as it is, shared and never written, and one even along no
    axis on its grid: both come back as they are.
    """
    if field.table is None:
        values, lattice = field.held()
        even = mirror_even_axes(values, lattice.periodic)
        if even:
            return WaveField(lattice.sublattice(even).restrict(values), field.grid, field.t)
    return field


def _symbol_on(
    symbol: "KernelSymbol | None", lattice: SpectralGrid, params: PhysicalParams
) -> "KernelSymbol | None":
    """The symbol on lattice (KernelSymbol.on), None when lambda2 is zero.

    A symbol is required when lambda2 is nonzero.
    """
    if params.lambda2 == 0.0:
        return None
    if symbol is None:
        raise ValueError("a kernel symbol is required when lambda2 != 0")
    return symbol.on(lattice)


def field_spectrum(field: "WaveField") -> FieldSpectrum:
    """The FieldSpectrum of a field, from one forward complex transform of the array it holds."""
    values, lattice = field.held()
    return FieldSpectrum(lattice.fft(values), lattice)


def density(field: WaveField) -> np.ndarray:
    """|psi|^2 on the lattice the field holds (WaveField.held()), as one new array.

    Its scratch is 32 KiB at most, so the density is the one lattice it allocates.
    """
    values = field.held()[0]
    return _density_into(values, np.empty(values.shape), np.empty(min(4096, values.size)))


def _density_into(values: np.ndarray, rho: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """rho = |values|^2 in chunks of scratch's length: re^2, plus im^2 formed in scratch."""
    v, flat = values.reshape(-1), rho.reshape(-1)
    n = scratch.size
    for start in range(0, v.size, n):
        y, r = v[start : start + n], flat[start : start + n]
        w = scratch[: r.size]
        np.multiply(y.real, y.real, out=r)
        np.multiply(y.imag, y.imag, out=w)
        r += w
    return rho


def _axis_marginals(
    row_sums: np.ndarray, col_sums: np.ndarray, shape, grid: SpectralGrid
) -> list[np.ndarray]:
    """Per-axis marginals of a lattice from its sums over the last axis and over its rows.

    The row sums carry every even axis' weights and the column sums the
    leading ones'; along an even axis the marginal drops its own weight
    and is unfolded, so marginals are the full lattice's (grid.full.coords).
    """
    lead = row_sums.reshape(shape[:-1])
    axes = range(lead.ndim)
    marginals = [lead.sum(axis=tuple(b for b in axes if b != a)) for a in axes] + [col_sums]
    for a, w in enumerate(grid.weights):
        if w is not None:
            # the weights are 1 and 2, so dividing one out is exact
            m = marginals[a] / w if a < lead.ndim else marginals[a]
            marginals[a] = _unfold(m, grid.full.shape[a : a + 1])
    return marginals


def _marginals(lattice: np.ndarray, grid: SpectralGrid) -> list[np.ndarray]:
    """Per-axis marginals of a real lattice: for each axis, the sums over the others."""
    rows = lattice.reshape(-1, lattice.shape[-1])
    rw = grid.row_weights
    row_sums = rows.sum(axis=1)
    if grid.weights[-1] is not None:
        row_sums = fold_rows(row_sums, rows[:, 0], rows[:, -1])
    row_sums *= rw
    col_sums = np.einsum("ij,i->j", rows, rw)
    return _axis_marginals(row_sums, col_sums, lattice.shape, grid)


def _sum_sq(lattice: np.ndarray, grid: SpectralGrid) -> float:
    """Sum of |lattice|^2 over the full lattice, with no squared lattice formed.

    A complex lattice is summed through its float view, each value's real
    and imaginary parts side by side.
    """
    rows = lattice.reshape(-1, lattice.shape[-1]).view(float)
    sums = np.einsum("ij,ij->i", rows, rows)
    if grid.weights[-1] is not None:
        k = rows.shape[1] // lattice.shape[-1]
        sums = fold_rows(sums, _power(rows[:, :k]), _power(rows[:, -k:]))
    return float(np.einsum("i,i->", sums, grid.row_weights))


def _mass(grid: SpectralGrid, marginals: list[np.ndarray]) -> float:
    return float(np.sum(marginals[0])) * grid.cell_volume


def _moment(grid: SpectralGrid, marginals: list[np.ndarray], weights) -> float:
    """sum_a weights_a sum_i x_(a,i)^2 m_a(i), times the cell volume, from marginals m_a."""
    total = sum(
        w * float(np.sum((x * x) * m)) for w, x, m in zip(weights, grid.full.coords, marginals)
    )
    return total * grid.cell_volume


def mass(field: WaveField) -> float:
    lattice = field.held()[1]
    return _mass(lattice, _marginals(density(field), lattice))


def max_abs(field: WaveField) -> float:
    return float(np.sqrt(density(field).max()))


def gradient_norm_sq(field: WaveField, spectrum: "FieldSpectrum | None" = None) -> float:
    """Squared L2 norm of the spectral gradient.

    sum_a sum_k xi_(a,k)^2 M_a(k) over the per-axis marginals M_a of the
    power, which the spectrum sums once and keeps.
    """
    grid = field.grid
    if spectrum is None:
        spectrum = field_spectrum(field)
    marginals = spectrum._power_sums[0]
    total = sum(float(np.sum((f * f) * m)) for f, m in zip(grid.full.freqs, marginals))
    return total * grid.cell_volume / grid.full.size


def quartic_norm(field: WaveField) -> float:
    """Integral of |psi|^4 evaluated in physical space."""
    lattice = field.held()[1]
    return _sum_sq(density(field), lattice) * lattice.cell_volume


def quartic_norm_spectral(field: WaveField) -> float:
    """Integral of |psi|^4 via the squared spectrum of the density.

    Equals quartic_norm by the discrete Plancherel identity, a sum over
    the full lattice with the even axes' weights (the marginals' total);
    kept as an independent route for cross-checks.
    """
    lattice = field.held()[1]
    power = np.abs(lattice.fft(density(field))) ** 2
    return _mass(lattice, _marginals(power, lattice)) / lattice.full.size


@dataclass(frozen=True)
class _DensitySums:
    """The series terms a density gives: mass, y and three energy parts."""

    mass: float
    y: float
    potential: float
    cubic: float
    dipolar: float

    def energy(self, kinetic: float) -> EnergyBreakdown:
        return EnergyBreakdown(kinetic, self.potential, self.cubic, self.dipolar)


def _density_sums(
    rho: np.ndarray,
    grid: SpectralGrid,
    params: PhysicalParams,
    symbol: "KernelSymbol | None",
) -> _DensitySums:
    """Mass, y and the trap, contact and dipolar energies of a density on a lattice.

    Mass, trap energy and y come from the per-axis marginals of rho, the
    contact energy from an einsum of rho with itself, and the dipolar
    energy pairs rho with its convolution by Parseval, from one real
    transform (see the module docstring).  No full-lattice temporary is formed.  A
    symbol of the lattice's box is required whenever lambda2 is nonzero,
    and is read on the lattice (_symbol_on).
    """
    params._check_grid(grid)
    symbol = _symbol_on(symbol, grid, params)
    dv = grid.cell_volume
    marginals = _marginals(rho, grid)
    cubic = 0.0 if params.lambda1 == 0.0 else 0.5 * params.lambda1 * _sum_sq(rho, grid) * dv
    if params.lambda2 == 0.0:
        dipolar = 0.0
    else:
        dipolar = 0.5 * params.lambda2 * _pair_symbol_real(symbol, rho) * dv
    return _DensitySums(
        mass=_mass(grid, marginals),
        y=_moment(grid, marginals, [1.0] * grid.dim),
        potential=_moment(grid, marginals, [0.5 * w * w for w in params.omega]),
        cubic=cubic,
        dipolar=dipolar,
    )


def energy(
    field: WaveField,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
) -> EnergyBreakdown:
    """Four-part energy of a field.

    The kinetic part is spectral, the trap and contact parts are lattice
    sums, and the dipolar part pairs the density against the convolved
    potential (by Parseval, see the module docstring).  A symbol is
    required whenever lambda2 is nonzero.
    """
    d = _density_sums(density(field), field.held()[1], params, symbol)
    return d.energy(0.5 * gradient_norm_sq(field))


def variance(field: WaveField) -> float:
    """Position variance y = int |x|^2 |psi|^2."""
    lattice = field.held()[1]
    return _moment(lattice, _marginals(density(field), lattice), [1.0] * lattice.dim)


def variance_and_rate(field: WaveField) -> tuple[float, float]:
    """Position variance y = int |x|^2 |psi|^2 and its time derivative.

    The rate uses the standard identity dy/dt = 2 Im int conj(psi)
    (x . grad psi); the gradient is spectral.
    """
    return variance(field), _variance_rate(field)


def _variance_rate(field: WaveField) -> float:
    """dy/dt, with d_j psi from one-axis transforms of psi along axis j."""
    psi, grid = field.held()
    # one complex work lattice serves every axis, transformed in place; C
    # order, so that _interior_difference can lay D over its start
    g = np.empty(psi.shape, psi.dtype)
    acc = sum(_rate_term(grid, psi, g, axis) for axis in range(grid.dim))
    return 2.0 * acc * grid.cell_volume


def _rate_term(grid: SpectralGrid, psi: np.ndarray, g: np.ndarray, axis: int) -> float:
    """The full lattice's sum of x_j Re(conj(psi) F_j^-1(xi_j F_j psi)), j = axis.

    g is the work lattice.  Along a periodic axis, g = F_j^-1(xi_j F_j
    psi) = -i d_j psi, so the integrand Im(conj(psi) x_j d_j psi) is
    Re(conj(psi) x_j g).  It is summed without BLAS: a BLAS dot leaves
    its threads spinning, which starves the other members of a sweep.

    Along an even axis, with n points, N = n/2 and Psi = F_j psi (a
    DCT-I), the interior modes m and n - m carry opposite xi and the
    Nyquist mode N is its own image, so F_j^-1(xi Psi) = g_odd + g_N with

        g_odd[k] = (2i/n) sum_{m=1}^{N-1} xi_m Psi_m sin(k m pi / N),
        g_N[k]  = (-1)^k xi_N Psi_N / n.

    The g_odd term is even in k and vanishes at k = 0 and N, so its sum
    is twice the held interior; the g_N term cancels in pairs but at
    k = 0, x = -L/2, which is its own image.  The sine sum comes from one
    inverse DCT-I through sin(kt) sin(t) = (cos((k-1)t) - cos((k+1)t))/2:
    with c_m = xi_m Psi_m / sin(m pi / N) and P = F_j^-1 c (c_0 = c_N = 0),
    g_odd[k] = (i/2) (P[k-1] - P[k+1]).  P is formed in g, and D = P[k-1] -
    P[k+1] is written over the start of g's own buffer
    (_interior_difference), so a record holds psi and g alone.

    Either way the other even axes' weights count each held row for its
    images.
    """
    coord, freq = grid.coords[axis], grid.freqs[axis]

    def along(a, v):
        return v.reshape([-1 if b == a else 1 for b in range(grid.dim)])

    def at(index):
        return (slice(None),) * axis + (index,)

    def weighted_sum(lattice):
        # the other axes' weights, in place; lattice is scratch
        for b, w in enumerate(grid.weights):
            if b != axis and w is not None:
                lattice *= along(b, w)
        return float(np.sum(lattice))

    np.copyto(g, psi)
    g = grid.fft(g, axis, overwrite=True)
    if grid.weights[axis] is None:
        g *= grid.freq_mesh[axis]
        g = grid.ifft(g, axis, overwrite=True)
        g *= grid.coord_mesh[axis]
        # each half of g is spent once read, so it takes its own product
        re, im = g.real, g.imag
        np.multiply(psi.real, re, out=re)
        np.multiply(psi.imag, im, out=im)
        re += im
        return weighted_sum(re)
    n = grid.full.shape[axis]
    N = n // 2
    # the edge: x_0 Re(conj(psi_0) g_N[0])
    psi0, psi_nyquist = psi[at(slice(0, 1))], g[at(slice(N, N + 1))]
    edge = psi0.real * psi_nyquist.real + psi0.imag * psi_nyquist.imag
    total = float(coord[0] * (freq[N] / n)) * weighted_sum(edge)
    factor = np.zeros(N + 1)
    factor[1:N] = freq[1:N] / np.sin(np.arange(1, N) * (math.pi / N))
    g *= along(axis, factor)
    g = grid.ifft(g, axis, overwrite=True)
    # 2 x_k Re(conj(psi_k) g_odd[k]) = x_k (Im psi_k D.re - Re psi_k D.im),
    # D = P[k-1] - P[k+1], over the interior k = 1..N-1
    d = _interior_difference(g, axis)
    inner = psi[at(slice(1, N))]
    re, im = d.real, d.imag
    np.multiply(re, inner.imag, out=re)
    np.multiply(im, inner.real, out=im)
    re -= im
    re *= along(axis, coord[1:N])
    return total + weighted_sum(re)


def _interior_difference(p: np.ndarray, axis: int) -> np.ndarray:
    """D[k - 1] = p[k - 1] - p[k + 1] along axis, k = 1..m - 2, over p's buffer.

    p is a C-contiguous lattice with m points along axis, and is spent.
    D has p's shape with m - 2 points along axis, C order, and lies at the
    start of p's buffer, so it is bit for bit the fresh difference of the
    two slices and no lattice is allocated.  The chunks run in order and
    none reads a row an earlier chunk wrote.  Along axis 0, D[k] lies
    exactly on p[k] and also reads p[k + 2]: two planes at a time, the
    output is its first input and the second one lies past it.  Along any
    other axis, a leading index i's D[i] ends no later than p[i] does:
    one leading index at a time, where numpy copies the part of p[i] that
    D[i] overlaps, at most one slab.
    """
    shape = list(p.shape)
    n = shape[axis] - 2
    shape[axis] = n
    d = p.reshape(-1)[: math.prod(shape)].reshape(shape)
    if axis == 0:
        for k in range(0, n, 2):
            j = min(k + 2, n)
            np.subtract(p[k:j], p[k + 2 : j + 2], out=d[k:j])
        return d
    lo = (slice(None),) * (axis - 1) + (slice(0, n),)
    hi = (slice(None),) * (axis - 1) + (slice(2, n + 2),)
    for i in range(shape[0]):
        np.subtract(p[i][lo], p[i][hi], out=d[i])
    return d


def spectral_tail_fraction(
    field: WaveField, spectrum: "FieldSpectrum | None" = None
) -> float:
    """Fraction of spectral mass in the top frequency octave.

    The modes with |k_j| >= N_j // 4 on at least one axis (grid.bands),
    summed from the spectrum's power sums.
    """
    if spectrum is None:
        spectrum = field_spectrum(field)
    _, total, top = spectrum._power_sums
    if total == 0.0:
        return 0.0
    return top / total


def field_std(field: WaveField) -> tuple[float, ...]:
    """Per-axis standard deviation of the position density, from its marginals."""
    grid = field.held()[1]
    marginals = _marginals(density(field), grid)
    total = float(np.sum(marginals[0]))
    if total == 0.0:
        return tuple(0.0 for _ in range(grid.dim))
    out = []
    for x, m in zip(grid.full.coords, marginals):
        mean = float(np.sum(x * m)) / total
        var = float(np.sum((x - mean) ** 2 * m)) / total
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
    spectrum: "FieldSpectrum | None" = None,
) -> ObservableRecord:
    """Every series column at one instant, from one density and one spectrum.

    The spectrum is read only for its power sums.  The density's terms
    are summed first and the density is released before the variance rate
    takes its work lattice, so a record given its spectrum holds one complex
    lattice beside its inputs: every axis' term of the rate, the even axes'
    differences D included (_rate_term), is formed in that work lattice.
    """
    if spectrum is None:
        spectrum = field_spectrum(field)
    rho = density(field)
    d = _density_sums(rho, field.held()[1], params, symbol)
    maxpsi = float(np.sqrt(rho.max()))
    del rho
    e = d.energy(0.5 * gradient_norm_sq(field, spectrum))
    return ObservableRecord(
        t=field.t,
        mass=d.mass,
        E=e.total,
        Ekin=e.kinetic,
        Epot=e.potential,
        Ecubic=e.cubic,
        Edip=e.dipolar,
        y=d.y,
        ydot=_variance_rate(field),
        maxpsi=maxpsi,
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
        names = CSV_HEADER.split(",")
        rows = ([getattr(r, n) for n in names] for r in self.records)
        Path(path).write_text(csv_table(CSV_HEADER, rows))

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
