"""Uniform periodic lattices and the discrete Fourier transform contract.

Everything downstream lives on a tensor-product lattice over the box
``prod_j [-L_j/2, L_j/2)`` with an even number of points per axis.  The
point with index ``i`` along axis ``j`` is ``x_i = (i - N_j/2)*dx_j`` and
the matching angular frequencies are ``xi_k = 2*pi*k/L_j`` for signed
integers ``k`` in ``{-N_j/2, ..., N_j/2 - 1}``, stored in FFT order.

``forward_transform`` and ``inverse_transform`` approximate the continuum
pair

    u_hat(xi) = integral u(x) exp(-i x.xi) dx,
    u(x)     = (2*pi)^(-d) integral u_hat(xi) exp(i x.xi) dxi,

by the trapezoidal rule on the lattice: ``u_hat = dx^d * S * fft(u)``
and ``u = ifft(u_hat * S) / dx^d``.  The sign lattice ``S`` accounts for
the box being centred at the origin while ``fft`` assumes samples
starting at index 0; since the point counts are even, the parity of the
signed frequency integer equals the parity of the raw array index, so a
single per-axis ``(-1)**index`` vector serves both orderings.

Pointwise Fourier multipliers need neither the sign lattice nor the
volume factors (they cancel between the two directions), so operators
elsewhere in the package run between the grid's raw transforms,
``grid.ifft(m * grid.fft(u))``.  Those four methods (fft, ifft, rfft,
irfft), of SpectralGrid and of OctantGrid, are the package's only calls
of scipy.fft's transforms.

A field is mirror-even when u[k] == u[(n - k) % n] along every axis:
index k holds x_k and index n - k holds -x_k, while index 0 (x = -L/2)
and index n/2 (x = 0) are their own images.  Such a field is fixed by
its octant, indices 0..n/2 of each axis, and so is its DFT, which on the
octant is the type-I discrete cosine transform: fftfreq puts -xi_k at
index n - k, so the frequencies pair up the same way.  OctantGrid is
that octant of a SpectralGrid.  Its fft, ifft, rfft and irfft are
DCT-I transforms, which equal the full lattice's raw transforms on the
octant; each octant index stands for its multiplicity of lattice
points, 1 at indices 0 and n/2 and 2 in between (``weights``), so sums
over the full lattice are weighted sums over the octant.  Parseval's
1/N keeps the full lattice's point count, ``grid.full.size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import fft as _fft

# Every transform in the package runs on one pocketfft worker, the calling
# thread, and SpectralGrid's raw transforms alone read this.  pocketfft
# splits each axis pass statically between its workers and joins them at
# the end of the pass, so with two workers on a shared two-vCPU host every
# pass waits for the vCPU the host runs last, and wall time follows the
# host rather than the work.  Concurrency comes from independent work
# instead: epsilon_sweep runs its members on a thread pool.  pocketfft
# output is bit-identical for any worker count.
FFT_WORKERS = 1


class GridError(ValueError):
    """Raised for invalid grid construction or mismatched field shapes."""


def _accumulate(op, terms) -> np.ndarray:
    """Left-to-right op of per-axis sparse mesh terms, t_1 op t_2 op ... op t_d."""
    total = None
    for term in terms:
        total = term if total is None else op(total, term)
    return total


def mesh_sum(terms) -> np.ndarray:
    """Left-to-right sum of per-axis sparse mesh terms on the full lattice.

    The partial sums stay broadcast over the axes not yet reached, so only
    the last addition fills the full lattice.  Each term of a sparse mesh
    spans its own axis, so the result is a fresh contiguous array of the
    full shape, bit for bit the accumulation 0 + t_1 + ... + t_d.
    """
    return _accumulate(np.add, terms)


def mesh_product(factors) -> np.ndarray:
    """Left-to-right product of per-axis sparse mesh factors.

    The product counterpart of mesh_sum: the partial products stay
    broadcast over the axes not yet reached, and the result is bit for
    bit the accumulation 1 * f_1 * ... * f_d.  With the factors of every
    axis it fills the full lattice once; with those of some axes it
    stays broadcastable against it.
    """
    return _accumulate(np.multiply, factors)


# Elements per block of the package's blocked pointwise passes, which need
# scratch; lattice sums are numpy reductions and take no blocks.  A block's
# real scratch is 512 KiB and its complex scratch 1 MiB, so the work on one
# block runs in cache; a lattice no larger than one block is one block.
_BLOCK = 1 << 16


def lattice_blocks(shape: Sequence[int]) -> list[tuple[int, int]]:
    """Flat [start, stop) ranges of at most _BLOCK elements tiling a C-order lattice.

    Each range is a run of whole rows of the last axis, or a piece of one
    row when a row is longer than a block, so that per-axis terms line up
    with it (see MeshBlocks).
    """
    m = shape[-1]
    size = math.prod(shape)
    if m > _BLOCK:
        return [
            (row + k, row + min(k + _BLOCK, m))
            for row in range(0, size, m)
            for k in range(0, m, _BLOCK)
        ]
    step = (_BLOCK // m) * m
    return [(start, min(start + step, size)) for start in range(0, size, step)]


class MeshBlocks:
    """mesh_sum (op np.add) or mesh_product (op np.multiply), a lattice block at a time.

    The leading axes' partial result is kept, one value per row of the
    last axis, so no full lattice is built: block gives the elements of
    one block of lattice_blocks, each its row's partial result op the
    last axis' term, bit for bit what mesh_sum or mesh_product gives
    there.  A lattice of at most one block, or of one axis, is kept
    whole as that table, and its blocks are views of it.
    """

    def __init__(self, op, terms) -> None:
        terms = list(terms)
        self.op = op
        self.last = terms[-1].reshape(-1)
        self.lead = self.table = None
        if len(terms) == 1 or math.prod(t.size for t in terms) <= _BLOCK:
            self.table = _accumulate(op, terms).reshape(-1)
        else:
            self.lead = _accumulate(op, terms[:-1]).reshape(-1)

    def block(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """The lattice elements [start, stop) of one block of lattice_blocks.

        A view of the kept table, or out (at least stop - start long)
        filled; callers read it and never write to it.
        """
        n = stop - start
        if self.table is not None:
            return self.table[start:stop]
        out = out[:n]
        m = self.last.size
        row, k = divmod(start, m)
        if k == 0 and n % m == 0:
            # each row takes its partial result, then op the last axis'
            # term in place: lead op last, mesh_sum's and mesh_product's order
            rows = out.reshape(-1, m)
            np.copyto(rows, self.lead[row : row + n // m, None])
            self.op(rows, self.last, out=rows)
        else:
            self.op(self.lead[row], self.last[k : k + n], out=out)
        return out


def _mirror_pieces(n: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """The pieces [1, n/2) and (n/2, n) of an even axis.

    Each piece comes with the reversed slice that holds its mirror image:
    index k and index n - k carry opposite coordinates and opposite
    frequencies.  The indices 0 and n/2, their own images, lie in no
    piece.
    """
    h = n // 2
    return (slice(1, h), slice(n - 1, h, -1)), (slice(h + 1, n), slice(h - 1, 0, -1))


def _unfold(table: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """A mirror-even lattice of the given shape from its table on indices 0..n/2, as a new array.

    Along each axis where shape is longer than the table, index n - k
    takes index k; along the others the table's axis is taken whole.
    Each combination of {the table, the mirrored piece (n/2, n)} over the
    mirrored axes is one block copy from the table, so no copy of the
    output is formed on the way.
    """
    out = np.empty(tuple(shape), dtype=table.dtype)
    blocks = [((), ())]
    for m, n in zip(table.shape, shape):
        pieces = [(slice(0, m), slice(None))]
        if n != m:
            pieces.append(_mirror_pieces(n)[1])
        blocks = [(o + (po,), t + (pt,)) for o, t in blocks for po, pt in pieces]
    for o, t in blocks:
        out[o] = table[t]
    return out


def is_mirror_even(values: np.ndarray) -> bool:
    """Whether values equal their mirror image bit for bit along every axis.

    Per axis, the piece [1, n/2) is compared with the mirrored view of
    (n/2, n) as raw bits, so -0.0 differs from 0.0; no copy of the
    lattice is formed.
    """
    bits = values.view(np.uint64).reshape(values.shape + (-1,))
    for axis, n in enumerate(values.shape):
        (here, there), _ = _mirror_pieces(n)
        head = (slice(None),) * axis
        if not np.array_equal(bits[head + (here,)], bits[head + (there,)]):
            return False
    return True


class _Lattice:
    """What a lattice and its octant share: sparse meshes and the shape check.

    Subclasses provide dim, shape, coords and freqs.
    """

    @cached_property
    def coord_mesh(self) -> list[np.ndarray]:
        """Broadcastable (sparse) coordinate meshes."""
        return list(np.meshgrid(*self.coords, indexing="ij", sparse=True))

    @cached_property
    def freq_mesh(self) -> list[np.ndarray]:
        """Broadcastable (sparse) frequency meshes in FFT order."""
        return list(np.meshgrid(*self.freqs, indexing="ij", sparse=True))

    def _check_shape(self, u: np.ndarray) -> None:
        if tuple(u.shape) != self.shape:
            raise GridError(
                f"field shape {tuple(u.shape)} does not match grid shape {self.shape}"
            )


@dataclass(eq=False)
class SpectralGrid(_Lattice):
    """Tensor-product lattice with cached coordinate and frequency meshes.

    Instances are immutable by convention: nothing in the package mutates
    a grid after ``make_grid`` returns it, and cached meshes are shared
    freely across threads.
    """

    dim: int
    extents: tuple[float, ...]
    shape: tuple[int, ...]

    # every lattice point counts once (see OctantGrid.weights)
    weights = None

    @property
    def full(self) -> "SpectralGrid":
        """The lattice itself; an OctantGrid's is the lattice it is the octant of."""
        return self

    @property
    def steps(self) -> tuple[float, ...]:
        """Lattice spacing per axis, dx_j = L_j / N_j."""
        return tuple(L / n for L, n in zip(self.extents, self.shape))

    @property
    def freq_steps(self) -> tuple[float, ...]:
        """Frequency spacing per axis, 2*pi / L_j."""
        return tuple(2.0 * math.pi / L for L in self.extents)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.steps)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def coords(self) -> list[np.ndarray]:
        """1d coordinate arrays, x_i = (i - n/2) dx per axis.

        Formed from the signed index, so x[n - k] == -x[k] bit for bit on
        every lattice and a centred field is mirror-even whatever L/n is.
        """
        return [(np.arange(n) - n // 2) * (L / n) for L, n in zip(self.extents, self.shape)]

    @cached_property
    def freqs(self) -> list[np.ndarray]:
        """1d angular-frequency arrays in FFT order."""
        return [
            2.0 * np.pi * _fft.fftfreq(n, d=L / n)
            for L, n in zip(self.extents, self.shape)
        ]

    @property
    def bands(self) -> list[slice]:
        """Per axis, the indices of the top octave |k| >= n // 4 (top_band)."""
        return [top_band(n) for n in self.shape]

    @cached_property
    def octant(self) -> "OctantGrid":
        """The octant of indices 0..n/2 per axis, on which mirror-even fields run."""
        return OctantGrid(self)

    def half(self, table: np.ndarray) -> np.ndarray:
        """The part of a frequency-lattice table that rfft's layout holds."""
        return table[..., : self.shape[-1] // 2 + 1]

    @cached_property
    def ksq(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice (FFT order).

        Built on demand for tests; a run forms |xi|^2 block by block from
        the per-axis terms, and the 2D symbol on the octant.
        """
        return mesh_sum(f * f for f in self.freq_mesh)

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the full coordinate lattice (on demand; no run builds it)."""
        return mesh_sum(c * c for c in self.coord_mesh)

    @cached_property
    def sign_mesh(self) -> np.ndarray:
        """Centre-shift signs (-1)^(i_1 + ... + i_d) on the full lattice."""
        out = np.ones(self.shape)
        for axis, n in enumerate(self.shape):
            s = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            out = out * s.reshape([-1 if a == axis else 1 for a in range(self.dim)])
        return out

    @cached_property
    def top_octave_mask(self) -> np.ndarray:
        """Modes with |k_j| >= N_j // 4 on at least one axis (FFT order).

        The complement is the "safe" band; spectral mass migrating into
        this mask is the collapse / under-resolution indicator.  Built on
        demand for tests: spectral_tail_fraction sums the same modes from
        per-axis bands without a mask.
        """
        mask = np.zeros(self.shape, dtype=bool)
        for axis, n in enumerate(self.shape):
            mask[(slice(None),) * axis + (top_band(n),)] = True
        return mask

    # -- transforms ---------------------------------------------------

    def forward_transform(self, u: np.ndarray) -> np.ndarray:
        """Continuum-normalized forward transform on the frequency lattice.

        Returns u_hat with u_hat[k] ~ integral u(x) exp(-i x.xi_k) dx,
        in FFT order.
        """
        self._check_shape(u)
        return self.cell_volume * (self.sign_mesh * self.fft(u))

    def inverse_transform(self, u_hat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward_transform`."""
        self._check_shape(u_hat)
        return self.ifft(u_hat * self.sign_mesh) / self.cell_volume

    # The raw transforms, unnormalized and in FFT order.  axis=j transforms
    # along axis j alone; overwrite lets the transform reuse its input.
    def fft(self, u: np.ndarray, axis: "int | None" = None, overwrite: bool = False) -> np.ndarray:
        axes = None if axis is None else (axis,)
        return _fft.fftn(u, axes=axes, workers=FFT_WORKERS, overwrite_x=overwrite)

    def ifft(self, u: np.ndarray, axis: "int | None" = None, overwrite: bool = False) -> np.ndarray:
        axes = None if axis is None else (axis,)
        return _fft.ifftn(u, axes=axes, workers=FFT_WORKERS, overwrite_x=overwrite)

    def rfft(self, u: np.ndarray) -> np.ndarray:
        return _fft.rfftn(u, workers=FFT_WORKERS)

    def irfft(self, u_hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The real lattice of a half spectrum from rfft."""
        return _fft.irfftn(u_hat, s=self.shape, workers=FFT_WORKERS, overwrite_x=overwrite)


class OctantGrid(_Lattice):
    """The octant of a SpectralGrid, indices 0..n/2 of each axis.

    A mirror-even field (see the module docstring) is held by its values
    there, and so is its spectrum.  The coordinates and frequencies are
    the full lattice's at those indices, so the last frequency of an axis
    is its Nyquist frequency -pi n / L.  fft and ifft are the complex
    DCT-I and its inverse, with axis=j along axis j alone; rfft and irfft
    the same on real data.  Each equals the full lattice's raw transform
    restricted to the octant.  weights holds each axis' multiplicities,
    1, 2, ..., 2, 1: the full lattice's sum of a mirror-even lattice is
    the octant's sum weighted by their product.  steps, cell_volume and
    the Parseval count full.size are the full lattice's.  The full
    lattice's sign mesh, continuum transforms and |xi|^2, |x|^2 and
    top-octave lattices have no octant counterpart.
    """

    def __init__(self, full: SpectralGrid) -> None:
        self.full = full
        self.dim = full.dim
        self.extents = full.extents
        self.index = tuple(slice(0, n // 2 + 1) for n in full.shape)
        self.shape = tuple(n // 2 + 1 for n in full.shape)
        self.steps = full.steps
        self.cell_volume = full.cell_volume
        self.size = math.prod(self.shape)
        self.coords = [c[s] for c, s in zip(full.coords, self.index)]
        self.freqs = [f[s] for f, s in zip(full.freqs, self.index)]
        self.bands = [slice(n // 4, n // 2 + 1) for n in full.shape]
        self.weights = [np.concatenate([[1.0], np.full(m - 2, 2.0), [1.0]]) for m in self.shape]

    @cached_property
    def row_weights(self) -> np.ndarray:
        """Per row of the (rows, last axis) view, the product of the leading axes' weights."""
        lead = np.ones(())
        for w in self.weights[:-1]:
            lead = np.multiply.outer(lead, w)
        return lead.reshape(-1)

    def fold_rows(self, sums: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Row sums over the last axis with its weights, 2 sums - first - last.

        sums are the plain row sums and first and last the row's values
        at indices 0 and n/2, which count once.
        """
        out = 2.0 * sums
        out -= first
        out -= last
        return out

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The octant of a full lattice, as a new contiguous array."""
        return np.ascontiguousarray(values[self.index])

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The full lattice of a mirror-even field from its octant, as a new array."""
        return _unfold(values, self.full.shape)

    def half(self, table: np.ndarray) -> np.ndarray:
        """rfft's layout on the octant is the octant: the table itself."""
        return table

    # The raw transforms, unnormalized: type-I DCTs, which scipy.fft runs
    # on the real and imaginary parts of complex data in turn.
    def fft(self, u: np.ndarray, axis: "int | None" = None, overwrite: bool = False) -> np.ndarray:
        axes = None if axis is None else (axis,)
        return _fft.dctn(u, type=1, axes=axes, workers=FFT_WORKERS, overwrite_x=overwrite)

    def ifft(self, u: np.ndarray, axis: "int | None" = None, overwrite: bool = False) -> np.ndarray:
        axes = None if axis is None else (axis,)
        return _fft.idctn(u, type=1, axes=axes, workers=FFT_WORKERS, overwrite_x=overwrite)

    def rfft(self, u: np.ndarray) -> np.ndarray:
        return _fft.dctn(u, type=1, workers=FFT_WORKERS)

    def irfft(self, u_hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
        return _fft.idctn(u_hat, type=1, workers=FFT_WORKERS, overwrite_x=overwrite)


def top_band(n: int) -> slice:
    """Indices of the frequencies |k| >= n // 4 of an even n-point axis (FFT order).

    In FFT order they form one contiguous run, k = n // 4 .. n/2 - 1
    followed by -n/2 .. -(n // 4).
    """
    return slice(n // 4, n - n // 4 + 1)


def make_grid(
    dim: int,
    extents: Sequence[float],
    points: Sequence[int],
) -> SpectralGrid:
    """Validate and build a :class:`SpectralGrid`.

    ``extents`` are the box lengths L_j (the box is [-L_j/2, L_j/2)) and
    ``points`` the per-axis point counts, which must be even and at
    least 8 so the top-octave diagnostics are meaningful.
    """
    if dim not in (1, 2, 3):
        raise GridError(f"dim must be 1, 2 or 3, got {dim}")
    extents = tuple(float(L) for L in extents)
    points = tuple(int(n) for n in points)
    if len(extents) != dim or len(points) != dim:
        raise GridError(
            f"expected {dim} extents and {dim} point counts, "
            f"got {len(extents)} and {len(points)}"
        )
    for L in extents:
        if not (L > 0.0) or not math.isfinite(L):
            raise GridError(f"extents must be positive finite reals, got {L}")
    for n in points:
        if n < 8 or n % 2 != 0:
            raise GridError(f"point counts must be even and >= 8, got {n}")
    # the largest |xi|^2 on the lattice; k*k, because k**2 raises on overflow
    kmax_sq = 0.0
    for L, n in zip(extents, points):
        k = math.pi * n / L
        kmax_sq += k * k
    if not math.isfinite(kmax_sq):
        raise GridError(
            f"extents {extents} are too small for {points} points: "
            "the lattice frequencies overflow"
        )
    return SpectralGrid(dim=dim, extents=extents, shape=points)
