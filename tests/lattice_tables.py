"""Full-lattice tables that no run builds, for checking the package against them.

A run forms |xi|^2, |x|^2 and the trap per block from their per-axis
terms and sums the top octave from per-axis bands; these build the same
tables whole, on make_grid's full lattice.  is_mirror_even reads a full
lattice's evenness along every axis at once.
"""

import numpy as np

from dipgpe.grid import mesh_sum, mirror_even_axes, top_band


def ksq(grid):
    """|xi|^2 on the full frequency lattice (FFT order)."""
    return mesh_sum(f * f for f in grid.freq_mesh)


def radius_sq(grid):
    """|x|^2 on the full coordinate lattice."""
    return mesh_sum(c * c for c in grid.coord_mesh)


def top_octave_mask(grid):
    """Modes with |k_j| >= N_j // 4 on at least one axis (FFT order)."""
    mask = np.zeros(grid.shape, dtype=bool)
    for axis, n in enumerate(grid.shape):
        mask[(slice(None),) * axis + (top_band(n),)] = True
    return mask


def potential(params, grid):
    """Harmonic trap 0.5 * sum_j omega_j^2 x_j^2 on the full lattice, from params.trap_terms."""
    return mesh_sum(params.trap_terms(grid))


def is_mirror_even(values):
    """Whether values equal their mirror image bit for bit along every axis."""
    return len(mirror_even_axes(values)) == values.ndim
