"""Stability classification, blow-up certificates, and their probes.

Three analytic statements are turned into checkable certificates:

* global existence whenever lambda1 >= (4 pi / 3) lambda2 >= 0 (the
  interaction's frequency form is then nonnegative),
* finite-time collapse with T* <= pi/(2 min_j omega_j) whenever
  3 E <= (min_j omega_j)^2 * int |x|^2 |phi|^2, via the virial
  differential inequality,
* a conditional global bound from a continuity/bootstrap argument when
  the energy is positive but small against the interaction scale.

The certificates are analytic: simulation only corroborates them, and a
collapsing run is reported as under-resolution consistent with
collapse, never as confirmed blow-up.

classify refuses non-finite data, as evolve does, and evaluates its
evidence on the lattice evolve would run (state._run_lattice): data
mirror-even along some axes, or held there (make_unstable_data's), is
read on the sublattice even along them, so fully even data forms no
full lattice; the evidence agrees with the full lattice's to roundoff.

A family of squeezed product Gaussians phi = eps^(alpha/2) f(x1,x2)
g(eps x3), formed from its per-axis factors and held on the octant by
state.separable_field, drives the negative-energy construction; its
energy terms scale like powers of eps with exponents alpha-1
(kinetic), alpha-3 (trap) and 2 alpha - 1 (interaction), which the
ledger here measures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid
from .kernel import KernelSymbol
from .state import (
    ObservableSeries,
    PhysicalParams,
    WaveField,
    _density_sums,
    _run_lattice,
    density,
    energy,
    gradient_norm_sq,
    separable_field,
)

VERDICT_GLOBAL = "GlobalStable"
VERDICT_BLOWUP = "BlowupCertified"
VERDICT_CONDITIONAL = "ConditionallyGlobal"
VERDICT_INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class RegimeCertificate:
    verdict: str
    t_bound: "float | None"
    evidence: dict

    def __post_init__(self) -> None:
        if self.verdict == VERDICT_BLOWUP:
            if self.t_bound is None or not (self.t_bound > 0.0):
                raise ValueError("a blow-up certificate requires a positive time bound")


def blowup_time_bound(params: PhysicalParams) -> float:
    """Collapse-time bound pi / (2 min_j omega_j)."""
    if params.omega_min <= 0.0:
        raise ValueError(
            "the collapse-time bound needs a fully trapping potential (all omega_j > 0)"
        )
    return math.pi / (2.0 * params.omega_min)


def _bootstrap_scale(M: float, params: PhysicalParams, gn_constant: float) -> tuple[float, float]:
    """eps2 = gn_constant * (4 pi lambda2 / 3 - lambda1) * sqrt(M) and (3 eps2 / 2)^(-2)."""
    eps2 = gn_constant * ((4.0 * math.pi / 3.0) * params.lambda2 - params.lambda1) * math.sqrt(M)
    return eps2, (1.5 * eps2) ** -2


def _check_gn_constant(gn_constant: float) -> None:
    # written so that nan fails too
    if not 0.0 < gn_constant < math.inf:
        raise ValueError(f"gn_constant must be finite and positive, got {gn_constant!r}")


def bootstrap_check(
    E: float,
    M: float,
    grad_sq: float,
    params: PhysicalParams,
    gn_constant: float = 1.0,
) -> bool:
    """Smallness conditions of the continuity argument, exponent 3/2.

    The a-priori inequality f <= eps1 + eps2 f^(3/2) with f the squared
    gradient norm, eps1 = 2E and eps2 = gn_constant * (4 pi lambda2 / 3
    - lambda1) * sqrt(M) traps f below the first fixed point provided

        2 E < (1/3) * (3 eps2 / 2)^(-2)   and
        grad_sq <= (3 eps2 / 2)^(-2).

    gn_constant is the quartic-interpolation constant in
    |u|_{L4}^4 <= C |u|_{L2} |grad u|_{L2}^3; it is not pinned down
    analytically here, so the verdict is conditional on the supplied
    value (default 1.0).
    """
    _check_gn_constant(gn_constant)
    if params.lambda2 < 0.0:
        raise ValueError("bootstrap check requires lambda2 >= 0")
    gap = (4.0 * math.pi / 3.0) * params.lambda2 - params.lambda1
    if gap <= 0.0:
        raise ValueError(
            "bootstrap check applies only outside the unconditionally stable cone"
        )
    if E <= 0.0:
        raise ValueError("bootstrap check requires positive energy")
    if M < 0.0 or grad_sq < 0.0:
        raise ValueError("mass and gradient norm must be nonnegative")
    _, cap = _bootstrap_scale(M, params, gn_constant)
    return (2.0 * E < cap / 3.0) and (grad_sq <= cap)


def classify(
    phi: WaveField,
    params: PhysicalParams,
    symbol: "KernelSymbol | None" = None,
    gn_constant: float = 1.0,
) -> RegimeCertificate:
    """Certificate for initial data phi, by fixed evaluation order.

    1. Couplings in the stable cone -> GlobalStable (data-independent).
    2. (3D, trapped) 3E <= omega_min^2 * int |x|^2 |phi|^2
       -> BlowupCertified with t_bound = pi / (2 omega_min).
    3. lambda2 >= 0, E > 0 and the bootstrap smallness holds
       -> ConditionallyGlobal (conditional on gn_constant).
    4. Otherwise Indeterminate.

    phi must be finite (ValueError otherwise); it is read on the lattice
    evolve would run (module docstring).
    """
    _check_gn_constant(gn_constant)
    phi.validate_finite()
    phi, symbol = _run_lattice(phi, params, symbol)
    d = _density_sums(phi, density(phi), params, symbol)
    grad_sq = gradient_norm_sq(phi)
    E = d.energy(0.5 * grad_sq).total
    M = d.mass
    xphi_sq = d.y
    gap = params.lambda1 - (4.0 * math.pi / 3.0) * params.lambda2
    evidence: dict = {
        "E": E,
        "M": M,
        "grad_sq": grad_sq,
        "xphi_sq": xphi_sq,
        "omega_min": params.omega_min,
        "lambda1": params.lambda1,
        "lambda2": params.lambda2,
        "lambda_gap": gap,
        "gn_constant": gn_constant,
    }

    if params.in_stable_regime():
        return RegimeCertificate(VERDICT_GLOBAL, None, evidence)

    if params.dim == 3 and params.omega_min > 0.0:
        if 3.0 * E <= params.omega_min**2 * xphi_sq:
            t_bound = blowup_time_bound(params)
            evidence["t_bound"] = t_bound
            return RegimeCertificate(VERDICT_BLOWUP, t_bound, evidence)

    if params.lambda2 >= 0.0 and E > 0.0:
        eps2, cap = _bootstrap_scale(M, params, gn_constant)
        evidence["bootstrap_eps2"] = eps2
        evidence["bootstrap_energy_cap"] = cap / 3.0
        evidence["bootstrap_grad_cap"] = cap
        passed = bootstrap_check(E, M, grad_sq, params, gn_constant)
        evidence["bootstrap_passed"] = passed
        if passed:
            evidence["note"] = "conditional on the supplied gn_constant"
            return RegimeCertificate(VERDICT_CONDITIONAL, None, evidence)

    return RegimeCertificate(VERDICT_INDETERMINATE, None, evidence)


def certificate_text(cert: RegimeCertificate) -> str:
    """Plain-text key = value rendering, machine parsable."""
    lines = [f"verdict = {cert.verdict}"]
    if cert.t_bound is not None:
        lines.append("t_bound = %.17g" % cert.t_bound)
    for key in sorted(cert.evidence):
        value = cert.evidence[key]
        if isinstance(value, bool):
            lines.append(f"{key} = {str(value).lower()}")
        elif isinstance(value, float):
            lines.append("%s = %.17g" % (key, value))
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def make_unstable_data(
    grid: SpectralGrid,
    eps: float,
    alpha: float,
    f_width: float = 1.0,
    g_width: float = 1.0,
) -> WaveField:
    """Squeezed product Gaussian eps^(alpha/2) f(x1, x2) g(eps x3).

    f and g are centered Gaussians exp(-|.|^2 / (2 width^2)).  For
    alpha < -2 the interaction term dominates as eps -> 0 and the
    energy turns negative, seeding certified-collapse runs.  The box
    must contain the eps-stretched axial support: the relative boundary
    amplitude, read from the full per-axis factors, is a warning above
    1e-10 and an error above 1e-4.

    The field is the product of its per-axis factors, formed and held
    by state.separable_field on indices 0..n/2 alone along each axis
    whose factor equals its mirror image bit for bit (as the grid's
    centred coordinates give): values, when read, is mirrored from the
    table and equals the full lattice's product bit for bit.
    """
    if grid.dim != 3:
        raise ValueError("unstable data construction is three-dimensional")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not -math.inf < alpha < -2.0:
        raise ValueError(f"alpha must be finite and below -2, got {alpha!r}")
    for name, width in (("f_width", f_width), ("g_width", g_width)):
        if not 0.0 < width < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {width!r}")

    x1, x2, x3 = grid.coord_mesh
    factors = [
        np.exp(-(x1 * x1) / (2.0 * f_width * f_width)),
        np.exp(-(x2 * x2) / (2.0 * f_width * f_width)),
        eps ** (alpha / 2.0) * np.exp(-(eps * eps * x3 * x3) / (2.0 * g_width * g_width)),
    ]
    # The field is the product (f1 * f2) * f3 of positive factors, and
    # rounded multiplication is monotone, so its peak, and its largest
    # value on each boundary plane, is that product of the factors'
    # maxima, one of them taken at the plane's index instead.
    maxima = [float(f.max()) for f in factors]

    def product(values):
        return (values[0] * values[1]) * values[2]

    peak = product(maxima)
    edge = max(
        product(maxima[:axis] + [float(f.reshape(-1)[index])] + maxima[axis + 1 :])
        for axis, f in enumerate(factors)
        for index in (0, f.size - 1)
    )
    rel = edge / peak if peak > 0.0 else 0.0
    if rel > 1e-4:
        raise ValueError(
            f"boundary amplitude {rel:.3e} of peak: the box does not contain "
            "the eps-stretched support"
        )
    if rel > 1e-10:
        warnings.warn(
            f"boundary amplitude {rel:.3e} of peak; periodic truncation "
            "may bias the energy ledger",
            RuntimeWarning,
            stacklevel=2,
        )
    # a complex last factor writes the complex lattice in one pass
    factors[-1] = factors[-1].astype(complex)
    return separable_field(grid, factors)


def unstable_energy_ledger(
    grid: SpectralGrid,
    params: PhysicalParams,
    symbol: "KernelSymbol | None",
    epsilons,
    alpha: float,
    f_width: float = 1.0,
    g_width: float = 1.0,
) -> tuple[list[dict], dict]:
    """Energy terms of the squeezed family across eps, with fitted slopes.

    Returns one row per eps with the kinetic, trap and interaction
    magnitudes, and the least-squares log-log slopes; expected exponents
    are alpha-1, alpha-3 and 2 alpha - 1.
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 2:
        raise ValueError("need at least two eps values to fit slopes")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError(f"eps values must be distinct, got {epsilons}")
    rows = []
    for eps in epsilons:
        phi = make_unstable_data(grid, eps, alpha, f_width, g_width)
        e = energy(phi, params, symbol)
        rows.append(
            {
                "epsilon": eps,
                "kinetic": e.kinetic,
                "potential": e.potential,
                "interaction": e.cubic + e.dipolar,
                "total": e.total,
            }
        )
    log_eps = np.log([r["epsilon"] for r in rows])
    slopes = {}
    for key in ("kinetic", "potential", "interaction"):
        magnitudes = np.abs([r[key] for r in rows])
        if np.any(magnitudes == 0.0):
            slopes[key] = math.nan
        else:
            slopes[key] = float(np.polyfit(log_eps, np.log(magnitudes), 1)[0])
    return rows, slopes


@dataclass(frozen=True)
class AuditReport:
    satisfied: bool
    max_violation: float
    t_at_max: float
    tolerance: float
    n_samples: int


def virial_audit(
    series: ObservableSeries,
    params: PhysicalParams,
    E: float,
    tol: "float | None" = None,
) -> AuditReport:
    """Check the variance envelope implied by the virial inequality.

    With w = 2 omega_min, solutions obey

        y(t) <= y(0) cos(w t) + ydot(0) sin(w t)/w + 6 E (1 - cos(w t))/w^2

    on [0, min(T, pi/w)].  The series must resolve the oscillation
    (at least 5 samples per period 2 pi / w).  Reports the maximal
    violation; negative means the bound held with slack.
    """
    if params.omega_min <= 0.0:
        raise ValueError("virial audit needs a fully trapping potential")
    if len(series) < 3:
        raise ValueError("series too short for a virial audit")
    w = 2.0 * params.omega_min
    t = series.column("t")
    t = t - t[0]
    horizon = min(t[-1], math.pi / w)
    inside = t <= horizon + 1e-12
    if int(np.sum(inside)) < 3:
        raise ValueError("series does not cover the audit window")
    gaps = np.diff(t[inside])
    if gaps.max() > (2.0 * math.pi / w) / 5.0 + 1e-12:
        raise ValueError(
            f"sample gap {gaps.max():.3g} too coarse for period {2.0 * math.pi / w:.3g}"
        )
    y = series.column("y")[inside]
    y0 = y[0]
    ydot0 = series.column("ydot")[0]
    ts = t[inside]
    envelope = (
        y0 * np.cos(w * ts)
        + ydot0 * np.sin(w * ts) / w
        + 6.0 * E * (1.0 - np.cos(w * ts)) / (w * w)
    )
    if tol is None:
        tol = 1e-8 + 1e-6 * max(abs(y0), abs(E), 1.0)
    violation = y - envelope
    worst = int(np.argmax(violation))
    return AuditReport(
        satisfied=bool(violation[worst] <= tol),
        max_violation=float(violation[worst]),
        t_at_max=float(ts[worst]),
        tolerance=float(tol),
        n_samples=int(np.sum(inside)),
    )
