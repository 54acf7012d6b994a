import math
import warnings

import numpy as np
import pytest

from dipgpe import (
    Analytic3D,
    MonitorSpec,
    ObservableRecord,
    ObservableSeries,
    PhysicalParams,
    RegimeCertificate,
    blowup_time_bound,
    bootstrap_check,
    build_symbol,
    certificate_text,
    classify,
    evolve,
    linear_eigenstate,
    make_grid,
    make_unstable_data,
    mass,
    unstable_energy_ledger,
    virial_audit,
)
from dipgpe import regimes
from dipgpe.grid import mesh_product
from dipgpe.state import WaveField, energy, variance

from lattice_tables import is_mirror_even

# with gn = 3 / (4 pi) and lambda1 = 0, lambda2 = 1, M = 1 the bootstrap
# scale eps2 is exactly 1, so the caps are (3/2)^-2 = 4/9 and 4/27
GN_UNIT = 3.0 / (4.0 * math.pi)


def test_blowup_time_bound_values():
    assert blowup_time_bound(
        PhysicalParams(3, (1.0, 2.0, 3.0), 0.0, 1.0)
    ) == pytest.approx(math.pi / 2.0)
    assert blowup_time_bound(
        PhysicalParams(3, (0.5, 1.0, 1.0), 0.0, 1.0)
    ) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        blowup_time_bound(PhysicalParams(3, (0.0, 1.0, 1.0), 0.0, 1.0))


def test_bootstrap_frozen_thresholds():
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    assert bootstrap_check(0.01, 1.0, 0.1, p, GN_UNIT) is True
    assert bootstrap_check(0.2, 1.0, 0.1, p, GN_UNIT) is False
    assert bootstrap_check(0.01, 1.0, 0.5, p, GN_UNIT) is False
    # boundary arithmetic: caps are 4/27 for 2E and 4/9 for grad_sq
    assert bootstrap_check(4.0 / 27.0 / 2.0 * 0.999, 1.0, 0.444, p, GN_UNIT) is True
    assert bootstrap_check(4.0 / 27.0 / 2.0 * 1.001, 1.0, 0.444, p, GN_UNIT) is False


def test_bootstrap_preconditions():
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        bootstrap_check(-0.1, 1.0, 0.1, p, GN_UNIT)
    with pytest.raises(ValueError):
        bootstrap_check(0.01, 1.0, 0.1, p, 0.0)
    stable = PhysicalParams(3, (1.0, 1.0, 1.0), 5.0, 1.0)
    with pytest.raises(ValueError):
        bootstrap_check(0.01, 1.0, 0.1, stable, GN_UNIT)
    negative = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, -1.0)
    with pytest.raises(ValueError):
        bootstrap_check(0.01, 1.0, 0.1, negative, GN_UNIT)


def test_classify_stable_cone_is_data_independent():
    g = make_grid(3, [12.0] * 3, [16] * 3)
    f, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.0)
    cert = classify(f, p)
    assert cert.verdict == "GlobalStable"
    assert cert.t_bound is None
    assert cert.evidence["lambda_gap"] > 0.0


def test_classify_certifies_blowup_for_squeezed_data():
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    phi = make_unstable_data(g, 0.1, -3.0)
    cert = classify(phi, p, sym)
    assert cert.verdict == "BlowupCertified"
    assert cert.t_bound == pytest.approx(math.pi / 2.0)
    assert cert.evidence["E"] < 0.0
    assert cert.evidence["t_bound"] == cert.t_bound


def test_classify_conditional_for_weak_dipolar():
    g = make_grid(3, [14.0] * 3, [24] * 3)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 0.01)
    sym = build_symbol(g, Analytic3D())
    f, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
    cert = classify(f, p, sym)
    assert cert.verdict == "ConditionallyGlobal"
    assert cert.evidence["bootstrap_passed"] is True
    assert "gn_constant" in cert.evidence["note"]


@pytest.mark.parametrize("gn", [math.nan, math.inf, -1.0])
def test_classify_rejects_gn_constant_not_finite_and_positive(gn):
    g = make_grid(3, [8.0] * 3, [16] * 3)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 1.0, 0.3)
    f, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="gn_constant must be finite and positive"):
        classify(f, p, build_symbol(g, Analytic3D()), gn_constant=gn)
    with pytest.raises(ValueError, match="gn_constant must be finite and positive"):
        bootstrap_check(0.1, 1.0, 0.1, p, gn_constant=gn)


def test_classify_indeterminate_fallthrough():
    g = make_grid(3, [14.0] * 3, [24] * 3)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), -5.0, 0.0)
    f, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
    cert = classify(f, p)
    assert cert.verdict == "Indeterminate"
    assert cert.evidence["bootstrap_passed"] is False
    assert cert.evidence["E"] > 0.0


def test_classify_refuses_non_finite_data_as_evolve_does():
    # a NaN in the table of a held field, or in a full field's values, is
    # refused before any evidence is summed; the held field is read as it is
    g = make_grid(3, (18.0, 18.0, 36.0), (16, 16, 16))
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    held = make_unstable_data(g, 0.5, -3.0)
    held.table[2, 3, 4] = np.nan
    full = WaveField(make_unstable_data(g, 0.5, -3.0).values, g)
    full.values[5, 6, 7] = np.inf
    for phi in (held, full):
        with pytest.raises(ValueError, match="non-finite"):
            classify(phi, p, sym)
        with pytest.raises(ValueError, match="non-finite"):
            evolve(phi, p, sym, dt=1e-3, T=2e-3, warn_resolution=False)
    assert held.table is not None


def test_classify_evidence_refinement_invariance():
    p = PhysicalParams(3, (1.0, 1.0, 1.0), -5.0, 0.0)
    values = {}
    for n in (24, 48):
        g = make_grid(3, [14.0] * 3, [n] * 3)
        f, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
        cert = classify(f, p)
        values[n] = cert.evidence
    for key in ("E", "M", "grad_sq", "xphi_sq"):
        a, b = values[24][key], values[48][key]
        assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1.0)


def test_classify_evidence_equals_the_standalone_observables():
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    p = PhysicalParams(3, (1.0, 0.8, 1.0), 0.3, 1.0)
    sym = build_symbol(g, Analytic3D())
    phi = make_unstable_data(g, 0.1, -3.0)
    evidence = classify(phi, p, sym).evidence
    # the data is mirror-even, so classify reads it on the octant, as
    # evolve runs it: one density serves every term, with the same floats
    # as each alone on that lattice
    o = g.octant
    assert is_mirror_even(phi.values)
    octant = WaveField(o.restrict(phi.values), o)
    e = energy(octant, p, sym.octant)
    assert evidence["E"] == e.total
    assert evidence["grad_sq"] == 2.0 * e.kinetic
    assert evidence["M"] == mass(octant)
    assert evidence["xphi_sq"] == variance(octant)
    # and the full lattice's values to roundoff
    full = energy(phi, p, sym)
    for key, want in (
        ("E", full.total),
        ("grad_sq", 2.0 * full.kinetic),
        ("M", mass(phi)),
        ("xphi_sq", variance(phi)),
    ):
        assert abs(evidence[key] - want) <= 1e-12 * abs(want), key


def test_certificate_text_layout():
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    cert = classify(make_unstable_data(g, 0.1, -3.0), p, sym)
    text = certificate_text(cert)
    lines = text.splitlines()
    assert lines[0] == "verdict = BlowupCertified"
    assert lines[1].startswith("t_bound = 1.57079632679")
    for line in lines[2:]:
        key, _, value = line.partition(" = ")
        assert key.strip() and value.strip()
    # all numbers round-trip through float
    for line in lines[1:]:
        value = line.split(" = ")[1]
        if value not in ("true", "false") and not value.startswith("conditional"):
            float(value)


def test_certificate_requires_positive_bound_for_blowup():
    with pytest.raises(ValueError):
        RegimeCertificate("BlowupCertified", None, {})
    with pytest.raises(ValueError):
        RegimeCertificate("BlowupCertified", -1.0, {})


def test_unstable_data_mass_formula():
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    eps, alpha, fw, gw = 0.1, -3.0, 1.0, 1.0
    phi = make_unstable_data(g, eps, alpha, fw, gw)
    expected = eps ** (alpha - 1.0) * math.pi**1.5 * fw**2 * gw
    assert mass(phi) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("eps, fw, gw", [(0.1, 1.0, 1.0), (0.13, 0.8, 1.3)])
def test_unstable_data_is_the_reference_gaussian(eps, fw, gw):
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    alpha = -3.0
    x1, x2, x3 = g.coord_mesh
    # the product of the per-axis factors, accumulated from ones, bit for bit
    expected = np.ones(g.shape)
    for factor in (
        np.exp(-(x1 * x1) / (2.0 * fw * fw)),
        np.exp(-(x2 * x2) / (2.0 * fw * fw)),
        (eps ** (alpha / 2.0)) * np.exp(-(eps * eps * x3 * x3) / (2.0 * gw * gw)),
    ):
        expected = expected * factor
    values = make_unstable_data(g, eps, alpha, fw, gw).values
    assert values.flags.c_contiguous
    assert values.tobytes() == (expected + 0.0j).tobytes()
    # and the reference Gaussian, from one exponent, to roundoff
    gaussian = (eps ** (alpha / 2.0)) * np.exp(
        -(x1 * x1 + x2 * x2) / (2.0 * fw * fw) - (eps * eps * x3 * x3) / (2.0 * gw * gw)
    )
    assert np.max(np.abs(values - gaussian)) <= 1e-15 * np.max(gaussian)


def full_unstable_factors(g, eps, alpha=-3.0, fw=1.0, gw=1.0):
    """make_unstable_data's per-axis factors on the full lattice."""
    x1, x2, x3 = g.coord_mesh
    return [
        np.exp(-(x1 * x1) / (2.0 * fw * fw)),
        np.exp(-(x2 * x2) / (2.0 * fw * fw)),
        eps ** (alpha / 2.0) * np.exp(-(eps * eps * x3 * x3) / (2.0 * gw * gw)),
    ]


@pytest.mark.parametrize(
    "extents, points, eps",
    [
        ((15.0, 15.0, 30.0), (96, 96, 96), 0.5),
        ((10.0, 12.0, 14.0), (16, 8, 24), 1.0),
        ((15.0, 15.0, 30.0), (32, 32, 32), 0.5),
    ],
)
def test_unstable_data_layouts_are_the_full_products_bit_for_bit(extents, points, eps):
    # the field is held by its octant, and its values are the full
    # lattice's mesh_product of the full per-axis factors, bit for bit
    g = make_grid(3, extents, points)
    factors = full_unstable_factors(g, eps)
    factors[-1] = factors[-1].astype(complex)
    want = mesh_product(factors)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        phi = make_unstable_data(g, eps, -3.0)
    assert phi.table is not None and phi.table.shape == g.octant.shape
    assert np.array_equal(phi.table.view(np.uint64), want[g.octant.index].view(np.uint64))
    values = phi.values
    assert phi.table is None and values.flags.c_contiguous
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "extents, points", [((15.0, 15.0, 30.0), (32, 32, 32)), ((10.0, 12.0, 14.0), (16, 8, 24))]
)
def test_unstable_data_boundary_guards_fire_at_the_same_eps(extents, points):
    # the relative boundary amplitude, read from the full lattice's
    # boundary planes, decides the warning (above 1e-10) and the error
    # (above 1e-4) at every eps
    g = make_grid(3, extents, points)
    for eps in np.geomspace(0.2, 1.2, 41):
        field = mesh_product(full_unstable_factors(g, eps))
        edge = max(
            float(np.max(np.take(field, index, axis=axis)))
            for axis in range(3)
            for index in (0, -1)
        )
        rel = edge / float(np.max(field))
        if rel > 1e-4:
            with pytest.raises(ValueError, match="boundary amplitude"):
                make_unstable_data(g, eps, -3.0)
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_unstable_data(g, eps, -3.0)
        assert [str(w.message).startswith("boundary amplitude") for w in caught] == (
            [True] if rel > 1e-10 else []
        ), eps


def test_unstable_data_validation():
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    with pytest.raises(ValueError):
        make_unstable_data(g, 0.0, -3.0)
    with pytest.raises(ValueError):
        make_unstable_data(g, 0.1, -2.0)
    with pytest.raises(ValueError):
        make_unstable_data(g, 0.1, -3.0, f_width=0.0)
    g2 = make_grid(2, [12.0, 12.0], [32, 32])
    with pytest.raises(ValueError):
        make_unstable_data(g2, 0.1, -3.0)


def test_unstable_data_box_support_guards():
    # axial support ~ g_width / eps escapes a short box entirely
    tight = make_grid(3, [15.0, 15.0, 40.0], [32, 32, 32])
    with pytest.raises(ValueError, match="boundary amplitude"):
        make_unstable_data(tight, 0.05, -3.0)
    # a marginal box warns but still returns the field
    marginal = make_grid(3, [12.0, 12.0, 280.0], [32, 32, 128])
    with pytest.warns(RuntimeWarning, match="boundary amplitude"):
        phi = make_unstable_data(marginal, 0.05, -3.0)
    assert mass(phi) > 0.0


def test_unstable_energy_ledger_slopes():
    g = make_grid(3, [15.0, 15.0, 280.0], [32, 32, 128])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    sym = build_symbol(g, Analytic3D())
    rows, slopes = unstable_energy_ledger(g, p, sym, [0.2, 0.1, 0.05], -3.0)
    assert len(rows) == 3
    assert all(r["total"] < 0.0 for r in rows)
    assert abs(slopes["kinetic"] - (-4.0)) <= 0.3
    assert abs(slopes["potential"] - (-6.0)) <= 0.3
    assert abs(slopes["interaction"] - (-7.0)) <= 0.3
    with pytest.raises(ValueError):
        unstable_energy_ledger(g, p, sym, [0.1], -3.0)


def test_the_ledger_reads_each_squeezed_field_where_it_is_held(monkeypatch):
    # every row is the energy of its field, held on the octant from set-up
    # to the last read, and equals the energy of the whole field
    g = make_grid(3, [16.0, 16.0, 60.0], [16, 16, 32])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.5, 1.0)
    sym = build_symbol(g, Analytic3D())
    made = []

    def keep(*args):
        made.append(make_unstable_data(*args))
        return made[-1]

    monkeypatch.setattr(regimes, "make_unstable_data", keep)
    rows, _ = unstable_energy_ledger(g, p, sym, [0.5, 0.35], -3.0)
    assert [f.table is not None and f.table.shape == g.octant.shape for f in made] == [True] * 2
    for row, field in zip(rows, made):
        e = energy(WaveField(field.values, g), p, sym)
        want = {"kinetic": e.kinetic, "potential": e.potential,
                "interaction": e.cubic + e.dipolar, "total": e.total}
        for key, b in want.items():
            assert abs(row[key] - b) <= 1e-12 * abs(b), (key, row[key], b)


@pytest.mark.parametrize("epsilons", [[0.5, 0.5], [0.2, 0.1, 0.2]])
def test_ledger_refuses_a_repeated_eps_before_any_field(monkeypatch, epsilons):
    # a repeated eps fits a slope through coinciding log eps
    def refuse(*args):
        raise AssertionError("a field was built before the eps values were checked")

    monkeypatch.setattr(regimes, "make_unstable_data", refuse)
    g = make_grid(3, [15.0, 15.0, 30.0], [32, 32, 32])
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="eps values must be distinct"):
        unstable_energy_ledger(g, p, None, epsilons, -3.0)


def _stationary_series():
    g = make_grid(3, [12.0] * 3, [32] * 3)
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 0.0)
    f0, _ = linear_eigenstate(g, (1.0, 1.0, 1.0))
    series, _ = evolve(f0, p, dt=1e-2, T=1.6, monitor=MonitorSpec(stride=5))
    return series, p


def test_virial_audit_holds_for_stationary_state():
    series, p = _stationary_series()
    E = series.column("E")[0]
    report = virial_audit(series, p, E)
    assert report.satisfied
    assert report.max_violation <= report.tolerance
    assert report.n_samples >= 5


def test_virial_audit_probe_detects_tightness():
    # shrinking the energy pushes the envelope below the actual variance,
    # so the audit must flag it
    series, p = _stationary_series()
    E = series.column("E")[0]
    report = virial_audit(series, p, 0.5 * E)
    assert not report.satisfied
    assert report.max_violation > 0.1


def _synthetic_series(times, ys):
    s = ObservableSeries()
    for t, y in zip(times, ys):
        s.append(
            ObservableRecord(
                t=float(t), mass=1.0, E=1.0, Ekin=1.0, Epot=0.0,
                Ecubic=0.0, Edip=0.0, y=float(y), ydot=0.0,
                maxpsi=1.0, gradsq=2.0,
            )
        )
    return s


def test_virial_audit_rejects_sparse_sampling():
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 0.0)
    # period is pi for omega_min 1; gaps of 0.75 exceed a fifth of it
    times = np.arange(0.0, 2.26, 0.75)
    series = _synthetic_series(times, np.ones_like(times))
    with pytest.raises(ValueError, match="too coarse"):
        virial_audit(series, p, 1.0)


def test_virial_audit_localizes_violation():
    p = PhysicalParams(3, (1.0, 1.0, 1.0), 0.0, 0.0)
    w = 2.0
    times = np.linspace(0.0, math.pi / w, 25)
    y0, E = 1.0, 1.0
    envelope = y0 * np.cos(w * times) + 6.0 * E * (1.0 - np.cos(w * times)) / w**2
    bump = 0.2 * np.sin(w * times) ** 2
    series = _synthetic_series(times, envelope + bump)
    report = virial_audit(series, p, E)
    assert not report.satisfied
    assert report.max_violation == pytest.approx(0.2, rel=1e-6)
    assert report.t_at_max == pytest.approx(math.pi / (2.0 * w), rel=1e-2)


def test_virial_audit_requires_trap():
    p = PhysicalParams(3, (0.0, 1.0, 1.0), 0.0, 0.0)
    series = _synthetic_series([0.0, 0.1, 0.2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        virial_audit(series, p, 1.0)
