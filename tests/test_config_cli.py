import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import dipgpe
import numpy as np
import pytest

from dipgpe import (
    Analytic3D,
    ConfigError,
    WaveField,
    build_initial_field,
    build_symbol,
    build_symbol_from_config,
    linear_eigenstate,
    make_grid,
    make_unstable_data,
    mass,
    parse_config,
    serialize_config,
    variance_and_rate,
    write_snapshot,
)
from dipgpe import cli, reduction
from dipgpe.cli import run_command
from dipgpe.config import _SCHEMA

from allocations import large_allocations

MINIMAL = """
grid.dim = 2
grid.extents = 12, 12
grid.points = 32, 32
params.omega = 1, 1
params.lambda1 = 1.0
params.lambda2 = 0.0
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.dim == 2
    assert cfg.grid.extents == (12.0, 12.0)
    assert cfg.grid.points == (32, 32)
    assert cfg.params.lambda1 == 1.0
    assert cfg.dt == 1e-3
    assert cfg.T == 1.0
    assert cfg.output_dir == "out"
    assert cfg.init.kind == "ground_state"
    assert cfg.monitor.stride == 10
    assert cfg.kernel.kind == "auto"
    assert cfg.reduction.epsilons == (0.2, 0.141, 0.1)
    assert cfg.ledger.alpha == -3.0


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL + "\ndt = 2e-3  # trailing comment\n"
    cfg = parse_config(text)
    assert cfg.dt == 2e-3


def test_type_error_carries_line_number():
    text = MINIMAL + "monitor.stride = soon\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("line 8" in e and "monitor.stride" in e for e in err.value.errors)


def test_duplicate_key_reports_both_lines():
    text = MINIMAL + "dt = 1e-3\ndt = 2e-3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = "\n".join(err.value.errors)
    assert "duplicate key 'dt'" in msg
    assert "line 9" in msg and "line 8" in msg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'grid.species'"):
        parse_config(MINIMAL + "grid.species = boson\n")


def test_missing_required_key():
    text = MINIMAL.replace("params.lambda2 = 0.0", "")
    with pytest.raises(ConfigError, match="missing required key 'params.lambda2'"):
        parse_config(text)


def test_all_errors_collected_in_one_pass():
    text = MINIMAL.replace("params.lambda2 = 0.0\n", "") + "\n".join(
        [
            "dt = fast",
            "grid.species = boson",
            "reduction.target = radial",
            "params.lambda1 = 2.0",
            "grid.dim = 3",
        ]
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [
        "line 7: key 'dt': could not convert string to float: 'fast'",
        "line 8: unknown key 'grid.species'",
        "line 9: key 'reduction.target': expected one of 1d, 2d; got 'radial'",
        "line 10: duplicate key 'params.lambda1' (first set on line 6)",
        "line 11: duplicate key 'grid.dim' (first set on line 2)",
        "missing required key 'params.lambda2'",
    ]


def test_bad_monitor_reported_under_its_section_before_validation():
    text = MINIMAL + "monitor.stride = 0\ndt = -1e-3\nledger.alpha = -1.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [
        "monitor: stride must be a positive integer",
        "dt must be positive, got -0.001",
        "ledger.alpha must be below -2",
    ]


def test_bad_monitor_threshold_exits_1(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "monitor.grad_factor = -1\n")
    assert err.value.errors == ["monitor: grad_factor must be positive, got -1.0"]
    path = _write(tmp_path, "monitor.cfg", MINIMAL + "monitor.grad_factor = -1\n")
    assert run_command(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "monitor: grad_factor must be positive" in err
    assert not (tmp_path / "o").exists()


def test_semantic_validation():
    with pytest.raises(ConfigError, match="dt must be positive"):
        parse_config(MINIMAL + "dt = -1e-3\n")
    with pytest.raises(ConfigError, match="params.omega has 2 entries"):
        parse_config(MINIMAL.replace("grid.dim = 2", "grid.dim = 3")
                     .replace("grid.extents = 12, 12", "grid.extents = 12, 12, 12")
                     .replace("grid.points = 32, 32", "grid.points = 32, 32, 32"))
    with pytest.raises(ConfigError, match="ledger.alpha must be below -2"):
        parse_config(MINIMAL + "ledger.alpha = -1.5\n")
    with pytest.raises(ConfigError, match="init.widths must be positive"):
        parse_config(MINIMAL + "init.widths = 1.0, -0.5\n")
    with pytest.raises(ConfigError, match="takes 1 or 2 entries"):
        parse_config(MINIMAL + "kernel.transverse_omega = 1, 1, 1\n")
    with pytest.raises(ConfigError, match="reduction.samples"):
        parse_config(MINIMAL + "reduction.samples = 0\n")


def test_serialize_parse_round_trip():
    text = MINIMAL + "\n".join(
        [
            "dt = 5e-4",
            "T = 2.5",
            "init.kind = gaussian",
            "init.widths = 1.3, 0.7",
            "init.beta = 0.25",
            "monitor.stride = 4",
            "monitor.grad_threshold = 50.0",
            "kernel.kind = effective2d",
            "kernel.transverse_omega = 1.4",
            "reduction.epsilons = 0.2, 0.1",
            "ledger.f_width = 0.8",
            "output.dir = runs/a",
        ]
    )
    cfg = parse_config(text)
    canon = serialize_config(cfg)
    assert parse_config(canon) == cfg
    assert serialize_config(parse_config(canon)) == canon


def test_canonical_text_is_frozen():
    # the round-trip config above; key order and number format are provenance
    text = MINIMAL + "\n".join(
        [
            "dt = 5e-4",
            "T = 2.5",
            "init.kind = gaussian",
            "init.widths = 1.3, 0.7",
            "init.beta = 0.25",
            "monitor.stride = 4",
            "monitor.grad_threshold = 50.0",
            "kernel.kind = effective2d",
            "kernel.transverse_omega = 1.4",
            "reduction.epsilons = 0.2, 0.1",
            "ledger.f_width = 0.8",
            "output.dir = runs/a",
        ]
    )
    assert serialize_config(parse_config(text)) == (
        "grid.dim = 2\n"
        "grid.extents = 12,12\n"
        "grid.points = 32,32\n"
        "params.omega = 1,1\n"
        "params.lambda1 = 1\n"
        "params.lambda2 = 0\n"
        "init.kind = gaussian\n"
        "init.widths = 1.3,0.69999999999999996\n"
        "init.beta = 0.25\n"
        "dt = 0.00050000000000000001\n"
        "T = 2.5\n"
        "output.dir = runs/a\n"
        "monitor.stride = 4\n"
        "monitor.grad_threshold = 50\n"
        "kernel.kind = effective2d\n"
        "kernel.transverse_omega = 1.3999999999999999\n"
        "reduction.epsilons = 0.20000000000000001,0.10000000000000001\n"
        "ledger.f_width = 0.80000000000000004\n"
    )


EVERY_KEY = """
grid.dim = 2
grid.extents = 12, 10
grid.points = 32, 24
params.omega = 1.3, 0.7
params.lambda1 = 2.5
params.lambda2 = 0.25
init.kind = file
init.widths = 1.3, 0.7
init.center = 0.5, -0.25
init.beta = 0.25
init.epsilon = 0.2
init.alpha = -3.5
init.file = seed.gpef
dt = 5e-4
T = 2.5
output.dir = runs/a
monitor.stride = 4
monitor.grad_factor = 100
monitor.grad_threshold = 50
monitor.spectral_tail = 1e-4
kernel.kind = effective2d
kernel.transverse_omega = 1.4
reduction.target = 2d
reduction.epsilons = 0.2, 0.1
reduction.T = 0.5
reduction.samples = 3
reduction.u0_kind = gaussian
reduction.u0_width = 0.9
ledger.epsilons = 0.3, 0.1
ledger.alpha = -2.5
ledger.f_width = 0.8
ledger.g_width = 1.2
"""


def test_every_key_set_off_default_round_trips():
    cfg = parse_config(EVERY_KEY)
    canon = serialize_config(cfg)
    keys = [line.split(" = ")[0] for line in canon.splitlines()]
    # every key is written, so none of the values equals its default
    assert keys == [key for key, _, _, _ in _SCHEMA] and len(keys) == 32
    again = parse_config(canon)
    assert again == cfg
    assert serialize_config(again) == canon


def test_every_config_key_is_documented_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [key for key, _, _, _ in _SCHEMA if f"`{key}`" not in readme]
    assert missing == []


def test_serialize_omits_defaults():
    canon = serialize_config(parse_config(MINIMAL))
    assert "dt" not in canon
    assert "monitor.stride" not in canon
    assert canon.startswith("grid.dim = 2\n")


def test_a_parsed_config_builds_its_lattice_once(monkeypatch):
    # _validate builds the lattice to check it, and build() hands out that
    # same instance: grids are immutable and shared
    full = []
    init = dipgpe.SpectralGrid.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not self.even:
            full.append(self)

    monkeypatch.setattr(dipgpe.SpectralGrid, "__init__", counted)
    cfg = parse_config(MINIMAL)
    grid = cfg.grid.build()
    assert len(full) == 1 and full[0] is grid
    assert cfg.grid.build() is grid
    assert (grid.shape, grid.extents) == ((32, 32), (12.0, 12.0))
    assert parse_config(serialize_config(cfg)) == cfg


def test_initial_field_ground_state():
    cfg = parse_config(MINIMAL)
    grid = cfg.grid.build()
    field = build_initial_field(cfg, grid)
    expected, _ = linear_eigenstate(grid, cfg.params.omega)
    assert np.max(np.abs(field.values - expected.values)) < 1e-14


def test_initial_field_gaussian_width_center_beta():
    text = MINIMAL + "init.kind = gaussian\ninit.widths = 0.8\ninit.center = 1.0, 0.0\ninit.beta = 0.3\n"
    cfg = parse_config(text)
    grid = cfg.grid.build()
    field = build_initial_field(cfg, grid)
    assert mass(field) == pytest.approx(1.0, rel=1e-12)
    x1 = grid.coord_mesh[0]
    density = np.abs(field.values) ** 2
    mean_x1 = float(np.sum(x1 * density)) * grid.cell_volume
    assert mean_x1 == pytest.approx(1.0, abs=1e-8)
    # a quadratic phase with rate beta makes the variance grow at 2 beta y
    centered = parse_config(
        MINIMAL + "init.kind = gaussian\ninit.widths = 0.8\ninit.beta = 0.3\n"
    )
    y, ydot = variance_and_rate(build_initial_field(centered, grid))
    assert ydot == pytest.approx(2.0 * 0.3 * y, rel=1e-10)


def _gaussian_accumulated(grid, widths, center, beta):
    # the former construction: complex passes from np.ones; the chirp
    # accumulates its per-axis factors the same way
    values = np.ones(grid.shape, dtype=complex)
    chirp = np.ones(grid.shape, dtype=complex)
    for width, c0, coord in zip(widths, center, grid.coord_mesh):
        values = values * np.exp(-((coord - c0) ** 2) / (2.0 * width * width))
        chirp = chirp * np.exp(0.5j * beta * (coord - c0) ** 2)
    norm_sq = float(np.sum(values.real**2 + values.imag**2)) * grid.cell_volume
    values /= math.sqrt(norm_sq)
    if beta != 0.0:
        values = values * chirp
    return values


@pytest.mark.parametrize(
    "extra, widths, center, beta",
    [
        ("", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 0.0),
        (
            "init.widths = 0.9, 1.1, 1.05\ninit.center = 0.3, -0.2, 0.1\ninit.beta = 0.13\n",
            (0.9, 1.1, 1.05),
            (0.3, -0.2, 0.1),
            0.13,
        ),
    ],
)
def test_initial_gaussian_is_the_accumulated_product_bit_for_bit(extra, widths, center, beta):
    cfg = parse_config(
        "grid.dim = 3\ngrid.extents = 16, 16, 16\ngrid.points = 48, 48, 48\n"
        "params.omega = 1, 1, 1\nparams.lambda1 = 1\nparams.lambda2 = 0.3\n"
        "init.kind = gaussian\n" + extra
    )
    grid = cfg.grid.build()
    field = build_initial_field(cfg, grid)
    expected = _gaussian_accumulated(grid, widths, center, beta)
    assert field.values.dtype == complex and field.values.flags.c_contiguous
    assert np.array_equal(field.values.view(np.uint64), expected.view(np.uint64))


def _ground_state_accumulated(grid, omega):
    # the former construction of linear_eigenstate's data, on the full lattice
    values = np.ones(grid.shape, dtype=complex)
    for w, coord in zip(omega, grid.coord_mesh):
        values = values * ((w / math.pi) ** 0.25 * np.exp(-0.5 * w * coord * coord))
    values /= math.sqrt(float(np.sum(values.real**2 + values.imag**2)) * grid.cell_volume)
    return values


@pytest.mark.parametrize(
    "extra, expected",
    [
        ("init.kind = ground_state\n", lambda g: _ground_state_accumulated(g, (1.0, 1.0, 1.0))),
        (
            "init.kind = gaussian\ninit.widths = 0.9, 1.1, 1.05\ninit.beta = 0.13\n",
            lambda g: _gaussian_accumulated(g, (0.9, 1.1, 1.05), (0.0, 0.0, 0.0), 0.13),
        ),
    ],
    ids=["ground_state", "chirped_gaussian"],
)
def test_centred_initial_data_is_held_and_forms_no_full_lattice(extra, expected):
    cfg = parse_config(
        "grid.dim = 3\ngrid.extents = 16, 16, 16\ngrid.points = 48, 48, 48\n"
        "params.omega = 1, 1, 1\nparams.lambda1 = 1\nparams.lambda2 = 0.3\n" + extra
    )
    grid = cfg.grid.build()
    field, found = large_allocations(lambda: build_initial_field(cfg, grid), 8 * grid.size)
    assert found == []
    assert field.table is not None and field.table.shape == grid.octant.shape
    # mirrored on this first read: today's full-lattice product, bit for bit
    assert np.array_equal(field.values.view(np.uint64), expected(grid).view(np.uint64))


@pytest.mark.parametrize("beta", [0.13, -0.4, 1.0])
def test_initial_chirp_matches_the_full_lattice_exp(beta):
    text = (
        "grid.dim = 3\ngrid.extents = 16, 16, 16\ngrid.points = 48, 48, 48\n"
        "params.omega = 1, 1, 1\nparams.lambda1 = 1\nparams.lambda2 = 0.3\n"
        "init.kind = gaussian\ninit.widths = 0.9, 1.1, 1.05\ninit.center = 0.3, -0.2, 0.1\n"
    )
    grid = parse_config(text).grid.build()
    field = build_initial_field(parse_config(text + f"init.beta = {beta}\n"), grid)
    real = build_initial_field(parse_config(text), grid).values
    shifted_sq = sum((x - c) ** 2 for x, c in zip(grid.coord_mesh, (0.3, -0.2, 0.1)))
    full = real * np.exp(0.5j * beta * shifted_sq)
    assert np.max(np.abs(field.values - full)) <= 1e-14 * np.max(np.abs(full))


def test_an_off_centre_chirp_is_not_held_along_an_axis_its_gaussian_is_even_on():
    # a width of 1e9 makes axis 0's Gaussian factor 1.0 everywhere, mirror
    # even bit for bit, while the chirp about x = 1 is not even along it
    text = (
        "grid.dim = 3\ngrid.extents = 16, 16, 16\ngrid.points = 48, 48, 48\n"
        "params.omega = 1, 1, 1\nparams.lambda1 = 1\nparams.lambda2 = 0.3\n"
        "init.kind = gaussian\ninit.widths = 1e9, 1, 1\ninit.center = 1, 0, 0\n"
    )
    grid = parse_config(text).grid.build()
    real = build_initial_field(parse_config(text), grid)
    field = build_initial_field(parse_config(text + "init.beta = 0.5\n"), grid)
    assert real.held()[1].even == (0, 1, 2) and field.held()[1].even == (1, 2)
    shifted_sq = sum((x - c) ** 2 for x, c in zip(grid.coord_mesh, (1.0, 0.0, 0.0)))
    full = real.values * np.exp(0.25j * shifted_sq)
    assert np.max(np.abs(field.values - full)) <= 1e-14 * np.max(np.abs(full))


def test_initial_field_gaussian_bad_lengths():
    cfg = parse_config(MINIMAL + "init.kind = gaussian\ninit.widths = 1, 1, 1\n")
    grid = cfg.grid.build()
    with pytest.raises(ConfigError, match="init.widths"):
        build_initial_field(cfg, grid)
    cfg = parse_config(MINIMAL + "init.kind = gaussian\ninit.center = 1.0\n")
    with pytest.raises(ConfigError, match="init.center"):
        build_initial_field(cfg, grid)


def test_initial_field_unstable_matches_direct_call():
    text = """
grid.dim = 3
grid.extents = 15, 15, 80
grid.points = 32, 32, 32
params.omega = 1, 1, 1
params.lambda1 = 0.0
params.lambda2 = 1.0
init.kind = unstable
init.epsilon = 0.2
init.alpha = -3.0
init.widths = 1.0, 1.0
"""
    cfg = parse_config(text)
    grid = cfg.grid.build()
    field = build_initial_field(cfg, grid)
    direct = make_unstable_data(grid, 0.2, -3.0, 1.0, 1.0)
    assert np.array_equal(field.values, direct.values)


def test_initial_field_from_snapshot(tmp_path):
    cfg = parse_config(MINIMAL)
    grid = cfg.grid.build()
    original, _ = linear_eigenstate(grid, (1.0, 1.0))
    path = tmp_path / "seed.gpef"
    write_snapshot(original, path)
    loaded_cfg = parse_config(MINIMAL + f"init.kind = file\ninit.file = {path}\n")
    field = build_initial_field(loaded_cfg, grid)
    assert np.array_equal(field.values, original.values)


def test_symbol_from_config_auto():
    cfg = parse_config(MINIMAL)
    assert build_symbol_from_config(cfg, cfg.grid.build()) is None
    text3 = """
grid.dim = 3
grid.extents = 12, 12, 12
grid.points = 16, 16, 16
params.omega = 1, 1, 1
params.lambda1 = 1.0
params.lambda2 = 0.3
"""
    cfg3 = parse_config(text3)
    grid3 = cfg3.grid.build()
    sym = build_symbol_from_config(cfg3, grid3)
    direct = build_symbol(grid3, Analytic3D())
    assert np.array_equal(sym.values, direct.values)
    off = parse_config(text3 + "kernel.kind = none\n")
    assert build_symbol_from_config(off, grid3) is None


def test_symbol_from_config_effective_kinds():
    base = """
grid.dim = 1
grid.extents = 16
grid.points = 32
params.omega = 1
params.lambda1 = 0.1
params.lambda2 = 1.0
kernel.kind = effective1d
"""
    cfg = parse_config(base + "kernel.transverse_omega = 1, 1\n")
    grid = cfg.grid.build()
    sym = build_symbol_from_config(cfg, grid)
    assert sym.values[0] == pytest.approx(-4.0 / 3.0, abs=1e-8)
    with pytest.raises(ConfigError, match="transverse_omega"):
        build_symbol_from_config(parse_config(base), grid)
    base2 = base.replace("effective1d", "effective2d").replace(
        "grid.dim = 1", "grid.dim = 2"
    ).replace("grid.extents = 16", "grid.extents = 16, 16").replace(
        "grid.points = 32", "grid.points = 16, 16"
    ).replace("params.omega = 1", "params.omega = 1, 1")
    cfg2 = parse_config(base2 + "kernel.transverse_omega = 1.3\n")
    grid2 = cfg2.grid.build()
    sym2 = build_symbol_from_config(cfg2, grid2)
    assert sym2.values[0, 0] == pytest.approx(
        (8.0 / 3.0) * math.sqrt(math.pi * 1.3), abs=1e-8
    )


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_classify_stable(tmp_path, capsys):
    path = _write(
        tmp_path,
        "stable.cfg",
        """
grid.dim = 3
grid.extents = 12, 12, 12
grid.points = 16, 16, 16
params.omega = 1, 1, 1
params.lambda1 = 1.0
params.lambda2 = 0.0
""",
    )
    cert = tmp_path / "cert.txt"
    code = run_command(["classify", "--config", path, "--out", str(cert)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "verdict = GlobalStable"
    assert cert.read_text() == out


@pytest.mark.parametrize("gn", ["nan", "inf", "-1"])
def test_cli_classify_rejects_gn_constant_not_finite_and_positive(tmp_path, capsys, gn):
    path = _write(
        tmp_path,
        "dipolar.cfg",
        """
grid.dim = 3
grid.extents = 8, 8, 8
grid.points = 16, 16, 16
params.omega = 1, 1, 1
params.lambda1 = 1.0
params.lambda2 = 0.3
""",
    )
    assert run_command(["classify", "--config", path, "--gn-constant", gn]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gn_constant must be finite and positive")


def test_cli_classify_blowup(tmp_path, capsys):
    path = _write(
        tmp_path,
        "squeezed.cfg",
        """
grid.dim = 3
grid.extents = 15, 15, 280
grid.points = 32, 32, 128
params.omega = 1, 1, 1
params.lambda1 = 0.0
params.lambda2 = 1.0
init.kind = unstable
init.epsilon = 0.1
init.alpha = -3.0
""",
    )
    code = run_command(["classify", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict = BlowupCertified"
    assert lines[1].startswith("t_bound = 1.57079632679")


def test_cli_classify_refuses_a_snapshot_holding_a_nan(tmp_path, capsys):
    grid = make_grid(3, (18.0, 18.0, 36.0), (16, 16, 16))
    field = make_unstable_data(grid, 0.5, -3.0)
    field.values[3, 4, 5] = np.nan
    seed_path = tmp_path / "nan.gpef"
    write_snapshot(field, seed_path)
    path = _write(
        tmp_path,
        "nan.cfg",
        f"""
grid.dim = 3
grid.extents = 18, 18, 36
grid.points = 16, 16, 16
params.omega = 1, 1, 1
params.lambda1 = 0.0
params.lambda2 = 1.0
init.kind = file
init.file = {seed_path}
""",
    )
    assert run_command(["classify", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    path = _write(
        tmp_path,
        "run.cfg",
        MINIMAL + "dt = 1e-3\nT = 0.05\n",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_command(["simulate", "--config", path, "--out", str(out_a)]) == 0
    assert run_command(["simulate", "--config", path, "--out", str(out_b)]) == 0
    stdout = capsys.readouterr().out
    assert "reached T = 0.05" in stdout
    for out_dir in (out_a, out_b):
        assert (out_dir / "initial.gpef").exists()
        assert (out_dir / "series.csv").exists()
        assert (out_dir / "final.gpef").exists()
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
    assert (out_a / "final.gpef").read_bytes() == (out_b / "final.gpef").read_bytes()
    header = (out_a / "series.csv").read_text().splitlines()[0]
    assert header == "t,mass,E,Ekin,Epot,Ecubic,Edip,y,ydot,maxpsi,gradsq"


def test_cli_simulate_reports_collapse(tmp_path, capsys):
    grid = make_grid(2, [12.0, 12.0], [64, 64])
    values = np.exp(-(grid.coord_mesh[0] ** 2 + grid.coord_mesh[1] ** 2) / 2.0)
    norm = math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)
    seed = WaveField(2.0 * values / norm, grid)
    seed_path = tmp_path / "seed.gpef"
    write_snapshot(seed, seed_path)
    path = _write(
        tmp_path,
        "collapse.cfg",
        f"""
grid.dim = 2
grid.extents = 12, 12
grid.points = 64, 64
params.omega = 1, 1
params.lambda1 = -8.0
params.lambda2 = 0.0
init.kind = file
init.file = {seed_path}
dt = 5e-4
T = 3.0
monitor.stride = 5
""",
    )
    out_dir = tmp_path / "run"
    code = run_command(["simulate", "--config", path, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "collapse" in stdout
    assert (out_dir / "collapse.gpef").exists()
    assert not (out_dir / "final.gpef").exists()


def test_cli_simulate_of_criterion_6_writes_frozen_outputs(tmp_path, capsys):
    # criterion 6's collapse at 96^3: the initial field is octant-held from
    # make_unstable_data, the run stays on the octant and the collapse
    # field comes back octant-held, and every output keeps the bytes it
    # had when the whole run held full lattices
    path = _write(
        tmp_path,
        "collapse96.cfg",
        """
grid.dim = 3
grid.extents = 15.0,15.0,30.0
grid.points = 96,96,96
params.omega = 1.0,1.0,1.0
params.lambda1 = 0.0
params.lambda2 = 1.0
init.kind = unstable
init.epsilon = 0.5
init.alpha = -3.0
dt = 0.001
T = 1.6
monitor.stride = 5
""",
    )
    out_dir = tmp_path / "run"
    code = run_command(["simulate", "--config", path, "--out", str(out_dir)])
    assert code == 0
    assert "at t = 0.105 (step 105, spectral-tail" in capsys.readouterr().out
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("series.csv", "initial.gpef", "collapse.gpef")
    }
    assert digests == {
        "series.csv": "449f4167934df7b9e7896bbe817a18c162f62a5fe5bac987d0359e844507ac82",
        "initial.gpef": "abc00fa91629c29460efddbaec5702a35ee891908759534190d5111d0fe09fc6",
        "collapse.gpef": "880a284345408200e7c4bd7bad5f827f495432fcdac26b819a473da7c4cf77fa",
    }


def test_cli_kernel_dim3_csv(tmp_path):
    out = tmp_path / "k3.csv"
    code = run_command(
        ["kernel", "--dim", "3", "--points", "8", "--extent", "16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "xi1,xi2,xi3,value"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (512, 4)
    on_origin = data[(data[:, 0] == 0) & (data[:, 1] == 0) & (data[:, 2] == 0)]
    assert on_origin[0, 3] == 0.0
    axis3 = data[(data[:, 0] == 0) & (data[:, 1] == 0) & (data[:, 2] != 0)]
    assert np.allclose(axis3[:, 3], 8.0 * math.pi / 3.0, atol=1e-12)
    axis1 = data[(data[:, 1] == 0) & (data[:, 2] == 0) & (data[:, 0] != 0)]
    assert np.allclose(axis1[:, 3], -4.0 * math.pi / 3.0, atol=1e-12)


def test_cli_kernel_dim1_flag_mode(tmp_path, capsys):
    code = run_command(
        ["kernel", "--dim", "1", "--points", "16", "--extent", "16", "--omega", "1,1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "xi3,value"
    data = np.loadtxt(lines[1:], delimiter=",")
    at_zero = data[data[:, 0] == 0.0]
    assert at_zero[0, 1] == pytest.approx(-4.0 / 3.0, abs=1e-6)
    assert run_command(["kernel", "--dim", "1", "--omega", "1"]) == 1


@pytest.mark.parametrize("dim, default, wrong", [(1, "1,1", "1,1,2"), (2, "1", "1.4,2")])
def test_cli_kernel_flag_omega_count_and_default(capsys, dim, default, wrong):
    flags = ["kernel", "--dim", str(dim), "--points", "8"]
    assert run_command(flags + ["--omega", wrong]) == 1
    assert capsys.readouterr().err.startswith("error: --omega needs")
    assert run_command(flags) == 0
    omitted = capsys.readouterr().out
    assert run_command(flags + ["--omega", default]) == 0
    assert capsys.readouterr().out == omitted


def test_every_subcommand_runs_its_handler_and_is_in_the_readme_synopsis(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (commands,) = [
        a.choices for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    ran = []
    for name, sub in commands.items():
        handler = "_cmd_" + name.replace("-", "_")
        monkeypatch.setattr(cli, handler, lambda args, handler=handler: ran.append(handler) or 0)
        required = [s for a in sub._actions if a.required for s in (a.option_strings[0], "x")]
        assert run_command([name, *required]) == 0
        assert ran.pop() == handler
        assert re.search(rf"^    dipgpe {re.escape(name)}( |$)", readme, re.M), name


def test_cli_reduce_sweep(tmp_path, capsys):
    path = _write(
        tmp_path,
        "reduce.cfg",
        """
grid.dim = 3
grid.extents = 8, 8, 10
grid.points = 24, 24, 24
params.omega = 1, 1, 1
params.lambda1 = 0.5
params.lambda2 = 0.0
dt = 2e-3
reduction.epsilons = 0.2, 0.141
reduction.T = 0.25
reduction.samples = 2
""",
    )
    out_dir = tmp_path / "sweep"
    code = run_command(["reduce", "--config", path, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "fitted error slope" in stdout
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,T,sup_err,slope_partner,excitation_sq"
    assert len(lines) == 3


def test_cli_reduce_sweep_2d(tmp_path, capsys):
    path = _write(
        tmp_path,
        "reduce2d.cfg",
        """
grid.dim = 3
grid.extents = 10, 10, 8
grid.points = 24, 24, 24
params.omega = 1, 1, 1
params.lambda1 = 0.5
params.lambda2 = 0.0
dt = 2e-3
reduction.target = 2d
reduction.epsilons = 0.2
reduction.T = 0.25
reduction.samples = 2
reduction.u0_kind = gaussian
""",
    )
    out_dir = tmp_path / "sweep2d"
    code = run_command(["reduce", "--config", path, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "sup_err" in stdout
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,T,sup_err,slope_partner,excitation_sq"
    assert len(lines) == 2


def test_cli_reduce_refuses_unstable_couplings_before_any_run(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was built before the precondition check")

    monkeypatch.setattr(reduction, "build_symbol", refuse)
    path = _write(
        tmp_path,
        "unstable.cfg",
        """
grid.dim = 3
grid.extents = 8, 8, 10
grid.points = 24, 24, 24
params.omega = 1, 1, 1
params.lambda1 = 0.5
params.lambda2 = 0.3
dt = 2e-3
reduction.epsilons = 0.2, 0.141
reduction.T = 0.25
reduction.samples = 2
""",
    )
    code = run_command(["reduce", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "reduction study outside the stable regime" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_reduce_refuses_a_repeated_eps_before_any_run(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was built before the config was checked")

    monkeypatch.setattr(reduction, "build_symbol", refuse)
    path = _write(
        tmp_path,
        "repeated.cfg",
        """
grid.dim = 3
grid.extents = 8, 8, 10
grid.points = 24, 24, 24
params.omega = 1, 1, 1
params.lambda1 = 2.0
params.lambda2 = 0.3
dt = 2e-3
reduction.epsilons = 0.2, 0.2
reduction.T = 0.05
reduction.samples = 2
""",
    )
    code = run_command(["reduce", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "reduction.epsilons must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:spectral tail fraction:RuntimeWarning")
def test_cli_reduce_exits_2_when_a_run_trips_the_monitor(tmp_path, capsys):
    # u0 far narrower than the axial step trips the monitor at its first sample
    path = _write(
        tmp_path,
        "narrow.cfg",
        """
grid.dim = 3
grid.extents = 8, 8, 10
grid.points = 24, 24, 24
params.omega = 1, 1, 1
params.lambda1 = 0.5
params.lambda2 = 0.0
dt = 2e-3
reduction.epsilons = 0.2
reduction.T = 0.25
reduction.samples = 2
reduction.u0_kind = gaussian
reduction.u0_width = 0.1
""",
    )
    code = run_command(["reduce", "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: reduced run tripped the collapse monitor: ")
    assert "Traceback" not in err


def test_cli_unstable_data_ledger(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ledger.cfg",
        """
grid.dim = 3
grid.extents = 15, 15, 280
grid.points = 32, 32, 128
params.omega = 1, 1, 1
params.lambda1 = 0.0
params.lambda2 = 1.0
""",
    )
    out_dir = tmp_path / "ledger"
    code = run_command(["unstable-data", "--config", path, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "kinetic slope = " in stdout
    assert "interaction slope = " in stdout
    lines = (out_dir / "ledger.csv").read_text().splitlines()
    assert lines[0] == "epsilon,kinetic,potential,interaction,total"
    assert len(lines) == 4


def test_cli_unstable_data_refuses_a_repeated_eps(tmp_path, capsys):
    path = _write(
        tmp_path,
        "repeated.cfg",
        """
grid.dim = 3
grid.extents = 15, 15, 30
grid.points = 32, 32, 32
params.omega = 1, 1, 1
params.lambda1 = 0.0
params.lambda2 = 1.0
ledger.epsilons = 0.5, 0.5
""",
    )
    out_dir = tmp_path / "ledger"
    code = run_command(["unstable-data", "--config", path, "--out", str(out_dir)])
    assert code == 1
    assert "ledger.epsilons must be distinct" in capsys.readouterr().err
    assert not (out_dir / "ledger.csv").exists()


def test_cli_selftest(capsys):
    code = run_command(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all selftest checks passed" in out
    assert "FAIL" not in out


def test_cli_error_paths(tmp_path, capsys):
    assert run_command(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = _write(tmp_path, "bad.cfg", MINIMAL + "grid.species = boson\n")
    assert run_command(["simulate", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err
    no_kernel = _write(tmp_path, "nok.cfg", MINIMAL)
    assert run_command(["kernel", "--config", no_kernel]) == 1
    not3d = _write(tmp_path, "flat.cfg", MINIMAL)
    assert run_command(["reduce", "--config", not3d]) == 1
    assert run_command(["bogus"]) == 1


def test_cli_init_file_naming_a_directory_exits_1(tmp_path, capsys):
    path = _write(
        tmp_path, "dir.cfg", MINIMAL + f"init.kind = file\ninit.file = {tmp_path}\n"
    )
    assert run_command(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_simulate_refuses_a_snapshot_with_a_non_finite_time(tmp_path, capsys):
    seed, _ = linear_eigenstate(make_grid(2, [12.0, 12.0], [32, 32]), (1.0, 1.0))
    seed_path = tmp_path / "seed.gpef"
    write_snapshot(seed, seed_path)
    header, payload = seed_path.read_bytes().split(b"\n", 1)
    seed_path.write_bytes(header.rsplit(b" ", 1)[0] + b" nan\n" + payload)
    path = _write(tmp_path, "nan.cfg", MINIMAL + f"init.kind = file\ninit.file = {seed_path}\n")
    out_dir = tmp_path / "o"
    assert run_command(["simulate", "--config", path, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "snapshot time must be finite" in err
    assert not (out_dir / "series.csv").exists()


def test_cli_out_naming_an_existing_file_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "run.cfg", MINIMAL + "T = 0.01\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run_command(["simulate", "--config", path, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "extra",
    [
        "T = 1e308\n",
        "dt = 1e-320\n",
        "grid.extents = 1e-300, 1e-300\n",
        "dt = inf\n",
        "params.lambda1 = inf\n",
        "init.kind = gaussian\ninit.center = inf, 0\n",
    ],
    ids=["huge-T", "tiny-dt", "tiny-extents", "inf-dt", "inf-lambda1", "inf-center"],
)
def test_cli_overflowing_input_exits_1(tmp_path, capsys, extra):
    # a key set in extra replaces its line of MINIMAL
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    text = "".join(
        line + "\n" for line in MINIMAL.splitlines() if line.partition("=")[0].strip() not in keys
    )
    path = _write(tmp_path, "big.cfg", text + extra)
    with pytest.raises(ConfigError):
        parse_config(text + extra)
    assert run_command(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_reduction_step_count_must_be_finite():
    with pytest.raises(ConfigError, match="reduction.T / dt"):
        parse_config(MINIMAL + "reduction.T = 1e308\n")


def test_python_m_dipgpe_runs_the_cli():
    src = str(Path(dipgpe.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "dipgpe", "selftest"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "all selftest checks passed"
