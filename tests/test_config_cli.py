import math

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
from dipgpe.cli import run_command

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
    text = MINIMAL + "\n".join(
        [
            "dt = fast",
            "grid.species = boson",
            "reduction.target = radial",
            "params.lambda1 = 2.0",
        ]
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.errors) == 4


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


def test_serialize_omits_defaults():
    canon = serialize_config(parse_config(MINIMAL))
    assert "dt" not in canon
    assert "monitor.stride" not in canon
    assert canon.startswith("grid.dim = 2\n")


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


def test_cli_out_naming_an_existing_file_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "run.cfg", MINIMAL + "T = 0.01\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run_command(["simulate", "--config", path, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"
