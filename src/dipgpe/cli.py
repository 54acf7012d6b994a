"""Command-line surface tying the solver modules into reproducible runs.

_build_parser defines each subcommand and binds it to its handler.
All but selftest take a config file in the flat key = value format
(see the config module); kernel can also run from bare flags for
quick tabulation.  Exit codes: 0 success (a monitored collapse is a
successful outcome, reported as such), 1 validation problem, 2
numerical failure.

All numeric output is written with 17 significant digits and every code
path is deterministic, so identical configs give bit-identical outputs
on a given platform.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    _floats,
    build_initial_field,
    build_symbol_from_config,
    parse_config,
)
from .grid import make_grid
from .kernel import (
    Analytic3D,
    Effective1D,
    Effective2D,
    bessel_radial_check,
    build_symbol,
    symbol3d,
)
from .propagator import (
    CollapseReport,
    evolve,
    linear_eigenstate,
    strang_step,
    write_snapshot,
)
from .reduction import (
    TIGHT_AXES,
    ReductionSetup,
    epsilon_sweep,
    fitted_slope,
    slow_grid,
    sweep_to_csv,
)
from .regimes import (
    bootstrap_check,
    certificate_text,
    classify,
    unstable_energy_ledger,
)
from .state import PhysicalParams, csv_table, mass, gradient_norm_sq


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit-code policy in run_command
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dipgpe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evolve a configured run, write series and snapshots")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--config", required=True, help="path to a run config")
    p.add_argument("--out", default=None, help="output directory (overrides output.dir)")

    p = sub.add_parser("classify", help="print the regime certificate for the configured data")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write the certificate to this file")
    p.add_argument("--gn-constant", type=float, default=1.0,
                   help="quartic-interpolation constant for the bootstrap branch")

    p = sub.add_parser("kernel", help="tabulate a symbol to CSV")
    p.set_defaults(run=_cmd_kernel)
    p.add_argument("--config", default=None, help="take grid and kernel blocks from this config")
    p.add_argument("--dim", type=int, default=None, choices=(1, 2, 3))
    p.add_argument("--points", type=int, default=32, help="points per axis (flag mode)")
    p.add_argument("--extent", type=float, default=16.0, help="box length per axis (flag mode)")
    p.add_argument("--omega", default=None,
                   help="transverse trap frequencies (flag mode; default 1,1 in 1D, 1 in 2D)")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p = sub.add_parser("reduce", help="run the eps sweep of the dimension-reduction study")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--allow-unstable", action="store_true",
                   help="permit couplings outside the stable cone (excluded from acceptance)")

    p = sub.add_parser("unstable-data", help="energy-term scaling table for the squeezed family")
    p.set_defaults(run=_cmd_unstable_data)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("selftest", help="run the fast invariant suite")
    p.set_defaults(run=_cmd_selftest)
    return parser


def _out_dir(args, config: RunConfig) -> Path:
    """The created output directory: --out when given, else output.dir."""
    out_dir = Path(args.out if args.out is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"])
    return parse_config(text)


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    grid = config.grid.build()
    params = config.params.build(grid.dim)
    field0 = build_initial_field(config, grid)
    symbol = build_symbol_from_config(config, grid)
    out_dir = _out_dir(args, config)

    write_snapshot(field0, out_dir / "initial.gpef")
    series, outcome = evolve(
        field0, params, symbol, dt=config.dt, T=config.T, monitor=config.monitor
    )
    series.to_csv(out_dir / "series.csv")
    if isinstance(outcome, CollapseReport):
        write_snapshot(outcome.field, out_dir / "collapse.gpef")
        print(outcome.describe())
        print(f"series: {out_dir / 'series.csv'}")
        return 0
    write_snapshot(outcome, out_dir / "final.gpef")
    print(
        f"reached T = {outcome.t:.17g}: mass = {mass(outcome):.17g}, "
        f"grad_sq = {gradient_norm_sq(outcome):.17g}"
    )
    print(f"series: {out_dir / 'series.csv'}")
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args.config)
    grid = config.grid.build()
    params = config.params.build(grid.dim)
    phi = build_initial_field(config, grid)
    symbol = build_symbol_from_config(config, grid)
    cert = classify(phi, params, symbol, gn_constant=args.gn_constant)
    text = certificate_text(cert)
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text)
    return 0


def _kernel_rows(grid, symbol):
    headers = {
        1: "xi3,value",
        2: "xi1,xi2,value",
        3: "xi1,xi2,xi3,value",
    }
    meshes = [np.broadcast_to(m, grid.shape) for m in grid.freq_mesh]
    flat = [m.ravel() for m in meshes] + [symbol.values.ravel()]
    return csv_table(headers[grid.dim], zip(*flat))


def _cmd_kernel(args) -> int:
    if args.config is not None:
        config = _load_config(args.config)
        grid = config.grid.build()
        symbol = build_symbol_from_config(config, grid)
        if symbol is None:
            raise ConfigError(
                ["this config resolves to no kernel (lambda2 = 0 or kernel.kind = none); "
                 "set kernel.kind explicitly to tabulate one"]
            )
    else:
        dim = args.dim if args.dim is not None else 3
        grid = make_grid(dim, (args.extent,) * dim, (args.points,) * dim)
        if dim == 3:
            provenance = Analytic3D()
        else:
            # the 1D symbol averages out two transverse axes, the 2D symbol one
            omegas = (1.0,) * (3 - dim) if args.omega is None else _floats(args.omega)
            if len(omegas) != 3 - dim:
                raise ConfigError([f"--omega needs {3 - dim} value(s) for the {dim}D symbol"])
            provenance = (Effective1D if dim == 1 else Effective2D)(*omegas)
        symbol = build_symbol(grid, provenance)
    text = _kernel_rows(grid, symbol)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {grid.size} modes to {args.out}")
    return 0


def _cmd_reduce(args) -> int:
    config = _load_config(args.config)
    grid = config.grid.build()
    if grid.dim != 3:
        raise ConfigError(["reduce requires a three-dimensional grid block"])
    red = config.reduction
    tight = TIGHT_AXES[red.target]
    sub_grid = slow_grid(grid, tight)
    if red.u0_kind == "ground_state":
        omegas = tuple(w for a, w in enumerate(config.params.omega) if a not in tight)
    else:
        # the ground state for omega = 1 / width^2 is the Gaussian of that width
        omegas = (red.u0_width**-2,) * sub_grid.dim
    u0, _ = linear_eigenstate(sub_grid, omegas)
    setup = ReductionSetup(
        epsilon=red.epsilons[0],
        omega=tuple(config.params.omega),
        lambda1=config.params.lambda1,
        lambda2=config.params.lambda2,
        u0=u0,
        target=red.target,
    )
    rows = epsilon_sweep(
        setup,
        red.epsilons,
        grid,
        config.dt,
        red.T,
        n_samples=red.samples,
        allow_unstable=args.allow_unstable,
    )
    out_dir = _out_dir(args, config)
    sweep_to_csv(rows, out_dir / "sweep.csv")
    for row in rows:
        print(
            "epsilon = %-10.6g sup_err = %-14.8g excitation_sq = %.8g"
            % (row["epsilon"], row["sup_err"], row["excitation_sq"])
        )
    if len(rows) >= 2:
        slope = fitted_slope([r["epsilon"] for r in rows], [r["sup_err"] for r in rows])
        exc_slope = fitted_slope(
            [r["epsilon"] for r in rows], [max(r["excitation_sq"], 1e-300) for r in rows]
        )
        print("fitted error slope = %.6g" % slope)
        print("fitted excitation slope = %.6g" % exc_slope)
    print(f"sweep: {out_dir / 'sweep.csv'}")
    return 0


def _cmd_unstable_data(args) -> int:
    config = _load_config(args.config)
    grid = config.grid.build()
    if grid.dim != 3:
        raise ConfigError(["unstable-data requires a three-dimensional grid block"])
    params = config.params.build(3)
    symbol = build_symbol_from_config(config, grid)
    led = config.ledger
    rows, slopes = unstable_energy_ledger(
        grid, params, symbol, led.epsilons, led.alpha, led.f_width, led.g_width
    )
    header = "epsilon,kinetic,potential,interaction,total"
    text = csv_table(header, ([row[k] for k in header.split(",")] for row in rows))
    (_out_dir(args, config) / "ledger.csv").write_text(text)
    sys.stdout.write(text)
    expected = {
        "kinetic": led.alpha - 1.0,
        "potential": led.alpha - 3.0,
        "interaction": 2.0 * led.alpha - 1.0,
    }
    for key in ("kinetic", "potential", "interaction"):
        print(
            "%s slope = %.6g (expected %.6g)" % (key, slopes[key], expected[key])
        )
    return 0


def _cmd_selftest(args) -> int:
    failures = []

    def check(name: str, fn) -> None:
        try:
            fn()
        except Exception as exc:  # report and continue; selftest is a survey
            failures.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")

    rng = np.random.default_rng(2024)

    def transform_roundtrip():
        grid = make_grid(2, (12.0, 14.0), (32, 24))
        u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u_hat = grid.forward_transform(u)
        back = grid.inverse_transform(u_hat)
        rel = np.linalg.norm((back - u).ravel()) / np.linalg.norm(u.ravel())
        assert rel < 1e-12, f"roundtrip error {rel:.3e}"
        lhs = np.sum(np.abs(u) ** 2) * grid.cell_volume
        rhs = np.sum(np.abs(u_hat) ** 2) * math.prod(grid.freq_steps) / (2 * math.pi) ** grid.dim
        assert abs(lhs - rhs) < 1e-12 * lhs, "discrete norm identity failed"

    def symbol_range():
        grid = make_grid(3, (10.0,) * 3, (16,) * 3)
        symbol = build_symbol(grid, Analytic3D())
        assert symbol.values.min() >= -4 * math.pi / 3 - 1e-12
        assert symbol.values.max() <= 8 * math.pi / 3 + 1e-12
        assert symbol.values[0, 0, 0] == 0.0
        assert abs(symbol3d(0.0, 0.0, 1.0) - 8 * math.pi / 3) < 1e-14

    def bessel():
        value = bessel_radial_check(1e4, 1e-6)
        assert abs(value - 1.0 / 3.0) < 1e-6, f"got {value!r}"

    def conservation():
        grid = make_grid(3, (12.0,) * 3, (16,) * 3)
        params = PhysicalParams(dim=3, omega=(1.0, 1.0, 1.0), lambda1=1.0, lambda2=0.2)
        symbol = build_symbol(grid, Analytic3D())
        field, _ = linear_eigenstate(grid, params.omega)
        m0 = mass(field)
        for _ in range(25):
            field = strang_step(field, 1e-2, params, symbol)
        assert abs(mass(field) - m0) < 1e-10 * m0, "mass drifted"

    def reversibility():
        grid = make_grid(3, (12.0,) * 3, (16,) * 3)
        params = PhysicalParams(dim=3, omega=(1.0, 1.0, 1.0), lambda1=1.0, lambda2=0.2)
        symbol = build_symbol(grid, Analytic3D())
        field, _ = linear_eigenstate(grid, params.omega)
        start = field.values.copy()
        for _ in range(20):
            field = strang_step(field, 1e-2, params, symbol)
        for _ in range(20):
            field = strang_step(field, -1e-2, params, symbol)
        err = np.linalg.norm((field.values - start).ravel())
        assert err < 1e-11, f"round trip error {err:.3e}"

    def bootstrap_numbers():
        params = PhysicalParams(dim=3, omega=(1.0,) * 3, lambda1=0.0, lambda2=1.0)
        gn = 1.0 / ((4 * math.pi / 3) * 1.0)  # makes eps2 = sqrt(M) = 1 for M = 1
        assert bootstrap_check(0.01, 1.0, 0.1, params, gn) is True
        assert bootstrap_check(0.2, 1.0, 0.1, params, gn) is False

    check("transform-roundtrip-and-norm", transform_roundtrip)
    check("symbol-range-and-axis-values", symbol_range)
    check("bessel-radial-identity", bessel)
    check("mass-conservation", conservation)
    check("time-reversibility", reversibility)
    check("bootstrap-thresholds", bootstrap_numbers)

    if failures:
        print(f"{len(failures)} selftest check(s) failed")
        return 2
    print("all selftest checks passed")
    return 0


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
