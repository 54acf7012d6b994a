"""Flat key = value experiment configuration.

The format is line-oriented: `key = value`, `#` starts a comment,
blank lines are ignored, and dotted keys group related settings
(`grid.points = 64,64,64`).  Lists are comma-separated.  Parsing
collects every problem (unknown key, duplicate key, type mismatch,
invariant violation) with line numbers before failing, so a config can
be fixed in one pass.

The grid and params blocks are required; every other key has a default.
serialize_config renders a parsed config back to canonical text, and
the two functions are mutually idempotent, which is what makes configs
usable as experiment provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .grid import GridError, SpectralGrid, make_grid
from .kernel import Analytic3D, Effective1D, Effective2D, KernelSymbol, build_symbol
from .propagator import MonitorSpec, linear_eigenstate, read_snapshot
from .regimes import make_unstable_data
from .state import PhysicalParams, WaveField

import numpy as np


class ConfigError(ValueError):
    """All problems found in a config, one message per line-level issue."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class GridSpec:
    dim: int
    extents: tuple[float, ...]
    points: tuple[int, ...]

    def build(self) -> SpectralGrid:
        return make_grid(self.dim, self.extents, self.points)


@dataclass(frozen=True)
class ParamSpec:
    omega: tuple[float, ...]
    lambda1: float
    lambda2: float

    def build(self, dim: int) -> PhysicalParams:
        return PhysicalParams(
            dim=dim, omega=self.omega, lambda1=self.lambda1, lambda2=self.lambda2
        )


@dataclass(frozen=True)
class InitSpec:
    kind: str = "ground_state"
    widths: Optional[tuple[float, ...]] = None
    center: Optional[tuple[float, ...]] = None
    beta: float = 0.0
    epsilon: float = 0.1
    alpha: float = -3.0
    file: Optional[str] = None


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "auto"
    transverse_omega: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class ReductionSpec:
    target: str = "1d"
    epsilons: tuple[float, ...] = (0.2, 0.141, 0.1)
    T: float = 1.0
    samples: int = 8
    u0_kind: str = "ground_state"
    u0_width: float = 1.0


@dataclass(frozen=True)
class LedgerSpec:
    epsilons: tuple[float, ...] = (0.2, 0.1, 0.05)
    alpha: float = -3.0
    f_width: float = 1.0
    g_width: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: ParamSpec
    init: InitSpec = InitSpec()
    dt: float = 1e-3
    T: float = 1.0
    output_dir: str = "out"
    monitor: MonitorSpec = MonitorSpec()
    kernel: KernelSpec = KernelSpec()
    reduction: ReductionSpec = ReductionSpec()
    ledger: LedgerSpec = LedgerSpec()


def _float(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("nan is not a valid value")
    return value


def _int(text: str) -> int:
    return int(text, 10)


def _floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


def _ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(_int(p) for p in parts)


def _string(text: str) -> str:
    return text


def _enum(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}; got {text!r}")
        return text

    return parse


# key -> value parser; None results are represented by omitting the key
_KEY_PARSERS: dict[str, Callable[[str], object]] = {
    "grid.dim": _int,
    "grid.extents": _floats,
    "grid.points": _ints,
    "params.omega": _floats,
    "params.lambda1": _float,
    "params.lambda2": _float,
    "init.kind": _enum("ground_state", "gaussian", "unstable", "file"),
    "init.widths": _floats,
    "init.center": _floats,
    "init.beta": _float,
    "init.epsilon": _float,
    "init.alpha": _float,
    "init.file": _string,
    "dt": _float,
    "T": _float,
    "output.dir": _string,
    "monitor.stride": _int,
    "monitor.grad_factor": _float,
    "monitor.grad_threshold": _float,
    "monitor.spectral_tail": _float,
    "kernel.kind": _enum("auto", "analytic3d", "effective1d", "effective2d", "none"),
    "kernel.transverse_omega": _floats,
    "reduction.target": _enum("1d", "2d"),
    "reduction.epsilons": _floats,
    "reduction.T": _float,
    "reduction.samples": _int,
    "reduction.u0_kind": _enum("ground_state", "gaussian"),
    "reduction.u0_width": _float,
    "ledger.epsilons": _floats,
    "ledger.alpha": _float,
    "ledger.f_width": _float,
    "ledger.g_width": _float,
}

_REQUIRED_KEYS = (
    "grid.dim",
    "grid.extents",
    "grid.points",
    "params.omega",
    "params.lambda1",
    "params.lambda2",
)


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text, reporting every error at once."""
    errors: list[str] = []
    seen: dict[str, int] = {}
    typed: dict[str, object] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            errors.append(
                f"line {line_no}: duplicate key {key!r} (first set on line {seen[key]})"
            )
            continue
        seen[key] = line_no
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        if value == "":
            errors.append(f"line {line_no}: key {key!r} has no value")
            continue
        try:
            typed[key] = parser(value)
        except ValueError as exc:
            errors.append(f"line {line_no}: key {key!r}: {exc}")

    for key in _REQUIRED_KEYS:
        if key not in typed and key not in seen:
            errors.append(f"missing required key {key!r}")

    if errors:
        raise ConfigError(errors)

    grid_spec = GridSpec(
        dim=typed["grid.dim"],
        extents=typed["grid.extents"],
        points=typed["grid.points"],
    )
    param_spec = ParamSpec(
        omega=typed["params.omega"],
        lambda1=typed["params.lambda1"],
        lambda2=typed["params.lambda2"],
    )
    init = InitSpec(
        kind=typed.get("init.kind", "ground_state"),
        widths=typed.get("init.widths"),
        center=typed.get("init.center"),
        beta=typed.get("init.beta", 0.0),
        epsilon=typed.get("init.epsilon", 0.1),
        alpha=typed.get("init.alpha", -3.0),
        file=typed.get("init.file"),
    )
    kernel_spec = KernelSpec(
        kind=typed.get("kernel.kind", "auto"),
        transverse_omega=typed.get("kernel.transverse_omega"),
    )
    reduction_spec = ReductionSpec(
        target=typed.get("reduction.target", "1d"),
        epsilons=typed.get("reduction.epsilons", (0.2, 0.141, 0.1)),
        T=typed.get("reduction.T", 1.0),
        samples=typed.get("reduction.samples", 8),
        u0_kind=typed.get("reduction.u0_kind", "ground_state"),
        u0_width=typed.get("reduction.u0_width", 1.0),
    )
    ledger_spec = LedgerSpec(
        epsilons=typed.get("ledger.epsilons", (0.2, 0.1, 0.05)),
        alpha=typed.get("ledger.alpha", -3.0),
        f_width=typed.get("ledger.f_width", 1.0),
        g_width=typed.get("ledger.g_width", 1.0),
    )

    try:
        monitor = MonitorSpec(
            stride=typed.get("monitor.stride", 10),
            grad_factor=typed.get("monitor.grad_factor", 1e4),
            grad_threshold=typed.get("monitor.grad_threshold"),
            spectral_tail=typed.get("monitor.spectral_tail", 1e-3),
        )
    except ValueError as exc:
        errors.append(f"monitor: {exc}")
        monitor = MonitorSpec()

    config = RunConfig(
        grid=grid_spec,
        params=param_spec,
        init=init,
        dt=typed.get("dt", 1e-3),
        T=typed.get("T", 1.0),
        output_dir=typed.get("output.dir", "out"),
        monitor=monitor,
        kernel=kernel_spec,
        reduction=reduction_spec,
        ledger=ledger_spec,
    )
    errors.extend(_validate(config))
    if errors:
        raise ConfigError(errors)
    return config


def _validate(config: RunConfig) -> list[str]:
    errors: list[str] = []
    try:
        config.grid.build()
    except (GridError, ValueError) as exc:
        errors.append(f"grid: {exc}")
    else:
        if len(config.params.omega) != config.grid.dim:
            errors.append(
                f"params.omega has {len(config.params.omega)} entries "
                f"but grid.dim = {config.grid.dim}"
            )
        else:
            try:
                config.params.build(config.grid.dim)
            except ValueError as exc:
                errors.append(f"params: {exc}")

    if config.dt <= 0.0:
        errors.append(f"dt must be positive, got {config.dt!r}")
    if config.T <= 0.0:
        errors.append(f"T must be positive, got {config.T!r}")

    init = config.init
    if init.kind == "file" and not init.file:
        errors.append("init.kind = file requires init.file")
    if init.kind == "unstable":
        if init.epsilon <= 0.0:
            errors.append("init.epsilon must be positive")
        if init.alpha >= -2.0:
            errors.append("init.alpha must be below -2")
    if init.widths is not None and any(w <= 0.0 for w in init.widths):
        errors.append("init.widths must be positive")

    kern = config.kernel
    if kern.transverse_omega is not None:
        if len(kern.transverse_omega) not in (1, 2):
            errors.append("kernel.transverse_omega takes 1 or 2 entries")
        elif any(w <= 0.0 for w in kern.transverse_omega):
            errors.append("kernel.transverse_omega entries must be positive")

    red = config.reduction
    if any(e <= 0.0 for e in red.epsilons):
        errors.append("reduction.epsilons must be positive")
    if red.T <= 0.0:
        errors.append("reduction.T must be positive")
    if red.samples < 1:
        errors.append("reduction.samples must be at least 1")
    if red.u0_width <= 0.0:
        errors.append("reduction.u0_width must be positive")

    led = config.ledger
    if any(e <= 0.0 for e in led.epsilons):
        errors.append("ledger.epsilons must be positive")
    if led.alpha >= -2.0:
        errors.append("ledger.alpha must be below -2")
    if led.f_width <= 0.0 or led.g_width <= 0.0:
        errors.append("ledger widths must be positive")
    return errors


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    default = RunConfig(grid=config.grid, params=config.params)
    pairs: list[tuple[str, object, object]] = [
        ("grid.dim", config.grid.dim, None),
        ("grid.extents", config.grid.extents, None),
        ("grid.points", config.grid.points, None),
        ("params.omega", config.params.omega, None),
        ("params.lambda1", config.params.lambda1, None),
        ("params.lambda2", config.params.lambda2, None),
        ("init.kind", config.init.kind, default.init.kind),
        ("init.widths", config.init.widths, default.init.widths),
        ("init.center", config.init.center, default.init.center),
        ("init.beta", config.init.beta, default.init.beta),
        ("init.epsilon", config.init.epsilon, default.init.epsilon),
        ("init.alpha", config.init.alpha, default.init.alpha),
        ("init.file", config.init.file, default.init.file),
        ("dt", config.dt, default.dt),
        ("T", config.T, default.T),
        ("output.dir", config.output_dir, default.output_dir),
        ("monitor.stride", config.monitor.stride, default.monitor.stride),
        ("monitor.grad_factor", config.monitor.grad_factor, default.monitor.grad_factor),
        ("monitor.grad_threshold", config.monitor.grad_threshold, default.monitor.grad_threshold),
        ("monitor.spectral_tail", config.monitor.spectral_tail, default.monitor.spectral_tail),
        ("kernel.kind", config.kernel.kind, default.kernel.kind),
        ("kernel.transverse_omega", config.kernel.transverse_omega, default.kernel.transverse_omega),
        ("reduction.target", config.reduction.target, default.reduction.target),
        ("reduction.epsilons", config.reduction.epsilons, default.reduction.epsilons),
        ("reduction.T", config.reduction.T, default.reduction.T),
        ("reduction.samples", config.reduction.samples, default.reduction.samples),
        ("reduction.u0_kind", config.reduction.u0_kind, default.reduction.u0_kind),
        ("reduction.u0_width", config.reduction.u0_width, default.reduction.u0_width),
        ("ledger.epsilons", config.ledger.epsilons, default.ledger.epsilons),
        ("ledger.alpha", config.ledger.alpha, default.ledger.alpha),
        ("ledger.f_width", config.ledger.f_width, default.ledger.f_width),
        ("ledger.g_width", config.ledger.g_width, default.ledger.g_width),
    ]
    lines = []
    for key, value, default_value in pairs:
        if value is None:
            continue
        if default_value is not None and value == default_value and key not in (
            "grid.dim",
            "grid.extents",
            "grid.points",
            "params.omega",
            "params.lambda1",
            "params.lambda2",
        ):
            continue
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def build_initial_field(config: RunConfig, grid: SpectralGrid) -> WaveField:
    """Construct the configured initial data on the grid."""
    init = config.init
    if init.kind == "ground_state":
        field, _ = linear_eigenstate(grid, config.params.omega)
        return field
    if init.kind == "gaussian":
        widths = init.widths or tuple(1.0 for _ in range(grid.dim))
        if len(widths) == 1:
            widths = widths * grid.dim
        if len(widths) != grid.dim:
            raise ConfigError([f"init.widths needs 1 or {grid.dim} entries"])
        center = init.center or tuple(0.0 for _ in range(grid.dim))
        if len(center) != grid.dim:
            raise ConfigError([f"init.center needs {grid.dim} entries"])
        values = np.ones(grid.shape, dtype=complex)
        shifted_sq = np.zeros(grid.shape)
        for width, c0, coord in zip(widths, center, grid.coord_mesh):
            values = values * np.exp(-((coord - c0) ** 2) / (2.0 * width * width))
            shifted_sq = shifted_sq + (coord - c0) ** 2
        norm_sq = float(np.sum(values.real**2 + values.imag**2)) * grid.cell_volume
        values /= math.sqrt(norm_sq)
        if init.beta != 0.0:
            values = values * np.exp(0.5j * init.beta * shifted_sq)
        return WaveField(values=values, grid=grid, t=0.0)
    if init.kind == "unstable":
        widths = init.widths or (1.0,)
        f_width = widths[0]
        g_width = widths[1] if len(widths) > 1 else widths[0]
        return make_unstable_data(grid, init.epsilon, init.alpha, f_width, g_width)
    if init.kind == "file":
        return read_snapshot(init.file, grid)
    raise ConfigError([f"unknown init.kind {init.kind!r}"])


def build_symbol_from_config(
    config: RunConfig,
    grid: SpectralGrid,
) -> "KernelSymbol | None":
    """Build the kernel symbol the config calls for, or None when unused."""
    kind = config.kernel.kind
    if kind == "none":
        return None
    if kind == "auto":
        if config.params.lambda2 == 0.0:
            return None
        kind = {3: "analytic3d", 2: "effective2d", 1: "effective1d"}[grid.dim]
    if kind == "analytic3d":
        return build_symbol(grid, Analytic3D())
    trans = config.kernel.transverse_omega
    if kind == "effective1d":
        if trans is None or len(trans) != 2:
            raise ConfigError(
                ["kernel.kind = effective1d requires kernel.transverse_omega with 2 entries"]
            )
        return build_symbol(grid, Effective1D(trans[0], trans[1]))
    if kind == "effective2d":
        if trans is None or len(trans) != 1:
            raise ConfigError(
                ["kernel.kind = effective2d requires kernel.transverse_omega with 1 entry"]
            )
        return build_symbol(grid, Effective2D(trans[0]))
    raise ConfigError([f"unknown kernel.kind {kind!r}"])
