"""Flat key = value experiment configuration.

The format is line-oriented: `key = value`, `#` starts a comment,
blank lines are ignored, and dotted keys group related settings
(`grid.points = 64,64,64`).  Lists are comma-separated.  Parsing
collects every problem (unknown key, duplicate key, type mismatch,
invariant violation) with line numbers before failing, so a config can
be fixed in one pass.

Every key is one row of _SCHEMA, which names the RunConfig section and
field it sets and its value parser.  Defaults live only in the spec
dataclasses: the grid and params blocks have none and are required.
serialize_config renders a parsed config back to canonical text, and
the two functions are mutually idempotent, which is what makes configs
usable as experiment provenance.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, is_dataclass
from typing import Callable, Optional, get_type_hints

from .grid import GridError, SpectralGrid, make_grid, mesh_product, mesh_sum
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
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
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


# One row per key, in canonical order: key, RunConfig section (None for
# a top-level field), field name, value parser.  Defaults and required
# keys come from the dataclasses; a None value is written by omitting
# the key.
_SCHEMA: tuple[tuple[str, Optional[str], str, Callable[[str], object]], ...] = (
    ("grid.dim", "grid", "dim", _int),
    ("grid.extents", "grid", "extents", _floats),
    ("grid.points", "grid", "points", _ints),
    ("params.omega", "params", "omega", _floats),
    ("params.lambda1", "params", "lambda1", _float),
    ("params.lambda2", "params", "lambda2", _float),
    ("init.kind", "init", "kind", _enum("ground_state", "gaussian", "unstable", "file")),
    ("init.widths", "init", "widths", _floats),
    ("init.center", "init", "center", _floats),
    ("init.beta", "init", "beta", _float),
    ("init.epsilon", "init", "epsilon", _float),
    ("init.alpha", "init", "alpha", _float),
    ("init.file", "init", "file", _string),
    ("dt", None, "dt", _float),
    ("T", None, "T", _float),
    ("output.dir", None, "output_dir", _string),
    ("monitor.stride", "monitor", "stride", _int),
    ("monitor.grad_factor", "monitor", "grad_factor", _float),
    ("monitor.grad_threshold", "monitor", "grad_threshold", _float),
    ("monitor.spectral_tail", "monitor", "spectral_tail", _float),
    (
        "kernel.kind",
        "kernel",
        "kind",
        _enum("auto", "analytic3d", "effective1d", "effective2d", "none"),
    ),
    ("kernel.transverse_omega", "kernel", "transverse_omega", _floats),
    ("reduction.target", "reduction", "target", _enum("1d", "2d")),
    ("reduction.epsilons", "reduction", "epsilons", _floats),
    ("reduction.T", "reduction", "T", _float),
    ("reduction.samples", "reduction", "samples", _int),
    ("reduction.u0_kind", "reduction", "u0_kind", _enum("ground_state", "gaussian")),
    ("reduction.u0_width", "reduction", "u0_width", _float),
    ("ledger.epsilons", "ledger", "epsilons", _floats),
    ("ledger.alpha", "ledger", "alpha", _float),
    ("ledger.f_width", "ledger", "f_width", _float),
    ("ledger.g_width", "ledger", "g_width", _float),
)

_SECTION_TYPES = {
    name: hint for name, hint in get_type_hints(RunConfig).items() if is_dataclass(hint)
}
_BY_KEY = {key: (section, name, parser) for key, section, name, parser in _SCHEMA}
# MISSING marks a required key; it equals no value, so serialize_config
# always writes one
_DEFAULTS = {
    key: (RunConfig if section is None else _SECTION_TYPES[section])
    .__dataclass_fields__[name]
    .default
    for key, section, name, _ in _SCHEMA
}
_REQUIRED_KEYS = tuple(key for key, default in _DEFAULTS.items() if default is MISSING)


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text, reporting every error at once."""
    errors: list[str] = []
    seen: dict[str, int] = {}
    given: dict[Optional[str], dict[str, object]] = {s: {} for s in (None, *_SECTION_TYPES)}

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
        entry = _BY_KEY.get(key)
        if entry is None:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        if value == "":
            errors.append(f"line {line_no}: key {key!r} has no value")
            continue
        section, name, parser = entry
        try:
            given[section][name] = parser(value)
        except ValueError as exc:
            errors.append(f"line {line_no}: key {key!r}: {exc}")

    for key in _REQUIRED_KEYS:
        if key not in seen:
            errors.append(f"missing required key {key!r}")

    if errors:
        raise ConfigError(errors)

    # a section that rejects its values is reported and left at its default
    top = given.pop(None)
    for section, spec_type in _SECTION_TYPES.items():
        try:
            top[section] = spec_type(**given[section])
        except ValueError as exc:
            errors.append(f"{section}: {exc}")
    config = RunConfig(**top)
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
    if config.dt > 0.0:
        for key, T in (("T", config.T), ("reduction.T", config.reduction.T)):
            if T > 0.0 and not math.isfinite(T / config.dt):
                errors.append(
                    f"{key} / dt = {T!r} / {config.dt!r} is not a finite step count"
                )

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
    lines = []
    for key, section, name, _ in _SCHEMA:
        value = getattr(config if section is None else getattr(config, section), name)
        if value is None or value == _DEFAULTS[key]:
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
        shifted = [(coord - c0) ** 2 for c0, coord in zip(center, grid.coord_mesh)]
        values = mesh_product(np.exp(-s / (2.0 * w * w)) for s, w in zip(shifted, widths))
        # times the reciprocal, not a division: the frozen outputs hold a * (1/c)
        values *= 1.0 / math.sqrt(float(np.sum(values * values)) * grid.cell_volume)
        if init.beta != 0.0:
            values = values * np.exp(0.5j * init.beta * mesh_sum(shifted))
        else:
            values = values.astype(complex)
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
