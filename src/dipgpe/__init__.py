"""Spectral toolkit for the trapped dipolar Gross-Pitaevskii equation.

Submodules: grid (lattices and transforms), kernel (dipolar Fourier
multipliers), state (fields and observables), propagator (splitting
integrator), regimes (stability and blow-up certificates), reduction
(effective 1D/2D models), config and cli (experiment plumbing).
"""

from .grid import GridError, SpectralGrid, make_grid
from .kernel import (
    Analytic3D,
    Effective1D,
    Effective2D,
    KernelRealityError,
    KernelSymbol,
    QuadratureError,
    apply_kernel,
    bessel_radial_check,
    build_symbol,
    symbol1d_effective,
    symbol2d_effective,
    symbol3d,
)
from .state import (
    EnergyBreakdown,
    ObservableRecord,
    ObservableSeries,
    PhysicalParams,
    WaveField,
    check_resolution,
    density,
    energy,
    field_std,
    gradient_norm_sq,
    mass,
    max_abs,
    quartic_norm,
    quartic_norm_spectral,
    record_observables,
    spectral_tail_fraction,
    variance_and_rate,
)
from .propagator import (
    CollapseReport,
    MonitorSpec,
    NonFiniteStateError,
    evolve,
    linear_eigenstate,
    read_snapshot,
    strang_step,
    write_snapshot,
)
from .regimes import (
    AuditReport,
    RegimeCertificate,
    blowup_time_bound,
    bootstrap_check,
    certificate_text,
    classify,
    make_unstable_data,
    unstable_energy_ledger,
    virial_audit,
)
from .reduction import (
    ReductionSetup,
    ReductionStudy,
    effective_coupling,
    epsilon_sweep,
    evolve_reduced,
    evolve_rescaled_3d,
    fitted_slope,
    ground_state_projection,
    reduction_error,
    reduced_params,
    reduced_symbol,
    sweep_to_csv,
    well_prepared_data,
)
from .config import (
    ConfigError,
    RunConfig,
    build_initial_field,
    build_symbol_from_config,
    parse_config,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
