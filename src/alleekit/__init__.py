"""Desk-scale analysis toolkit for a prey-predator reaction-diffusion model
with a reproductive Allee effect and an interference-saturating response.

Submodules:

* :mod:`alleekit.model` - kinetics, equilibria, temporal thresholds
* :mod:`alleekit.temporal` - ODE integration and attractor classification
* :mod:`alleekit.linear` - spatial mode analysis and instability thresholds
* :mod:`alleekit.pde` - one-dimensional Neumann reaction-diffusion stepper
* :mod:`alleekit.continuation` - steady-state branches in sigma
* :mod:`alleekit.waves` - travelling-wave profiles and the (sigma, c) scan
* :mod:`alleekit.diagnostics` - Lyapunov exponent, periods, island counts
* :mod:`alleekit.config` / :mod:`alleekit.cli` - experiment driver
* :mod:`alleekit.rootfind` - shared scalar root finding
* :mod:`alleekit.errors` - exception taxonomy
"""

from .config import ExperimentConfig, parse_config
from .continuation import (
    Branch,
    BranchPoint,
    SteadyProblem,
    branch_switch,
    continue_branch,
    localized_seed,
    newton_correct,
    solution_stability,
)
from .diagnostics import (
    LyapunovResult,
    dominant_period,
    island_count,
    island_series,
    largest_lyapunov,
)
from .errors import ConfigError, ConvergenceError, NumericalError, ToolkitError
from .linear import (
    ModeReport,
    Regime,
    SpatialSpectrum,
    band_modes,
    branch_point_sigmas,
    branch_point_table,
    kpm_roots,
    mode_reports,
    nonexistence_dstar,
    spatial_spectrum,
    turing_bd_thresholds,
    vbounds,
)
from .pde import (
    AsymptoticKind,
    Field,
    Grid,
    ICKind,
    ImexStepper,
    Recorder,
    SpaceTimeRecord,
    StrangStepper,
    classify_asymptotic,
    front_position,
    make_ic,
    make_stepper,
    measure_front_speed,
    run,
)
from .model import (
    Equilibrium,
    EquilibriumKind,
    KineticParams,
    Stability,
    all_equilibria,
    axial_equilibria,
    coexisting_equilibria,
    first_lyapunov_coefficient,
    hopf_sigma,
    jacobian,
    kinetics,
    sigma_s,
    sigma_sn,
    sigma_tc,
    trivial_equilibrium,
    upper_coexisting,
)
from .temporal import (
    AttractorKind,
    AttractorSummary,
    DiagramPoint,
    Trajectory,
    attractor_summary,
    bifurcation_diagram,
    heteroclinic_threshold,
    integrate_ode,
)
from .waves import (
    EndStateSpectra,
    ScanResult,
    Shot,
    WaveClass,
    c_min,
    end_state_spectra,
    j_constants,
    scan_plane,
    shoot_heteroclinic,
    wedge_zeta,
)

__version__ = "0.1.0"

__all__ = [
    "ToolkitError",
    "ConfigError",
    "NumericalError",
    "ConvergenceError",
    "KineticParams",
    "Equilibrium",
    "EquilibriumKind",
    "Stability",
    "kinetics",
    "jacobian",
    "trivial_equilibrium",
    "axial_equilibria",
    "coexisting_equilibria",
    "all_equilibria",
    "upper_coexisting",
    "sigma_sn",
    "sigma_tc",
    "sigma_s",
    "hopf_sigma",
    "first_lyapunov_coefficient",
    "Trajectory",
    "AttractorKind",
    "AttractorSummary",
    "DiagramPoint",
    "integrate_ode",
    "attractor_summary",
    "heteroclinic_threshold",
    "bifurcation_diagram",
    "ModeReport",
    "Regime",
    "SpatialSpectrum",
    "mode_reports",
    "spatial_spectrum",
    "turing_bd_thresholds",
    "branch_point_sigmas",
    "branch_point_table",
    "kpm_roots",
    "band_modes",
    "nonexistence_dstar",
    "vbounds",
    "Grid",
    "Field",
    "ICKind",
    "Recorder",
    "SpaceTimeRecord",
    "AsymptoticKind",
    "ImexStepper",
    "StrangStepper",
    "make_stepper",
    "make_ic",
    "run",
    "front_position",
    "measure_front_speed",
    "classify_asymptotic",
    "SteadyProblem",
    "Branch",
    "BranchPoint",
    "newton_correct",
    "continue_branch",
    "branch_switch",
    "localized_seed",
    "solution_stability",
    "Shot",
    "WaveClass",
    "ScanResult",
    "EndStateSpectra",
    "j_constants",
    "c_min",
    "wedge_zeta",
    "end_state_spectra",
    "shoot_heteroclinic",
    "scan_plane",
    "LyapunovResult",
    "largest_lyapunov",
    "dominant_period",
    "island_count",
    "island_series",
    "ExperimentConfig",
    "parse_config",
    "__version__",
]
