"""Desk-scale analysis toolkit for a prey-predator reaction-diffusion model
with a reproductive Allee effect and an interference-saturating response.

Submodules:

* :mod:`alleekit.model` - kinetics, equilibria, temporal thresholds, and
  the mode algebra of a homogeneous state (det L(k), the Turing band)
* :mod:`alleekit.temporal` - ODE integration and attractor classification
* :mod:`alleekit.linear` - spatial mode analysis and instability thresholds,
  built on that algebra; only the ``thresholds`` command loads it
* :mod:`alleekit.pde` - one-dimensional Neumann reaction-diffusion stepper
* :mod:`alleekit.continuation` - steady-state branches in sigma
* :mod:`alleekit.waves` - travelling-wave profiles and the (sigma, c) scan
* :mod:`alleekit.collocation` - banded collocation for boundary value problems
* :mod:`alleekit.diagnostics` - Lyapunov exponent, periods, island counts
* :mod:`alleekit.config` / :mod:`alleekit.cli` - experiment driver
* :mod:`alleekit.rootfind` - shared scalar root finding
* :mod:`alleekit.errors` - exception taxonomy

The names in ``__all__`` are loaded lazily (PEP 562): ``import alleekit``
imports no submodule, and ``alleekit.X`` imports only the submodule that
defines ``X``, on first use. So the layers that load scipy's LAPACK
extension (``pde`` and everything built on it: ``continuation``,
``collocation``, ``waves``, ``diagnostics``) cost nothing until something
asks for them. numpy is kept out the same way: ``model`` imports it only
inside the functions that handle arrays, and ``config``, ``linear``,
``temporal``, ``rootfind`` and ``errors`` not at all, so the scalar
analysis (equilibria, temporal and spatial thresholds, branch points, the
ODE orbits and the temporal bifurcation diagram) runs without it;
``pde`` and every layer built on it load it on import.
"""

from importlib import import_module

# public names by defining submodule; __all__ keeps this order
_EXPORTS_BY_MODULE = {
    "errors": ("ToolkitError", "ConfigError", "NumericalError",
               "ConvergenceError"),
    "model": ("KineticParams", "Equilibrium", "EquilibriumKind", "Stability",
              "kinetics", "jacobian", "trivial_equilibrium",
              "axial_equilibria", "coexisting_equilibria", "all_equilibria",
              "upper_coexisting", "sigma_sn", "sigma_tc", "sigma_s",
              "hopf_sigma", "first_lyapunov_coefficient", "kpm_roots"),
    "temporal": ("Trajectory", "AttractorKind", "AttractorSummary",
                 "DiagramPoint", "integrate_ode", "attractor_summary",
                 "bifurcation_diagram"),
    "linear": ("ModeReport", "Regime", "mode_reports",
               "turing_bd_thresholds", "branch_point_sigmas",
               "branch_point_table", "dstar_parts", "vbounds"),
    "pde": ("Grid", "Field", "ICKind", "Recorder", "SpaceTimeRecord",
            "AsymptoticKind", "ImexStepper", "StrangStepper", "make_stepper",
            "make_ic", "run", "classify_asymptotic"),
    "continuation": ("SteadyProblem", "Branch", "BranchPoint",
                     "newton_correct", "continue_branch",
                     "solution_stability"),
    "waves": ("Shot", "WaveClass", "ScanResult", "j_constants", "c_min",
              "wedge_zeta", "shoot_heteroclinic", "scan_plane"),
    "diagnostics": ("LyapunovResult", "largest_lyapunov", "dominant_period",
                    "island_count", "island_series"),
    "config": ("ExperimentConfig", "parse_config"),
}
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items()
            for name in names}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
