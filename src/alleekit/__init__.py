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

Each name is imported from the submodule that defines it, e.g.
``from alleekit.model import kinetics``; ``import alleekit`` imports no
submodule. So the layers that load scipy's LAPACK extension (``pde`` and
everything built on it: ``continuation``, ``collocation``, ``waves``,
``diagnostics``) cost nothing until something imports them. numpy is kept
out the same way: ``model`` imports it only inside the functions that
handle arrays, and ``config``, ``linear``, ``temporal``, ``rootfind`` and
``errors`` not at all, so the scalar analysis (equilibria, temporal and
spatial thresholds, branch points, the ODE orbits and the temporal
bifurcation diagram) runs without it; ``pde`` and every layer built on it
load it on import.
"""

__version__ = "0.1.0"
