"""The import contract: ``import alleekit`` and ``import alleekit.cli`` load
neither numpy nor scipy, nor do the ``equilibria``, ``thresholds`` and
``temporal-diagram`` runs; ``temporal`` integrates and classifies an orbit
without numpy, while ``waves``, built on it, loads numpy; the time-stepping,
``continue`` and ``wave-scan`` runs load numpy and scipy's LAPACK extension
but not the ``scipy.linalg`` package, nor run scipy's own package init
(``scipy._lib``, ``scipy.__config__``), ``continue`` loads no
``scipy.sparse``, ``wave-scan`` no ``scipy.integrate``,
``scipy.interpolate`` or ``scipy.sparse``, and ``scipy.linalg`` reuses the
extension ``pde`` loaded; only ``thresholds`` loads ``linear``, because
``model`` owns the mode algebra the other layers use, and no command loads
``cmath``, because no threshold needs a complex spatial eigenvalue; each
CLI command loads its layers, and numpy where they need it, before its run
starts, and ``simulate`` sizes its own grid without ``linear``; and
``import alleekit`` loads no submodule and binds no public name but
``__version__``, since every name is imported from its own module.

Each check of what gets loaded runs in a fresh interpreter, because the
test session itself has already imported every layer. Each command config
runs in one interpreter, whose report every check of that config reads.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from alleekit import pde

_SRC = Path(__file__).resolve().parents[1] / "src"

_KINETICS = """[kinetics]
sigma = 2.7
alpha = 0.07
beta = 0.2
gamma = 1.2
eta = 0.1
[spatial]
d = 46
"""

# small configs, one per command
_BODIES = {
    "equilibria": "",
    "temporal-diagram": "[sweep]\nsigma_lo = 1.82\nsigma_hi = 1.9\n"
                        "sigma_count = 2\nt_sim = 200\n",
    "thresholds": "l = 200\n",
    # no [grid]: default_grid_size sizes the grid (N = 128, the floor below
    # l = 200, since sigma = 2.7 has no Turing band)
    "simulate": "l = 20\n[run]\nseed = 1\nt = 0.05\n"
                "ic = perturbed_homogeneous\n",
    "continue": "l = 200\n[grid]\nn = 64\n[sweep]\nsteps = 3\n"
                "bracket_hi = 2.8\n",
    "wave-scan": "[sweep]\nsigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"
                 "c_lo = 5.9\nc_hi = 5.9\nc_count = 1\n",
    "lyapunov": "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 230\n"
                "transient = 10\n",
    "pulse": "l = 200\n[grid]\nn = 128\n[run]\nseed = 1\nt = 20\n"
             "scheme = strang\n",
}

# Runs alleekit.cli.main on its arguments and prints, as JSON, the exit
# code, the alleekit, numpy and scipy modules loaded after import alleekit,
# at the end and by run_experiment, and whether cmath is loaded at the end.
_DRIVER = """
import json, sys
ours = lambda: {m for m in sys.modules
                if m.split(".")[0] in ("alleekit", "numpy", "scipy")}
import alleekit
report = {"after_package": sorted(ours())}
import alleekit.cli as cli
real_run = cli.run_experiment
def spy(*args, **kwargs):
    before = ours()
    try:
        return real_run(*args, **kwargs)
    finally:
        report["added_by_run"] = sorted(ours() - before)
cli.run_experiment = spy
report["rc"] = cli.main(sys.argv[1:])
report["loaded"] = sorted(ours())
report["cmath"] = "cmath" in sys.modules
print(json.dumps(report))
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def drive(tmp_path_factory):
    """The _DRIVER report of a command on its _BODIES config; each config
    runs once per module."""
    reports = {}

    def report(command):
        if command not in reports:
            tmp = tmp_path_factory.mktemp("run")
            cfg = tmp / f"{command}.cfg"
            cfg.write_text(_KINETICS + _BODIES[command])
            got = json.loads(_python(_DRIVER, command, "--config", str(cfg),
                                     "--out", str(tmp / "out")))
            assert got["rc"] == 0
            reports[command] = got
        return reports[command]

    return report


def test_scipy_free_commands_load_no_scipy(drive):
    for command in ("equilibria", "thresholds", "temporal-diagram"):
        report = drive(command)
        assert report["after_package"] == ["alleekit"]
        assert not [m for m in report["loaded"] if m.split(".")[0] == "scipy"]
        assert "alleekit.pde" not in report["loaded"]


def test_scalar_commands_load_no_numpy(drive):
    # nothing loaded by the end: not by import alleekit.cli, nor by the runs
    for command in ("equilibria", "thresholds", "temporal-diagram"):
        assert all(m.split(".")[0] == "alleekit" for m in drive(command)["loaded"])


def _numpy_modules_after(code: str) -> list[str]:
    return json.loads(_python(
        code + "import json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'numpy']))\n"))


def test_temporal_integrates_and_classifies_without_numpy():
    assert _numpy_modules_after(
        "from alleekit.model import KineticParams, upper_coexisting\n"
        "from alleekit.temporal import attractor_summary, integrate_ode\n"
        "p = KineticParams(sigma=1.82, alpha=0.07, beta=0.2, gamma=1.2, eta=0.1)\n"
        "e = upper_coexisting(p)\n"
        "tr = integrate_ode((e.u + 0.01, e.v + 0.01), p, 500.0)\n"
        "assert attractor_summary(tr, transient=250.0).kind.value == 'LimitCycle'\n"
    ) == []


def test_waves_still_loads_numpy():
    assert "numpy" in _numpy_modules_after("import alleekit.waves\n")


def test_stepping_commands_skip_scipy_linalg_package(drive):
    for command in ("simulate", "lyapunov", "pulse"):
        report = drive(command)
        assert "scipy.linalg._flapack" in report["loaded"]
        assert "scipy.linalg" not in report["loaded"]


@pytest.mark.parametrize("command", ["simulate", "lyapunov", "pulse", "continue",
                                     "wave-scan"])
def test_lapack_commands_run_no_scipy_package_init(drive, command):
    # pde finds the extension's file without importing scipy itself
    loaded = drive(command)["loaded"]
    assert not [m for m in loaded if m in ("scipy", "scipy.__config__")
                or m.startswith("scipy._lib")]
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == [
        "scipy.linalg._flapack"]


def test_continue_loads_lapack_but_no_sparse_or_linalg_package(drive):
    report = drive("continue")
    assert "scipy.linalg._flapack" in report["loaded"]
    assert "scipy.linalg" not in report["loaded"]
    assert not [m for m in report["loaded"] if m.startswith("scipy.sparse")]
    loaded = json.loads(_python(
        "import json, sys\n"
        "import alleekit.cli, alleekit.continuation\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


def test_wave_scan_loads_lapack_but_no_integrate_interpolate_or_sparse(drive):
    report = drive("wave-scan")
    assert "scipy.linalg._flapack" in report["loaded"]
    assert "scipy.linalg" not in report["loaded"]
    assert not [m for m in report["loaded"] if m.startswith(
        ("scipy.integrate", "scipy.interpolate", "scipy.sparse"))]


def test_scipy_linalg_reuses_the_extension_pde_loaded():
    # a scipy release that moves _flapack fails here, not at a user's prompt
    out = _python(
        "import json, sys\n"
        "from alleekit import pde\n"
        "import scipy.linalg\n"
        "print(json.dumps([scipy.linalg.lapack._flapack is pde.flapack,\n"
        "                  sys.modules['scipy.linalg._flapack'] is pde.flapack,\n"
        "                  scipy.linalg.lapack.dgttrs is pde.flapack.dgttrs]))\n")
    assert json.loads(out) == [True, True, True]


def test_missing_lapack_extension_names_the_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(pde, "find_spec", lambda name: SimpleNamespace(
        submodule_search_locations=[str(tmp_path)]))
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        pde._load_flapack()


# the layers each command runs on
_LAYERS = {
    "equilibria": ["alleekit.model"],
    "temporal-diagram": ["alleekit.temporal"],
    "thresholds": ["alleekit.linear"],
    "simulate": ["alleekit.pde"],
    "continue": ["alleekit.continuation", "alleekit.pde"],
    "wave-scan": ["alleekit.collocation", "alleekit.pde", "alleekit.waves"],
    "lyapunov": ["alleekit.diagnostics", "alleekit.pde"],
    "pulse": ["alleekit.diagnostics", "alleekit.pde"],
}


@pytest.mark.parametrize("command", list(_BODIES))
def test_run_imports_nothing_new(drive, command):
    # main loads the command's layers, numpy with them where they need it,
    # so the run itself imports nothing
    report = drive(command)
    assert report["added_by_run"] == []
    assert set(_LAYERS[command]) <= set(report["loaded"])
    scalar = command in ("equilibria", "thresholds", "temporal-diagram")
    assert ("numpy" in report["loaded"]) is not scalar


def test_package_root_loads_nothing_and_names_only_its_version():
    out = _python(
        "import json, sys, alleekit\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(m for m in sys.modules\n"
        "                     if m.startswith('alleekit.')),\n"
        "    'public': [n for n in dir(alleekit) if not n.startswith('_')],\n"
        "    'version': alleekit.__version__}))\n")
    # perfbench/run.py records the version
    assert json.loads(out) == {"loaded": [], "public": [], "version": "0.1.0"}


def test_wave_scan_loads_no_continuation(drive):
    # collocation takes BandedLU from pde
    assert "alleekit.continuation" not in drive("wave-scan")["loaded"]


@pytest.mark.parametrize("command", ["wave-scan", "temporal-diagram"])
def test_parsing_a_grid_loads_no_numpy(command):
    out = _python(
        "import json, sys\n"
        "from alleekit.config import parse_config\n"
        "cfg = parse_config(sys.argv[1], command=sys.argv[2])\n"
        "print(json.dumps([type(cfg.sigma_grid).__name__, sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))]))\n",
        _KINETICS + _BODIES[command], command)
    assert json.loads(out) == ["tuple", []]


@pytest.mark.parametrize("command", list(_BODIES))
def test_only_thresholds_loads_linear(drive, command):
    # model owns the mode algebra (tr, s, D), det L(k) and the Turing band,
    # so pde sizes a grid and continuation counts the symbol without linear;
    # thresholds takes K = -s/(2d) from the scalars, with no complex root
    report = drive(command)
    thresholds = command == "thresholds"
    assert ("alleekit.linear" in report["loaded"]) is thresholds
    assert report["cmath"] is False
