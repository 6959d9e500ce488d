"""The command-line interface: documented exit codes, the pulse command,
byte-identical reruns and writers, golden manifests of every command,
and manifests of what a run wrote."""

import hashlib
import math
import re
import time

import numpy as np
import pytest

from alleekit.cli import (_branch_ids, _column, _fmt, _write_csv,
                          _write_snapshot, main)
from alleekit.linear import dstar_parts, vbounds
from alleekit.model import (EquilibriumKind, KineticParams, all_equilibria,
                            first_lyapunov_coefficient, hopf_sigma, sigma_s,
                            sigma_sn, sigma_tc, upper_coexisting)
from alleekit import linear, pde, waves
from alleekit.errors import NoConvergence
from alleekit.waves import SCAN_TOL, shoot_heteroclinic

_KINETICS = """[kinetics]
sigma = {sigma}
alpha = 0.07
beta = 0.2
gamma = 1.2
eta = {eta}
[spatial]
d = 46
"""


def _run(tmp_path, capsys, command, body, *, sigma=2.7, out="out", seed=None,
         eta=0.1):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(_KINETICS.format(sigma=sigma, eta=eta) + body)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    rc = main(argv)
    return rc, capsys.readouterr().err


def test_pulse_writes_islands(tmp_path, capsys):
    # the center pulse sits on [L/2 - 5, L/2 + 5], so it fits any domain
    # longer than 10 and stays centred on a long one
    for L in (1000, 200):
        out = f"out{L}"
        rc, err = _run(tmp_path, capsys, "pulse",
                       f"l = {L}\n[grid]\nn = 128\n[run]\nt = 20\n",
                       out=out, seed=1)
        assert rc == 0, err
        lines = (tmp_path / out / "islands.csv").read_text().splitlines()
        assert lines[0] == "t,island_count"
        assert len(lines) > 1
        assert "islands.csv" in (tmp_path / out / "manifest.txt").read_text()


@pytest.mark.parametrize("command,body", [
    ("thresholds", "l = 200\n"),
    ("continue", "l = 200\n[grid]\nn = 64\n"),
])
def test_no_coexisting_state_is_a_config_error(tmp_path, capsys, command, body):
    rc, err = _run(tmp_path, capsys, command, body, sigma=0.3)
    assert rc == 2
    assert "no coexisting equilibrium at sigma=0.3" in err
    assert "Traceback" not in err


def test_lyapunov_too_short_is_a_config_error(tmp_path, capsys):
    rc, err = _run(tmp_path, capsys, "lyapunov",
                   "l = 200\n[grid]\nn = 64\n[run]\nt = 50\n", seed=1)
    assert rc == 2
    assert "renormalizations" in err
    assert "Traceback" not in err


def test_lyapunov_too_short_writes_nothing(tmp_path, capsys):
    # the renormalization count is checked with the config, before --out
    # is created
    rc, err = _run(tmp_path, capsys, "lyapunov",
                   "l = 200\n[grid]\nn = 64\n[run]\nt = 50\n", seed=1)
    assert rc == 2
    assert "[run] t:" in err and "renormalizations" in err
    assert not (tmp_path / "out").exists()


def test_lyapunov_rejects_strang(tmp_path, capsys):
    # the tangent is the linearised IMEX map, so a Strang run would measure
    # a different flow from the one asked for
    rc, err = _run(tmp_path, capsys, "lyapunov",
                   "l = 200\n[grid]\nn = 64\n[run]\nt = 230\n"
                   "scheme = strang\n", seed=1)
    assert rc == 2, err
    assert "[run] scheme" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "lyapunov.csv").exists()


def test_continue_start_outside_range_is_a_config_error(tmp_path, capsys):
    # sigma = 2.7 lies above the default range [1.5, 2.4]; no truncated
    # branch may be written
    rc, err = _run(tmp_path, capsys, "continue",
                   "l = 200\n[grid]\nn = 64\n[sweep]\nsteps = 40\n")
    assert rc == 2
    assert "outside the continuation range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "branch.csv").exists()


def test_continue_halves_a_first_step_past_sigma_zero(tmp_path, capsys):
    # a predictor at sigma <= 0 fails like any other correction, so the
    # step is halved instead of the kinetics raising
    rc, err = _run(tmp_path, capsys, "continue",
                   "l = 200\n[grid]\nn = 64\n[sweep]\nsteps = 3\n"
                   "ds0 = 100\n", sigma=1.83)
    assert rc in (0, 4), err
    assert "Traceback" not in err


@pytest.mark.parametrize("body,lo,hi", [
    ("l = 200\n[grid]\nn = 64\n[sweep]\nsteps = 3\nds0 = 100\n", 1.5, 2.4),
    ("l = 200\n[grid]\nn = 256\n[sweep]\nds0 = 1.5e-3\nbracket_lo = 1.767\n"
     "bracket_hi = 1.8305\nsteps = 20\n", 1.767, 1.8305),
])
def test_continue_writes_no_point_outside_its_range(tmp_path, capsys, body,
                                                     lo, hi):
    # a step that leaves the bracket is cut back to the first corrected
    # point past it, within the 1e-7 refinement width, and the branch ends
    rc, err = _run(tmp_path, capsys, "continue", body, sigma=1.83)
    assert rc == 0, err
    rows = [row.split(",") for row in
            (tmp_path / "out" / "branch.csv").read_text().splitlines()[1:]]
    assert all(lo - 1e-7 <= float(row[1]) <= hi + 1e-7 for row in rows)
    assert rows[-1][4] == "End" and abs(float(rows[-1][1]) - lo) < 1e-7


def test_wave_scan_brackets_hopf_above_coexistence_floor(tmp_path, capsys):
    # with eta = 0.2 nothing coexists below sigma_TC = 0.879, so the Hopf
    # point (2.190) must be sought above it, not from a fixed sigma = 0.5
    rc, err = _run(tmp_path, capsys, "wave-scan",
                   "[sweep]\nsigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"
                   "c_lo = 5.9\nc_hi = 5.9\nc_count = 1\n", eta=0.2)
    assert rc == 0, err
    rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()
    assert rows[0] == "sigma,c,classification_code,c_min_at_sigma"
    assert len(rows) == 2


def test_wave_scan_writes_one_orbit_row_per_sample(tmp_path, capsys):
    rc, err = _run(tmp_path, capsys, "wave-scan",
                   "[sweep]\nsigma_lo = 1.9\nsigma_hi = 1.9\nsigma_count = 1\n"
                   "c_lo = 6.0\nc_hi = 6.0\nc_count = 1\n")
    assert rc == 0, err
    rows = (tmp_path / "out" / "orbit.csv").read_text().splitlines()
    assert rows[0] == "t,X,Y,W,Z"
    # the orbit repeats the scan's shot
    shot = shoot_heteroclinic(
        KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=1.9, eta=0.1),
        46.0, 6.0, tol=SCAN_TOL)
    fields = [row.split(",") for row in rows[1:]]
    assert {len(f) for f in fields} == {5}
    assert [f[0] for f in fields] == [_fmt(t) for t in shot.t]
    assert fields[-1][1:] == [_fmt(x) for x in shot.states[-1]]


@pytest.mark.parametrize("command,body,key", [
    ("temporal-diagram", "[sweep]\nsigma_lo = -1\nsigma_hi = 1.9\n"
                         "sigma_count = 2\nt_sim = 200\n", "sigma_lo"),
    ("thresholds", "l = 200\n[sweep]\nbracket_lo = -1\n", "bracket_lo"),
    ("wave-scan", "[sweep]\nsigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"
                  "c_lo = -1\nc_hi = -1\nc_count = 1\n", "c_lo"),
])
def test_nonpositive_sweep_low_is_a_config_error(tmp_path, capsys, command,
                                                 body, key):
    rc, err = _run(tmp_path, capsys, command, body)
    assert rc == 2, err
    assert f"[sweep] {key}: must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid,run,code", [
    # an explicit reaction step of 50 time units overshoots to non-finite
    ("dt = 50\n", "t = 2000\namplitude = 0.5\n", 3),
    # three series samples cannot fill the classification window
    ("", "t = 10\nseries_every = 5\n", 4),
    # 21 samples fill it in time, but only 6 of them fall inside it
    ("", "t = 100\nseries_every = 5\n", 4),
])
def test_simulate_failure_exit_codes(tmp_path, capsys, grid, run, code):
    rc, err = _run(tmp_path, capsys, "simulate",
                   f"l = 200\n[grid]\nn = 64\n{grid}[run]\n"
                   f"ic = perturbed_homogeneous\n{run}", seed=1)
    assert rc == code, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "lyapunov"])
def test_underflowing_default_dt_is_a_config_error(tmp_path, capsys, command):
    # dx = 1e-200 / 15 squares to 0, and so would the default step: the
    # grid refuses it first, naming dx, since no [grid] dt can step it
    rc, err = _run(tmp_path, capsys, command,
                   "l = 1e-200\n[grid]\nn = 16\n[run]\n"
                   "ic = perturbed_homogeneous\nt = 230\ntransient = 10\n",
                   seed=1)
    assert rc == 2, err
    assert "dx=6.67e-202" in err and "[grid] dt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,transient", [
    ("simulate", 10), ("lyapunov", 10), ("lyapunov", 0)])
def test_endless_default_dt_is_a_config_error(tmp_path, capsys, monkeypatch,
                                              command, transient):
    # dx = 1e-150 / 15 gives a default step of 1.93e-305, so T = 230 would
    # take about 1.2e307 steps: the run refuses before it builds a stepper
    # (lyapunov's transient run first, or largest_lyapunov without one)
    def no_stepper(*args, **kwargs):
        raise AssertionError("a stepper was built")
    monkeypatch.setattr(pde._Stepper, "__init__", no_stepper)
    start = time.perf_counter()
    rc, err = _run(tmp_path, capsys, command,
                   "l = 1e-150\n[grid]\nn = 16\n[run]\n"
                   f"ic = perturbed_homogeneous\nt = 230\ntransient = {transient}\n",
                   seed=1)
    assert time.perf_counter() - start < 1.0
    assert rc == 2, err
    assert "steps of dt=1.93e-305" in err and "[grid] dt" in err
    assert "Traceback" not in err


_TINY_GRID = "[grid]\nn = 16\n"
_ONE_SIGMA = "[sweep]\nsigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"

# configs at the ends of the float range: (command, kinetics and [spatial]
# values that replace those of _KINETICS, the rest of the config, the exit
# code, and what stderr must name); exit 0 where the run has an answer
_EDGE_CONFIGS = {
    "simulate-dx-squares-to-0": (
        "simulate", {}, "l = 1e-300\n" + _TINY_GRID + "dt = 0.05\n[run]\n"
        "ic = perturbed_homogeneous\nt = 1\nseed = 1\n",
        2, "dx=6.67e-302 squares out of the float range"),
    "lyapunov-dx-squares-to-0": (
        "lyapunov", {}, "l = 1e-300\n" + _TINY_GRID + "dt = 0.05\n[run]\n"
        "t = 230\ntransient = 10\nseed = 1\n",
        2, "dx=6.67e-302 squares out of the float range"),
    "continue-dx-squares-to-0": (
        "continue", {}, "l = 1e-300\n" + _TINY_GRID + "[sweep]\nsteps = 3\n"
        "bracket_hi = 2.8\n",
        2, "dx=6.67e-302 squares out of the float range"),
    "simulate-dx-squares-past-max": (
        "simulate", {}, "l = 1e300\n" + _TINY_GRID + "[run]\n"
        "ic = perturbed_homogeneous\nt = 1\nseed = 1\n",
        2, "dx=6.67e+298 squares out of the float range"),
    "thresholds-k1-past-max": (
        "thresholds", {}, "l = 1e-300\n",
        2, "k_1 = (1*pi/L)**2 leaves the float range at L=1e-300"),
    "thresholds-k1-to-0": (
        "thresholds", {}, "l = 1e300\n",
        2, "k_1 = (1*pi/L)**2 leaves the float range at L=1e+300"),
    # c**2 overflows, so each cell is Unknown (NonFinite), in process and
    # from the pool alike
    "wave-scan-c-squared-past-max": (
        "wave-scan", {}, _ONE_SIGMA + "c_lo = 1e200\nc_hi = 1e200\nc_count = 1\n",
        0, None),
    "wave-scan-pool-c-squared-past-max": (
        "wave-scan", {}, _ONE_SIGMA + "c_lo = 1e200\nc_hi = 1e250\nc_count = 2\n",
        0, None),
    "equilibria-sigma-1e200": (
        "equilibria", {"sigma": "1e200"}, "", 3, "non-finite"),
    "equilibria-gamma-1e300": (
        "equilibria", {"sigma": "0.0172", "alpha": "3.26e7",
                       "beta": "7.75e-5", "gamma": "1e300", "eta": "3.92e-3"},
        "", 0, None),
    "equilibria-beta-1e-300": (
        "equilibria", {"beta": "1e-300"}, "", 0, None),
    "simulate-default-dt-dx-squares-to-0": (
        "simulate", {}, "l = 1e-200\n" + _TINY_GRID + "[run]\n"
        "ic = perturbed_homogeneous\nt = 230\nseed = 1\n",
        2, "dx=6.67e-202 squares out of the float range"),
    "simulate-default-dt-underflows": (
        "simulate", {"d": "1e300"}, "l = 1e-100\n" + _TINY_GRID + "[run]\n"
        "ic = perturbed_homogeneous\nt = 230\nseed = 1\n",
        2, "the default time step underflows at dx=6.67e-102"),
    "simulate-plan-past-max-steps": (
        "simulate", {}, "l = 1e-150\n" + _TINY_GRID + "[run]\n"
        "ic = perturbed_homogeneous\nt = 230\nseed = 1\n",
        2, "steps of dt=1.93e-305"),
}


@pytest.mark.parametrize("case", list(_EDGE_CONFIGS))
def test_edge_configs_exit_with_a_documented_code(tmp_path, capsys, case):
    command, values, body, code, named = _EDGE_CONFIGS[case]
    text = _KINETICS.format(sigma=2.7, eta=0.1)
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text + body)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    if named is not None:
        assert named in err


@pytest.mark.parametrize("command,body", [
    ("thresholds", "l = 200\n"),
    ("continue", "l = 200\n[grid]\nn = 64\n[sweep]\nsteps = 3\n"
                 "bracket_hi = 2.8\n"),
    ("wave-scan", "[sweep]\nsigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"
                  "c_lo = 5.9\nc_hi = 5.9\nc_count = 1\n"),
    ("temporal-diagram", "[sweep]\nsigma_lo = 1.82\nsigma_hi = 1.9\n"
                         "sigma_count = 2\nt_sim = 200\n"),
    ("equilibria", ""),
    ("simulate", "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 20\n"
                 "ic = perturbed_homogeneous\n"),
    ("simulate", "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 20\n"
                 "ic = perturbed_homogeneous\nscheme = strang\n"
                 "snapshot_every = 5\n"),
    ("lyapunov", "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 230\n"
                 "transient = 10\n"),
    ("pulse", "l = 200\n[grid]\nn = 128\n[run]\nseed = 1\nt = 20\n"),
])
def test_reruns_give_identical_manifests(tmp_path, capsys, command, body):
    manifests = []
    for out in ("first", "second"):
        rc, err = _run(tmp_path, capsys, command, body, out=out)
        assert rc == 0, err
        manifests.append((tmp_path / out / "manifest.txt").read_bytes())
    assert manifests[0] == manifests[1]
    assert manifests[0].count(b"\n") >= 1


# sha256 of manifest.txt on the orbits benchmark configs (sigma = 2.7 and
# L = 200; the diagram at sigma = 1.82, inside the cycle window, with
# t_sim = 2500); all three commands run on plain Python floats, with no numpy
# between the kinetics and the CSV
@pytest.mark.parametrize("command,body,sigma,digest", [
    ("equilibria", "", 2.7,
     "c1e13a3fdaffc3badfab3b2b78cbb114b59efd2d50e754c31a40c8408d0b4ae8"),
    ("thresholds", "l = 200\n", 2.7,
     "ad91e30618d7be241212c600ae58fca179887a343df612c4252db13ac2d3af6d"),
    ("temporal-diagram", "[sweep]\nsigma_lo = 1.82\nsigma_hi = 1.82\n"
                         "sigma_count = 1\nt_sim = 2500\n", 1.82,
     "59742e4b7b77c900e8bde24bae1f7e8679fbd5622b7ba59d257286191966efd9"),
], ids=["equilibria", "thresholds", "temporal-diagram"])
def test_scalar_commands_give_golden_manifests(tmp_path, capsys, command, body,
                                               sigma, digest):
    rc, err = _run(tmp_path, capsys, command, body, sigma=sigma)
    assert rc == 0, err
    manifest = (tmp_path / "out" / "manifest.txt").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


def _sorted_branch_ids(eqs) -> list[int]:
    """The diagram's branch ids by sorting each kind by u: 0 for the
    trivial state, 1/2 for the prey-only ones, 3+ for the coexisting ones."""
    ids = [0] * len(eqs)
    for first, kinds in ((1, (EquilibriumKind.AXIAL1, EquilibriumKind.AXIAL2)),
                         (3, (EquilibriumKind.COEXISTING,))):
        ranked = sorted((i for i, e in enumerate(eqs) if e.kind in kinds),
                        key=lambda i: eqs[i].u)
        for rank, i in enumerate(ranked):
            ids[i] = first + rank
    return ids


@pytest.mark.parametrize("kinetics", ["p_main", "p_ratio"])
def test_branch_ids_read_the_order_of_all_equilibria(request, kinetics):
    # the diagram's ids and its cycle row rest on this order: the trivial
    # state, the prey-only states by descending u, the coexisting ones by
    # ascending u (p_ratio, alpha = 0, has two of them above sigma ~ 3.9)
    p = request.getfixturevalue(kinetics)
    counts = set()
    for sigma in [0.4, *np.geomspace(0.3, 1e6, 80)]:
        eqs = all_equilibria(p.with_sigma(float(sigma)))
        axial = [e.u for e in eqs if e.kind in (EquilibriumKind.AXIAL1,
                                                EquilibriumKind.AXIAL2)]
        coex = [e.u for e in eqs if e.kind is EquilibriumKind.COEXISTING]
        assert eqs[0].kind is EquilibriumKind.TRIVIAL
        assert [e.u for e in eqs[1:]] == axial + coex
        assert axial == sorted(set(axial), reverse=True)
        assert coex == sorted(set(coex))
        assert _branch_ids(eqs) == _sorted_branch_ids(eqs)
        counts.add((len(axial), len(coex)))
    assert {(0, 0), (1, 0), (2, 1 if kinetics == "p_main" else 2)} <= counts


@pytest.mark.parametrize("give_out", [True, False], ids=["out", "cwd"])
def test_manifest_lists_only_what_the_run_wrote(tmp_path, capsys, monkeypatch,
                                               give_out):
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "snapshot_0099.csv").write_text("stale\n")
    (out / "sub" / "notes.txt").write_text("notes\n")
    cfg = tmp_path / "equilibria.cfg"
    cfg.write_text(_KINETICS.format(sigma=2.7, eta=0.1))
    argv = ["equilibria", "--config", str(cfg)]
    if give_out:
        argv += ["--out", str(out)]
    else:  # no --out and no [output] dir: the working directory
        monkeypatch.chdir(out)
    assert main(argv) == 0, capsys.readouterr().err
    lines = (out / "manifest.txt").read_text().splitlines()
    assert [line.split("  ", 1)[1] for line in lines] == ["bifurcations.csv",
                                                          "equilibria.csv"]


def test_equilibria_writes_the_library_bifurcation_values(tmp_path, capsys,
                                                          p_main):
    rc, err = _run(tmp_path, capsys, "equilibria", "")
    assert rc == 0, err
    sigma_h, e_h = hopf_sigma(p_main, (1.5, 2.4))  # the default bracket
    want = [("sigma_sn", sigma_sn(p_main)), ("sigma_tc", sigma_tc(p_main)),
            ("sigma_hopf", sigma_h),
            ("l1_hopf", first_lyapunov_coefficient(p_main, sigma_h, e_h)),
            ("sigma_s", sigma_s(upper_coexisting(p_main), p_main))]
    assert ((tmp_path / "out" / "bifurcations.csv").read_text().splitlines()
            == ["quantity,value", *(f"{q},{_fmt(v)}" for q, v in want)])


def test_thresholds_writes_the_library_bounds(tmp_path, capsys, p_main):
    rc, err = _run(tmp_path, capsys, "thresholds", "l = 200\n")
    assert rc == 0, err
    u_sup, v_sup = vbounds(p_main)
    lines = (tmp_path / "out" / "modes.csv").read_text().splitlines()
    assert lines[:5] == [
        f"# sigma = {_fmt(2.7)}",
        f"# dstar = {_fmt(dstar_parts(p_main, 200.0)['dstar'])}",
        f"# u_sup = {_fmt(u_sup)}",
        f"# v_sup = {_fmt(v_sup)}",
        "j,k_j,trace,det,unstable",
    ]


def test_values_whose_hypotheses_fail_are_written_as_nan(tmp_path, capsys):
    # the ratio-dependent limit alpha = 0 has no transcritical point, no
    # non-existence bound, and no Hopf point on this bracket
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text("[kinetics]\nsigma = 6\nalpha = 0\nbeta = 0.2\n"
                   "gamma = 1.2\neta = 0.1\n[spatial]\nd = 46\nl = 200\n"
                   "[sweep]\nbracket_lo = 4\nbracket_hi = 8\n")
    for command in ("equilibria", "thresholds"):
        rc = main([command, "--config", str(cfg),
                   "--out", str(tmp_path / command)])
        assert rc == 0, capsys.readouterr().err
    rows = (tmp_path / "equilibria" / "bifurcations.csv").read_text()
    values = dict(row.split(",") for row in rows.splitlines()[1:])
    assert [values[q] for q in ("sigma_tc", "sigma_hopf", "l1_hopf")] == [
        "nan"] * 3
    assert float(values["sigma_s"]) == pytest.approx(1.73352, abs=5e-6)
    modes = (tmp_path / "thresholds" / "modes.csv").read_text().splitlines()
    assert modes[1] == "# dstar = nan"


def test_snapshot_writer_matches_generic_writer(tmp_path):
    awkward = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               1e308, 0.1, 3.0]
    x = np.array(awkward)
    u = np.array(awkward[::-1])
    v = np.roll(x, 3)
    _write_snapshot(tmp_path / "fast.csv", _column(x), u, v, ("t = 1.5",))
    _write_csv(tmp_path / "generic.csv", ("x", "u", "v"), zip(x, u, v),
               ("t = 1.5",))
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "generic.csv").read_bytes())


@pytest.mark.parametrize("np_value,value,text", [
    (np.True_, True, "1"),
    (np.False_, False, "0"),
    (np.int64(7), 7, "7"),
    (np.float64(0.1), 0.1, "1.00000000000e-01"),
])
def test_fmt_gives_numpy_scalars_the_text_of_python_values(np_value, value,
                                                           text):
    assert _fmt(np_value) == _fmt(value) == text


# sha256 of manifest.txt on a continue run that tags six branch points (21
# points) and on a 1 x 1 wave-scan that writes orbit.csv, which pins to the
# bit the determinant signs, end-state spectra, launch direction and
# projection rows behind them; and on a 2 x 2 wave-scan (the benchmark's
# smoke scan), whose four cells a multi-core box shoots in worker
# processes, recorded with the cells shot one after another
@pytest.mark.parametrize("command,body,sigma,digest", [
    ("continue", "l = 200\n[grid]\nn = 256\n[sweep]\nds0 = 1.5e-3\n"
                 "bracket_lo = 1.767\nbracket_hi = 1.8305\nsteps = 20\n", 1.83,
     "737d5709f27aab4b7692b23400d25ba2de8b7e8f1118c147a8fb74c79e7d423c"),
    ("wave-scan", "[sweep]\nsigma_lo = 1.9\nsigma_hi = 1.9\nsigma_count = 1\n"
                  "c_lo = 6.0\nc_hi = 6.0\nc_count = 1\n", 2.7,
     "5017b19e489d4ff98c4e61cfa9aed32e5f6663cbd9db726327d04e4ca35c11c0"),
    ("wave-scan", "[sweep]\nsigma_lo = 1.9\nsigma_hi = 3.0\nsigma_count = 2\n"
                  "c_lo = 4.7\nc_hi = 6.0\nc_count = 2\n", 2.7,
     "17490c21097c794d3c5c2a0c005bff56d587b22fa9567d8966761b588532d4ff"),
], ids=["continue", "wave-scan-1x1", "wave-scan-2x2"])
def test_linearizing_commands_give_golden_manifests(tmp_path, capsys, command,
                                                    body, sigma, digest):
    rc, err = _run(tmp_path, capsys, command, body, sigma=sigma)
    assert rc == 0, err
    if command == "continue":
        rows = (tmp_path / "out" / "branch.csv").read_text().splitlines()[1:]
        assert len(rows) == 21
        assert sum(row.endswith(",BP") for row in rows) == 6
    manifest = (tmp_path / "out" / "manifest.txt").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


# sha256 of manifest.txt on the small stepping configs of
# test_reruns_give_identical_manifests: simulate with each scheme, lyapunov
# and pulse, all seeded, so each pins the stepper, the recorder and the
# diagnostics to the bit
@pytest.mark.parametrize("command,body,digest", [
    ("simulate", "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 20\n"
                 "ic = perturbed_homogeneous\n",
     "4ed98d35ca9c184df1792ac7601c3d1cc8629bccbedd3f79814666e97ba6905b"),
    ("simulate", "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 20\n"
                 "ic = perturbed_homogeneous\nscheme = strang\n"
                 "snapshot_every = 5\n",
     "4a8347a4b43ac08fa58a94eb0d6199c40b2a9c896400d283e2ab17b50a505b10"),
    ("lyapunov", "l = 200\n[grid]\nn = 64\n[run]\nseed = 1\nt = 230\n"
                 "transient = 10\n",
     "2460be477cba492df0f22518cd85a6aa0861e12b59ed2ada62f4ce7014476d2d"),
    ("pulse", "l = 200\n[grid]\nn = 128\n[run]\nseed = 1\nt = 20\n",
     "c2771b6a9a439c36d71c9df930d642e171a8c85f52074f08fedb0d19e1555321"),
], ids=["simulate-imex", "simulate-strang", "lyapunov", "pulse"])
def test_stepping_commands_give_golden_manifests(tmp_path, capsys, command,
                                                 body, digest):
    rc, err = _run(tmp_path, capsys, command, body)
    assert rc == 0, err
    manifest = (tmp_path / "out" / "manifest.txt").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "out").write_text("not a directory\n")
    rc, err = _run(tmp_path, capsys, "equilibria", "")
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(_KINETICS.format(sigma=2.7, eta=0.1).encode()
                    + "# prédateur\n".encode("latin-1"))
    rc = main(["equilibria", "--config", str(cfg), "--out",
               str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_wave_scan_of_one_nowave_cell_writes_no_orbit(tmp_path, capsys):
    # c = 1 lies below the minimal speed at sigma = 2.7: there is no front
    # to shoot, and the run still ends with its scan and manifest
    rc, err = _run(tmp_path, capsys, "wave-scan",
                   "[sweep]\nsigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"
                   "c_lo = 1.0\nc_hi = 1.0\nc_count = 1\n")
    assert rc == 0, err
    rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()
    assert rows[1].split(",")[2] == "0"
    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert [line.split("  ", 1)[1] for line in lines] == ["scan.csv"]


_ONE_FRONT_CELL = ("[sweep]\nsigma_lo = 1.9\nsigma_hi = 1.9\nsigma_count = 1\n"
                   "c_lo = 6.0\nc_hi = 6.0\nc_count = 1\n")


def _written(tmp_path) -> list[str]:
    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    return [line.split("  ", 1)[1] for line in lines]


def test_wave_scan_orbit_is_the_one_shot_that_classified_the_cell(
        tmp_path, capsys, monkeypatch):
    # the single cell is shot once, at the scan's tolerance, and orbit.csv
    # is written from that shot
    real, tols = waves.shoot_heteroclinic, []

    def shoot(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(waves, "shoot_heteroclinic", shoot)
    rc, err = _run(tmp_path, capsys, "wave-scan", _ONE_FRONT_CELL)
    assert rc == 0, err
    assert _written(tmp_path) == ["orbit.csv", "scan.csv"]
    assert tols == [SCAN_TOL]


def test_wave_scan_of_one_unknown_cell_writes_no_orbit(tmp_path, capsys,
                                                       monkeypatch):
    def failing_shot(*args, **kwargs):
        raise NoConvergence("profile collocation failed")

    monkeypatch.setattr(waves, "shoot_heteroclinic", failing_shot)
    rc, err = _run(tmp_path, capsys, "wave-scan", _ONE_FRONT_CELL)
    assert rc == 0, err
    rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()
    assert rows[1].split(",")[2] == "3"
    assert _written(tmp_path) == ["scan.csv"]


def test_simulate_writes_a_snapshot_per_interval(tmp_path, capsys):
    rc, err = _run(tmp_path, capsys, "simulate",
                   "l = 200\n[grid]\nn = 64\ndt = 0.05\n[run]\nt = 20\n"
                   "ic = perturbed_homogeneous\nsnapshot_every = 5\n", seed=1)
    assert rc == 0, err
    out = tmp_path / "out"
    snapshots = [f"snapshot_{k:04d}.csv" for k in range(5)]
    assert sorted(f.name for f in out.glob("snapshot_*")) == snapshots
    for k, name in enumerate(snapshots):
        assert (out / name).read_text().splitlines()[0] == f"# t = {_fmt(5.0 * k)}"
    # the last snapshot is the final state
    assert (out / snapshots[-1]).read_bytes() == (out / "final.csv").read_bytes()
    assert _written(tmp_path) == sorted(
        ["summary.csv", *snapshots, "final.csv", "classification.txt"])


def test_thresholds_list_every_branch_point_of_the_scan(tmp_path, capsys):
    # at L = 600 the band top reaches mode 83, far past a fixed mode list
    rc, err = _run(tmp_path, capsys, "thresholds", "l = 600\n")
    assert rc == 0, err
    rows = (tmp_path / "out" / "bps.csv").read_text().splitlines()[1:]
    assert len(rows) == 72
    assert max(int(row.split(",")[0]) for row in rows) == 83


def test_thresholds_scans_estar_once_for_thresholds_and_branch_points(
        tmp_path, capsys, monkeypatch):
    # 401 scan points, 26 refined roots and the K of the two thresholds; a
    # second scan for the branch points would add 401
    evaluations = []
    estar_scalars = linear._estar_scalars

    def counted(p, d, sigma):
        evaluations.append(sigma)
        return estar_scalars(p, d, sigma)

    monkeypatch.setattr(linear, "_estar_scalars", counted)
    rc, err = _run(tmp_path, capsys, "thresholds", "l = 200\n")
    assert rc == 0, err
    assert len(evaluations) == 1065


def test_simulate_invasion_step_runs_on_a_short_domain(tmp_path, capsys):
    # x = 200 is not inside (0, 200), so the interface defaults to L/2
    rc, err = _run(tmp_path, capsys, "simulate",
                   "l = 200\n[grid]\nn = 64\n[run]\nic = invasion_step\n"
                   "t = 20\n")
    assert rc == 0, err


def test_equilibria_without_a_coexisting_state_writes_nan(tmp_path, capsys):
    # beta = 0 with gamma <= 1 has no coexisting state: the axial states
    # and sigma_SN are written, and the values that need E* are nan
    cfg = tmp_path / "holling.cfg"
    cfg.write_text("[kinetics]\nsigma = 2.7\nalpha = 0.07\nbeta = 0\n"
                   "gamma = 0.9\neta = 0.1\n")
    rc = main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    rows = (tmp_path / "equilibria.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["Trivial", "Axial1", "Axial2"]
    rows = (tmp_path / "bifurcations.csv").read_text().splitlines()[1:]
    assert dict(row.split(",") for row in rows) == {
        "sigma_sn": _fmt(0.4), "sigma_tc": "nan", "sigma_hopf": "nan",
        "l1_hopf": "nan", "sigma_s": "nan"}


def test_equilibria_at_large_sigma_keeps_axial2_off_the_origin(tmp_path, capsys):
    # u2 = eta/(sigma*u1) ~ 1e-17, a saddle; (sigma - s)/(2*sigma) cancelled
    # to 0 and wrote a copy of the trivial row
    rc, err = _run(tmp_path, capsys, "equilibria", "", sigma=1e16)
    assert rc == 0, err
    rows = (tmp_path / "out" / "equilibria.csv").read_text().splitlines()[1:]
    rows = {row.split(",")[1]: row.split(",")[2:] for row in rows}
    assert rows["Axial2"][0] == _fmt(1e-17)
    assert rows["Axial2"][-1] == "4" and rows["Trivial"][-1] == "0"


@pytest.mark.parametrize("sigma", [1.4e154, 1e200])
def test_equilibria_past_float_range_is_a_numerical_failure(tmp_path, capsys,
                                                            sigma):
    # sigma**2 overflows past sigma ~ 1.34e154, so the prey-only states are
    # not computable: exit 3, not the sigma = 4*eta double root at u = 1/2
    rc, err = _run(tmp_path, capsys, "equilibria", "", sigma=sigma)
    assert rc == 3
    assert "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.txt").exists()


def test_equilibria_at_huge_gamma_writes_sigma_tc(tmp_path, capsys):
    # (gamma - 1)**2 raised OverflowError past gamma ~ 1.3e154, although
    # sigma_TC itself is ~1.2e290
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text("[kinetics]\nsigma = 0.0172\nalpha = 3.26e7\n"
                   "beta = 7.75e-5\ngamma = 1e300\neta = 3.92e-3\n")
    rc = main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 0, err
    rows = (tmp_path / "bifurcations.csv").read_text().splitlines()[1:]
    sigma_tc = float(dict(row.split(",") for row in rows)["sigma_tc"])
    assert sigma_tc == pytest.approx(3.92e-3 * 1e300 / 3.26e7, rel=1e-11)


_HOLLING_BODIES = {
    "equilibria": "",
    "temporal-diagram": "[sweep]\nsigma_lo = 1.82\nsigma_hi = 1.9\n"
                        "sigma_count = 2\nt_sim = 200\n",
    "pulse": "l = 200\n[grid]\nn = 128\n[run]\nseed = 1\nt = 20\n",
}


@pytest.mark.parametrize("command", list(_HOLLING_BODIES))
def test_holling_limit_runs_like_beta_zero(tmp_path, capsys, command):
    # beta = 1e-300 ran into OverflowError in the cubic solver; now every
    # number the run writes (E*, its bifurcation values, the orbits and the
    # pulse series built on it) agrees with the Holling-II (beta = 0) run
    cells = {}
    for beta in ("0", "1e-300"):
        cfg = tmp_path / f"{beta}.cfg"
        cfg.write_text(_KINETICS.format(sigma=2.7, eta=0.1).replace(
            "beta = 0.2", f"beta = {beta}") + _HOLLING_BODIES[command])
        rc = main([command, "--config", str(cfg),
                   "--out", str(tmp_path / beta)])
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "Traceback" not in err
        cells[beta] = {path.name: [row.split(",") for row in
                                   path.read_text().splitlines()[1:]]
                       for path in sorted((tmp_path / beta).glob("*.csv"))}
    assert cells["0"].keys() == cells["1e-300"].keys()
    for name, rows in cells["0"].items():
        small = cells["1e-300"][name]
        assert [len(row) for row in small] == [len(row) for row in rows]
        for row, row_small in zip(rows, small):
            for a, b in zip(row, row_small):
                try:
                    a, b = float(a), float(b)
                except ValueError:
                    assert a == b, name
                else:
                    assert math.isclose(a, b, rel_tol=1e-12) or (
                        math.isnan(a) and math.isnan(b)), name


_K = _KINETICS.format(sigma=2.7, eta=0.1)
_GRIDS = "c_lo = 5\nc_hi = 6\nc_count = 2\nsigma_lo = {}\nsigma_hi = {}\n"


# a line after _K is line 9 of the config
@pytest.mark.parametrize("command,text,named", [
    ("equilibria", _K + "[sweep\n", "line 9: malformed section header '[sweep'"),
    ("equilibria", _K + "[]\n", "line 9: malformed section header '[]'"),
    ("equilibria", _K + "[bogus]\n", "line 9: unknown section [bogus]"),
    ("equilibria", _K + "l 200\n", "line 9: expected 'key = value'"),
    ("wave-scan", _K + "[sweep]\n" + _GRIDS.format(2.7, 2.8),
     "[sweep]: sigma_count missing"),
    ("wave-scan", _K + "[sweep]\nsigma_count = 0\n" + _GRIDS.format(2.7, 2.8),
     "[sweep] sigma_count: must be >= 1"),
    ("wave-scan", _K + "[sweep]\nsigma_count = 2\n" + _GRIDS.format(2.8, 2.7),
     "[sweep] sigma_hi: must be >= sigma_lo"),
    ("equilibria", "command = simulate\n" + _K,
     "command mismatch: config says 'simulate', caller says 'equilibria'"),
    ("equilibria", "[kinetics]\nsigma = 2.7\nalpha = 0.07\nbeta = 0.2\n",
     "[kinetics]: missing gamma, eta"),
    ("equilibria", _K.replace("gamma = 1.2", "gamma = 0"),
     "[kinetics]: gamma, sigma, eta must be > 0"),
    ("pulse", _K + "l = 200\n[run]\nt = 20\nseed = 1\nic = invasion_step\n",
     "[run] ic: the pulse command always uses center_pulse"),
    ("equilibria", _K + "[sweep]\nbracket_lo = 2\nbracket_hi = 2\n",
     "[sweep] bracket_hi: must exceed bracket_lo"),
    ("equilibria", _K + "[spatial]\nbogus = 1\n",
     "line 10: unknown key 'bogus' in [spatial]"),
    ("equilibria", _K + "d = 46\n", "line 9: duplicate key 'd' in [spatial]"),
    ("equilibria", _K + "[bogus]\nx = 1\n",
     "line 9: unknown section [bogus]"),
], ids=["open-header", "empty-header", "unknown-section", "no-equals",
        "partial-grid", "zero-count", "reversed-grid", "command-mismatch",
        "missing-kinetics", "zero-gamma", "pulse-ic", "empty-bracket",
        "unknown-key", "duplicate-key", "key-in-unknown-section"])
def test_config_errors_exit_2_naming_the_line_or_key(tmp_path, capsys,
                                                     command, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:")
    assert named in err
    assert "Traceback" not in err


def test_thresholds_without_a_domain_writes_only_the_thresholds(tmp_path,
                                                                capsys):
    rc, err = _run(tmp_path, capsys, "thresholds", "")
    assert rc == 0, err
    out = tmp_path / "out"
    assert sorted(f.name for f in out.iterdir()) == ["manifest.txt",
                                                     "thresholds.csv"]
    (entry,) = (out / "manifest.txt").read_text().splitlines()
    assert entry.endswith("  thresholds.csv")
