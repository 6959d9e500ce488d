"""The command-line interface: documented exit codes, the pulse command,
byte-identical reruns and writers, golden manifests of the scalar commands,
and manifests of what a run wrote."""

import hashlib

import numpy as np
import pytest

from alleekit.cli import _fmt, _write_csv, _write_snapshot, main
from alleekit.model import KineticParams
from alleekit import waves
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
])
def test_simulate_failure_exit_codes(tmp_path, capsys, grid, run, code):
    rc, err = _run(tmp_path, capsys, "simulate",
                   f"l = 200\n[grid]\nn = 64\n{grid}[run]\n"
                   f"ic = perturbed_homogeneous\n{run}", seed=1)
    assert rc == code, err
    assert "Traceback" not in err


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


# sha256 of manifest.txt on the orbits benchmark configs (sigma = 2.7,
# L = 200); both commands run on plain Python floats, with no numpy between
# the kinetics and the CSV
@pytest.mark.parametrize("command,body,digest", [
    ("equilibria", "",
     "d466ae329b7675bef17bf9d843447df590e5084ca8d837c284835e45cc01d1c7"),
    ("thresholds", "l = 200\n",
     "eb8d5da017f21ccfda1233ab8a74f491d692dbf64f7b664fad3f0221bf486021"),
])
def test_scalar_commands_give_golden_manifests(tmp_path, capsys, command, body,
                                               digest):
    rc, err = _run(tmp_path, capsys, command, body)
    assert rc == 0, err
    manifest = (tmp_path / "out" / "manifest.txt").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


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
    assert [line.split("  ", 1)[1] for line in lines] == ["equilibria.csv"]


def test_snapshot_writer_matches_generic_writer(tmp_path):
    awkward = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               1e308, 0.1, 3.0]
    x = np.array(awkward)
    u = np.array(awkward[::-1])
    v = np.roll(x, 3)
    _write_snapshot(tmp_path / "fast.csv", x, u, v, ("t = 1.5",))
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
])
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


def test_simulate_invasion_step_runs_on_a_short_domain(tmp_path, capsys):
    # x = 200 is not inside (0, 200), so the interface defaults to L/2
    rc, err = _run(tmp_path, capsys, "simulate",
                   "l = 200\n[grid]\nn = 64\n[run]\nic = invasion_step\n"
                   "t = 20\n")
    assert rc == 0, err
