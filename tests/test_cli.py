"""The command-line interface: documented exit codes, the pulse command, and
byte-identical reruns."""

import pytest

from alleekit.cli import main

_KINETICS = """[kinetics]
sigma = {sigma}
alpha = 0.07
beta = 0.2
gamma = 1.2
eta = 0.1
[spatial]
d = 46
"""


def _run(tmp_path, capsys, command, body, *, sigma=2.7, out="out", seed=None):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(_KINETICS.format(sigma=sigma) + body)
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


def test_continue_start_outside_range_is_a_config_error(tmp_path, capsys):
    # sigma = 2.7 lies above the default range [1.5, 2.4]; no truncated
    # branch may be written
    rc, err = _run(tmp_path, capsys, "continue",
                   "l = 200\n[grid]\nn = 64\n[sweep]\nsteps = 40\n")
    assert rc == 2
    assert "outside the continuation range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "branch.csv").exists()


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
