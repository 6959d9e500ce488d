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
    # the center pulse sits on [495, 505], so the domain must reach past it
    rc, err = _run(tmp_path, capsys, "pulse",
                   "l = 1000\n[grid]\nn = 128\n[run]\nt = 20\n", seed=1)
    assert rc == 0, err
    lines = (tmp_path / "out" / "islands.csv").read_text().splitlines()
    assert lines[0] == "t,island_count"
    assert len(lines) > 1
    assert "islands.csv" in (tmp_path / "out" / "manifest.txt").read_text()


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


@pytest.mark.parametrize("command,body", [
    ("thresholds", "l = 200\n"),
    ("temporal-diagram", "[sweep]\nsigma_lo = 1.82\nsigma_hi = 1.9\n"
                         "sigma_count = 2\nt_sim = 200\n"),
])
def test_reruns_give_identical_manifests(tmp_path, capsys, command, body):
    manifests = []
    for out in ("first", "second"):
        rc, err = _run(tmp_path, capsys, command, body, out=out)
        assert rc == 0, err
        manifests.append((tmp_path / out / "manifest.txt").read_bytes())
    assert manifests[0] == manifests[1]
    assert manifests[0].count(b"\n") >= 1
