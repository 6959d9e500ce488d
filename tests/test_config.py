"""Config parsing: every schema key parsed and rejected by name, and one
source of defaults."""

import dataclasses

import numpy as np
import pytest

from alleekit.config import _SCHEMA, ExperimentConfig, parse_config
from alleekit.errors import ParseError

_KINETICS = """[kinetics]
sigma = 2.7
alpha = 0.07
beta = 0.2
gamma = 1.2
eta = 0.1
"""

# (section, key) -> (valid text, malformed text); "" is the top level
_CASES = {
    ("", "command"): ("simulate", "bogus"),
    ("kinetics", "sigma"): ("2.7", "abc"),
    ("kinetics", "alpha"): ("0.07", "abc"),
    ("kinetics", "beta"): ("0.2", "abc"),
    ("kinetics", "gamma"): ("1.2", "abc"),
    ("kinetics", "eta"): ("0.1", "inf"),
    ("spatial", "d"): ("46", "abc"),
    ("spatial", "l"): ("200", "nan"),
    ("grid", "n"): ("64", "1.5"),
    ("grid", "dt"): ("0.05", "abc"),
    ("run", "t"): ("20", "abc"),
    ("run", "ic"): ("invasion_step", "bogus"),
    ("run", "amplitude"): ("0.02", "abc"),
    ("run", "seed"): ("4", "x4"),
    ("run", "scheme"): ("strang", "rk4"),
    ("run", "snapshot_every"): ("2", "abc"),
    ("run", "series_every"): ("0.5", "abc"),
    ("run", "transient"): ("10", "abc"),
    ("run", "renorm_interval"): ("0.5", "abc"),
    ("sweep", "sigma_lo"): ("1.8", "abc"),
    ("sweep", "sigma_hi"): ("1.9", "abc"),
    ("sweep", "sigma_count"): ("3", "3.0"),
    ("sweep", "c_lo"): ("4.7", "abc"),
    ("sweep", "c_hi"): ("6.0", "abc"),
    ("sweep", "c_count"): ("2", "two"),
    ("sweep", "steps"): ("40", "4e1"),
    ("sweep", "ds0"): ("0.01", "abc"),
    ("sweep", "direction"): ("1", "up"),
    ("sweep", "bracket_lo"): ("1.6", "abc"),
    ("sweep", "bracket_hi"): ("2.5", "abc"),
    ("sweep", "t_sim"): ("500", "abc"),
    ("output", "dir"): ("results", ""),
}


def _text(values: dict[tuple[str, str], str]) -> str:
    lines = [f"{key} = {val}" for (sec, key), val in values.items() if sec == ""]
    for sec in dict.fromkeys(sec for sec, _ in values if sec):
        lines.append(f"[{sec}]")
        lines += [f"{key} = {val}" for (s, key), val in values.items() if s == sec]
    return "\n".join(lines) + "\n"


def test_cases_cover_the_schema():
    assert set(_CASES) == {(sec, key) for sec, keys in _SCHEMA.items() for key in keys}


def test_every_key_parses():
    cfg = parse_config(_text({k: valid for k, (valid, _) in _CASES.items()}))
    assert cfg.command == "simulate"
    assert (cfg.p.sigma, cfg.p.alpha, cfg.p.beta, cfg.p.gamma, cfg.p.eta) == (
        2.7, 0.07, 0.2, 1.2, 0.1)
    assert (cfg.d, cfg.L, cfg.N, cfg.dt, cfg.T) == (46.0, 200.0, 64, 0.05, 20.0)
    assert (cfg.ic, cfg.amplitude, cfg.seed, cfg.scheme) == (
        "invasion_step", 0.02, 4, "strang")
    assert (cfg.snapshot_every, cfg.series_every) == (2.0, 0.5)
    assert (cfg.transient, cfg.renorm_interval) == (10.0, 0.5)
    assert np.array_equal(cfg.sigma_grid, np.linspace(1.8, 1.9, 3))
    assert np.array_equal(cfg.c_grid, np.linspace(4.7, 6.0, 2))
    assert (cfg.steps, cfg.ds0, cfg.direction) == (40, 0.01, 1)
    assert (cfg.bracket, cfg.t_sim, cfg.out_dir) == ((1.6, 2.5), 500.0, "results")


@pytest.mark.parametrize("section,key", list(_CASES), ids=lambda v: v or "top")
def test_malformed_value_names_its_key(section, key):
    values = {k: valid for k, (valid, _) in _CASES.items()}
    values[(section, key)] = _CASES[(section, key)][1]
    with pytest.raises(ParseError) as exc:
        parse_config(_text(values))
    assert any(repr(key) in m for m in exc.value.messages), exc.value.messages


def test_kinetics_only_gives_dataclass_defaults():
    cfg = parse_config(_KINETICS, command="equilibria")
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(cfg, f.name) == f.default, f.name
