"""Config parsing: every schema key parsed and rejected by name, every bound
and per-command requirement in the key table enforced, and one source of
defaults."""

import dataclasses

import numpy as np
import pytest

from alleekit.config import _KEYS, _REQUIRED, _SCHEMA, ExperimentConfig, parse_config
from alleekit.errors import ParseError, ValidationError

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


@pytest.mark.parametrize("command,extra", [
    ("wave-scan", "c_lo = 4.7\nc_hi = 6.0\nc_count = 2\n"),
    ("temporal-diagram", ""),
])
def test_bad_sweep_grid_is_not_reported_missing(command, extra):
    text = (_KINETICS + "[spatial]\nd = 46\n[sweep]\nsigma_lo = 2.9\n"
            "sigma_hi = 2.7\nsigma_count = 3\n" + extra)
    with pytest.raises(ValidationError) as exc:
        parse_config(text, command=command)
    assert exc.value.messages == ["[sweep] sigma_hi: must be >= sigma_lo"]


# (section, key) -> (a value outside its bound, the message it must give)
_OUT_OF_BOUND = {
    ("spatial", "d"): ("0", "must be positive"),
    ("spatial", "l"): ("-200", "must be positive"),
    ("grid", "n"): ("15", "must be at least 16"),
    ("grid", "dt"): ("0", "must be positive"),
    ("run", "t"): ("-1", "must be positive"),
    ("run", "amplitude"): ("-0.01", "must be non-negative"),
    ("run", "seed"): ("-1", "must be non-negative"),
    ("run", "snapshot_every"): ("-2", "must be non-negative"),
    ("run", "series_every"): ("-0.5", "must be non-negative"),
    ("run", "transient"): ("-10", "must be non-negative"),
    ("run", "renorm_interval"): ("0", "must be positive"),
    ("sweep", "sigma_lo"): ("0", "must be positive"),
    ("sweep", "sigma_count"): ("0", "must be >= 1"),
    ("sweep", "c_lo"): ("-1", "must be positive"),
    ("sweep", "c_count"): ("-2", "must be >= 1"),
    ("sweep", "steps"): ("0", "must be >= 1"),
    ("sweep", "ds0"): ("0", "must be positive"),
    ("sweep", "direction"): ("0", "must be -1 or +1"),
    ("sweep", "bracket_lo"): ("0", "must be positive"),
    ("sweep", "t_sim"): ("0", "must be positive"),
}


def test_out_of_bound_cases_cover_the_bounded_keys():
    assert set(_OUT_OF_BOUND) == {k for k, spec in _KEYS.items() if spec.bound}


@pytest.mark.parametrize("section,key", list(_OUT_OF_BOUND))
def test_out_of_bound_value_names_its_key(section, key):
    value, message = _OUT_OF_BOUND[(section, key)]
    with pytest.raises(ValidationError) as exc:
        parse_config(_KINETICS + _text({(section, key): value}),
                     command="equilibria")
    assert f"[{section}] {key}: {message}" in exc.value.messages


def test_values_on_the_edge_of_a_bound_pass():
    edge = {("grid", "n"): "16", ("run", "amplitude"): "0", ("run", "seed"): "0",
            ("run", "snapshot_every"): "0", ("run", "series_every"): "0",
            ("run", "transient"): "0", ("sweep", "steps"): "1",
            ("sweep", "direction"): "-1"}
    cfg = parse_config(_KINETICS + _text(edge), command="equilibria")
    assert (cfg.N, cfg.amplitude, cfg.seed, cfg.snapshot_every,
            cfg.series_every, cfg.transient, cfg.steps, cfg.direction) == (
        16, 0.0, 0, 0.0, 0.0, 0.0, 1, -1)


_STEPPING = {("spatial", "d"), ("spatial", "l"), ("run", "t")}

# command -> the keys it must refuse to run without
_MUST_HAVE = {
    "thresholds": {("spatial", "d")},
    "simulate": _STEPPING | {("run", "ic")},
    "continue": {("spatial", "d"), ("spatial", "l")},
    "wave-scan": {("spatial", "d")},
    "lyapunov": _STEPPING,
    "pulse": _STEPPING,
}


def test_required_table_matches_the_commands_needs():
    assert {command: set(keys) for command, keys in _REQUIRED.items()} == _MUST_HAVE


@pytest.mark.parametrize("command,section,key", [
    (command, section, key)
    for command, keys in _REQUIRED.items() for section, key in keys
])
def test_missing_required_key_names_it(command, section, key):
    values = {k: _CASES[k][0] for k in _REQUIRED[command] if k != (section, key)}
    with pytest.raises(ValidationError) as exc:
        parse_config(_KINETICS + _text(values), command=command)
    assert (f"[{section}] {key}: required for the {command} command"
            in exc.value.messages)


def test_key_table_and_config_fields_agree():
    named = [spec.field for spec in _KEYS.values() if spec.field is not None]
    by_hand = {"command", "p", "ic", "sigma_grid", "c_grid", "bracket"}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert len(named) == len(set(named))
    assert set(named) <= fields
    assert fields == set(named) | by_hand
    assert not set(named) & by_hand


def test_grid_is_linspace_in_plain_floats():
    from alleekit.config import _grid_from

    # count 1, lo == hi, and a spacing that underflows to zero
    cases = [(1.8, 1.9, 3), (4.7, 6.0, 2), (2.7, 2.7, 1), (2.7, 3.1, 1),
             (2.7, 2.7, 5), (5e-324, 1e-323, 4), (0.1, 0.7, 7)]
    rng = np.random.default_rng(0)
    cases += [(lo, lo + w, n) for lo, w, n in zip(
        rng.uniform(1e-3, 10.0, 300).tolist(),
        (rng.uniform(0.0, 5.0, 300) ** rng.integers(1, 9, 300)).tolist(),
        rng.integers(1, 60, 300).tolist())]
    for lo, hi, count in cases:
        data = {("sweep", "c_lo"): lo, ("sweep", "c_hi"): hi,
                ("sweep", "c_count"): count}
        grid = _grid_from(data, [], "c", "wave-scan", True)
        assert all(type(x) is float for x in grid)
        assert (np.array(grid).tobytes()
                == np.linspace(lo, hi, count).tobytes()), (lo, hi, count)
