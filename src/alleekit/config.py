"""Experiment configuration: plain key = value text with [section] headers.

Parsing collects every problem it finds (malformed lines, unknown keys, bad
values, missing requirements) and reports them all at once instead of
stopping at the first, so a config can be fixed in one pass.

`_KEYS` is the one declaration of each key: its converter, the
`ExperimentConfig` field it fills and its bound. Bounds are checked only on
values that were given, because every default lies inside its bound.
`_REQUIRED` lists the keys each command needs; checks that span keys or
depend on the command are code in `parse_config`. The sigma and c grids are
tuples of plain floats, so parsing loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ParseError, ValidationError
from .model import KineticParams

COMMANDS = ("equilibria", "temporal-diagram", "thresholds", "simulate",
            "continue", "wave-scan", "lyapunov", "pulse")

IC_KINDS = ("perturbed_homogeneous", "invasion_step", "center_pulse")
SCHEMES = ("imex1", "strang")

# ICs that draw noise and therefore demand an explicit seed
_STOCHASTIC_ICS = {"perturbed_homogeneous", "center_pulse"}


def _as_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _as_int(s: str) -> int:
    if not s.lstrip("+-").isdigit():
        raise ValueError("must be an integer")
    return int(s)


def _as_choice(options):
    def conv(s: str) -> str:
        v = s.lower()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    return conv


class _Key(NamedTuple):
    convert: Callable[[str], object]
    field: str | None = None  # the ExperimentConfig field the value fills
    bound: tuple[Callable[[object], bool], str] | None = None  # (test, message)


_POSITIVE = (lambda x: x > 0, "must be positive")
_NON_NEGATIVE = (lambda x: x >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda n: n >= 1, "must be >= 1")

_KINETIC_KEYS = ("sigma", "alpha", "beta", "gamma", "eta")

# (section, key) -> its converter, field and bound; "" is the top level.
# parse_config assembles the keys with no field: the command, the kinetics,
# ic, the sigma and c grids, and the bracket.
_KEYS: dict[tuple[str, str], _Key] = {
    ("", "command"): _Key(_as_choice(COMMANDS)),
    **{("kinetics", k): _Key(_as_float) for k in _KINETIC_KEYS},
    ("spatial", "d"): _Key(_as_float, "d", _POSITIVE),
    ("spatial", "l"): _Key(_as_float, "L", _POSITIVE),
    ("grid", "n"): _Key(_as_int, "N", (lambda n: n >= 16, "must be at least 16")),
    ("grid", "dt"): _Key(_as_float, "dt", _POSITIVE),
    ("run", "t"): _Key(_as_float, "T", _POSITIVE),
    ("run", "ic"): _Key(_as_choice(IC_KINDS)),
    ("run", "amplitude"): _Key(_as_float, "amplitude", _NON_NEGATIVE),
    ("run", "seed"): _Key(_as_int, "seed", _NON_NEGATIVE),
    ("run", "scheme"): _Key(_as_choice(SCHEMES), "scheme"),
    ("run", "snapshot_every"): _Key(_as_float, "snapshot_every", _NON_NEGATIVE),
    ("run", "series_every"): _Key(_as_float, "series_every", _NON_NEGATIVE),
    ("run", "transient"): _Key(_as_float, "transient", _NON_NEGATIVE),
    ("run", "renorm_interval"): _Key(_as_float, "renorm_interval", _POSITIVE),
    # the sigma and c grids, read by _grid_from; sigma is a kinetic rate and
    # c a wave speed, so both grids start above zero
    ("sweep", "sigma_lo"): _Key(_as_float, bound=_POSITIVE),
    ("sweep", "sigma_hi"): _Key(_as_float),
    ("sweep", "sigma_count"): _Key(_as_int, bound=_AT_LEAST_ONE),
    ("sweep", "c_lo"): _Key(_as_float, bound=_POSITIVE),
    ("sweep", "c_hi"): _Key(_as_float),
    ("sweep", "c_count"): _Key(_as_int, bound=_AT_LEAST_ONE),
    ("sweep", "steps"): _Key(_as_int, "steps", _AT_LEAST_ONE),
    ("sweep", "ds0"): _Key(_as_float, "ds0", _POSITIVE),
    ("sweep", "direction"): _Key(_as_int, "direction",
                                 (lambda s: s in (-1, 1), "must be -1 or +1")),
    ("sweep", "bracket_lo"): _Key(_as_float, bound=_POSITIVE),
    ("sweep", "bracket_hi"): _Key(_as_float),
    ("sweep", "t_sim"): _Key(_as_float, "t_sim", _POSITIVE),
    ("output", "dir"): _Key(str, "out_dir"),
}

# section -> key -> converter: the tokenizer's view of _KEYS
_SCHEMA = {sec: {key: spec.convert for (s, key), spec in _KEYS.items() if s == sec}
           for sec, _ in _KEYS}

_STEPPING = (("spatial", "d"), ("spatial", "l"), ("run", "t"))

# command -> the keys it cannot run without
_REQUIRED: dict[str, tuple[tuple[str, str], ...]] = {
    "thresholds": (("spatial", "d"),),
    "simulate": _STEPPING + (("run", "ic"),),
    "continue": (("spatial", "d"), ("spatial", "l")),
    "wave-scan": (("spatial", "d"),),
    "lyapunov": _STEPPING,
    "pulse": _STEPPING,
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    p: KineticParams
    d: float | None = None
    L: float | None = None
    N: int | None = None
    dt: float | None = None
    T: float | None = None
    ic: str | None = None
    amplitude: float = 1e-2
    seed: int | None = None
    scheme: str = "imex1"
    snapshot_every: float = 0.0
    series_every: float = 0.0
    transient: float = 800.0
    renorm_interval: float = 1.0
    sigma_grid: tuple[float, ...] | None = None
    c_grid: tuple[float, ...] | None = None
    steps: int = 250
    ds0: float = 0.02
    direction: int = -1
    bracket: tuple[float, float] = (1.5, 2.4)
    t_sim: float = 3000.0
    out_dir: str | None = None


def _tokenize(text: str, issues: list[str]) -> dict[tuple[str, str], str]:
    data: dict[tuple[str, str], str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                issues.append(f"line {lineno}: malformed section header {line!r}")
                section = None
                continue
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA or section == "":
                issues.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            issues.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.lower()
        if section is None:
            continue  # errors already reported for this section
        keys = _SCHEMA[section]
        where = f"[{section}]" if section else "the top level"
        if key not in keys:
            issues.append(f"line {lineno}: unknown key {key!r} in {where}")
            continue
        if (section, key) in data:
            issues.append(f"line {lineno}: duplicate key {key!r} in {where}")
            continue
        if not val:
            issues.append(f"line {lineno}: empty value for {key!r}")
            continue
        try:
            data[(section, key)] = keys[key](val)
        except ValueError as exc:
            issues.append(f"line {lineno}: bad value for {key!r}: {exc}")
    return data


def _grid_from(data, issues, prefix: str, cmd: str,
               required: bool) -> tuple[float, ...] | None:
    """The {prefix}_lo/_hi/_count grid, or None when it is absent or bad;
    each problem is reported once, "required" only when no key is given."""
    lo = data.get(("sweep", f"{prefix}_lo"))
    hi = data.get(("sweep", f"{prefix}_hi"))
    count = data.get(("sweep", f"{prefix}_count"))
    if lo is None and hi is None and count is None:
        if required:
            issues.append(f"[sweep]: {prefix}_lo/{prefix}_hi/{prefix}_count "
                          f"required for the {cmd} command")
        return None
    missing = [k for k, v in ((f"{prefix}_lo", lo), (f"{prefix}_hi", hi),
                              (f"{prefix}_count", count)) if v is None]
    if missing:
        issues.append(f"[sweep]: {', '.join(missing)} missing "
                      f"(all three of {prefix}_lo/{prefix}_hi/{prefix}_count "
                      "are needed)")
        return None
    if hi < lo:
        issues.append(f"[sweep] {prefix}_hi: must be >= {prefix}_lo")
        return None
    if count <= 1:  # below 1 its bound has refused the config
        return (lo,)
    # np.linspace(lo, hi, count) to the bit, which scales i / div by hi - lo
    # when the step underflows to zero
    div = count - 1
    step = (hi - lo) / div
    if step == 0.0:
        return tuple(lo + i / div * (hi - lo) for i in range(div)) + (hi,)
    return tuple(lo + i * step for i in range(div)) + (hi,)


def parse_config(text: str, *, command: str | None = None,
                 seed: int | None = None) -> ExperimentConfig:
    """Parse and fully validate a config; `command` given by the caller
    (the CLI argument) must agree with a `command =` line when both exist,
    and a caller-supplied `seed` (the --seed flag) wins over [run] seed.

    Raises ParseError when the text itself is malformed and ValidationError
    when it parses but violates a command's requirements; either message
    lists every problem found.
    """
    issues: list[str] = []
    data = _tokenize(text, issues)
    parse_failed = bool(issues)
    if seed is not None:
        data[("run", "seed")] = seed

    cmd = data.get(("", "command"))
    if command is not None and cmd is not None and command != cmd:
        issues.append(f"command mismatch: config says {cmd!r}, "
                      f"caller says {command!r}")
    cmd = command or cmd
    if cmd is None:
        issues.append("no command given (config line 'command = ...' or CLI)")

    if parse_failed:
        raise ParseError(issues)

    missing_kin = [k for k in _KINETIC_KEYS if ("kinetics", k) not in data]
    p = None
    if missing_kin:
        issues.append(f"[kinetics]: missing {', '.join(missing_kin)}")
    else:
        try:
            p = KineticParams(**{k: data[("kinetics", k)] for k in _KINETIC_KEYS})
        except ValueError as exc:
            issues.append(f"[kinetics]: {exc}")

    for (sec, key), value in data.items():
        bound = _KEYS[(sec, key)].bound
        if bound is not None and not bound[0](value):
            issues.append(f"[{sec}] {key}: {bound[1]}")
    for sec, key in _REQUIRED.get(cmd, ()):
        if (sec, key) not in data:
            issues.append(f"[{sec}] {key}: required for the {cmd} command")

    sigma_grid = _grid_from(data, issues, "sigma", cmd,
                            cmd in ("wave-scan", "temporal-diagram"))
    c_grid = _grid_from(data, issues, "c", cmd, cmd == "wave-scan")

    ic = data.get(("run", "ic"))
    if cmd == "lyapunov":
        ic = ic or "perturbed_homogeneous"
        # the tangent is propagated by the linearised IMEX map only
        if data.get(("run", "scheme")) == "strang":
            issues.append("[run] scheme: the lyapunov command supports "
                          "imex1 only")
    if cmd == "pulse":
        if ic not in (None, "center_pulse"):
            issues.append("[run] ic: the pulse command always uses center_pulse")
        ic = "center_pulse"
    if cmd in ("simulate", "lyapunov", "pulse") and ic in _STOCHASTIC_ICS \
            and ("run", "seed") not in data:
        issues.append(f"[run] seed: required for stochastic initial "
                      f"condition {ic!r}")

    cfg = ExperimentConfig(
        command=cmd, p=p, ic=ic, sigma_grid=sigma_grid, c_grid=c_grid,
        bracket=(data.get(("sweep", "bracket_lo"), ExperimentConfig.bracket[0]),
                 data.get(("sweep", "bracket_hi"), ExperimentConfig.bracket[1])),
        **{_KEYS[key].field: value for key, value in data.items()
           if _KEYS[key].field is not None})
    if cfg.bracket[1] <= cfg.bracket[0]:
        issues.append("[sweep] bracket_hi: must exceed bracket_lo")
    if cmd == "lyapunov" and (cfg.T or 0) > 0 and cfg.renorm_interval > 0:
        from .diagnostics import MIN_RENORMALIZATIONS, kept_renormalizations

        kept = kept_renormalizations(cfg.T, cfg.renorm_interval)
        if kept < MIN_RENORMALIZATIONS:
            issues.append(
                f"[run] t: t = {cfg.T} gives {kept} renormalizations after the "
                f"discard window; the lyapunov command needs at least "
                f"{MIN_RENORMALIZATIONS}")

    if issues:
        raise ValidationError(issues)
    return cfg
