"""Experiment configuration: plain key = value text with [section] headers.

Parsing collects every problem it finds (malformed lines, unknown keys, bad
values, missing requirements) and reports them all at once instead of
stopping at the first, so a config can be fixed in one pass.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _as_str(s: str) -> str:
    return s


def _as_choice(options):
    def conv(s: str) -> str:
        v = s.lower()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    return conv


_SCHEMA: dict[str, dict[str, object]] = {
    "": {"command": _as_choice(COMMANDS)},
    "kinetics": {k: _as_float for k in ("sigma", "alpha", "beta", "gamma", "eta")},
    "spatial": {"d": _as_float, "l": _as_float},
    "grid": {"n": _as_int, "dt": _as_float},
    "run": {
        "t": _as_float,
        "ic": _as_choice(IC_KINDS),
        "amplitude": _as_float,
        "seed": _as_int,
        "scheme": _as_choice(SCHEMES),
        "snapshot_every": _as_float,
        "series_every": _as_float,
        "transient": _as_float,
        "renorm_interval": _as_float,
    },
    "sweep": {
        "sigma_lo": _as_float,
        "sigma_hi": _as_float,
        "sigma_count": _as_int,
        "c_lo": _as_float,
        "c_hi": _as_float,
        "c_count": _as_int,
        "steps": _as_int,
        "ds0": _as_float,
        "direction": _as_int,
        "bracket_lo": _as_float,
        "bracket_hi": _as_float,
        "t_sim": _as_float,
    },
    "output": {"dir": _as_str},
}

_KINETIC_KEYS = ("sigma", "alpha", "beta", "gamma", "eta")


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
    sigma_grid: np.ndarray | None = None
    c_grid: np.ndarray | None = None
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


def _grid_from(data, issues, prefix: str,
               required_by: str | None = None) -> np.ndarray | None:
    """The {prefix}_lo/_hi/_count grid, or None when it is absent or bad;
    each problem is reported once, "required" only when no key is given."""
    lo = data.get(("sweep", f"{prefix}_lo"))
    hi = data.get(("sweep", f"{prefix}_hi"))
    count = data.get(("sweep", f"{prefix}_count"))
    if lo is None and hi is None and count is None:
        if required_by is not None:
            issues.append(f"[sweep]: {prefix}_lo/{prefix}_hi/{prefix}_count "
                          f"required for the {required_by} command")
        return None
    missing = [k for k, v in ((f"{prefix}_lo", lo), (f"{prefix}_hi", hi),
                              (f"{prefix}_count", count)) if v is None]
    if missing:
        issues.append(f"[sweep]: {', '.join(missing)} missing "
                      f"(all three of {prefix}_lo/{prefix}_hi/{prefix}_count "
                      "are needed)")
        return None
    if count < 1:
        issues.append(f"[sweep] {prefix}_count: must be >= 1")
        return None
    if hi < lo:
        issues.append(f"[sweep] {prefix}_hi: must be >= {prefix}_lo")
        return None
    # sigma is a kinetic rate and c a wave speed: both must be positive
    if lo <= 0:
        issues.append(f"[sweep] {prefix}_lo: must be positive")
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


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
    if missing_kin:
        issues.append(f"[kinetics]: missing {', '.join(missing_kin)}")
    p = None
    if not missing_kin:
        try:
            p = KineticParams(**{k: data[("kinetics", k)] for k in _KINETIC_KEYS})
        except ValueError as exc:
            issues.append(f"[kinetics]: {exc}")

    def need(section: str, key: str, why: str):
        if (section, key) not in data:
            issues.append(f"[{section}] {key}: required for {why}")
        return data.get((section, key))

    d = data.get(("spatial", "d"))
    L = data.get(("spatial", "l"))
    if d is not None and d <= 0:
        issues.append("[spatial] d: must be positive")
    if L is not None and L <= 0:
        issues.append("[spatial] l: must be positive")
    N = data.get(("grid", "n"))
    if N is not None and N < 16:
        issues.append("[grid] n: must be at least 16")
    dt = data.get(("grid", "dt"))
    if dt is not None and dt <= 0:
        issues.append("[grid] dt: must be positive")

    T = data.get(("run", "t"))
    if T is not None and T <= 0:
        issues.append("[run] t: must be positive")
    ic = data.get(("run", "ic"))
    seed = data.get(("run", "seed"))
    if seed is not None and seed < 0:
        issues.append("[run] seed: must be non-negative")
    amplitude = data.get(("run", "amplitude"), ExperimentConfig.amplitude)
    if amplitude < 0:
        issues.append("[run] amplitude: must be non-negative")

    sigma_grid = _grid_from(
        data, issues, "sigma",
        cmd if cmd in ("wave-scan", "temporal-diagram") else None)
    c_grid = _grid_from(data, issues, "c",
                        cmd if cmd == "wave-scan" else None)

    spatial_cmds = {"simulate", "lyapunov", "pulse"}
    if cmd in spatial_cmds:
        need("spatial", "d", f"the {cmd} command")
        need("spatial", "l", f"the {cmd} command")
        need("run", "t", f"the {cmd} command")
    if cmd == "simulate":
        ic = need("run", "ic", "the simulate command")
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
    if cmd in {"simulate", "lyapunov", "pulse"} and ic in _STOCHASTIC_ICS \
            and seed is None:
        issues.append(f"[run] seed: required for stochastic initial "
                      f"condition {ic!r}")
    if cmd == "thresholds":
        need("spatial", "d", "the thresholds command")
    if cmd == "continue":
        need("spatial", "d", "the continue command")
        need("spatial", "l", "the continue command")
    if cmd == "wave-scan":
        need("spatial", "d", "the wave-scan command")

    steps = data.get(("sweep", "steps"), ExperimentConfig.steps)
    if steps < 1:
        issues.append("[sweep] steps: must be >= 1")
    ds0 = data.get(("sweep", "ds0"), ExperimentConfig.ds0)
    if ds0 <= 0:
        issues.append("[sweep] ds0: must be positive")
    direction = data.get(("sweep", "direction"), ExperimentConfig.direction)
    if direction not in (-1, 1):
        issues.append("[sweep] direction: must be -1 or +1")
    b_lo = data.get(("sweep", "bracket_lo"), ExperimentConfig.bracket[0])
    b_hi = data.get(("sweep", "bracket_hi"), ExperimentConfig.bracket[1])
    if b_lo <= 0:
        issues.append("[sweep] bracket_lo: must be positive")
    if b_hi <= b_lo:
        issues.append("[sweep] bracket_hi: must exceed bracket_lo")
    t_sim = data.get(("sweep", "t_sim"), ExperimentConfig.t_sim)
    if t_sim <= 0:
        issues.append("[sweep] t_sim: must be positive")
    transient = data.get(("run", "transient"), ExperimentConfig.transient)
    if transient < 0:
        issues.append("[run] transient: must be non-negative")
    renorm = data.get(("run", "renorm_interval"),
                      ExperimentConfig.renorm_interval)
    if renorm <= 0:
        issues.append("[run] renorm_interval: must be positive")
    if cmd == "lyapunov" and T is not None and T > 0 and renorm > 0:
        from .diagnostics import MIN_RENORMALIZATIONS, kept_renormalizations

        kept = kept_renormalizations(T, renorm)
        if kept < MIN_RENORMALIZATIONS:
            issues.append(
                f"[run] t: t = {T} gives {kept} renormalizations after the "
                f"discard window; the lyapunov command needs at least "
                f"{MIN_RENORMALIZATIONS}")
    for key in ("snapshot_every", "series_every"):
        val = data.get(("run", key), getattr(ExperimentConfig, key))
        if val < 0:
            issues.append(f"[run] {key}: must be non-negative")

    if issues:
        raise ValidationError(issues)

    return ExperimentConfig(
        command=cmd,
        p=p,
        d=d,
        L=L,
        N=N,
        dt=dt,
        T=T,
        ic=ic,
        amplitude=amplitude,
        seed=seed,
        scheme=data.get(("run", "scheme"), ExperimentConfig.scheme),
        snapshot_every=data.get(("run", "snapshot_every"),
                                ExperimentConfig.snapshot_every),
        series_every=data.get(("run", "series_every"),
                              ExperimentConfig.series_every),
        transient=transient,
        renorm_interval=renorm,
        sigma_grid=sigma_grid,
        c_grid=c_grid,
        steps=steps,
        ds0=ds0,
        direction=direction,
        bracket=(b_lo, b_hi),
        t_sim=t_sim,
        out_dir=data.get(("output", "dir")),
    )
