"""Command-line driver: one config file in, CSV files plus a manifest out.

The eight commands map onto the library layers: ``equilibria`` and
``temporal-diagram`` onto the kinetics, ``thresholds`` onto the spatial
linearization, ``simulate``/``lyapunov``/``pulse`` onto the time stepper,
``continue`` onto the steady-state solver, and ``wave-scan`` onto the
profile shooter. Identical (config, seed) pairs produce byte-identical
output files; ``manifest.txt`` records a sha256 per file the run wrote (and
nothing else in the output directory) so reruns diff cheaply.

Each command loads only the layers it runs. ``import alleekit.cli`` loads
``config``, ``errors``, ``model`` and ``rootfind``, and neither numpy nor
scipy; that is all ``equilibria`` needs. Parsing a config loads nothing
more, except for ``lyapunov``. Each command adds, after the config is
parsed and before the run starts:

* ``thresholds``: ``linear`` (no numpy), the only command that loads it;
* ``temporal-diagram``: ``temporal`` and numpy (no scipy);
* ``simulate``: ``pde``, so numpy and scipy's LAPACK extension
  ``scipy.linalg._flapack`` alone, not the ``scipy.linalg`` package, and
  no ``linear``: without ``[grid] n`` the grid is sized from ``model``'s
  Turing band;
* ``lyapunov`` and ``pulse``: ``pde`` and ``diagnostics``, which
  ``lyapunov`` loads while parsing, to check ``[run] t``;
* ``continue``: ``pde`` and ``continuation``, so the LAPACK extension
  alone again (no ``scipy.sparse``, and no ``linear``);
* ``wave-scan``: ``waves``, with ``temporal``, ``collocation`` and ``pde``
  beneath it, so the LAPACK extension alone again (no ``scipy.integrate``,
  ``scipy.interpolate``, ``continuation`` or ``linear``). A scan with two
  or more cells to shoot also loads ``multiprocessing`` and
  ``concurrent.futures`` and shoots the cells in forked workers, one per
  usable core; its files do not depend on the worker count.

``simulate``, ``lyapunov``, ``pulse`` and ``continue`` also load
``numpy.random``, which numpy itself loads only on first use.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 honest
non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .config import COMMANDS, ExperimentConfig, parse_config
from .errors import (
    ConfigError,
    ConvergenceError,
    HypothesisFailed,
    NumericalError,
    ValidationError,
)
from .model import (
    EquilibriumKind,
    Stability,
    all_equilibria,
    upper_axial,
    upper_coexisting,
)

if TYPE_CHECKING:
    import numpy as np

    from .pde import Grid

# Stable integer labels for CSV output; the enum itself stays string-valued
# so library-level reprs remain readable.
_STAB_CODE = {
    Stability.STABLE_NODE: 0,
    Stability.STABLE_FOCUS: 1,
    Stability.UNSTABLE_NODE: 2,
    Stability.UNSTABLE_FOCUS: 3,
    Stability.SADDLE: 4,
    Stability.NON_HYPERBOLIC: 5,
}


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    # a value can be a numpy scalar only once numpy is loaded
    np = sys.modules.get("numpy")
    if isinstance(v, bool) or (np is not None and isinstance(v, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, int) or (np is not None and isinstance(v, np.integer)):
        return str(int(v))
    # 12 significant digits: enough to round-trip float32-scale differences,
    # short enough to keep golden files stable across platforms
    return f"{float(v):.11e}"


# Each writer returns the path it wrote, so a runner can list its outputs.

def _write_text(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence],
               preamble: Sequence[str] = ()) -> Path:
    lines = [f"# {p}" for p in preamble]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return _write_text(path, "\n".join(lines) + "\n")


def _write_snapshot(path: Path, x: np.ndarray, u: np.ndarray, v: np.ndarray,
                    preamble: Sequence[str]) -> Path:
    """_write_csv of float columns x, u, v, formatted a row at a time."""
    row = "{:.11e},{:.11e},{:.11e}".format
    lines = [f"# {p}" for p in preamble]
    lines.append("x,u,v")
    lines.extend(map(row, x.tolist(), u.tolist(), v.tolist()))
    return _write_text(path, "\n".join(lines) + "\n")


def _manifest(out: Path, written: Iterable[Path]) -> None:
    """A sha256 per file this run wrote; whatever else is in `out` is not
    listed."""
    entries = [f"{hashlib.sha256(f.read_bytes()).hexdigest()}  "
               f"{f.relative_to(out).as_posix()}" for f in sorted(written)]
    (out / "manifest.txt").write_text("\n".join(entries) + "\n")


def _grid_and_dt(cfg: ExperimentConfig) -> tuple[Grid, float]:
    from .pde import Grid, default_dt, default_grid_size

    n = cfg.N if cfg.N is not None else default_grid_size(cfg.p, cfg.d, cfg.L)
    grid = Grid(L=cfg.L, N=n)
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, cfg.d)
    return grid, dt


def _rng(cfg: ExperimentConfig) -> np.random.Generator | None:
    import numpy as np

    return None if cfg.seed is None else np.random.default_rng(cfg.seed)


def cmd_equilibria(cfg: ExperimentConfig, out: Path) -> list[Path]:
    rows = [
        (cfg.p.sigma, e.kind.value, e.u, e.v, e.trace, e.det,
         _STAB_CODE[e.stability])
        for e in all_equilibria(cfg.p)
    ]
    return [_write_csv(out / "equilibria.csv",
                       ("sigma", "kind", "u", "v", "trace", "det",
                        "stability_code"),
                       rows)]


def _branch_ids(eqs) -> list[int]:
    """0 = extinction state, 1/2 = prey-only by ascending u, 3+ = coexisting
    by ascending u; stable across the sigma sweep so a reader can join rows
    of one branch."""
    ids = [0] * len(eqs)
    axial = sorted((i for i, e in enumerate(eqs)
                    if e.kind in (EquilibriumKind.AXIAL1, EquilibriumKind.AXIAL2)),
                   key=lambda i: eqs[i].u)
    coex = sorted((i for i, e in enumerate(eqs)
                   if e.kind is EquilibriumKind.COEXISTING),
                  key=lambda i: eqs[i].u)
    for rank, i in enumerate(axial):
        ids[i] = 1 + rank
    for rank, i in enumerate(coex):
        ids[i] = 3 + rank
    return ids


def cmd_temporal_diagram(cfg: ExperimentConfig, out: Path) -> list[Path]:
    from .temporal import bifurcation_diagram

    nan = float("nan")
    rows = []
    for pt in bifurcation_diagram(cfg.p, cfg.sigma_grid, t_sim=cfg.t_sim):
        ids = _branch_ids(pt.equilibria)
        top_coex = max((i for i, e in enumerate(pt.equilibria)
                        if e.kind is EquilibriumKind.COEXISTING),
                       key=lambda i: pt.equilibria[i].u, default=None)
        for i, e in enumerate(pt.equilibria):
            lo, hi = pt.cycle if (i == top_coex and pt.cycle) else (nan, nan)
            rows.append((pt.sigma, ids[i], e.u, _STAB_CODE[e.stability], lo, hi))
    return [_write_csv(out / "diagram.csv",
                       ("sigma", "branch_id", "u", "stability_code",
                        "cycle_umin", "cycle_umax"),
                       rows)]


def cmd_thresholds(cfg: ExperimentConfig, out: Path) -> list[Path]:
    from .linear import (branch_point_table, kpm_roots, mode_reports,
                         spatial_spectrum, turing_bd_thresholds)

    nan = float("nan")
    rows = []
    for sigma, regime in turing_bd_thresholds(cfg.p, cfg.d, cfg.bracket):
        ps = cfg.p.with_sigma(sigma)
        e = upper_coexisting(ps)
        spec = spatial_spectrum(e, ps, cfg.d)
        try:
            km, kp = kpm_roots(e, ps, cfg.d)
        except HypothesisFailed:
            km = kp = nan
        rows.append((sigma, regime.value, spec.K, km, kp))
    written = [_write_csv(out / "thresholds.csv",
                          ("sigma", "threshold_kind", "K", "kminus", "kplus"),
                          rows)]

    if cfg.L is None:
        return written
    e = upper_coexisting(cfg.p)
    return written + [
        _write_csv(out / "modes.csv",
                   ("j", "k_j", "trace", "det", "unstable"),
                   ((m.j, m.k_j, m.trace, m.det, m.unstable)
                    for m in mode_reports(e, cfg.p, cfg.d, cfg.L)),
                   preamble=(f"sigma = {_fmt(cfg.p.sigma)}",)),
        _write_csv(out / "bps.csv", ("n", "sigma"),
                   branch_point_table(cfg.p, cfg.d, cfg.L, None, cfg.bracket)),
    ]


def _write_summary(out: Path, rec) -> Path:
    return _write_csv(out / "summary.csv",
                      ("t", "U_av", "V_av", "spatial_variance_u"),
                      zip(rec.times, rec.u_av, rec.v_av, rec.var_u))


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> list[Path]:
    from .pde import Recorder, classify_asymptotic, make_ic, run

    grid, dt = _grid_and_dt(cfg)
    f0 = make_ic(cfg.ic, grid, cfg.p, amplitude=cfg.amplitude, rng=_rng(cfg))
    rec = run(f0, cfg.p, cfg.d, cfg.T,
              Recorder(series_every=cfg.series_every,
                       snapshot_every=cfg.snapshot_every),
              dt=dt, scheme=cfg.scheme)
    written = [_write_summary(out, rec)]
    if cfg.snapshot_every > 0:
        for k, t in enumerate(rec.snap_times):
            written.append(_write_snapshot(
                out / f"snapshot_{k:04d}.csv", grid.x,
                rec.snap_u[k], rec.snap_v[k], (f"t = {_fmt(float(t))}",)))
    final = rec.final
    written.append(_write_snapshot(
        out / "final.csv", grid.x, final.u, final.v,
        (f"t = {_fmt(float(rec.snap_times[-1]))}",)))
    kind = classify_asymptotic(rec, window=cfg.T / 4)
    written.append(_write_text(out / "classification.txt", kind.value + "\n"))
    return written


def cmd_continue(cfg: ExperimentConfig, out: Path) -> list[Path]:
    import numpy as np

    from .continuation import (SteadyProblem, continue_branch, interleave,
                               split_fields)
    from .pde import Grid

    n = cfg.N if cfg.N is not None else 1024
    prob = SteadyProblem(Grid(L=cfg.L, N=n), cfg.p, cfg.d)
    e = upper_coexisting(cfg.p)
    x0 = interleave(np.full(n, e.u), np.full(n, e.v))
    br = continue_branch(x0, cfg.p.sigma, prob, direction=cfg.direction,
                         steps=cfg.steps, ds0=cfg.ds0,
                         sigma_range=cfg.bracket)
    written = [_write_csv(
        out / "branch.csv",
        ("point_index", "sigma", "l2norm_u", "n_unstable", "tag"),
        ((pt.index, pt.sigma, pt.l2norm_u,
          -1 if pt.n_unstable is None else pt.n_unstable,
          ";".join(sorted(pt.tags)))
         for pt in br.points))]
    keep = {0, br.points[-1].index}
    keep.update(pt.index for pt in br.points if pt.tags)
    for pt in br.points:
        if pt.index not in keep:
            continue
        u, v = split_fields(pt.x)
        written.append(_write_snapshot(out / f"point_{pt.index:04d}.csv",
                                       prob.grid.x, u, v,
                                       (f"sigma = {_fmt(pt.sigma)}",)))
    return written


def cmd_wave_scan(cfg: ExperimentConfig, out: Path) -> list[Path]:
    from .waves import scan_plane

    res = scan_plane(cfg.p, cfg.d, cfg.sigma_grid, cfg.c_grid)
    rows = [
        (res.sigmas[i], res.cs[j], int(res.codes[i, j]), res.c_min_at_sigma[i])
        for i in range(res.sigmas.size)
        for j in range(res.cs.size)
    ]
    written = [_write_csv(out / "scan.csv",
                          ("sigma", "c", "classification_code",
                           "c_min_at_sigma"), rows)]
    # a single cell that holds a front gets its orbit, from the shot that
    # classified it
    if res.shot is not None:
        written.append(_write_csv(out / "orbit.csv", ("t", "X", "Y", "W", "Z"),
                                  zip(res.shot.t, *res.shot.states.T)))
    return written


def cmd_lyapunov(cfg: ExperimentConfig, out: Path) -> list[Path]:
    import numpy as np

    from .diagnostics import largest_lyapunov
    from .pde import Recorder, make_ic, run

    grid, dt = _grid_and_dt(cfg)
    rng = _rng(cfg)
    f0 = make_ic(cfg.ic, grid, cfg.p, amplitude=cfg.amplitude, rng=rng)
    if cfg.transient > 0:
        # only the final state is read, so sample the series at its ends
        f0 = run(f0, cfg.p, cfg.d, cfg.transient,
                 Recorder(series_every=cfg.transient), dt=dt,
                 scheme=cfg.scheme).final
    res = largest_lyapunov(f0, cfg.p, cfg.d, cfg.T,
                           renorm_interval=cfg.renorm_interval,
                           dt=dt, rng=rng)
    ts = (1 + np.arange(res.convergence_series.size)) * res.renorm_interval
    return [_write_csv(out / "lyapunov.csv", ("t", "lambda_running"),
                       zip(ts, res.convergence_series)),
            _write_text(out / "result.txt",
                        f"lambda_max = {_fmt(res.lambda_max)}\n")]


def cmd_pulse(cfg: ExperimentConfig, out: Path) -> list[Path]:
    from .diagnostics import dominant_period, island_series
    from .pde import Recorder, make_ic, run

    grid, dt = _grid_and_dt(cfg)
    f0 = make_ic(cfg.ic, grid, cfg.p, amplitude=cfg.amplitude, rng=_rng(cfg))
    rec = run(f0, cfg.p, cfg.d, cfg.T,
              Recorder(series_every=cfg.series_every or 2.0,
                       snapshot_every=cfg.snapshot_every or 50.0),
              dt=dt, scheme=cfg.scheme)
    u1 = upper_axial(cfg.p).u
    times, counts = island_series(rec, 0.05 * u1)
    written = [_write_csv(out / "islands.csv", ("t", "island_count"),
                          zip(times, counts)),
               _write_summary(out, rec)]
    period = dominant_period(rec.times, rec.u_av, window=cfg.T / 2)
    return written + [_write_text(
        out / "result.txt",
        f"max_islands = {max(counts)}\n"
        f"period = {'none' if period is None else _fmt(period)}\n")]


# command -> (runner, the modules its run imports beyond those of this
# module, numpy's lazily loaded numpy.random included); main imports them
# before the run starts
_RUNNERS: dict[str, tuple[Callable[[ExperimentConfig, Path], list[Path]],
                          tuple[str, ...]]] = {
    "equilibria": (cmd_equilibria, ()),
    "temporal-diagram": (cmd_temporal_diagram, (".temporal",)),
    "thresholds": (cmd_thresholds, (".linear",)),
    "simulate": (cmd_simulate, (".pde", "numpy.random")),
    "continue": (cmd_continue, (".pde", ".continuation", "numpy.random")),
    "wave-scan": (cmd_wave_scan, (".waves",)),
    "lyapunov": (cmd_lyapunov, (".pde", ".diagnostics", "numpy.random")),
    "pulse": (cmd_pulse, (".pde", ".diagnostics", "numpy.random")),
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Run one configured experiment, returning the output directory."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError([f"output directory: {exc}"]) from None
    runner, _ = _RUNNERS[cfg.command]
    _manifest(out, runner(cfg, out))
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alleekit",
        description="Desk-scale experiments on the Allee/Beddington-DeAngelis "
                    "reaction-diffusion model; each command reads a config "
                    "file and writes CSVs plus a manifest.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to a key = value config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: [output] dir "
                             "from the config, else the working directory)")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides [run] seed")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text, command=args.command, seed=args.seed)
        out = args.out or cfg.out_dir or "."
        # import here, not in the runner, so start-up cost is not run time
        for module in _RUNNERS[cfg.command][1]:
            import_module(module, __package__)
        run_experiment(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
