"""The traced run: spans around calls into each layer, a traced in-process
pass over a workload's commands, and fixed-input layer probes.

Spans are recorded from here only, by replacing a module (or class)
attribute with a timing wrapper at the place the caller looks it up, for
example ``alleekit.temporal.kinetics`` for the RK45 right-hand side. Nothing
under ``src/`` is changed, and every patch is undone on exit.

Probe inputs are fixed and the same on every workload, so a per-layer
number means one thing wherever it is reported. The metric each probe
should move is listed in ``perfbench/README.md``.
"""

import inspect
import threading
import traceback
from collections import defaultdict
from contextlib import redirect_stderr
from io import StringIO
from statistics import median
from time import perf_counter


class Tracer:
    """Call counts and span times at patched attributes.

    A span's self time is its duration minus the time of the spans it
    caused, tracked with a per-thread stack so pooled callers stay apart.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.extra = defaultdict(int)
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def patch(self, owner, attr, name=None, *, timed=True, on_result=None):
        """Wrap ``owner.attr``; absent attributes are noted, not fatal."""
        name = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        if isinstance(owner, type):
            # a plain function stored on a class binds like the original
            orig = owner.__dict__.get(attr, orig)
        if not timed:
            def wrapper(*args, **kwargs):
                with self._lock:
                    self.calls[name] += 1
                result = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                stack = self._stack()
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    with self._lock:
                        self.calls[name] += 1
                        self.total[name] += dt
                        self.self_time[name] += dt - child
                        self.durations[name].append(dt)
                if on_result is not None:
                    on_result(self, result)
                return result
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def table(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "total_s": self.total.get(name, 0.0),
                       "self_s": self.self_time.get(name, 0.0)}
                for name in sorted(self.calls)}


def _count_bvp_nodes(tracer, sol):
    tracer.extra["bvp_nodes"] += int(sol.x.size)


def _layer_points():
    """Layer boundaries below the CLI, as (owner, attribute, options)."""
    from alleekit import continuation, pde, temporal, waves

    return [
        (temporal, "kinetics", {"name": "model.kinetics<-temporal"}),
        (temporal, "integrate_ode", {}),
        (pde, "kinetics", {"name": "model.kinetics<-pde"}),
        (waves, "kinetics", {"name": "model.kinetics<-waves"}),
        (pde.ImexStepper, "step_arrays", {}),
        (pde.StrangStepper, "step_arrays", {}),
        (continuation, "newton_correct", {}),
        (continuation, "solution_stability", {}),
        (continuation, "BandedLU", {"timed": False}),
        (waves, "shoot_heteroclinic", {}),
        (waves, "solve_bvp", {"on_result": _count_bvp_nodes}),
    ]


def traced_pass(commands, work, seed):
    """Run each command in this process through ``alleekit.cli.main``.

    Returns one record per command plus the tracer's span table. The CLI
    layer is traced at every function ``alleekit.cli`` imports from the
    library, so ``run_experiment`` minus those spans is the CLI's own time.
    """
    import alleekit.cli as cli

    records = []
    with Tracer() as tracer:
        tracer.patch(cli, "run_experiment", "cli.run_experiment")
        tracer.patch(cli, "parse_config", "config.parse_config")
        for name, obj in sorted(vars(cli).items()):
            if (inspect.isfunction(obj) and obj.__module__.startswith("alleekit.")
                    and obj.__module__ not in ("alleekit.cli", "alleekit.config")):
                tracer.patch(cli, name, f"cli->{name}")
        for owner, attr, opts in _layer_points():
            tracer.patch(owner, attr, **opts)
        for cmd in commands:
            out = work / "traced" / cmd.label
            n_before = len(tracer.durations["cli.run_experiment"])
            self_before = tracer.self_time["cli.run_experiment"]
            err = StringIO()
            try:
                with redirect_stderr(err):
                    rc = cli.main(cmd.argv(str(work / f"{cmd.label}.cfg"),
                                           str(out), seed))
            except Exception:  # a crash is the CLI's failure, recorded
                rc = 1
                err.write(traceback.format_exc())
            spans = tracer.durations["cli.run_experiment"][n_before:]
            records.append({
                "label": cmd.label, "command": cmd.command, "out": out,
                "rc": rc, "stderr": err.getvalue()[-2000:],
                "runner_s": sum(spans),
                "cli_self_s": tracer.self_time["cli.run_experiment"] - self_before,
            })
    return records, {"spans": tracer.table(), "bvp_nodes": tracer.extra["bvp_nodes"],
                     "not_found": tracer.missing}


# --- fixed-input layer probes -------------------------------------------

def _per_call(fn, batch, budget=0.25, min_batches=5, max_batches=200):
    """Median time of one call, over batches, and the number of batches."""
    samples = []
    stop = perf_counter() + budget
    while len(samples) < min_batches or (perf_counter() < stop
                                         and len(samples) < max_batches):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return median(samples), len(samples)


def _timed(fn):
    t0 = perf_counter()
    result = fn()
    return perf_counter() - t0, result


class Probes:
    """Runs every layer probe; ``metrics`` maps name to (value, samples)."""

    D = 46.0
    L = 200.0

    def __init__(self):
        self.metrics = {}
        self.counts = {}  # exact counts per repetition, must agree
        from alleekit.model import KineticParams
        self.base = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=2.7,
                                  eta=0.1)

    def put(self, name, value, samples):
        self.metrics[name] = (value, samples)

    def count(self, name, values):
        self.counts[name] = list(values)
        self.put(name, values[0], len(values))

    def run(self):
        for probe in (self.model, self.temporal, self.linear, self.rootfind,
                      self.pde, self.diagnostics, self.continuation,
                      self.waves):
            probe()
        return self

    def model(self):
        from alleekit import model
        import numpy as np

        p = self.base.with_sigma(1.82)
        e = model.coexisting_equilibria(p)[-1]
        t, n = _per_call(lambda: model.kinetics(e.u, e.v, p), 500)
        self.put("model.kinetics_scalar_us", t * 1e6, n)
        rng = np.random.default_rng(0)
        for size in (512, 2048):
            u = e.u + 0.01 * rng.standard_normal(size)
            v = e.v + 0.01 * rng.standard_normal(size)
            t, n = _per_call(lambda: model.kinetics(u, v, p), 50)
            self.put(f"model.kinetics_array_us.n{size}", t * 1e6, n)

    def temporal(self):
        from alleekit import model, temporal

        p = self.base.with_sigma(1.82)
        e = model.coexisting_equilibria(p)[-1]
        times, evals = [], []
        for _ in range(2):
            with Tracer() as tracer:
                tracer.patch(temporal, "kinetics", "rhs", timed=False)
                t, _ = _timed(lambda: temporal.integrate_ode(
                    (e.u + 0.01, e.v + 0.01), p, 2500.0))
            times.append(t)
            evals.append(tracer.calls["rhs"])
        self.put("temporal.integrate_ode_s.t2500", median(times), len(times))
        self.count("temporal.rhs_evals.t2500", evals)

    def linear(self):
        from alleekit import linear
        from alleekit.errors import ConvergenceError

        p, bracket = self.base, (1.5, 2.4)

        def bps():
            for n in range(1, 33):
                try:
                    linear.branch_point_sigmas(p, self.D, self.L, n, bracket)
                except ConvergenceError:
                    pass

        t, n = _per_call(lambda: linear.turing_bd_thresholds(p, self.D, bracket),
                         1, budget=0.5, min_batches=3)
        self.put("linear.thresholds_ms", t * 1e3, n)
        t, n = _per_call(bps, 1, budget=0, min_batches=2)
        self.put("linear.bps_ms", t * 1e3, n)

    def rootfind(self):
        from alleekit.rootfind import real_cubic_roots

        # (x - 0.2)(x - 0.3)(x - 1): the three-real-root branch
        t, n = _per_call(lambda: real_cubic_roots(1.0, -1.5, 0.56, -0.06), 1000)
        self.put("rootfind.real_cubic_roots_us", t * 1e6, n)

    def _field(self, n, seed=0):
        import numpy as np
        from alleekit.pde import Grid, make_ic

        return make_ic("perturbed_homogeneous", Grid(L=self.L, N=n), self.base,
                       rng=np.random.default_rng(seed))

    def _step_us(self, stepper, f0):
        state = [f0.u, f0.v]

        def step():
            state[0], state[1] = stepper.step_arrays(state[0], state[1], 0.0)

        t, n = _per_call(step, 20)
        return t * 1e6, n

    def pde(self):
        from alleekit import pde

        for n in (512, 2048):
            f0 = self._field(n)
            for scheme in ("imex", "strang"):
                cls = pde.ImexStepper if scheme == "imex" else pde.StrangStepper
                self.put(f"pde.{scheme}_step_us.n{n}",
                         *self._step_us(cls(f0.grid, self.base, self.D, 0.05), f0))
        f0 = self._field(2048)
        stepper = pde.ImexStepper(f0.grid, self.base, self.D, 0.05,
                                  include_reaction=False)
        self.put("pde.diffusion_step_us.n2048", *self._step_us(stepper, f0))

        # the recording share of run() as the output-heavy simulate uses it
        f0 = self._field(2048, seed=7)
        shares = []
        for _ in range(3):
            with Tracer() as tracer:
                tracer.patch(pde.ImexStepper, "step_arrays", "step")
                t, _ = _timed(lambda: pde.run(
                    f0, self.base, self.D, 20.0,
                    pde.Recorder(series_every=0.0, snapshot_every=2.0), dt=0.05))
            shares.append(1.0 - tracer.total["step"] / t)
        self.put("pde.record_share", median(shares), len(shares))

    def diagnostics(self):
        import numpy as np
        from alleekit.diagnostics import largest_lyapunov

        f0 = self._field(256, seed=3)
        T = 230.0  # the fewest renormalizations largest_lyapunov accepts
        t, _ = _timed(lambda: largest_lyapunov(
            f0, self.base, self.D, T, 1.0, dt=0.05,
            rng=np.random.default_rng(3)))
        self.put("diagnostics.lyapunov_ms_per_renorm.n256", t * 1e3 / T, 1)

    def _homogeneous(self, p, n):
        import numpy as np
        from alleekit import continuation, model
        from alleekit.pde import Grid

        prob = continuation.SteadyProblem(Grid(L=self.L, N=n), p, self.D)
        e = model.coexisting_equilibria(p)[-1]
        return prob, e, continuation.interleave(np.full(n, e.u), np.full(n, e.v))

    def continuation(self):
        import numpy as np
        from alleekit import continuation

        p = self.base.with_sigma(1.83)
        prob, e, x_hom = self._homogeneous(p, 256)
        bump = np.cos(8.0 * np.pi * prob.grid.x / self.L)
        x0 = continuation.interleave(e.u + 0.02 * bump, e.v + 0.02 * bump)
        t, n = _per_call(lambda: continuation.newton_correct(x0, 1.83, prob), 1,
                         budget=0.5, min_batches=3)
        self.put("continuation.newton_ms.n256", t * 1e3, n)

        # the first steps of the branch workload's dense run
        stab, shares, factors = [], [], []
        for _ in range(2):
            with Tracer() as tracer:
                tracer.patch(continuation, "solution_stability", "stab")
                tracer.patch(continuation, "BandedLU", "lu", timed=False)
                t, _ = _timed(lambda: continuation.continue_branch(
                    x_hom, 1.83, prob, direction=-1, steps=3, ds0=1.5e-3,
                    sigma_range=(1.767, 1.8305)))
            stab += tracer.durations["stab"]
            shares.append(tracer.total["stab"] / t)
            factors.append(tracer.calls["lu"])
        self.put("continuation.stability_ms.n256", median(stab) * 1e3, len(stab))
        self.put("continuation.stability_share", median(shares), len(shares))
        self.count("continuation.lu_factors", factors)

        prob, _, x_hom = self._homogeneous(p, 1024)
        t, n = _per_call(lambda: continuation.solution_stability(
            x_hom, 1.83, prob, 24), 1, budget=0, min_batches=3)
        self.put("continuation.stability_ms.n1024", t * 1e3, n)

    def waves(self):
        from alleekit import waves

        calls, nodes = [], []
        times = {"mono": [], "spiral": []}
        for _ in range(2):
            with Tracer() as tracer:
                tracer.patch(waves, "solve_bvp", "bvp", timed=False,
                             on_result=_count_bvp_nodes)
                for kind, sigma, c in (("mono", 2.7, 4.7), ("spiral", 1.9, 6.0)):
                    t, _ = _timed(lambda: waves.shoot_heteroclinic(
                        self.base.with_sigma(sigma), self.D, c,
                        t_max=2000.0, tol=1e-8))
                    times[kind].append(t)
            calls.append(tracer.calls["bvp"])
            nodes.append(tracer.extra["bvp_nodes"])
        for kind, ts in times.items():
            self.put(f"waves.shoot_s.{kind}", median(ts), len(ts))
        self.count("waves.bvp_calls", calls)
        self.count("waves.bvp_nodes", nodes)

        # one cell of each kind per row, serial and on the pool
        grid = ([1.9, 2.7], [4.7, 6.0])
        t1, res = _timed(lambda: waves.scan_plane(self.base, self.D, *grid))
        shot = res.codes != int(waves.WaveClass.NO_WAVE)
        known = shot & (res.codes != int(waves.WaveClass.UNKNOWN))
        self.put("waves.classified_share",
                 float(known.sum()) / max(1, int(shot.sum())), int(shot.sum()))
        if "jobs" in inspect.signature(waves.scan_plane).parameters:
            t2, _ = _timed(lambda: waves.scan_plane(self.base, self.D, *grid,
                                                    jobs=2))
            self.put("waves.pool_speedup.jobs2", t1 / t2, 1)
        else:  # no pool left: serial is the only path
            self.put("waves.pool_speedup.jobs2", 1.0, 0)


def count_mismatches(counts: dict) -> list[str]:
    return [f"{name} differs between repetitions: {values}"
            for name, values in counts.items() if len(set(values)) != 1]
