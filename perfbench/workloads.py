"""The benchmark's workloads: which ``alleekit`` commands each one runs, with
which config files, and how the workload seed becomes their inputs.

Every workload uses alpha=0.07, beta=0.2, gamma=1.2, eta=0.1 and d=46.
Why each workload exists, and which layer it loads:

* ``orbits``: equilibria, thresholds and a temporal diagram inside the
  cycle window below the Hopf point (about 1.8566). The ODE path: scalar
  ``kinetics`` inside RK45, the linear threshold and branch-point root
  finding, no grid and no linear solve.
* ``fields``: two ``simulate`` runs (IMEX with heavy CSV output, Strang
  stepping with little output) and a Lyapunov run. Array ``kinetics`` and
  tridiagonal solves; scalar kinetics and continuation stay idle.
* ``branch``: two ``continue`` runs, one on each side of the 600-unknown
  dense/Arnoldi cutoff in ``solution_stability``, which is nearly all of
  their time.
* ``waves``: a 4 x 4 ``wave-scan``: ``solve_bvp`` collocation and the RK45
  kinetic seed; the grid layers stay idle.

The seed only moves inputs that are random by nature: the noise seed of
the perturbed initial data of ``simulate`` (imex) and ``lyapunov``. It is
reduced modulo ``IC_SEEDS`` so that the stored reference covers every input
the benchmark can make. The other commands have no random input.

``pulse`` fails at the seed commit (a ``TypeError`` while it writes
``islands.csv``), so it is not part of a timed workload: the timed
workloads must be ones on which no command fails. It is run as a known
failure in the traced and smoke modes instead, which report whether it
still fails.
"""

from dataclasses import dataclass

IC_SEEDS = 8

_KINETICS = """[kinetics]
sigma = {sigma}
alpha = 0.07
beta = 0.2
gamma = 1.2
eta = 0.1
[spatial]
d = 46
"""


def _config(sigma: float, body: str) -> str:
    return _KINETICS.format(sigma=sigma) + body


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    label: str  # unique within its workload; names its config and output
    command: str  # the alleekit subcommand
    config: str  # config file text
    seed_base: int | None = None  # IC-noise seed at workload seed 0

    def ic_seed(self, seed: int) -> int | None:
        if self.seed_base is None:
            return None
        return self.seed_base + seed % IC_SEEDS

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_dir]
        ic = self.ic_seed(seed)
        if ic is not None:
            args += ["--seed", str(ic)]
        return args


def _orbits(sigma_lo: float, sigma_hi: float, count: int,
            t_sim: float) -> tuple[Command, ...]:
    return (
        Command("equilibria", "equilibria", _config(2.7, "")),
        Command("thresholds", "thresholds", _config(2.7, "l = 200\n")),
        Command("diagram", "temporal-diagram", _config(1.82, (
            f"[sweep]\nsigma_lo = {sigma_lo}\nsigma_hi = {sigma_hi}\n"
            f"sigma_count = {count}\nt_sim = {t_sim}\n"))),
    )


def _fields(n_imex: int, t_imex: float, t_strang: float,
            t_lyap: float) -> tuple[Command, ...]:
    return (
        Command("simulate-imex", "simulate", _config(2.7, (
            f"l = 200\n[grid]\nn = {n_imex}\ndt = 0.05\n[run]\nscheme = imex1\n"
            f"t = {t_imex}\nic = perturbed_homogeneous\nsnapshot_every = 2\n")),
            seed_base=7),
        Command("simulate-strang", "simulate", _config(2.7, (
            "l = 600\n[grid]\nn = 1024\ndt = 0.05\n[run]\nscheme = strang\n"
            f"t = {t_strang}\nic = invasion_step\n"))),
        Command("lyapunov", "lyapunov", _config(2.7, (
            "l = 200\n[grid]\nn = 256\ndt = 0.05\n[run]\n"
            f"t = {t_lyap}\ntransient = 50\n")), seed_base=3),
    )


def _branch(steps_dense: int, steps_arnoldi: int) -> tuple[Command, ...]:
    sweep = "[sweep]\nds0 = 1.5e-3\nbracket_lo = 1.767\nbracket_hi = 1.8305\n"
    return (
        Command("continue-dense", "continue", _config(1.83, (
            f"l = 200\n[grid]\nn = 256\n{sweep}steps = {steps_dense}\n"))),
        Command("continue-arnoldi", "continue", _config(1.83, (
            f"l = 200\n[grid]\nn = 1024\n{sweep}steps = {steps_arnoldi}\n"))),
    )


def _waves(count: int) -> tuple[Command, ...]:
    return (
        Command("scan", "wave-scan", _config(2.7, (
            f"[sweep]\nsigma_lo = 1.9\nsigma_hi = 3.0\nsigma_count = {count}\n"
            f"c_lo = 4.7\nc_hi = 6.0\nc_count = {count}\n"))),
    )


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "orbits": _orbits(1.82, 1.82, 1, 2500.0),
    "fields": _fields(2048, 50.0, 50.0, 230.0),
    "branch": _branch(4, 2),
    "waves": _waves(4),
}

# One reduced pass over every workload, with its own stored reference.
SMOKE: dict[str, tuple[Command, ...]] = {
    "orbits": _orbits(1.82, 1.82, 1, 1000.0),
    "fields": _fields(512, 10.0, 10.0, 230.0),
    "branch": _branch(2, 1),
    "waves": _waves(2),
}

# Commands that fail at the seed commit; run and reported, never timed.
KNOWN_FAILURES: tuple[Command, ...] = (
    Command("pulse", "pulse", _config(2.7, (
        "l = 1000\n[grid]\nn = 1024\ndt = 0.05\n[run]\nt = 200\n")),
        seed_base=5),
)
