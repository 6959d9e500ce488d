"""Benchmark of the ``alleekit`` CLI: end-to-end timings of four workloads,
and per-layer numbers from a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbits --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload branch --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` runs passes over the workload's commands until ``--seconds``
is used up, each command in a fresh process, one at a time (a closed loop
with one client), and reports medians over the passes of

* ``wall_s``: wall time of one pass, summed over its commands;
* ``setup_s``: the part of ``wall_s`` before each command's runner starts
  (interpreter start, ``import alleekit.cli``, ``parse_config``);
* ``solve_s``: ``wall_s`` minus ``setup_s``;
* ``ok_share``: commands that succeeded over commands attempted;
* ``peak_rss_mb``: the largest resident set of any child process.

The three times are scaled to a reference CPU speed (see ``CAL_REF_S``).

``--trace 1`` makes one untraced pass, one traced pass in this process
and the fixed layer probes of ``tracing.py``, and reports the per-layer
metrics; it does a fixed amount of work and ignores ``--seconds``. Every
output is checked against ``reference.json``; a command fails on a
non-zero exit, a traceback or a check that does not pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with every sample, the environment and the seeds, goes to
``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

import checks
import tracing
from workloads import KNOWN_FAILURES, SMOKE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"

# numpy's BLAS would otherwise take both cores of a 2-core box from under
# the next command; one process runs at a time and it gets one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
# The speed of a fresh process on the 2-core box the benchmark was built on
# swings by up to 45 % in stretches of seconds to minutes (the calibration
# kernel below swings with it), far beyond any bound a change could be held
# to. Each command's times are therefore scaled by CAL_REF_S over the time
# its own process took for the calibration kernel of child.py, measured
# at the start, between setup and solve, and at the end of that process;
# setup is scaled by the two readings around it, solve likewise. The unit
# is seconds at the speed where the kernel takes 20 ms. Raw times are kept
# in the results file.
CAL_REF_S = 0.020
COMMAND_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "ok_share": "share", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    """Versions and machine, read from a child that imports the package."""
    probe = ("import json, platform, numpy, scipy, alleekit.cli, alleekit; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'alleekit': alleekit.__version__}))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    env = json.loads(out.stdout)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True,
                                     timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env.update({"cpu": cpu, "nproc": os.cpu_count(), "git_sha": git_sha,
                "src_sha256": digest.hexdigest(),
                "threads": {var: "1" for var in THREAD_VARS}})
    return env


def load_reference(kind: str) -> dict:
    with REFERENCE.open() as f:
        return json.load(f)[kind]


def reference_for(refs: dict, workload: str, cmd, seed: int) -> dict | None:
    ic = cmd.ic_seed(seed)
    return refs.get(f"{workload}/{cmd.label}", {}).get("-" if ic is None else str(ic))


def write_configs(commands, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for cmd in commands:
        (work / f"{cmd.label}.cfg").write_text(cmd.config)


def run_command(cmd, work: Path, seed: int) -> dict:
    """One command in a fresh process; wall, setup, peak RSS and exit."""
    out = work / "out" / cmd.label
    stamp = work / f"{cmd.label}.stamp"
    stamp.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(stamp),
            *cmd.argv(str(work / f"{cmd.label}.cfg"), str(out), seed)]
    with open(work / f"{cmd.label}.stderr", "w+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=work,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    marks = json.loads(stamp.read_text()) if stamp.is_file() else {}
    setup, solve, cals = _phases(marks, t0, t1)
    scale = _speed_scales(cals)
    return {"label": cmd.label, "command": cmd.command, "out": out,
            "rc": proc.returncode, "stderr": stderr[-2000:],
            "wall_s": setup * scale[0] + solve * scale[1],
            "setup_s": setup * scale[0],
            "wall_raw_s": setup + solve, "setup_raw_s": setup, "speed_scale": scale,
            "runner_s": marks.get("runner_end", t1) - marks.get("runner_start", t1),
            "import_s": marks.get("import_end", t1) - marks.get("start", t0),
            "parse_s": marks.get("parse_s"),
            "rss_mb": usage.ru_maxrss / 1024.0}


def _phases(marks: dict, t0: float, t1: float):
    """Raw setup and solve time of a command, without its calibrations."""
    cals = [marks.get(k) for k in ("cal_start_s", "cal_mid_s", "cal_end_s")]
    spent = sum(c for c in cals if c)
    if "runner_start" not in marks:  # it never got to run: all of it is setup
        return t1 - t0 - spent, 0.0, cals
    setup = marks["runner_start"] - t0 - (cals[0] or 0.0) - (cals[1] or 0.0)
    return setup, t1 - t0 - spent - setup, cals


def _speed_scales(cals) -> tuple[float, float]:
    """Scale factors for setup and solve, from the calibrations around them."""
    start, mid, end = cals
    if not (start and mid and end):
        return 1.0, 1.0
    return CAL_REF_S / (0.5 * (start + mid)), CAL_REF_S / (0.5 * (mid + end))


def exit_problems(record: dict) -> list[str]:
    problems = []
    if record["rc"] != 0:
        problems.append(f"exit code {record['rc']}")
    if "Traceback" in record["stderr"]:
        problems.append("traceback on stderr")
    return problems


def judge(workload: str, cmd, seed: int, record: dict, refs: dict) -> list[str]:
    """Reasons a command failed; empty when it succeeded."""
    problems = exit_problems(record)
    if not problems:
        ref = reference_for(refs, workload, cmd, seed)
        problems = checks.check(cmd.command, record["out"],
                                ref and ref["output"])
    return problems


def run_pass(workload: str, commands, work: Path, seed: int, refs: dict) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    records = [run_command(cmd, work, seed) for cmd in commands]
    for cmd, rec in zip(commands, records):
        rec["problems"] = judge(workload, cmd, seed, rec, refs)
        rec["manifest_sha256"] = checks.manifest_digest(rec["out"])
    wall = sum(r["wall_s"] for r in records)
    setup = sum(r["setup_s"] for r in records)
    return {"wall_s": wall, "setup_s": setup, "solve_s": wall - setup,
            "wall_raw_s": sum(r["wall_raw_s"] for r in records),
            "setup_raw_s": sum(r["setup_raw_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "failed": sum(bool(r["problems"]) for r in records),
            "commands": records}


def spread(values) -> dict:
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def timed_run(workload: str, seed: int, seconds: float, work: Path, refs: dict):
    commands = WORKLOADS[workload]
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(workload, commands, work, seed, refs))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + took > seconds:
            break
    attempted = len(commands) * len(passes)
    failed = sum(p["failed"] for p in passes)
    stats = {name: spread([p[name] for p in passes])
             for name in ("wall_s", "setup_s", "solve_s", "peak_rss_mb")}
    stats["ok_share"] = {"median": 1.0 - failed / attempted, "n": attempted}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return passes, stats, metrics, attempted, failed


def traced_run(workload: str, seed: int, work: Path, refs: dict):
    sys.path.insert(0, str(SRC))
    commands = WORKLOADS[workload]
    untraced = run_pass(workload, commands, work, seed, refs)
    records, spans = tracing.traced_pass(commands, work, seed)
    failed = untraced["failed"]
    manifest_match = 0
    for cmd, rec in zip(commands, records):
        ref = reference_for(refs, workload, cmd, seed)
        rec["problems"] = judge(workload, cmd, seed, rec, refs)
        failed += bool(rec["problems"])
        digest = checks.manifest_digest(rec["out"])
        manifest_match += ref is not None and digest == ref.get("manifest_sha256")

    known = known_failure_run(work, seed)
    probes = tracing.Probes().run()
    mismatches = tracing.count_mismatches(probes.counts)

    untraced_cmds = untraced["commands"]
    metrics = {name: value for name, (value, _) in probes.metrics.items()}
    metrics.update({
        "cli.import_s": median(r["import_s"] for r in untraced_cmds),
        "config.parse_us": 1e6 * median(r["parse_s"] or 0.0 for r in untraced_cmds),
        "cli.self_s": sum(r["cli_self_s"] for r in records),
        "cli.bytes_written": sum(f.stat().st_size
                                 for f in (work / "traced").rglob("*")
                                 if f.is_file()),
        "cli.manifest_match": manifest_match,
        "cli.known_failures": sum(bool(k["problems"]) for k in known),
        "tracing_overhead_share": (sum(r["runner_s"] for r in records)
                                   / sum(r["runner_s"] for r in untraced_cmds)
                                   - 1.0),
    })
    detail = {"untraced_pass": untraced, "traced_pass": records, "spans": spans,
              "probe_samples": {k: n for k, (_, n) in probes.metrics.items()},
              "exact_counts": probes.counts, "count_mismatches": mismatches,
              "known_failures": known}
    attempted = 2 * len(commands)
    return detail, metrics, attempted, failed, mismatches


def known_failure_run(work: Path, seed: int) -> list[dict]:
    """Run each known-failing command once in a fresh process; report it."""
    write_configs(KNOWN_FAILURES, work / "known")
    out = []
    for cmd in KNOWN_FAILURES:
        rec = run_command(cmd, work / "known", seed)
        # no reference exists for a command that has never completed
        problems = exit_problems(rec)
        out.append({"label": cmd.label, "rc": rec["rc"], "problems": problems,
                    "stderr_tail": rec["stderr"][-300:]})
    return out


def layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def smoke(work: Path) -> int:
    """One reduced pass over every workload, checked against its reference."""
    refs = load_reference("smoke")
    failed = attempted = 0
    for workload, commands in SMOKE.items():
        write_configs(commands, work / workload)
        result = run_pass(workload, commands, work / workload, 0, refs)
        for rec in result["commands"]:
            status = "ok" if not rec["problems"] else "; ".join(rec["problems"])
            print(f"{workload}/{rec['label']}: {rec['wall_s']:.2f} s  {status}")
        attempted += len(commands)
        failed += result["failed"]
    for k in known_failure_run(work, 0):
        state = "still fails: " + "; ".join(k["problems"]) if k["problems"] else "now passes"
        print(f"known failure {k['label']}: {state}")
    print(f"smoke: {attempted - failed}/{attempted} commands passed")
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced pass over every workload")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    # before anything here imports numpy
    os.environ.update({var: "1" for var in THREAD_VARS})
    if not (SRC / "alleekit" / "cli.py").is_file():
        print(f"alleekit sources not found under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"stored reference {REFERENCE} is missing", file=sys.stderr)
        return 2

    setup_t0 = time.monotonic()
    env = environment()  # also compiles and caches the package's bytecode
    if args.smoke:
        shutil.rmtree(WORK / "smoke", ignore_errors=True)
        return smoke(WORK / "smoke")

    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    commands = WORKLOADS[args.workload]
    write_configs(commands, work)
    refs = load_reference("full")
    bench_setup_s = time.monotonic() - setup_t0

    seeds = {cmd.label: cmd.ic_seed(args.seed) for cmd in commands}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "command_seeds": seeds,
              "environment": env, "benchmark_setup_s": bench_setup_s}
    mismatches = []
    if args.trace:
        detail, metrics, attempted, failed, mismatches = traced_run(
            args.workload, args.seed, work, refs)
        units = layer_units()
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in units.items()}
        record.update(detail)
    else:
        passes, stats, metrics, attempted, failed = timed_run(
            args.workload, args.seed, args.seconds, work, refs)
        record.update({"stats": stats, "passes": passes})
        for name, s in stats.items():
            extra = f" q1={s['q1']:.4f} q3={s['q3']:.4f}" if "q1" in s else ""
            print(f"{args.workload} {name} {END_TO_END_UNITS[name]}: "
                  f"median={s['median']:.4f}{extra} n={s['n']}")

    for problem in mismatches:
        print(f"benchmark bug: exact count {problem}", file=sys.stderr)
    result = {"correct": failed == 0 and not mismatches, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for line in _failure_lines(record):
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


def _failure_lines(record: dict):
    passes = record.get("passes") or [record.get("untraced_pass", {})]
    cmds = [c for p in passes for c in p.get("commands", [])]
    cmds += record.get("traced_pass", [])
    for c in cmds:
        if c.get("problems"):
            yield f"failed {c['label']}: {'; '.join(c['problems'])}"


if __name__ == "__main__":
    sys.exit(main())
