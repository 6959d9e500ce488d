"""Write ``reference.json``: the reduced outputs and manifest digests that
the benchmark checks every command against.

Run it only on a commit whose outputs are known to be right (the first
one was the commit that added the benchmark), from the root of a checkout:

    python3 perfbench/make_reference.py

Every input the benchmark can make is covered: each command of each
workload, and each of the ``IC_SEEDS`` noise seeds of a seeded command.
"""

import json
import shutil
import sys

import checks
import run
from workloads import IC_SEEDS, SMOKE, WORKLOADS


def reference(kind: str, workloads: dict, seeds) -> dict:
    refs = {}
    for workload, commands in workloads.items():
        work = run.WORK / "reference" / kind / workload
        run.write_configs(commands, work)
        for cmd in commands:
            entry = refs.setdefault(f"{workload}/{cmd.label}", {})
            for seed in (seeds if cmd.seed_base is not None else [0]):
                rec = run.run_command(cmd, work, seed)
                if rec["rc"] != 0:
                    sys.exit(f"{workload}/{cmd.label} seed {seed} failed:\n"
                             f"{rec['stderr']}")
                ic = cmd.ic_seed(seed)
                entry["-" if ic is None else str(ic)] = {
                    "output": checks.reduce_output(cmd.command, rec["out"]),
                    "manifest_sha256": checks.manifest_digest(rec["out"])}
                print(f"{kind} {workload}/{cmd.label} ic_seed={ic}: "
                      f"{rec['wall_s']:.2f} s", flush=True)
    return refs


def main() -> None:
    shutil.rmtree(run.WORK / "reference", ignore_errors=True)
    out = {"tolerances": checks.TOLERANCES,
           "environment": run.environment(),
           "full": reference("full", WORKLOADS, range(IC_SEEDS)),
           "smoke": reference("smoke", SMOKE, [0])}
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
