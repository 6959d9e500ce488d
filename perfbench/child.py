"""Run one ``alleekit`` command the way the console script does, and stamp
the moments the benchmark needs to split its wall time.

Usage: python3 child.py STAMP_FILE COMMAND --config FILE --out DIR [--seed N]

Everything after STAMP_FILE is handed to ``alleekit.cli.main`` unchanged.
STAMP_FILE receives a JSON object of ``time.monotonic()`` readings (the
clock is shared by all processes on the machine): ``start`` (interpreter
up, before ``import alleekit.cli``), ``import_end``, ``parse_s`` (time in
``parse_config``), ``runner_start`` and ``runner_end`` (around
``run_experiment``), plus ``cal_start_s``, ``cal_mid_s`` and ``cal_end_s``,
the durations of a fixed calibration kernel (see ``calibrate``) run first,
just before ``run_experiment`` and last. An
uncaught exception still propagates, so a traceback reaches stderr and the
exit code is 1, exactly as for a user.
"""

import json
import math
import sys
import time


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python kernel (about
    20 ms): how fast the CPU it runs on is at this moment. It uses nothing
    from alleekit, so no change to the program can move it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(120000):
        x = (i % 97) * 0.5
        acc += math.sqrt(x + 1.0) / (x + 2.0)
    return time.perf_counter() - t0


def main() -> int:
    marks = {"cal_start_s": calibrate(), "start": time.monotonic()}
    stamp, argv = sys.argv[1], sys.argv[2:]
    try:
        import alleekit.cli as cli

        marks["import_end"] = time.monotonic()
        parse_config, run_experiment = cli.parse_config, cli.run_experiment

        def timed_parse(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return parse_config(*args, **kwargs)
            finally:
                marks["parse_s"] = time.monotonic() - t0

        def timed_run(*args, **kwargs):
            marks["cal_mid_s"] = calibrate()
            marks["runner_start"] = time.monotonic()
            try:
                return run_experiment(*args, **kwargs)
            finally:
                marks["runner_end"] = time.monotonic()

        cli.parse_config, cli.run_experiment = timed_parse, timed_run
        return cli.main(argv)
    finally:
        marks["cal_end_s"] = calibrate()
        with open(stamp, "w") as f:
            json.dump(marks, f)


if __name__ == "__main__":
    sys.exit(main())
