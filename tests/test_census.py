"""Reach or remove: every public function of ``alleekit`` is run by one of
the eight CLI commands, or ``_KEPT`` says why it stays without one.

The commands run in this process, on the small configs of
``test_imports``, under ``sys.setprofile``, which sees every call of a
Python function; a 1 x 1 ``wave-scan`` shoots its cell in this process
too. Classes and enums are left out: their ``__init__`` is generated.
"""

import inspect
import sys

import alleekit
from alleekit.cli import main
from test_imports import _BODIES, _KINETICS

# public functions that no command runs, and why each stays
_KEPT = {
    "jacobian": "the 2 x 2 reference that tests compare the scalar "
                "entries, the banded Jacobian and the mode blocks against",
    "branch_point_sigmas": "the benchmark's linear.bps_ms probe times it",
}


def _public_functions() -> dict:
    return {name: obj for name in alleekit.__all__
            if inspect.isfunction(obj := getattr(alleekit, name))}


def _codes_run_by_commands(tmp_path) -> set:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        rcs = {}
        for command, body in _BODIES.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(_KINETICS + body)
            rcs[command] = main([command, "--config", str(cfg),
                                 "--out", str(tmp_path / command)])
    finally:
        sys.setprofile(previous)
    assert rcs == dict.fromkeys(_BODIES, 0)
    return seen


def test_every_public_function_is_run_by_a_command_or_kept(tmp_path):
    run = _codes_run_by_commands(tmp_path)
    functions = _public_functions()
    assert set(_KEPT) <= set(functions)
    unreached = {name for name, fn in functions.items()
                 if fn.__code__ not in run}
    # a kept function that a command reaches no longer needs its reason
    assert unreached == set(_KEPT)
