"""Output checks: read what a command wrote, reduce it to the values the
benchmark guards, and compare them with the stored reference.

A command's reduced output is ``{"exact": {...}, "close": {...}}``. Values
under ``exact`` must match the reference exactly (classifications, codes,
counts, tags). Values under ``close`` are float lists that must match
element by element within ``TOLERANCES`` (absolute), NaN matching NaN.
The tolerances sit far above run-to-run roundoff and far below any change
of result a user would notice; they are never widened to let a run pass.
"""

import csv
import hashlib
import math
from pathlib import Path

TOLERANCES = {
    "equilibrium_uv": 1e-9,  # closed-form cubic roots, Newton polished
    "threshold_sigma": 1e-8,  # bracketed root finding to 1e-12
    "bp_sigma": 1e-8,
    "cycle_envelope": 1e-4,  # extrema of a sampled RK45 orbit, rtol 1e-8
    "lambda_max": 1e-6,  # Benettin average over >= 200 renormalizations
    "branch_bp_sigma": 1e-6,  # BP refinement stops at refine_tol = 1e-7
    "c_min": 1e-9,
}


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open() as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _col(rows, name, conv=float) -> list:
    return [conv(r[name]) for r in rows]


def _equilibria(out: Path) -> dict:
    rows = _rows(out / "equilibria.csv")
    return {"exact": {"kind": _col(rows, "kind", str),
                      "stability_code": _col(rows, "stability_code", int)},
            "close": {"equilibrium_uv": _col(rows, "u") + _col(rows, "v")}}


def _thresholds(out: Path) -> dict:
    th = _rows(out / "thresholds.csv")
    bps = _rows(out / "bps.csv")
    return {"exact": {"threshold_kind": _col(th, "threshold_kind", str),
                      "bp_n": _col(bps, "n", int)},
            "close": {"threshold_sigma": _col(th, "sigma"),
                      "bp_sigma": _col(bps, "sigma")}}


def _diagram(out: Path) -> dict:
    rows = _rows(out / "diagram.csv")
    return {"exact": {"branch_id": _col(rows, "branch_id", int),
                      "stability_code": _col(rows, "stability_code", int),
                      "has_cycle": [not math.isnan(float(r["cycle_umin"]))
                                    for r in rows]},
            "close": {"equilibrium_uv": _col(rows, "sigma") + _col(rows, "u"),
                      "cycle_envelope": (_col(rows, "cycle_umin")
                                         + _col(rows, "cycle_umax"))}}


def _simulate(out: Path) -> dict:
    return {"exact": {
        "classification": (out / "classification.txt").read_text().strip(),
        "snapshots": len(list(out.glob("snapshot_*.csv"))),
        "final": (out / "final.csv").is_file(),
        "summary_rows": len(_rows(out / "summary.csv"))}, "close": {}}


def _lyapunov(out: Path) -> dict:
    text = (out / "result.txt").read_text()
    lam = float(text.split("=", 1)[1])
    return {"exact": {"series_rows": len(_rows(out / "lyapunov.csv"))},
            "close": {"lambda_max": [lam]}}


def _continue(out: Path) -> dict:
    rows = _rows(out / "branch.csv")
    return {"exact": {"n_unstable": _col(rows, "n_unstable", int),
                      "tag": _col(rows, "tag", str)},
            "close": {"branch_bp_sigma": [float(r["sigma"]) for r in rows
                                          if "BP" in r["tag"].split(";")]}}


def _wave_scan(out: Path) -> dict:
    rows = _rows(out / "scan.csv")
    return {"exact": {"classification_code": _col(rows, "classification_code", int)},
            "close": {"c_min": _col(rows, "c_min_at_sigma")}}


EXTRACT = {
    "equilibria": _equilibria,
    "thresholds": _thresholds,
    "temporal-diagram": _diagram,
    "simulate": _simulate,
    "lyapunov": _lyapunov,
    "continue": _continue,
    "wave-scan": _wave_scan,
}


def reduce_output(command: str, out: Path) -> dict:
    return EXTRACT[command](out)


def compare(expect: dict, got: dict) -> list[str]:
    """Problems found comparing a reduced output with its reference."""
    problems = []
    for key, want in expect["exact"].items():
        have = got["exact"].get(key)
        if have != want:
            problems.append(f"{key}: expected {want!r}, got {have!r}")
    for key, want in expect["close"].items():
        have = got["close"].get(key, [])
        tol = TOLERANCES[key]
        if len(have) != len(want):
            problems.append(f"{key}: expected {len(want)} values, got {len(have)}")
            continue
        for i, (a, b) in enumerate(zip(want, have)):
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= tol:
                problems.append(f"{key}[{i}]: expected {a!r}, got {b!r} (tol {tol})")
    return problems


def manifest_digest(out: Path) -> str | None:
    path = out / "manifest.txt"
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(command: str, out: Path, expect: dict | None) -> list[str]:
    """Problems with one command's output; a missing reference is one."""
    if expect is None:
        return ["no stored reference for these inputs"]
    try:
        got = reduce_output(command, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {exc!r}"]
    return compare(expect, got)
