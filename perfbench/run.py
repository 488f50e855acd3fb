"""Benchmark: wall time to an audited S_h on fixed fracsobolev sweeps.

    python3 perfbench/run.py --workload sweep1d --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is taken from ``src/`` beside this
directory.  Each measurement is a fresh child process (``child.py``)
started one at a time, a closed loop with one client, with the
BLAS/OpenMP pools pinned to one thread.  The run:

* starts ``SETUP_PROBES`` processes that only import and compute
  ``exact_constant``, for ``setup_s``;
* runs the workload's sweep untraced, again in a fresh process, until
  ``--seconds`` have passed (at least once);
* with ``--trace 1``, runs it once more with spans around every layer
  call and reports per-layer figures plus the tracing overhead;
* checks every level against ``reference.json`` and every exact count
  against earlier runs of the same code, prints each metric by name and
  unit, writes a run record under ``.perfbench/`` and prints one JSON
  line last.  It exits 1 if any check failed and 2 if it cannot run.

The workloads draw no random numbers; ``--seed`` is only recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "slack_rel_max": "ratio",
}
# Rounding allowance on top of the two runs' quadrature slack.
ROUNDING = 64 * 2.0**-52


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd,
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _code_sha() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py"), HERE / "reference.json"]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


# ------------------------------------------------------------- checks


def check_physics(name: str, phys: dict | None, ref: dict) -> tuple[int, list]:
    """(failed levels, reasons) of one sweep against the recorded reference.

    A level fails if it raised, did not converge, is missing, or moved
    from the reference by more than both runs' slack plus rounding.  A
    crashed sweep or a slope outside the propagated tolerance fails
    every level.
    """
    levels = WORKLOADS[name].levels
    if phys is None:
        return len(levels), ["sweep raised"]
    got = {row["level"]: row for row in phys["levels"]}
    want = {row["level"]: row for row in ref["levels"]}
    bad, reasons, tol = set(), [], {}
    for lev in levels:
        row = got.get(lev)
        if row is None:
            bad.add(lev)
            reasons.append(f"level {lev} missing")
            continue
        if row.get("converged") is False:
            bad.add(lev)
            reasons.append(f"level {lev} did not converge")
        tol[lev] = row["slack"] + want[lev]["slack"] + ROUNDING * abs(want[lev]["value"])
        if abs(row["value"] - want[lev]["value"]) > tol[lev]:
            bad.add(lev)
            reasons.append(
                f"level {lev}: value {row['value']!r} vs reference "
                f"{want[lev]['value']!r} (tolerance {tol[lev]:.3g})"
            )
    if len(tol) == len(levels):
        # slope = sum w_l log(value_l); a shift of tol_l in value_l moves it
        # by at most |w_l| tol_l / value_l.
        x = [math.log(want[lev]["h"]) for lev in levels]
        xm = statistics.fmean(x)
        sxx = sum((xi - xm) ** 2 for xi in x)
        slope_tol = ROUNDING + sum(
            abs(xi - xm) / sxx * tol[lev] / want[lev]["value"] for xi, lev in zip(x, levels)
        )
        if abs(phys["slope"] - ref["slope"]) > slope_tol:
            bad.update(levels)
            reasons.append(
                f"slope {phys['slope']!r} vs reference {ref['slope']!r} "
                f"(tolerance {slope_tol:.3g})"
            )
    return len(bad), reasons


def check_counts(name: str, children: list, code_sha: str) -> list:
    """Reasons any exact count differs between runs of this code."""
    path = OUT / "counts" / f"{name}-{code_sha[:16]}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    reasons = []
    for child in children:
        for key, value in child["counts"].items():
            if seen.setdefault(key, value) != value:
                reasons.append(f"{key}: {value} here, {seen[key]} in an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return reasons


# ---------------------------------------------------------------- run


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (final JSON line, full run record)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_id = uuid.uuid4().hex[:12]
    base = ["--workload", name, "--run-id", run_id]
    ref = json.loads((HERE / "reference.json").read_text())[name]
    n_levels = len(WORKLOADS[name].levels)

    probes = [_spawn([*base, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    package = Path(probes[0]["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise ChildFailed(f"imported fracsobolev from {package}, not from {SRC}")

    children, crashed = [], []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        try:
            children.append(_spawn(base, deadline))
        except ChildFailed as exc:
            crashed.append(str(exc))
            break
        took = time.monotonic() - t0
        left = deadline - time.monotonic() - (took if trace else 0.0)
        if time.monotonic() - t_measure >= seconds or left < 1.5 * took:
            break
    traced = None
    if trace and not crashed:
        try:
            traced = _spawn([*base, "--trace"], deadline)
        except ChildFailed as exc:
            crashed.append(str(exc))

    measured = children + ([traced] if traced else [])
    attempted = n_levels * (len(measured) + len(crashed))
    failed = n_levels * len(crashed)
    reasons = list(crashed)
    for child in measured:
        if "error" in child:
            reasons.append(child["error"].strip().splitlines()[-1])
        f, why = check_physics(name, child["physics"], ref)
        failed += f
        reasons += why
    code_sha = _code_sha()
    count_reasons = check_counts(name, measured, code_sha)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "run_id": run_id,
        "environment": {
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **probes[0]["environment"],
            "threads": {var: "1" for var in THREAD_VARS},
            "commit": _commit(),
            "code_sha256": code_sha,
        },
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": reasons,
        "count_mismatches": count_reasons,
        "setup_s": [p["setup_s"] for p in probes] + [c["setup_s"] for c in measured],
        "children": [{k: v for k, v in c.items() if k != "spans"} for c in measured],
    }
    ratios = [
        row["slack"] / row["value"]
        for c in measured
        if c["physics"]
        for row in c["physics"]["levels"]
    ]
    metrics = {}
    if children and ratios:
        tts = statistics.median(c["time_to_solution_s"] for c in children)
        record["end_to_end"] = e2e = {
            "time_to_solution_s": tts,
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "slack_rel_max": max(ratios),
        }
        if not trace:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        elif traced:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = {
                "value": traced["time_to_solution_s"] - tts,
                "unit": "s",
            }
            record["per_layer"] = metrics
            record["spans"] = traced["spans"]

    correct = failed == 0 and not count_reasons and bool(metrics)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record


def _report(line: dict, record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"processes {len(record['children'])}  trace {int(record['trace'])}"
    )
    env = record["environment"]
    print(
        f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"openblas {env['numpy_blas']}/{env['scipy_blas']}  cores {env['cores']}  threads 1"
    )
    child = record["children"][0] if record["children"] else None
    if child and child["physics"]:
        phys = child["physics"]
        print("  level  h          free  value           slack      S_h             iters")
        for row in phys["levels"]:
            s_h = f"{row['s_h']:<14.10g}" if "s_h" in row else f"{'-':<14}"
            print(
                f"  {row['level']:>5}  {row['h']:<9.4g}  {row['free_nodes']:>4}  "
                f"{row['value']:<14.10g}  {row['slack']:<9.3g}  {s_h}  {row.get('iterations', '-')}"
            )
        print(f"  fitted slope {phys['slope']:.6g}  rate_exponent {phys['rate_exponent']:.6g}")
    for name, m in line["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<40} {record['fail_frac']:.6g} ({record['failed']}/{record['attempted']} levels)")
    for why in record["failures"] + record["count_mismatches"]:
        print(f"  FAILED: {why}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="recorded only; the workloads are fixed")
    p.add_argument("--seconds", type=float, default=10.0, help="keep measuring at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fracsobolev" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{record['run_id']}.json"
    path.write_text(json.dumps(record, indent=1))
    _report(line, record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
