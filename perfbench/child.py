"""One workload in a fresh process; prints one JSON object on stdout.

``run.py`` starts this file once per measurement, so every figure
includes what a command-line user pays per process: interpreter start,
the numpy/scipy/fracsobolev imports, ``exact_constant`` and, in 2D, the
complement spline table that assembly builds on first use.  Only the
standard library is imported at module level, so ``run.py`` can read
``WORKLOADS`` without loading numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from typing import NamedTuple


class Workload(NamedTuple):
    sweep: str
    dim: int
    s: float
    levels: tuple


# Why each one is here: see NOTES.md beside this file.
WORKLOADS = {
    "sweep1d": Workload("discrete_constant_sweep", 1, 0.25, tuple(range(4, 11))),
    "sweep2d": Workload("discrete_constant_sweep", 2, 0.5, tuple(range(0, 3))),
    "upper1d": Workload("upper_bound_sweep", 1, 0.3, tuple(range(5, 11))),
}


def _blas_version(show_config) -> str | None:
    try:
        return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy.show_config),
        "scipy_blas": _blas_version(scipy.show_config),
    }


def _physics(wl: Workload, result, rec) -> dict:
    """Per-level outputs and the fitted slope of a finished sweep."""
    levels = []
    for i, r in enumerate(result.records):
        row = {
            "level": r.level,
            "h": r.h,
            "free_nodes": rec.levels.get(r.level, {}).get("free_nodes"),
            "value": r.value,
            "slack": r.slack,
        }
        if wl.sweep == "discrete_constant_sweep":
            row["s_h"] = result.details["s_h"][i]
            row["converged"] = bool(result.details["converged"][i])
            row["iterations"] = rec.levels.get(r.level, {}).get("iterations")
        levels.append(row)
    return {
        "levels": levels,
        "failures": [[lev, msg] for lev, msg in result.failures],
        "slope": result.fit.slope,
        "rate_exponent": result.details["alpha"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--run-id", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import fracsobolev
    from fracsobolev import experiments
    from fracsobolev.params import exact_constant

    exact_constant(wl.dim, wl.s)
    out = {
        "setup_s": time.monotonic() - args.spawned_at,
        "package": fracsobolev.__file__,
    }
    if args.setup_only:
        out["environment"] = _environment()
        print(json.dumps(out))
        return 0

    from tracer import Recorder, exact_counts, install, layer_metrics

    rec = Recorder(args.run_id, args.trace)
    install(rec)
    sweep = getattr(experiments, wl.sweep)
    root = rec.begin(f"experiments.{wl.sweep}") if args.trace else None
    t0 = time.perf_counter()
    try:
        result = sweep(wl.dim, wl.s, list(wl.levels))
    except Exception:  # noqa: BLE001 - the sweep's guards raise; report, don't die
        result = None
        out["error"] = traceback.format_exc()
    out["time_to_solution_s"] = time.perf_counter() - t0
    if root is not None:
        rec.end(root)
    rec.restore()

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["physics"] = _physics(wl, result, rec) if result is not None else None
    out["counts"] = exact_counts(rec)
    out["assembly"] = {
        lev: dataclasses.asdict(lv["report"]) for lev, lv in rec.levels.items() if "report" in lv
    }
    if args.trace:
        layers = layer_metrics(rec, root)
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out["spans"] = rec.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
