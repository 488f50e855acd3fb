"""Spans and counters recorded around the public calls between layers.

Nothing here edits the package: the recorder replaces a function in the
namespace of the module that calls it (``experiments.assemble`` is the
name ``discrete_constant_sweep`` looks up at call time) and puts the
original back on ``restore``.
"""

from __future__ import annotations

import time
from collections import Counter


class Recorder:
    """Per-level results the sweeps drop, plus optional spans and counts.

    ``levels`` maps a mesh level to what its ``build_mesh``, ``assemble``
    and ``solve`` calls returned; this costs one dictionary write per call
    and runs in every mode.  With ``trace`` set, each wrapped call also
    opens a span (name, start, end, parent span, run id), kept in memory.
    """

    def __init__(self, run_id: str, trace: bool):
        self.run_id = run_id
        self.trace = trace
        self.levels: dict = {}
        self.spans: list = []
        self.calls: Counter = Counter()
        self._open: list = []
        self._patched: list = []
        self.level = None

    # ---------------------------------------------------------- patching

    def _patch(self, module, attr, wrapper_of):
        inner = getattr(module, attr)
        self._patched.append((module, attr, inner))
        setattr(module, attr, wrapper_of(inner))

    def restore(self) -> None:
        for module, attr, inner in reversed(self._patched):
            setattr(module, attr, inner)
        self._patched.clear()

    # ------------------------------------------------------------- spans

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def span(self, module, attr, name: str) -> None:
        """Time every call of ``module.attr`` as a span called ``name``."""

        def wrapper_of(inner):
            def traced(*args, **kwargs):
                span = self.begin(name)
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.end(span)

            return traced

        self._patch(module, attr, wrapper_of)

    def count(self, module, attr, name: str) -> None:
        """Count calls of ``module.attr`` without timing them."""

        def wrapper_of(inner):
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return inner(*args, **kwargs)

            return counted

        self._patch(module, attr, wrapper_of)

    # ----------------------------------------------------------- capture

    def keep(self, module, attr, store) -> None:
        """Hand each result of ``module.attr`` to ``store(self, args, result)``."""

        def wrapper_of(inner):
            def kept(*args, **kwargs):
                result = inner(*args, **kwargs)
                store(self, args, result)
                return result

            return kept

        self._patch(module, attr, wrapper_of)

    def level_record(self) -> dict:
        return self.levels.setdefault(self.level, {})


def _keep_mesh(rec, args, mesh):
    rec.level = int(args[1])
    rec.level_record().update(h=float(mesh.h), free_nodes=int(mesh.free_count))


def _keep_form(rec, args, form):
    rec.level_record().update(report=form.assembly_report, nodes=int(form.mesh.n_nodes))


def _keep_solve(rec, args, report):
    rec.level_record().update(iterations=int(report.iterations), converged=bool(report.converged))


def install(rec: Recorder) -> None:
    """Wrap the calls the two sweeps make; spans only when tracing."""
    from fracsobolev import experiments, norms, solver

    rec.keep(experiments, "build_mesh", _keep_mesh)
    rec.keep(experiments, "assemble", _keep_form)
    rec.keep(experiments, "solve", _keep_solve)
    if not rec.trace:
        return
    # Layer boundaries crossed by discrete_constant_sweep and
    # upper_bound_sweep, named after the module that owns the function.
    for module, attr, name in (
        (experiments, "build_mesh", "mesh.build_mesh"),
        (experiments, "interpolate", "mesh.interpolate"),
        (experiments, "normalize_lambda", "bubble.normalize_lambda"),
        (experiments, "assemble", "gagliardo.assemble"),
        (experiments, "seminorm_sq_direct", "gagliardo.seminorm_sq_direct"),
        (solver, "seminorm_sq_direct", "gagliardo.seminorm_sq_direct"),
        (experiments, "default_start", "solver.default_start"),
        (experiments, "quotient", "solver.quotient"),
        (experiments, "solve", "solver.solve"),
        (experiments, "fit_manifold", "solver.fit_manifold"),
        (solver, "cho_factor", "solver.cho_factor"),
        (solver, "cho_solve", "solver.cho_solve"),
        (experiments, "lq_norm", "norms.lq_norm"),
        (solver, "lq_norm", "norms.lq_norm"),
        (solver, "nonlinear_residual", "norms.nonlinear_residual"),
    ):
        rec.span(module, attr, name)
    # Each element-sum pass of the order-doubling drivers fetches its
    # rule through this public lookup, once per pass.
    rec.count(norms, "reference_rule", "norms.passes")


# ------------------------------------------------------------ aggregation


def _assembly(rec: Recorder):
    """Phase seconds and work counts summed over the levels' AssemblyReports."""
    phases, evals = Counter(), Counter()
    cells = points = capped = 0
    for lv in rec.levels.values():
        rep = lv.get("report")
        if rep is not None:
            phases.update(rep.phase_seconds)
            evals.update(rep.kernel_evals)
            cells += rep.complement_cells
            points += rep.complement_points
            capped += rep.budget_exceeded
    return phases, evals, cells, points, capped


def exact_counts(rec: Recorder) -> dict:
    """Counts that must repeat exactly between runs of the same code.

    An untraced run sees the assembly counters and the iterations; a
    traced run adds the solver candidates and the norm calls and passes.
    """
    _, evals, cells, points, capped = _assembly(rec)
    counts = {
        "gagliardo.kernel_evals": sum(evals.values()),
        "gagliardo.kernel_evals.disjoint_far": evals["disjoint_far"],
        "gagliardo.kernel_evals.disjoint_near": evals["disjoint_near"],
        "gagliardo.complement_cells": cells,
        "gagliardo.complement_points": points,
        "gagliardo.capped_cells": capped,
        "solver.iterations": sum(lv.get("iterations", 0) for lv in rec.levels.values()),
    }
    if rec.trace:
        names = [sp["name"] for sp in rec.spans]
        counts["norms.lq_calls"] = names.count("norms.lq_norm")
        counts["norms.residual_calls"] = names.count("norms.nonlinear_residual")
        counts["norms.passes"] = rec.calls["norms.passes"]
        counts["solver.candidates"] = _solve_split(rec)[1]
    return counts


def _solve_split(rec: Recorder):
    """(slack audit seconds, line-search candidates) over all solve spans.

    Inside solve, everything from the boosted seminorm onward is the
    slack audit; the lq_norm calls before it are the initial
    normalization followed by one per line-search or polish candidate.
    """
    slack_s = candidates = 0
    for sp in rec.spans:
        if sp["name"] != "solver.solve":
            continue
        kids = [k for k in rec.spans if k["parent"] == sp["id"]]
        audit = [k for k in kids if k["name"] == "gagliardo.seminorm_sq_direct"]
        cut = audit[0]["start"] if audit else sp["end"]
        slack_s += sp["end"] - cut
        norms = sum(k["name"] == "norms.lq_norm" and k["start"] < cut for k in kids)
        candidates += max(norms - 1, 0)
    return slack_s, candidates


def _total(rec: Recorder, name: str) -> float:
    return sum(sp["end"] - sp["start"] for sp in rec.spans if sp["name"] == name)


def layer_metrics(rec: Recorder, root: dict) -> dict:
    """Per-layer figures, as (value, unit), of one traced sweep under ``root``."""
    phases, evals, *_ = _assembly(rec)
    counts = exact_counts(rec)
    four = sum(phases[k] for k in ("classify", "singular", "disjoint", "complement"))
    slack_s, candidates = _solve_split(rec)
    solve_s = _total(rec, "solver.solve")
    iterations = counts["solver.iterations"]
    root_s = root["end"] - root["start"]
    covered = sum(sp["end"] - sp["start"] for sp in rec.spans if sp["parent"] == root["id"])
    nodes = [lv["nodes"] for lv in rec.levels.values() if "nodes" in lv]
    metrics = {
        "gagliardo.assemble_s": (phases["total"], "s"),
        "gagliardo.classify_s": (phases["classify"], "s"),
        "gagliardo.singular_s": (phases["singular"], "s"),
        "gagliardo.disjoint_s": (phases["disjoint"], "s"),
        "gagliardo.complement_s": (phases["complement"], "s"),
        "gagliardo.finalize_s": (phases["total"] - four, "s"),
        "gagliardo.direct_s": (_total(rec, "gagliardo.seminorm_sq_direct"), "s"),
        # far-pair evaluations over the whole disjoint phase, near pairs included
        "gagliardo.far_evals_per_s": (
            evals["disjoint_far"] / phases["disjoint"] if phases["disjoint"] else 0.0,
            "1/s",
        ),
        # computed, not measured: the three n-by-n float64 arrays assemble holds
        "gagliardo.dense_bytes": (3 * 8 * max(nodes, default=0) ** 2, "B"),
        "solver.solve_s": (solve_s, "s"),
        "solver.iterate_s": (solve_s - slack_s, "s"),
        "solver.factor_s": (_total(rec, "solver.cho_factor"), "s"),
        "solver.step_s": (_total(rec, "solver.cho_solve"), "s"),
        "solver.slack_s": (slack_s, "s"),
        "solver.fit_s": (_total(rec, "solver.fit_manifold"), "s"),
        "solver.accept_ratio": (iterations / candidates if candidates else 0.0, "ratio"),
        "solver.unconverged": (
            sum(lv.get("converged") is False for lv in rec.levels.values()),
            "count",
        ),
        "norms.lq_s": (_total(rec, "norms.lq_norm"), "s"),
        "norms.residual_s": (_total(rec, "norms.nonlinear_residual"), "s"),
        "mesh.build_s": (_total(rec, "mesh.build_mesh"), "s"),
        "experiments.self_s": (root_s - covered, "s"),
        "trace.coverage": (covered / root_s, "ratio"),
        "trace.spans": (len(rec.spans), "count"),
    }
    metrics.update((k, (v, "count")) for k, v in counts.items())
    return metrics
