"""Command-line interface.

Subcommands: ``constant`` prints the closed-form quantities for (N, s);
``sweep upper|solve`` runs a rate sweep and writes CSV; ``verify
interp|covering|minseq|inequalities`` runs one audit.  A flat key=value
config file can override any flag of the subcommand it is passed to.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    discrete_constant_sweep,
    make_rng,
    upper_bound_sweep,
    verify_covering,
    verify_functional_inequalities,
    verify_interp_error,
    verify_minimizing_sequence,
    write_records,
)
from .mesh import FeFunction, build_mesh
from .params import check_order, critical_exponent, exact_constant, rate_exponent

_VERIFY_MESH_LEVEL = {1: 5, 2: 1}


def _parse_levels(text: str) -> list:
    """Parse 'a..b' into [a, ..., b] or 'a,b,c' into a list.

    The ``type`` of both ``--levels`` flags: argparse rejects a value it
    cannot parse, an empty range like '8..4', a negative level or a list
    that is not strictly increasing, with exit status 2 and names the value.
    """
    if ".." in text:
        a, b = text.split("..")
        levels = list(range(int(a), int(b) + 1))
    else:
        levels = [int(p) for p in text.split(",")]
    if not levels:
        raise ValueError(f"empty level range {text!r}")
    if min(levels) < 0 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels {text!r} are not nonnegative and strictly increasing")
    return levels


def _parse_widths(text: str) -> list:
    """Parse 'a,b,c' into floats: the ``type`` of ``--eps``, with the audit's rules.

    At least two widths, strictly decreasing, each in (0, 1/3), so not
    NaN; argparse rejects any other list with exit status 2.
    """
    eps = [float(p) for p in text.split(",")]
    if len(eps) < 2 or not all(0 < e < 1 / 3 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"widths {text!r} are not two or more, strictly decreasing, in (0, 1/3)")
    return eps


def _parse_config(path: str) -> dict:
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_args(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Parse argv, then again with the key=value file of --config appended as flags.

    The appended flags come last, so the config overrides the command line,
    and each value goes through its flag's type and choices; a key that is
    not a flag of the subcommand raises ValueError.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    extra = [f"--{key}={val}" for key, val in _parse_config(args.config).items()]
    args, unknown = parser.parse_known_args(argv + extra)
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {' '.join(unknown)}")
    return args


def _print_fit(name: str, fit) -> None:
    print(
        f"{name}: slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
        f"r2={fit.r_squared:.8f} points={fit.points_used}"
    )


def _write_report_csv(path: str, report: dict) -> None:
    lines = ["key,value"]
    for key, val in report.items():
        if isinstance(val, dict):
            for k2, v2 in val.items():
                lines.append(f"{key}.{k2},{v2!r}")
        elif isinstance(val, (list, tuple)):
            for i, v2 in enumerate(val):
                lines.append(f"{key}.{i},{v2!r}")
        else:
            lines.append(f"{key},{val!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _cmd_constant(args) -> int:
    S = exact_constant(args.dim, args.s)
    print(f"S({args.dim}, {args.s}) = {S!r}")
    print(f"alpha = {rate_exponent(args.dim, args.s)!r}")
    print(f"2*_s = {critical_exponent(args.dim, args.s)!r}")
    return 0


def _cmd_sweep(args) -> int:
    if args.mode == "upper":
        res = upper_bound_sweep(args.dim, args.s, args.levels)
    else:
        res = discrete_constant_sweep(args.dim, args.s, args.levels, tol=args.tol)
    for i, r in enumerate(res.records):
        line = (
            f"level {r.level}: h={r.h:.6g} c_h={r.c_h:.6g} value={r.value:.8e} "
            f"slack={r.slack:.2e} wall={r.wall_time:.2f}s"
        )
        if args.mode == "solve":
            steps = res.details["iterations"][i]
            line += (
                f" steps={steps} residual={res.details['residual'][i]:.2e}"
                f" mixed={res.details['mixed_steps'][i]}"
            )
        print(line)
        if args.mode == "solve" and not res.details["converged"][i]:
            print(f"level {r.level} not converged after {steps} steps", file=sys.stderr)
    for lev, msg in res.failures:
        print(f"level {lev} FAILED: {msg}", file=sys.stderr)
    _print_fit("rate", res.fit)
    print(f"alpha (theory) = {res.details['alpha']!r}")
    if args.out:
        write_records(args.out, res.records)
        print(f"wrote {args.out}")
    return 0


def _random_fe_functions(dim: int, seed: int, count: int = 50):
    mesh = build_mesh(dim, _VERIFY_MESH_LEVEL[dim])
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        vals = np.zeros(mesh.n_nodes)
        vals[: mesh.free_count] = rng.standard_normal(mesh.free_count)
        out.append(FeFunction(mesh, vals))
    return out


def _cmd_verify(args) -> int:
    if args.kind == "interp":
        levels = args.levels or list(range(4, 10))
        res = verify_interp_error(args.dim, args.s, args.q, args.c, levels)
        _print_fit("value rate in h (expect 2)", res.lq_h)
        _print_fit("gradient rate in h (expect 1)", res.grad_h)
        _print_fit(
            f"value rate in c (expect {res.details['expected_c_slope']:.4f})",
            res.lq_c,
        )
        report = {
            "lq_h_slope": res.lq_h.slope,
            "grad_h_slope": res.grad_h.slope,
            "lq_c_slope": res.lq_c.slope,
            "expected_c_slope": res.details["expected_c_slope"],
        }
    elif args.kind == "covering":
        report = verify_covering(args.dim, args.s, args.samples, seed=args.seed)
    elif args.kind == "minseq":
        report = verify_minimizing_sequence(args.dim, args.s, args.eps)
    else:
        funcs = _random_fe_functions(args.dim, args.seed)
        report = verify_functional_inequalities(
            args.dim, args.s, funcs, seed=args.seed
        )
    if args.kind != "interp":
        for key, val in report.items():
            print(f"{key}: {val}")
    if args.out:
        _write_report_csv(args.out, report)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsob",
        description="Discrete fractional Sobolev constants on the unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dim", type=int, default=1, choices=(1, 2))
        p.add_argument("--s", type=float, default=0.25)
        p.add_argument("--config", type=str, default=None)

    p0 = sub.add_parser("constant", help="print closed-form quantities")
    common(p0)
    p0.set_defaults(func=_cmd_constant)

    p1 = sub.add_parser("sweep", help="rate sweep over mesh levels")
    p1.add_argument("mode", choices=("upper", "solve"))
    common(p1)
    p1.add_argument("--levels", type=_parse_levels, default="4..8")
    p1.add_argument("--tol", type=float, default=1e-10)
    p1.add_argument("--out", type=str, default=None)
    p1.set_defaults(func=_cmd_sweep)

    p2 = sub.add_parser("verify", help="scaling and inequality audits")
    p2.add_argument("kind", choices=("interp", "covering", "minseq", "inequalities"))
    common(p2)
    p2.add_argument("--q", type=float, default=2.0)
    p2.add_argument("--c", type=float, default=0.25)
    p2.add_argument("--levels", type=_parse_levels, default=None)
    p2.add_argument("--samples", type=int, default=10000)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("--eps", type=_parse_widths, default="0.2,0.1,0.05")
    p2.add_argument("--out", type=str, default=None)
    p2.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        check_order(args.dim, args.s)
    except ValueError as exc:
        parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
