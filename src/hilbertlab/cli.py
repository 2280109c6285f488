"""Command-line entry point: verification suites, constants, and scans.

Exit codes: 0 on success (and all verdicts holding), 1 when a
verification suite records a failing verdict, 2 on usage errors, invalid
input, eigensolver failures and runs too large to allocate.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from ._util import jsonable
from .errors import IoError, NoConvergence
from .gaps import generate_cluster, generate_random, generate_uniform
from .lowerbound import big_g, scan
from .quadforms import estimate_constant
from .reports import RunReport
from .search import generate_trig_periodized, search_constant
from .spectra import preissmann_chain
from .suites import ALL_SUITES, DEFAULT_MAX_N, MAX_N_SUITES, run_suites

FIGURE_KMIN, FIGURE_KMAX, FIGURE_STEPS = 1, 25, 99
# a scan point's record keys; the scan CSV has the same columns but B
SCAN_FIELDS = ("K", "x", "A", "B", "kappa0", "kappa1", "u_star", "G")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertlab",
        description="Numerical laboratory for weighted Hilbert-type inequalities.",
    )
    # each flag goes only on the subcommands that read it, so argparse
    # rejects it (exit 2) where it would be ignored
    as_json, seeded, to_csv = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    as_json.add_argument("--json", action="store_true",
                         help="emit JSON lines instead of one document")
    seeded.add_argument("--seed", type=int, default=0, help="base seed for sweeps (default 0)")
    to_csv.add_argument("--out", type=str, default=None, help="write CSV output to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[seeded, to_csv, as_json],
                              help="run inequality/identity suites")
    p_verify.add_argument("--tol", type=float, default=None, help="override per-suite tolerances")
    p_verify.add_argument("--suite", choices=[*ALL_SUITES, "all"], default="all")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n",
                          help=f"largest window size for {' and '.join(MAX_N_SUITES)} "
                               f"(default {DEFAULT_MAX_N}); rejected for the other suites")

    p_const = sub.add_parser("constant", parents=[seeded, as_json],
                             help="estimate the constant at fixed size")
    p_const.add_argument("--alpha", type=float, required=True)
    p_const.add_argument("--n", type=int, required=True)
    # defaults of the flags that apply only with or only without --search
    # are filled in by _run_constant, so that a given flag can be told apart
    p_const.add_argument("--config", choices=["uniform", "cluster", "random", "trig"],
                         default=None, help="window to solve (default uniform); "
                                            "rejected with --search")
    p_const.add_argument("--spacing", type=float, default=None,
                         help="uniform spacing (default 1.0); rejected with --search")
    p_const.add_argument("--min-gap", type=float, default=None, dest="min_gap",
                         help="random gap floor (default 0.2); rejected with --search")
    p_const.add_argument("--search", action="store_true",
                         help="heuristic hill climb over gap configurations")
    p_const.add_argument("--restarts", type=int, default=None,
                         help="seeded random starts (default 3); only with --search")
    p_const.add_argument("--rounds", type=int, default=None,
                         help="climb rounds per start (default 200); only with --search")

    sub.add_parser("preissmann", parents=[as_json], help="the quadratic-chain upper bounds")

    p_lower = sub.add_parser("lower-bound", parents=[to_csv, as_json],
                             help="torus construction bounds")
    group = p_lower.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", nargs=2, metavar=("K", "A"),
                       help="evaluate one construction point")
    group.add_argument("--scan", nargs=3, type=int, metavar=("KMIN", "KMAX", "STEPS"),
                       help="grid scan over K and the offset fraction")

    sub.add_parser("figure", parents=[to_csv, as_json],
                   help=f"alias for the K={FIGURE_KMIN}..{FIGURE_KMAX} scan on a "
                        f"{FIGURE_STEPS}-point grid")
    return parser


def _csv_column(values: list) -> tuple[str, list]:
    """One column's field in the row template and the values it formats:
    a float column keeps its values under %.12g, an int column under %d,
    and any other column becomes text cells under %s."""
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        return "%.12g", values
    if kinds <= {int}:
        return "%d", values
    return "%s", [("true" if v else "false") if isinstance(v, bool)
                  else "%.12g" % v if isinstance(v, float) else str(v) for v in values]


def write_csv(columns: dict[str, list], path: str) -> None:
    """RFC-4180-style CSV from named columns of equal length: header row,
    LF endings, bool cells as true/false, floats to 12 significant digits
    (inf as inf), anything else as str.

    Each column is formatted in one pass. Numbers never need quoting, so
    all-number rows are written through one row template; rows with text
    cells go through the csv module, which quotes them where needed.
    """
    fields, values = [], []
    for column in columns.values():
        field, cells = _csv_column(column)
        fields.append(field)
        values.append(cells)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if columns:
                writer.writerow(columns)
            if "%s" in fields:
                writer.writerows(zip(*(cells if field == "%s" else [field % v for v in cells]
                                       for field, cells in zip(fields, values))))
            else:
                template = ",".join(fields) + "\n"
                fh.write("".join(map(template.__mod__, zip(*values))))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _run_verify(args) -> tuple[RunReport, int]:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    # an infinite tolerance passes every record, a NaN one writes NaN bounds
    if args.tol is not None and not math.isfinite(args.tol):
        raise ValueError(f"--tol must be finite, got {args.tol}")
    if args.max_n is not None and args.suite not in (*MAX_N_SUITES, "all"):
        raise ValueError(f"--max-n has no effect on the {args.suite} suite; it applies "
                         f"to {', '.join(MAX_N_SUITES)} and all")
    if args.max_n is not None and args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    max_n = DEFAULT_MAX_N if args.max_n is None else args.max_n
    names = ALL_SUITES if args.suite == "all" else (args.suite,)
    records = run_suites(names, trials=args.trials, max_n=max_n,
                         seed=args.seed, tol=args.tol)
    # a run that checked nothing must not report a pass
    all_hold = bool(records) and all(r["holds"] for r in records)
    report = RunReport("verify", params={"suite": args.suite, "trials": args.trials,
                                         "max_n": max_n, "seed": args.seed,
                                         "tol": args.tol},
                       results=records, all_hold=all_hold)
    if args.out:
        write_csv({key: [r[key] for r in records] for key in (records[0] if records else ())},
                  args.out)
    return report, 0 if all_hold else 1


# constant's flags that act only without --search (the start window) and
# only with it (the climb), each with its default
WINDOW_FLAGS = {"config": "uniform", "spacing": 1.0, "min_gap": 0.2}
SEARCH_FLAGS = {"restarts": 3, "rounds": 200}


def _build_config(args):
    if args.config == "uniform":
        return generate_uniform(args.n, args.spacing)
    if args.config == "cluster":
        return generate_cluster(args.n)
    if args.config == "trig":
        return generate_trig_periodized(args.n)
    return generate_random(args.n, args.min_gap, args.seed)


def _run_constant(args) -> tuple[RunReport, int]:
    # a flag the run ignores would echo a setting that was never used
    for name in WINDOW_FLAGS if args.search else SEARCH_FLAGS:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} has no effect {'with' if args.search else 'without'} "
                             f"--search")
    for name, default in {**WINDOW_FLAGS, **SEARCH_FLAGS}.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.search:
        # a negative count would skip the climb yet still label its start a search
        for flag, value in (("--restarts", args.restarts), ("--rounds", args.rounds)):
            if value < 0:
                raise ValueError(f"{flag} must be >= 0, got {value}")
        found = search_constant(args.alpha, args.n, seed=args.seed,
                                restarts=args.restarts, rounds=args.rounds)
        label, est = f"search:{found.label}", found.estimate
    else:
        label, est = args.config, estimate_constant(args.alpha, _build_config(args))
    record = {"alpha": est.alpha, "n": est.n, "config": label,
              "value": est.value, "witness": est.witness.values.tolist()}
    params = {"alpha": args.alpha, "n": args.n, "config": args.config,
              "seed": args.seed, "search": bool(args.search)}
    return RunReport("constant", params=params, results=[record]), 0


def _run_preissmann(args) -> tuple[RunReport, int]:
    chain = preissmann_chain()
    residual = chain.c3_upper ** 2 - chain.t_coeff * chain.c3_upper - chain.s_coeff
    record = {"s_coeff": chain.s_coeff, "t_coeff": chain.t_coeff,
              "c3_upper": chain.c3_upper, "c1_upper": chain.c1_upper,
              "root_residual": residual}
    return RunReport("preissmann", params={}, results=[record]), 0


def _run_scan(command: str, args, k_min: int, k_max: int, steps: int) -> tuple[RunReport, int]:
    table = scan(k_min, k_max, steps)
    columns = dict(zip(SCAN_FIELDS, (c.tolist() for c in (
        table.k, table.x, table.a, table.b, table.kappa0, table.kappa1, table.u_star,
        table.g_value))))
    best = dict({name: column[table.best] for name, column in columns.items()}, argmax=True)
    out = args.out
    if command == "figure" and out is None:
        out = "figure1.csv"
    if out:
        write_csv({name: column for name, column in columns.items() if name != "B"}, out)
        results = [best]
    else:
        results = [best, *(dict(zip(SCAN_FIELDS, row)) for row in zip(*columns.values()))]
    params = {"k_min": k_min, "k_max": k_max, "steps": steps, "rows": table.k.size}
    if out:
        params["out"] = out
    return RunReport(command, params=params, results=results), 0


def _run_lower_bound(args) -> tuple[RunReport, int]:
    if args.point:
        if args.out is not None:
            raise ValueError("--out has no effect with --point")
        k = int(args.point[0])
        a = float(args.point[1])
        res = big_g(k, a)
        record = dict(zip(SCAN_FIELDS, (k, a * (k + 1), res.a, res.b, res.kappa0, res.kappa1,
                                        res.u_star, res.g_value)))
        return RunReport("lower-bound", params={"point": [k, a]}, results=[record]), 0
    k_min, k_max, steps = args.scan
    return _run_scan("lower-bound", args, k_min, k_max, steps)


def _emit(report: RunReport, as_lines: bool) -> None:
    payload = jsonable(report.to_dict())
    if as_lines:
        for record in payload["results"]:
            print(json.dumps(record, separators=(",", ":")))
        summary = {key: payload[key] for key in
                   ("command", "params", "all_hold", "elapsed_ms")}
        print(json.dumps(summary, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2))


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        if args.command == "verify":
            report, code = _run_verify(args)
        elif args.command == "constant":
            report, code = _run_constant(args)
        elif args.command == "preissmann":
            report, code = _run_preissmann(args)
        elif args.command == "lower-bound":
            report, code = _run_lower_bound(args)
        else:
            report, code = _run_scan("figure", args, FIGURE_KMIN, FIGURE_KMAX, FIGURE_STEPS)
    except (ValueError, OSError, NoConvergence, MemoryError) as exc:
        # a run too large to allocate is a usage error, not a failing verdict
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    report.elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    _emit(report, args.json)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
