"""Command-line entry point: verification suites, constants, and scans.

Exit codes: 0 on success (and all verdicts holding), 1 when a
verification suite records a failing verdict, 2 on usage errors, invalid
input, eigensolver failures, runs too large to allocate and a reader that
closes stdout before the report is written (`... | head -1`).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time

import numpy as np

from ._util import Rows, to_json, to_json_lines
from .errors import IoError, NoConvergence
from .gaps import generate_cluster, generate_random, generate_uniform
from .lowerbound import big_g, scan
from .quadforms import estimate_constant
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
    p_verify.set_defaults(run=_run_verify)
    p_verify.add_argument("--suite", choices=[*ALL_SUITES, "all"], default="all")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n",
                          help=f"largest window size for {' and '.join(MAX_N_SUITES)} "
                               f"(default {DEFAULT_MAX_N}); rejected for the other suites")

    p_const = sub.add_parser("constant", parents=[seeded, as_json],
                             help="estimate the constant at fixed size")
    p_const.set_defaults(run=_run_constant)
    p_const.add_argument("--alpha", type=float, required=True)
    p_const.add_argument("--n", type=int, required=True)
    # defaults of the flags that apply only with or only without --search
    # are filled in by _run_constant, so that a given flag can be told apart
    p_const.add_argument("--config", choices=["uniform", "cluster", "random", "trig"],
                         default=None, help="window to solve (default uniform); "
                                            "rejected with --search")
    p_const.add_argument("--search", action="store_true",
                         help="heuristic hill climb over gap configurations")
    p_const.add_argument("--restarts", type=int, default=None,
                         help="seeded random starts (default 3); only with --search")
    p_const.add_argument("--rounds", type=int, default=None,
                         help="climb rounds per start (default 200); only with --search")

    sub.add_parser("preissmann", parents=[as_json],
                   help="the quadratic-chain upper bounds").set_defaults(run=_run_preissmann)

    p_lower = sub.add_parser("lower-bound", parents=[to_csv, as_json],
                             help="torus construction bounds")
    p_lower.set_defaults(run=_run_lower_bound)
    group = p_lower.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", nargs=2, metavar=("K", "A"),
                       help="evaluate one construction point")
    group.add_argument("--scan", nargs=3, type=int, metavar=("KMIN", "KMAX", "STEPS"),
                       help="grid scan over K and the offset fraction")

    # figure's --out default is filled in by _run_figure: the parents share
    # one --out action, so a subparser default would leak into the others
    sub.add_parser("figure", parents=[to_csv, as_json],
                   help=f"alias for the K={FIGURE_KMIN}..{FIGURE_KMAX} scan on a "
                        f"{FIGURE_STEPS}-point grid").set_defaults(run=_run_figure)
    return parser


# rows the CSV writer formats and writes at a time, so that its memory
# does not grow with the row count
CSV_BLOCK_ROWS = 4096


def _csv_format(column) -> str:
    """A column's field in the row template, chosen over the whole column:
    %.12g when every value is a float, %d when every value is an int, and
    %s, for text cells (`_csv_text`), otherwise. A numpy array without
    object entries converts every value to one Python type, so its first
    value gives the type of them all."""
    if isinstance(column, np.ndarray) and column.dtype != object:
        kinds = set(map(type, column[:1].tolist()))
    else:
        kinds = set(map(type, column))
    if all(issubclass(kind, float) for kind in kinds):
        return "%.12g"
    if kinds <= {int}:
        return "%d"
    return "%s"


def _csv_text(values: list) -> list[str]:
    """The text cells of a %s column: bools as true/false, floats under
    %.12g and anything else as str."""
    return [("true" if v else "false") if isinstance(v, bool)
            else "%.12g" % v if isinstance(v, float) else str(v) for v in values]


def write_csv(columns: dict, path: str) -> None:
    """RFC-4180-style CSV from named columns of equal length, lists or 1-D
    numpy arrays: header row, LF endings, bool cells as true/false, floats
    to 12 significant digits (inf as inf), anything else as str.

    Each column's format is chosen once over the whole column
    (`_csv_format`), and the rows are then formatted and written
    CSV_BLOCK_ROWS at a time, an array's block converted by tolist(), so
    the text of only one block is held at once. Numbers never need
    quoting, so all-number rows are written through one row template; rows
    with text cells go through the csv module, which quotes them where
    needed.
    """
    fields = [_csv_format(column) for column in columns.values()]
    rows = len(next(iter(columns.values()), ()))
    template = ",".join(fields) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if columns:
                writer.writerow(columns)
            for start in range(0, rows, CSV_BLOCK_ROWS):
                stop = start + CSV_BLOCK_ROWS
                block = [column[start:stop].tolist() if isinstance(column, np.ndarray)
                         else column[start:stop] for column in columns.values()]
                if "%s" in fields:
                    writer.writerows(zip(*(_csv_text(cells) if field == "%s"
                                           else [field % v for v in cells]
                                           for field, cells in zip(fields, block))))
                else:
                    fh.write("".join(map(template.__mod__, zip(*block))))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _run_verify(args) -> tuple[dict, list, int]:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:    # numpy's generators take only seeds >= 0
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.max_n is not None and args.suite not in (*MAX_N_SUITES, "all"):
        raise ValueError(f"--max-n has no effect on the {args.suite} suite; it applies "
                         f"to {', '.join(MAX_N_SUITES)} and all")
    if args.max_n is not None and args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    max_n = DEFAULT_MAX_N if args.max_n is None else args.max_n
    names = ALL_SUITES if args.suite == "all" else (args.suite,)
    records = run_suites(names, trials=args.trials, max_n=max_n, seed=args.seed)
    # every record has the same keys, so one column table serves both writers
    columns = {key: [r[key] for r in records] for key in (records[0] if records else ())}
    if args.out:
        write_csv(columns, args.out)
    params = {"suite": args.suite, "trials": args.trials, "max_n": max_n, "seed": args.seed}
    # a run that checked nothing must not report a pass
    return params, [Rows(columns)], 0 if records and all(columns["holds"]) else 1


# constant's flags that act only without --search (the start window) and
# only with it (the climb), each with its default
WINDOW_FLAGS = {"config": "uniform"}
SEARCH_FLAGS = {"restarts": 3, "rounds": 200}


def _build_config(args):
    # the kernel is invariant under lam -> s lam, so a window's scale selects
    # nothing: uniform has unit spacing and random draws its gaps from [0.2, 2]
    if args.config == "uniform":
        return generate_uniform(args.n, 1.0)
    if args.config == "cluster":
        return generate_cluster(args.n)
    if args.config == "trig":
        return generate_trig_periodized(args.n)
    return generate_random(args.n, 0.2, args.seed)


def _run_constant(args) -> tuple[dict, list, int]:
    # a flag the run ignores would echo a setting that was never used
    for name in WINDOW_FLAGS if args.search else SEARCH_FLAGS:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} has no effect {'with' if args.search else 'without'} "
                             f"--search")
    for name, default in {**WINDOW_FLAGS, **SEARCH_FLAGS}.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    # only the random window and the search draw from the seed
    uses_seed = args.search or args.config == "random"
    if uses_seed and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
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
              "seed": args.seed if uses_seed else None, "search": bool(args.search)}
    return params, [record], 0


def _run_preissmann(args) -> tuple[dict, list, int]:
    chain = preissmann_chain()
    residual = chain.c3_upper ** 2 - chain.t_coeff * chain.c3_upper - chain.s_coeff
    record = {"s_coeff": chain.s_coeff, "t_coeff": chain.t_coeff,
              "c3_upper": chain.c3_upper, "c1_upper": chain.c1_upper,
              "root_residual": residual}
    return {}, [record], 0


def _run_scan(out: str | None, k_min: int, k_max: int, steps: int) -> tuple[dict, list, int]:
    table = scan(k_min, k_max, steps)
    arrays = dict(zip(SCAN_FIELDS, (table.k, table.x, table.a, table.b, table.kappa0,
                                    table.kappa1, table.u_star, table.g_value)))
    best = dict({name: column[table.best].item() for name, column in arrays.items()},
                argmax=True)
    if out:
        write_csv({name: column for name, column in arrays.items() if name != "B"}, out)
        results = [best]
    else:
        results = [best, Rows({name: column.tolist() for name, column in arrays.items()})]
    params = {"k_min": k_min, "k_max": k_max, "steps": steps, "rows": table.k.size}
    if out:
        params["out"] = out
    return params, results, 0


def _run_figure(args) -> tuple[dict, list, int]:
    out = "figure1.csv" if args.out is None else args.out
    return _run_scan(out, FIGURE_KMIN, FIGURE_KMAX, FIGURE_STEPS)


def _run_lower_bound(args) -> tuple[dict, list, int]:
    if args.point:
        if args.out is not None:
            raise ValueError("--out has no effect with --point")
        k = int(args.point[0])
        a = float(args.point[1])
        res = big_g(k, a)
        record = dict(zip(SCAN_FIELDS, (k, a * (k + 1), res.a, res.b, res.kappa0, res.kappa1,
                                        res.u_star, res.g_value)))
        return {"point": [k, a]}, [record], 0
    return _run_scan(args.out, *args.scan)


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        params, results, code = args.run(args)
    except (ValueError, OSError, NoConvergence, MemoryError) as exc:
        # a run too large to allocate is a usage error, not a failing verdict
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    report = {"command": args.command, "params": params, "results": results,
              "all_hold": code == 0,
              "elapsed_ms": int(round((time.perf_counter() - start) * 1000))}
    if args.json:
        # JSON lines: one line per result, then the rest of the report
        results = report.pop("results")
        print(to_json_lines([*results, report]))
    else:
        print(to_json(report))
    return code


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout early (`... | head`); point stdout at
        # devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
