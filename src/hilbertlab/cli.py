"""Command-line entry point: verification suites, constants, and scans.

Exit codes: 0 on success (and all verdicts holding), 1 when a
verification suite records a failing verdict, 2 on usage errors, invalid
input and eigensolver failures.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from ._util import fmt12, jsonable
from .errors import IoError, NoConvergence
from .gaps import generate_cluster, generate_random, generate_uniform
from .lowerbound import ScanRow, big_g, scan
from .quadforms import estimate_constant
from .reports import RunReport
from .search import generate_trig_periodized, search_constant
from .spectra import preissmann_chain
from .suites import ALL_SUITES, run_suites

FIGURE_KMIN, FIGURE_KMAX, FIGURE_STEPS = 1, 25, 99


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertlab",
        description="Numerical laboratory for weighted Hilbert-type inequalities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed for sweeps (default 0)")
    common.add_argument("--tol", type=float, default=None, help="override per-suite tolerances")
    common.add_argument("--out", type=str, default=None, help="write CSV output to this path")
    common.add_argument("--json", action="store_true", help="emit JSON lines instead of one document")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run inequality/identity suites")
    p_verify.add_argument("--suite", choices=[*ALL_SUITES, "all"], default="all")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--max-n", type=int, default=12, dest="max_n")

    p_const = sub.add_parser("constant", parents=[common], help="estimate the constant at fixed size")
    p_const.add_argument("--alpha", type=float, required=True)
    p_const.add_argument("--n", type=int, required=True)
    p_const.add_argument("--config", choices=["uniform", "cluster", "random", "trig"],
                         default="uniform")
    p_const.add_argument("--spacing", type=float, default=1.0)
    p_const.add_argument("--min-gap", type=float, default=0.2, dest="min_gap")
    p_const.add_argument("--search", action="store_true",
                         help="heuristic hill climb over gap configurations")
    p_const.add_argument("--restarts", type=int, default=3)
    p_const.add_argument("--rounds", type=int, default=200)

    sub.add_parser("preissmann", parents=[common], help="the quadratic-chain upper bounds")

    p_lower = sub.add_parser("lower-bound", parents=[common], help="torus construction bounds")
    group = p_lower.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", nargs=2, metavar=("K", "A"),
                       help="evaluate one construction point")
    group.add_argument("--scan", nargs=3, type=int, metavar=("KMIN", "KMAX", "STEPS"),
                       help="grid scan over K and the offset fraction")

    sub.add_parser("figure", parents=[common],
                   help=f"alias for the K={FIGURE_KMIN}..{FIGURE_KMAX} scan on a "
                        f"{FIGURE_STEPS}-point grid")
    return parser


def _scan_record(row: ScanRow) -> dict:
    res = row.result
    return {
        "K": res.k,
        "x": row.x,
        "A": res.a,
        "B": res.b,
        "kappa0": res.kappa0,
        "kappa1": res.kappa1,
        "u_star": res.u_star,
        "G": res.g_value,
    }


def write_csv(rows: list[dict], path: str, fieldnames: list[str] | None = None) -> None:
    """RFC-4180-style CSV: header row, LF endings, 12-digit floats.

    With an empty row list the header (from fieldnames) is still written.
    """
    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return fmt12(value)
        return str(value)

    header = fieldnames if fieldnames is not None else (list(rows[0].keys()) if rows else [])
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if header:
                writer.writerow(header)
            for row in rows:
                writer.writerow([cell(row[key]) for key in header])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _run_verify(args) -> tuple[RunReport, int]:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    names = ALL_SUITES if args.suite == "all" else (args.suite,)
    records = run_suites(names, trials=args.trials, max_n=args.max_n,
                         seed=args.seed, tol=args.tol)
    # a run that checked nothing must not report a pass
    all_hold = bool(records) and all(r["holds"] for r in records)
    report = RunReport("verify", params={"suite": args.suite, "trials": args.trials,
                                         "max_n": args.max_n, "seed": args.seed},
                       results=records, all_hold=all_hold)
    if args.out:
        write_csv(records, args.out)
    return report, 0 if all_hold else 1


def _build_config(args):
    if args.config == "uniform":
        return generate_uniform(args.n, args.spacing)
    if args.config == "cluster":
        return generate_cluster(args.n)
    if args.config == "trig":
        return generate_trig_periodized(args.n)
    return generate_random(args.n, args.min_gap, args.seed)


def _run_constant(args) -> tuple[RunReport, int]:
    if args.search:
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
    rows, best = scan(k_min, k_max, steps)
    records = [_scan_record(r) for r in rows]
    out = args.out
    if command == "figure" and out is None:
        out = "figure1.csv"
    if out:
        csv_rows = [{key: rec[key] for key in
                     ("K", "x", "A", "kappa0", "kappa1", "u_star", "G")}
                    for rec in records]
        write_csv(csv_rows, out)
        results = [dict(_scan_record(best), argmax=True)]
    else:
        results = [dict(_scan_record(best), argmax=True), *records]
    params = {"k_min": k_min, "k_max": k_max, "steps": steps, "rows": len(rows)}
    if out:
        params["out"] = out
    return RunReport(command, params=params, results=results), 0


def _run_lower_bound(args) -> tuple[RunReport, int]:
    if args.point:
        k = int(args.point[0])
        a = float(args.point[1])
        res = big_g(k, a)
        record = dict(_scan_record(ScanRow(k, a * (k + 1), res)))
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
    except (ValueError, OSError, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    _emit(report, args.json)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
