"""hilbertlab benchmark: one workload per invocation, driven through the CLI.

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
./src, never from an installed copy). With --trace 0 the run reports the
end-to-end metrics:

    setup_s      median wall time of fresh interpreters that import
                 hilbertlab.cli and return from dispatch(["preissmann"])
    pass_s       median wall time of one warm pass over the workload's
                 commands, driven in-process through hilbertlab.cli.dispatch
    peak_rss_mb  ru_maxrss of a fresh process that runs one pass
    ok_ratio     commands that exited 0 and passed their output check,
                 over commands attempted, fresh processes included (the
                 complement of the fail ratio)

The set-up interpreters run between the warm passes, spread over the run.
Each command is timed between two readings of bench/gauge.py; the wall time
of a command marked `gauged` (single-threaded, interpreter-bound) is
multiplied by gauge.REFERENCE_S over the mean of the two readings, so it
reads in seconds at a fixed machine speed. The raw wall times and the
readings are kept in the record.

With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see bench/README.md). The last stdout
line is the result object; the line before it records the environment,
and the full record, spans included, goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Program defaults apply: worker count = CPU count, BLAS threads unset.
THREAD_VARS = ("HCL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 150
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from hilbertlab.cli import dispatch; sys.exit(dispatch(['preissmann']))")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-rss", action="store_true", dest="probe_rss",
                        help="internal: run one pass and print this process's ru_maxrss")
    return parser.parse_args(argv)


# ---- environment ------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import hashlib
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hilbertlab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": _git_commit(), "src_sha256": src_hash.hexdigest(),
        "cleared_env": list(THREAD_VARS), "hcl_threads": os.environ.get("HCL_THREADS"),
    }


def scaled_time(wall: float, before: float, after: float) -> float:
    """`wall` seconds scaled to the gauge's reference speed: times
    REFERENCE_S over the mean of the gauge readings taken around it."""
    import gauge

    return wall * 2.0 * gauge.REFERENCE_S / (before + after)


# ---- fresh-process measurements --------------------------------------------

class SetupTimer:
    """Wall times of fresh CLI interpreters. The benchmark spreads them over
    the whole run, between passes, so their median covers the same stretch
    of machine time as the passes rather than the first seconds alone."""

    def __init__(self):
        self.samples: list[float] = []
        self.failed = 0

    def sample(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        self.samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(proc.stderr.decode(errors="replace"))


def measure_rss(args) -> tuple[float, list[int]]:
    """Peak RSS (MB) of a fresh process running one pass, and its exit codes."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--probe-rss"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    try:
        report = json.loads(proc.stdout.decode().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return 0.0, [proc.returncode or -1]
    return report["maxrss_kb"] / 1024.0, report["codes"]


# ---- passes -----------------------------------------------------------------

def dispatch(argv: list[str]) -> int:
    """hilbertlab.cli.dispatch, looked up per call so that a traced pass
    goes through the tracer's wrapper."""
    import hilbertlab.cli
    return hilbertlab.cli.dispatch(argv)


def run_pass(cmds, tracer=None, readings=None) -> tuple[list[float], list[tuple[int, str]]]:
    """Run every command once; returns the dispatch wall time and the
    (exit code, stdout) of each command. An exception counts as exit code -1.
    With a `readings` list, a gauge reading is appended to it before each
    command and after the last."""
    import gauge

    elapsed, outputs = [], []
    for index, cmd in enumerate(cmds):
        if readings is not None:
            readings.append(gauge.reading())
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(list(cmd.argv))
        except Exception:   # a crashing command is a failed command, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
        elapsed.append(time.perf_counter() - start)
        if code != 0:
            sys.stderr.write(f"{' '.join(cmd.argv)}: exit {code}\n{err.getvalue()}")
        outputs.append((code, out.getvalue()))
    if readings is not None:
        readings.append(gauge.reading())
    return elapsed, outputs


def count_failures(cmds, outputs) -> int:
    failed = 0
    for cmd, (code, stdout) in zip(cmds, outputs):
        problems = cmd.check(code, stdout)
        if problems:
            failed += 1
            sys.stderr.write(f"check failed: {' '.join(cmd.argv)}: {'; '.join(problems)}\n")
    return failed


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _search_values(cmds, outputs) -> dict[str, float]:
    values = {}
    for cmd, (code, stdout) in zip(cmds, outputs):
        if "--search" in cmd.argv and code == 0:
            n = cmd.argv[cmd.argv.index("--n") + 1]
            values[f"best_value.n{n}"] = float(json.loads(stdout)["results"][0]["value"])
    return values


class Run:
    """Counts attempted and failed commands over one benchmark run."""

    def __init__(self, cmds, warm_cmds):
        self.cmds = cmds
        self.warm_cmds = warm_cmds
        self.attempted = 0
        self.failed = 0

    def checked_pass(self, tracer=None, cmds=None,
                     readings=None) -> tuple[list[float], list[tuple[int, str]]]:
        cmds = self.cmds if cmds is None else cmds
        elapsed, outputs = run_pass(cmds, tracer, readings)
        self.attempted += len(cmds)
        self.failed += count_failures(cmds, outputs)
        return elapsed, outputs

    def warm(self) -> None:
        """Run the small-size commands once so lazy set-up and caches are done."""
        self.checked_pass(cmds=self.warm_cmds)


def timed_passes(run: Run, seconds: float,
                 setup: SetupTimer) -> tuple[list[list[float]], list[list[float]]]:
    """Warm-up, then passes until `seconds` of measuring have elapsed, with
    SETUP_RUNS set-up samples spread evenly between them; returns the
    command times and the gauge readings of each pass."""
    run.warm()
    times: list[list[float]] = []
    readings: list[list[float]] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        readings.append([])
        times.append(run.checked_pass(readings=readings[-1])[0])
        elapsed = time.perf_counter() - start
        while seconds and len(setup.samples) < SETUP_RUNS * min(1.0, elapsed / seconds):
            setup.sample()
    while len(setup.samples) < SETUP_RUNS:
        setup.sample()
    return times, readings


def pass_time(cmds, command_times: list[float], readings: list[float]) -> float:
    """One pass's time: the sum of its commands' wall times, those of gauged
    commands scaled to the gauge's reference speed."""
    return sum(scaled_time(t, before, after) if cmd.gauged else t
               for cmd, t, before, after in zip(cmds, command_times, readings, readings[1:]))


def traced_passes(run: Run, seconds: float) -> tuple[dict, list[float], list[float], list]:
    """Warm-up, then alternate untraced and traced passes for `seconds`."""
    import tracer as tracing
    from hilbertlab.spacing import zeta

    run.warm()
    plain, traced, per_pass, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(sum(run.checked_pass()[0]))
        tr = tracing.Tracer()
        before = zeta.cache_info()
        tr.install()
        try:
            elapsed, outputs = run.checked_pass(tr)
        finally:
            tr.uninstall()
        after = zeta.cache_info()
        traced.append(sum(elapsed))
        metrics = tracing.layer_metrics(tr.spans, sum(len(out.encode()) for _, out in outputs))
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        metrics["spacing.zeta.hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
        metrics.update({"best_value.n12": 0.0, "best_value.n24": 0.0})
        metrics.update(_search_values(run.cmds, outputs))
        per_pass.append(metrics)
        spans.append([list(sp) for sp in tr.spans])
    return tracing.median_metrics(per_pass), plain, traced, spans


# ---- main -------------------------------------------------------------------

def probe_rss(args) -> int:
    import resource

    import workloads

    _, outputs = run_pass(workloads.commands(args.workload, args.seed, OUT_DIR))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "codes": [code for code, _ in outputs]}))
    return 0


def prepare() -> bool:
    """Point imports at ./src and clear the thread settings; False without a source tree."""
    if not (SRC / "hilbertlab" / "cli.py").is_file():
        print(f"error: no hilbertlab source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return False
    for var in THREAD_VARS:         # before numpy loads OpenBLAS
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload in workloads.WORKERS:
        os.environ["HCL_THREADS"] = str(workloads.WORKERS[args.workload])
    if args.probe_rss:
        return probe_rss(args)

    env = environment(args)
    record: dict = {"env": env}
    probe_attempted = probe_failed = 0
    if args.trace == 0:
        peak_rss_mb, probe_codes = measure_rss(args)
        probe_attempted = len(probe_codes)
        probe_failed = sum(code != 0 for code in probe_codes)

    run = Run(workloads.commands(args.workload, args.seed, OUT_DIR),
              workloads.commands(args.workload, args.seed, OUT_DIR, tiny=True))
    if args.trace == 0:
        setup = SetupTimer()
        command_times, readings = timed_passes(run, args.seconds, setup)
        wall_times = [sum(pass_times) for pass_times in command_times]
        times = [pass_time(run.cmds, t, r) for t, r in zip(command_times, readings)]
        attempted = run.attempted + probe_attempted + len(setup.samples)
        failed = run.failed + probe_failed + setup.failed
        metrics = {
            "setup_s": (statistics.median(setup.samples), "s"),
            "pass_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        record.update(pass_times=times, pass_quartiles=quartiles(times), passes=len(times),
                      wall_pass_times=wall_times, wall_pass_s=statistics.median(wall_times),
                      command_times=command_times, gauge_readings=readings,
                      setup_samples=setup.samples)
    else:
        import tracer as tracing

        layers, plain, traced, spans = traced_passes(run, args.seconds)
        attempted, failed = run.attempted, run.failed
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: (layers[name], units[name]) for name, _, _ in tracing.PER_LAYER}
        record.update(untraced_pass_times=plain, traced_pass_times=traced,
                      span_fields=list(tracing.Span._fields), spans=spans)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    summary = {k: v for k, v in record.items() if k not in ("spans",)}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
