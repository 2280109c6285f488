"""Self-test of the benchmark harness at small sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced (sweep and dense at
reduced sizes), and checks that every command passes its output check,
every wrapper records spans whose parents resolve (worker threads
included), every per-layer metric in BENCHMARK.json is reported, and the
gauge scales times as documented. It
then shows the output checks firing on tampered references and outputs,
runs the full benchmark command once per trace mode, and confirms the
command fails without printing a result when the source tree is absent.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def check_workloads() -> None:
    import hilbertlab.cli as cli
    import tracer as tracing
    import workloads

    seen: set[str] = set()
    for name in workloads.WORKLOADS:
        cmds = workloads.commands(name, 7, run.OUT_DIR, tiny=True)
        bench = run.Run(cmds, cmds)
        bench.warm()
        tr = tracing.Tracer()
        tr.install()
        try:
            _, outputs = bench.checked_pass(tr)
        finally:
            tr.uninstall()
        expect(bench.failed == 0 and bench.attempted == 2 * len(cmds),
               f"{name}: {bench.attempted} commands, {bench.failed} failed")
        ids = {sp.sid for sp in tr.spans}
        orphans = [sp.name for sp in tr.spans
                   if sp.name != "cli.dispatch" and sp.parent not in ids]
        expect(not orphans, f"{name}: every span names a recorded parent {orphans[:3]}")
        metrics = tracing.layer_metrics(tr.spans, sum(len(o) for _, o in outputs))
        expect(metrics["cli.output_bytes"] > 0, f"{name}: output bytes counted")
        seen.update(sp.name for sp in tr.spans)
        expect(not hasattr(cli.dispatch, "__wrapped__"), f"{name}: uninstall restores the originals")
    wanted = set(tracing.SPAN_NAMES)
    expect(wanted <= seen, f"every wrapper fired at least once; missing {sorted(wanted - seen)}")


def check_self_time() -> None:
    from tracer import Span, covered_length, self_times

    expect(covered_length([(1, 3), (2, 4), (6, 7), (-1, 0.5)], 0, 6.5) == 4.0,
           "union of overlapping child intervals, clipped to the parent")
    spans = [Span(1, "p", 0.0, 10.0, 0, 0, None), Span(2, "c", 1.0, 4.0, 1, 0, None),
             Span(3, "c", 2.0, 5.0, 1, 0, None), Span(4, "g", 2.0, 3.0, 2, 0, None)]
    selfs = self_times(spans, ("p", "c"))
    expect(selfs == {"p": 6.0, "c": 5.0}, f"self time = duration minus child union {selfs}")


def check_gauge() -> None:
    import gauge

    reading = gauge.reading()
    expect(0.0 < reading < 1.0, f"a gauge reading takes a positive fraction of a second ({reading:.4f} s)")
    ref = gauge.REFERENCE_S
    expect(abs(run.scaled_time(2.0, ref, ref) - 2.0) < 1e-12,
           "a wall time at the reference speed is left as it is")
    expect(abs(run.scaled_time(2.0, ref, 3.0 * ref) - 1.0) < 1e-12,
           "at half the reference speed a wall time is halved")


def check_tampering() -> None:
    import checks
    import workloads

    cmds = workloads.commands("torus", 0, run.OUT_DIR)
    saved = dict(checks.CSV_SHA256)
    checks.CSV_SHA256[workloads.FIGURE_GRID] = "0" * 64
    try:
        bench = run.Run(cmds, [])
        bench.checked_pass()
    finally:
        checks.CSV_SHA256.update(saved)
    expect(bench.failed == 1, f"a wrong CSV digest fails exactly the figure command ({bench.failed})")

    verify_cmd, search_cmd, _ = workloads.commands("sweep", 3, run.OUT_DIR, tiny=True)
    _, [(code, stdout)] = run.run_pass([verify_cmd])
    payload = json.loads(stdout)
    expect(not verify_cmd.check(code, stdout), "untampered verify output passes")
    short = dict(payload, results=payload["results"][1:])
    expect(bool(verify_cmd.check(0, json.dumps(short))), "a missing sweep record fails the check")
    empty = dict(payload, results=[])
    expect(bool(verify_cmd.check(0, json.dumps(empty))), "a vacuous sweep (no records) fails")
    expect(bool(verify_cmd.check(1, stdout)), "a nonzero exit fails the check")

    const_cmd = workloads.commands("dense", 3, run.OUT_DIR, tiny=True)[0]
    _, [(code, stdout)] = run.run_pass([const_cmd])
    payload = json.loads(stdout)
    rec = payload["results"][0]
    bent = dict(rec, witness=[w * (1.0 + 1e-6 * (i % 2)) for i, w in enumerate(rec["witness"])])
    expect(bool(const_cmd.check(0, json.dumps(dict(payload, results=[bent])))),
           "a perturbed witness fails the residual check")

    low = {"results": [{"config": "search:uniform", "value": 2.7, "witness": []}]}
    expect(bool(search_cmd.check(0, json.dumps(low))), "a search value below the floor fails")


def check_config_builders() -> None:
    import numpy as np

    import checks
    from hilbertlab.gaps import generate_cluster, generate_random, generate_uniform
    from hilbertlab.search import generate_trig_periodized

    for n in (1, 12, 24, 60, 2000):
        pairs = [(checks.uniform_nodes(n), generate_uniform(n, 1.0).nodes),
                 (checks.random_nodes(n, 5), generate_random(n, 0.2, 5).nodes),
                 (checks.trig_nodes(n), generate_trig_periodized(n).nodes)]
        if n >= 2:
            pairs.append((checks.cluster_nodes(n), generate_cluster(n).nodes))
        expect(all(np.array_equal(a, b) for a, b in pairs),
               f"benchmark configurations equal the program's at n={n}")


def check_command() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([*spec["command"], "--workload", "torus",
                               "--seed", "11", "--seconds", "0", "--trace", str(trace)],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        names = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        expect(proc.returncode == 0 and result.get("correct") is True and got == names,
               f"--trace {trace} reports exactly the {key} metrics of BENCHMARK.json")

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([*spec["command"], "--workload", "torus", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the source tree the command fails and prints no result")


def main() -> int:
    if not run.prepare():
        return 2
    check_self_time()
    check_gauge()
    check_config_builders()
    check_workloads()
    check_tampering()
    check_command()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
