import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertlab
from hilbertlab.cli import build_parser, dispatch, write_csv
from hilbertlab.errors import NoConvergence
from hilbertlab.suites import ALL_SUITES, run_suites


# sha256 of the scan CSVs as first released; the CSV contract keeps them fixed
FIGURE_SHA256 = "59b070ca056e60e9402604dfcc4402ae5e78299113a51624d150c816c13e1457"
FINE_SCAN_SHA256 = "7fff3c5b79a1d3080a097ba289657d6ade524906b075378301b3eecfb25c83c0"
# sha256 of stdout with the elapsed_ms value replaced by 0, and of one verify
# CSV; the JSON and CSV contracts keep them fixed
STDOUT_SHA256 = {
    ("lower-bound", "--scan", "1", "25", "99"):
        "a2979ba73a40a06be1720b695cb999658067dbb416a9747a80e52dd52d5403a8",
    ("lower-bound", "--scan", "1", "25", "99", "--json"):
        "c385ba2201e4487b8bcc7ca94490892939ece28e7252c9aac7b023474b87cebe",
    ("lower-bound", "--point", "5", "0.14"):
        "1b789f31e08866821fd20e3365c75ec580d72abc81765a265c8489237b613b62",
    # exponent cells such as 1.4418359876e-16
    ("verify", "--suite", "all", "--trials", "20", "--seed", "3"):
        "c3c47375bba03f079823a3dd9778d7036ede145796a098dd56ee7f760e52d4f9",
    # a 30-entry witness list; params.seed is null, as no seed is drawn from
    ("constant", "--alpha", "0.5", "--n", "30", "--config", "trig"):
        "402cbb1f017be697baff3bb20b1a04f1ea2937e04c1447fd71bc90577481bd12",
}
VERIFY_TRIG_CSV_SHA256 = "6c64a1531c5afa3b6a3af83d0f17d134e2322f17bf0444171aa2f1556ef2e5db"
VERIFY_ALL_CSV_SHA256 = "607cecf09663c791d6541b46b7f2bccc7d3706f224aa954e28a03da1fbd9ac55"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def parse_report(out: str) -> dict:
    return json.loads(out)


def without_elapsed(out: str) -> str:
    """Stdout with the one field that varies between identical runs zeroed."""
    return re.sub(r'("elapsed_ms": ?)\d+', r"\g<1>0", out)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert dispatch(["verify", "--wat"]) == 2

    def test_lower_bound_needs_mode(self, capsys):
        assert dispatch(["lower-bound"]) == 2

    def test_invalid_construction_point_is_usage_error(self, capsys):
        assert dispatch(["lower-bound", "--point", "5", "0.9"]) == 2

    def test_verify_selberg_passes(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "selberg", "--trials", "100",
                                 "--seed", "1", "--max-n", "12"])
        assert code == 0
        report = parse_report(out)
        assert report["all_hold"] is True
        assert len(report["results"]) == 100

    @pytest.mark.parametrize("trials", ("0", "-3"))
    def test_verify_rejects_nonpositive_trials(self, capsys, trials):
        assert dispatch(["verify", "--suite", "spacing", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --trials")

    @pytest.mark.parametrize("flag", ("--restarts", "--rounds"))
    def test_search_rejects_negative_counts(self, capsys, flag):
        # --rounds -1 once skipped the climb and still labelled the start a search
        assert dispatch(["constant", "--search", "--alpha", "0.5", "--n", "4",
                         flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0, got -1\n"

    def test_solver_failure_is_reported_not_raised(self, capsys, monkeypatch):
        import hilbertlab.quadforms as quadforms

        def fail(*args, **kwargs):
            raise NoConvergence("no convergence")

        monkeypatch.setattr(quadforms, "_top_eigen", fail)
        assert dispatch(["constant", "--alpha", "1", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no convergence\n"

    # numpy names the allocation it refused; Python's own MemoryError is bare
    @pytest.mark.parametrize("message, err", [("Unable to allocate 298. GiB",
                                               "error: Unable to allocate 298. GiB\n"),
                                              ("", "error: MemoryError\n")])
    def test_memory_error_is_a_usage_error(self, capsys, monkeypatch, message, err):
        # exit 1 is reserved for a failing verdict; a run too large to
        # allocate must not read as one
        import hilbertlab.cli as cli

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "estimate_constant", too_large)
        assert dispatch(["constant", "--alpha", "1", "--n", "200000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_failing_verdict_exits_one(self, capsys, monkeypatch):
        import hilbertlab.cli as cli

        bad = [{"lemma": "x", "seed": 0, "lhs": 1.0, "rhs": 0.0,
                "holds": False, "tail_bound": 0.0}]
        monkeypatch.setattr(cli, "run_suites", lambda *a, **k: bad)
        code, out = run(capsys, ["verify", "--suite", "selberg"])
        assert code == 1
        assert parse_report(out)["all_hold"] is False

    def test_empty_record_set_is_not_a_pass(self, capsys, monkeypatch):
        import hilbertlab.cli as cli

        monkeypatch.setattr(cli, "run_suites", lambda *a, **k: [])
        code, out = run(capsys, ["verify", "--suite", "selberg"])
        assert code == 1
        report = parse_report(out)
        assert report["all_hold"] is False
        assert report["results"] == []


def run_module(*argv, module="hilbertlab"):
    """Run `python -m <module>` in a fresh interpreter on this checkout."""
    src = str(Path(hilbertlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_cli(self):
        proc = run_module("preissmann")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "preissmann"

    def test_python_dash_m_usage_error(self):
        assert run_module("verify", "--trials", "0").returncode == 2

    def test_python_dash_m_cli_module_runs_cli(self):
        proc = run_module("preissmann", module="hilbertlab.cli")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "preissmann"

    def test_cli_import_loads_no_thread_pool(self):
        src = str(Path(hilbertlab.__file__).resolve().parents[1])
        code = "import sys, hilbertlab.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("spacing", ("1e-200", "1e300"))
    def test_non_finite_kernel_prints_only_its_error_line(self, capsys, monkeypatch, spacing):
        # the kernel underflows (0/0) or overflows (inf/inf) at these scales;
        # no flag sets the scale, so the window is swapped in
        import hilbertlab.cli as cli

        monkeypatch.setattr(cli, "generate_uniform",
                            lambda n, _: hilbertlab.generate_uniform(n, float(spacing)))
        assert dispatch(["constant", "--alpha", "1", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha = 1.0 kernel has non-finite entries\n"


class TestLowerBoundCommand:
    def test_point_json(self, capsys):
        code, out = run(capsys, ["lower-bound", "--point", "5", "0.14"])
        assert code == 0
        report = parse_report(out)
        row = report["results"][0]
        assert row["K"] == 5
        assert row["G"] > 0.35047
        assert row["A"] == pytest.approx(0.14)

    def test_json_lines_mode(self, capsys):
        code, out = run(capsys, ["lower-bound", "--point", "5", "0.14", "--json"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["G"] > 0.35047
        assert lines[-1]["command"] == "lower-bound"

    def test_fine_scan_csv_digest(self, capsys, tmp_path):
        out_path = tmp_path / "fine.csv"
        code, _ = run(capsys, ["lower-bound", "--scan", "1", "40", "400", "--out", str(out_path)])
        assert code == 0
        assert sha256(out_path) == FINE_SCAN_SHA256

    def test_scan_emits_rows_and_argmax(self, capsys):
        code, out = run(capsys, ["lower-bound", "--scan", "1", "2", "9"])
        assert code == 0
        report = parse_report(out)
        assert report["results"][0]["argmax"] is True
        assert len(report["results"]) == 1 + 2 * 9


class TestFigureCommand:
    def test_figure_csv_contract(self, capsys, tmp_path):
        out_path = tmp_path / "figure1.csv"
        code, _ = run(capsys, ["figure", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().split("\n")
        assert lines[0] == "K,x,A,kappa0,kappa1,u_star,G"
        assert lines[-1] == ""
        assert len(lines) == 1 + 25 * 99 + 1

    def test_figure_csv_digest(self, capsys, tmp_path):
        out_path = tmp_path / "figure1.csv"
        code, _ = run(capsys, ["figure", "--out", str(out_path)])
        assert code == 0
        assert sha256(out_path) == FIGURE_SHA256

    def test_figure_byte_stable(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["figure", "--out", str(p1)])
        run(capsys, ["figure", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_stable_modulo_elapsed(self, capsys):
        _, out1 = run(capsys, ["lower-bound", "--scan", "1", "3", "19"])
        _, out2 = run(capsys, ["lower-bound", "--scan", "1", "3", "19"])
        r1, r2 = parse_report(out1), parse_report(out2)
        r1.pop("elapsed_ms"), r2.pop("elapsed_ms")
        assert r1 == r2


class TestOutputContract:
    @pytest.mark.parametrize("argv", list(STDOUT_SHA256))
    def test_stdout_digest(self, capsys, argv):
        code, out = run(capsys, list(argv))
        assert code == 0
        assert hashlib.sha256(without_elapsed(out).encode()).hexdigest() == STDOUT_SHA256[argv]

    def test_no_pure_python_json_encoder(self, capsys, monkeypatch):
        # json.dumps with an indent runs json.encoder's pure-Python encoder,
        # several times slower than the report renderer
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        for argv in (["lower-bound", "--scan", "1", "3", "19"],
                     ["lower-bound", "--scan", "1", "3", "19", "--json"],
                     ["verify", "--suite", "chain", "--trials", "3"],
                     ["verify", "--suite", "chain", "--trials", "3", "--json"]):
            code, out = run(capsys, argv)
            assert code == 0
            assert out.endswith("\n")

    def test_verify_json_lines_match_the_document(self, capsys):
        argv = ["verify", "--suite", "chain", "--trials", "3"]
        _, document = run(capsys, argv)
        _, lines = run(capsys, [*argv, "--json"])
        records = [json.loads(line) for line in lines.splitlines()]
        assert records[:-1] == parse_report(document)["results"]
        assert len(records) == 1 + 4 * (2 + 3)
        assert "results" not in records[-1]

    def test_verify_csv_digest(self, capsys, tmp_path):
        out_path = tmp_path / "trig.csv"
        code, _ = run(capsys, ["verify", "--suite", "trig", "--trials", "20", "--seed", "1",
                               "--out", str(out_path)])
        assert code == 0
        assert sha256(out_path) == VERIFY_TRIG_CSV_SHA256

    def test_verify_all_csv_digest(self, capsys, tmp_path):
        out_path = tmp_path / "all.csv"
        code, _ = run(capsys, ["verify", "--suite", "all", "--trials", "20", "--seed", "3",
                               "--out", str(out_path)])
        assert code == 0
        assert sha256(out_path) == VERIFY_ALL_CSV_SHA256

    def test_record_shape(self):
        # the verify CSV header and the JSON row template follow this order
        records = run_suites(ALL_SUITES, trials=2, max_n=6, seed=0)
        assert records
        for rec in records:
            assert list(rec) == ["lemma", "seed", "lhs", "rhs", "holds", "tail_bound"]
            assert [type(v) for v in rec.values()] == [str, int, float, float, bool, float]


class TestMaxN:
    @pytest.mark.parametrize("suite", ("spacing", "pair-spacing", "chain",
                                       "alpha-properties", "trig"))
    def test_rejected_where_it_has_no_effect(self, capsys, suite):
        assert dispatch(["verify", "--suite", suite, "--trials", "1", "--max-n", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-n")

    @pytest.mark.parametrize("suite, max_n", (("selberg", "1"), ("radius", "0"),
                                              ("all", "-4")))
    def test_rejected_below_two(self, capsys, suite, max_n):
        assert dispatch(["verify", "--suite", suite, "--trials", "1", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-n")

    def test_accepted_for_all(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "all", "--trials", "1", "--max-n", "8"])
        assert code == 0
        assert parse_report(out)["params"]["max_n"] == 8

    def test_absent_flag_echoes_default(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "chain", "--trials", "1"])
        assert code == 0
        assert parse_report(out)["params"]["max_n"] == 12


class TestConstantCommand:
    def test_uniform_two_nodes(self, capsys):
        code, out = run(capsys, ["constant", "--alpha", "1.0", "--n", "2"])
        assert code == 0
        record = parse_report(out)["results"][0]
        assert set(record) == {"alpha", "n", "config", "value", "witness"}
        assert record["value"] == pytest.approx(1.0, abs=1e-9)
        assert len(record["witness"]) == 2

    def test_cluster_config(self, capsys):
        code, out = run(capsys, ["constant", "--alpha", "0.0", "--n", "8",
                                 "--config", "cluster"])
        assert code == 0
        assert parse_report(out)["results"][0]["value"] > 1.0

    def test_search_mode(self, capsys):
        code, out = run(capsys, ["constant", "--alpha", "1.0", "--n", "4",
                                 "--search", "--restarts", "1", "--rounds", "2"])
        assert code == 0
        record = parse_report(out)["results"][0]
        assert record["config"].startswith("search:")
        assert record["value"] <= (4 - 1) + 1e-9


class TestConstantFlagsWithoutEffect:
    """A constant flag the run would ignore is a usage error, like --max-n."""

    @pytest.mark.parametrize("flags", (["--config", "random"], ["--config", "uniform"],
                                       ["--config", "cluster"], ["--config", "trig"]))
    def test_window_flags_rejected_with_search(self, capsys, flags):
        assert dispatch(["constant", "--search", "--alpha", "0.5", "--n", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flags[0]} has no effect with --search\n"

    @pytest.mark.parametrize("flags", (["--restarts", "1"], ["--rounds", "5"],
                                       ["--rounds", "-1"], ["--restarts", "3"]))
    def test_search_flags_rejected_without_search(self, capsys, flags):
        assert dispatch(["constant", "--alpha", "0.5", "--n", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flags[0]} has no effect without --search\n"

    # params of the invocations that stay valid, as printed before the check
    # except params.seed, which is null where no seed is drawn from
    @pytest.mark.parametrize("argv, params", (
        (["--alpha", "1", "--n", "3"],
         {"alpha": 1.0, "n": 3, "config": "uniform", "seed": None, "search": False}),
        (["--alpha", "1", "--n", "3", "--config", "random", "--seed", "4"],
         {"alpha": 1.0, "n": 3, "config": "random", "seed": 4, "search": False}),
        (["--alpha", "0.5", "--n", "3", "--search", "--restarts", "1", "--rounds", "2"],
         {"alpha": 0.5, "n": 3, "config": "uniform", "seed": 0, "search": True}),
    ))
    def test_valid_invocations_keep_their_params(self, capsys, argv, params):
        code, out = run(capsys, ["constant", *argv])
        assert code == 0
        assert parse_report(out)["params"] == params

    def test_plain_constant_stdout_unchanged(self, capsys):
        # sha256 of stdout with elapsed_ms zeroed, as printed before the check
        # with "seed": 0 echoed as "seed": null
        code, out = run(capsys, ["constant", "--alpha", "1", "--n", "3"])
        assert code == 0
        assert (hashlib.sha256(without_elapsed(out).encode()).hexdigest()
                == "ec4367fd63bbac8e0a12f7037a414c7ab04254a9ca6d7da788212a51d01c947d")

    @pytest.mark.parametrize("config", ("uniform", "cluster", "trig"))
    def test_unseeded_config_echoes_null_seed(self, capsys, config):
        outs = []
        for seed in ("0", "5"):
            code, out = run(capsys, ["constant", "--alpha", "1", "--n", "4",
                                     "--config", config, "--seed", seed])
            assert code == 0
            outs.append(without_elapsed(out))
        assert outs[0] == outs[1]
        assert parse_report(outs[0])["params"]["seed"] is None

    @pytest.mark.parametrize("argv", (["--config", "random"], ["--search", "--rounds", "1"]))
    def test_seeded_run_echoes_its_seed(self, capsys, argv):
        code, out = run(capsys, ["constant", "--alpha", "1", "--n", "4", "--seed", "5", *argv])
        assert code == 0
        assert parse_report(out)["params"]["seed"] == 5


class TestFlagsWithoutEffect:
    """Each flag is offered only on the subcommands that read it, so one that
    would be ignored exits 2 with empty stdout and writes no file."""

    @pytest.mark.parametrize("argv", (
        ["constant", "--alpha", "1", "--n", "3", "--out", "x.csv"],
        ["constant", "--alpha", "1", "--n", "3", "--tol", "1"],
        ["preissmann", "--tol", "1", "--seed", "9"],
        ["preissmann", "--out", "x.csv"],
        ["figure", "--seed", "3"],
        ["figure", "--tol", "1"],
        ["lower-bound", "--scan", "1", "2", "3", "--seed", "3"],
        ["lower-bound", "--scan", "1", "2", "3", "--tol", "1"],
        ["lower-bound", "--point", "5", "0.14", "--seed", "3"],
        # each verdict keeps its own fixed tolerance; none is settable
        ["verify", "--suite", "selberg", "--trials", "2", "--tol", "1"],
        # the kernel is scale invariant, so no window takes a scale
        ["constant", "--alpha", "1", "--n", "3", "--spacing", "1.0"],
        ["constant", "--alpha", "1", "--n", "3", "--config", "random", "--min-gap", "0.5"],
    ))
    def test_rejected_by_the_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: " in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_out_rejected_with_point(self, capsys, tmp_path):
        out = tmp_path / "point.csv"
        assert dispatch(["lower-bound", "--point", "5", "0.14", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out has no effect with --point\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", (["verify"], ["constant", "--alpha", "1", "--n", "3"],
                                      ["preissmann"], ["lower-bound", "--point", "5", "0.14"],
                                      ["figure"]))
    def test_json_on_every_subcommand(self, argv):
        assert build_parser().parse_args([*argv, "--json"]).json is True


class TestParserSurface:
    """Each subcommand's option strings, in order; adding or retiring a flag
    edits this table."""

    OPTIONS = {
        "verify": ["--seed", "--out", "--json", "--suite", "--trials", "--max-n"],
        "constant": ["--seed", "--json", "--alpha", "--n", "--config", "--search",
                     "--restarts", "--rounds"],
        "preissmann": ["--json"],
        "lower-bound": ["--out", "--json", "--point", "--scan"],
        "figure": ["--out", "--json"],
    }

    def test_option_strings(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {name: [opt for action in p._actions for opt in action.option_strings
                          if opt not in ("-h", "--help")]
                   for name, p in sub.choices.items()}
        assert surface == self.OPTIONS


class TestBenchmarkCommands:
    """The benchmark's command lines still parse."""

    @pytest.mark.parametrize("workload", ("sweep", "dense", "torus"))
    def test_argv_parses(self, monkeypatch, tmp_path, workload):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        commands = workloads.commands(workload, 0, tmp_path, tiny=True)
        assert commands
        for command in commands:
            assert build_parser().parse_args(command.argv).command == command.argv[0]


class TestTracerTargets:
    """Every name the benchmark tracer wraps still exists, and its wrappers
    come off again."""

    def test_targets_exist_and_uninstall(self, capsys, monkeypatch):
        import sys

        import hilbertlab._util  # noqa: F401
        import hilbertlab.cli as cli
        from hilbertlab.gaps import GapSequence

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracer

        # resolved as the tracer resolves them, on the loaded modules
        names = [*((f"hilbertlab.{module}", function) for module, function, _ in tracer.TARGETS),
                 ("hilbertlab._util", "parallel_map")]
        missing = [f"{module}.{function}" for module, function in names
                   if not callable(getattr(sys.modules.get(module), function, None))]
        assert missing == []
        # the tracer wraps the dataclass's own __init__, not object's
        assert "__init__" in vars(GapSequence)
        traced = tracer.Tracer()
        try:
            traced.install()
            assert cli.dispatch(["preissmann"]) == 0
        finally:
            traced.uninstall()
        capsys.readouterr()
        assert "cli.dispatch" in {span.name for span in traced.spans}
        assert not hasattr(cli.dispatch, "__wrapped__")


class TestReflectionFoldValues:
    """Printed values on reflection-symmetric windows, as computed by the
    full-size solve; the half-size solve must not move them."""

    def test_schur_record(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "radius", "--trials", "1"])
        assert code == 0
        schur = [r for r in parse_report(out)["results"] if r["lemma"].startswith("schur-")]
        assert [r["lhs"] for r in schur] == [3.13581891541, 3.13581891541]

    def test_uniform_constant_at_two_thousand(self, capsys):
        code, out = run(capsys, ["constant", "--n", "2000", "--config", "uniform",
                                 "--alpha", "1"])
        assert code == 0
        assert parse_report(out)["results"][0]["value"] == 3.28623388972


class TestPreissmannCommand:
    def test_constants(self, capsys):
        code, out = run(capsys, ["preissmann"])
        assert code == 0
        record = parse_report(out)["results"][0]
        assert record["c1_upper"] < 4.18880
        assert abs(record["root_residual"]) < 1e-9


class TestWriteCsv:
    def test_empty_rows_give_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv({"a": [], "b": []}, str(path))
        assert path.read_text() == "a,b\n"

    def test_rerun_identical_bytes(self, tmp_path):
        columns = {"a": [1, 2], "b": [0.123456789012345, float("inf")]}
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_csv(columns, str(p1))
        write_csv(columns, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == "a,b\n1,0.123456789012\n2,inf\n"

    def test_cell_rules_and_quoting(self, tmp_path):
        path = tmp_path / "text.csv"
        write_csv({"name": ["plain", "a,b", 'say "hi"'], "ok": [True, False, True],
                   "v": [-0.0, 1e-30, float("-inf")], "mixed": [1, 2.5, None]}, str(path))
        assert path.read_text() == ('name,ok,v,mixed\n'
                                    'plain,true,-0,1\n'
                                    '"a,b",false,1e-30,2.5\n'
                                    '"say ""hi""",true,-inf,None\n')

    def test_no_columns_give_empty_file(self, tmp_path):
        path = tmp_path / "none.csv"
        write_csv({}, str(path))
        assert path.read_text() == ""


class TestThreadCap:
    def test_results_independent_of_thread_count(self, capsys, monkeypatch):
        monkeypatch.setenv("HCL_THREADS", "1")
        _, out1 = run(capsys, ["verify", "--suite", "pair-spacing", "--trials", "10"])
        monkeypatch.setenv("HCL_THREADS", "4")
        _, out2 = run(capsys, ["verify", "--suite", "pair-spacing", "--trials", "10"])
        r1, r2 = parse_report(out1), parse_report(out2)
        assert r1["results"] == r2["results"]
