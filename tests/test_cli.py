import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srcf.cli import emit_report, load_report, main, parse_config, rule_check
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme


class TestParseConfig:
    def test_integral_bench_defaults(self):
        cfg = parse_config(["integral-bench"])
        assert cfg.n == 6 and cfg.runs == 1000
        assert cfg.nm == {"ckf3": 1, "ckf5": 1, "sif3": 50, "sif5": 10, "qsif5": 10, "mc": 1}
        assert cfg.mc_samples == 600
        assert [s.label for s in cfg.schemes] == ["ckf3", "ckf5", "sif3", "sif5", "qsif5", "mc"]
        assert cfg.format == "csv" and cfg.seed == 0

    def test_filter_bench_defaults(self):
        cfg = parse_config(["filter-bench"])
        assert cfg.n == 10 and cfg.q == 2 and cfg.n_mc == 500 and cfg.steps == 100
        assert [s.label for s in cfg.schemes] == ["ckf3", "ckf5", "sif3", "sif5", "qsif5"]

    def test_q4_n10_flags(self):
        cfg = parse_config(["filter-bench", "--q", "4", "--n", "10"])
        assert cfg.q == 4 and cfg.n == 10

    def test_nm_overrides(self):
        cfg = parse_config(["integral-bench", "--nm", "sif5=25", "--nm", "sif3=7,qsif5=3"])
        assert cfg.nm["sif5"] == 25 and cfg.nm["sif3"] == 7 and cfg.nm["qsif5"] == 3

    def test_schemes_subset(self):
        cfg = parse_config(["integral-bench", "--schemes", "sif5,mc", "--mc-samples", "100"])
        assert [s.label for s in cfg.schemes] == ["sif5", "mc"]
        assert cfg.schemes[1].mc_samples == 100

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            parse_config(["integral-bench", "--runs", "0"])
        with pytest.raises(ValueError):
            parse_config(["integral-bench", "--nm", "sif5=0"])
        with pytest.raises(ValueError):
            parse_config(["integral-bench", "--schemes", "ukf"])

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SRCF_SEED", "77")
        assert parse_config(["integral-bench"]).seed == 77
        assert parse_config(["integral-bench", "--seed", "5"]).seed == 5

    @pytest.mark.parametrize("value,message", [
        ("abc", "SRCF_SEED must be an integer, got 'abc'"),
        ("-5", r"SRCF_SEED must be in \[0, 2\*\*64 - 1\], got -5"),
    ])
    def test_malformed_env_seed_names_the_variable(self, monkeypatch, value, message):
        monkeypatch.setenv("SRCF_SEED", value)
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(["integral-bench"])

    @pytest.mark.parametrize("item,message", [
        ("sif5=x", "--nm sif5 must be an integer, got 'x'"),
        ("foo=3", "--nm foo: unknown scheme"),
        ("ckf3=5", "--nm ckf3 must be 1 for a deterministic rule, got 5$"),
    ])
    def test_malformed_nm_names_the_scheme(self, item, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_config(["integral-bench", "--nm", item])

    @pytest.mark.parametrize("line,message", [
        ("runs = abc", "runs must be an integer, got 'abc'"),
        ("runs = 0", "runs must be >= 1, got 0"),
        ("nm = sif5=x", "nm sif5 must be an integer, got 'x'"),
        ("seed = -5", r"seed must be in \[0, 2\*\*64 - 1\], got -5"),
        ("nm = ckf5=2", "nm ckf5 must be 1 for a deterministic rule, got 2"),
    ])
    def test_malformed_config_value_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"n = 4\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {message}$"):
            parse_config(["integral-bench", "--config", str(path)])

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("n = 8\nruns = 12\nnm = sif5=4\nformat = json\n")
        cfg = parse_config(["integral-bench", "--config", str(path), "--runs", "3"])
        assert cfg.n == 8          # from file
        assert cfg.runs == 3       # flag wins
        assert cfg.nm["sif5"] == 4
        assert cfg.format == "json"

    @pytest.mark.parametrize("argv,message", [
        (["integral-bench", "--schemes", "ukf"], "--schemes ukf: unknown scheme; expected one of: "),
        (["integral-bench", "--n", "1"], "--n must be >= 2 for integral-bench, got 1$"),
        (["filter-bench", "--schemes", "sif5", "--n", "1"], "--n must be >= 2 for sif5, got 1$"),
        (["filter-bench", "--schemes", "sif5,sif5"], "--schemes names sif5 more than once$"),
    ])
    def test_scheme_and_dimension_errors_name_the_flag(self, argv, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_config(argv)

    @pytest.mark.parametrize("command,text,message", [
        ("integral-bench", "schemes = sif5,ukf\n", "1: schemes ukf: unknown scheme; expected one of: "),
        ("integral-bench", "n = 1\n", "1: n must be >= 2 for integral-bench, got 1$"),
        ("filter-bench", "schemes = sif5\nn = 1\n", "2: n must be >= 2 for sif5, got 1$"),
    ])
    def test_scheme_and_dimension_errors_name_the_config_line(self, tmp_path, command, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{message}"):
            parse_config([command, "--config", str(path)])

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        path = tmp_path / "comments.cfg"
        path.write_text("# a comment line\nout = res#1.csv\nruns = 2  # note\nn =\t4\t# tab\n")
        cfg = parse_config(["integral-bench", "--config", str(path)])
        assert cfg.out == "res#1.csv"
        assert cfg.runs == 2 and cfg.n == 4

    def test_scheme_twice_in_config_file_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("schemes = sif5,ckf3,sif5\n")
        with pytest.raises(ValueError, match="sif5 more than once"):
            parse_config(["integral-bench", "--config", str(path)])

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(["integral-bench", "--config", str(path)])


class TestRuleCheck:
    def test_sif5_exact_to_degree_five(self):
        rep = rule_check(4, IntegrationScheme.from_label("sif5"), 100, RngStream(1))
        within = [r["max_abs_deviation"] for r in rep.rows if r["degree"] <= 5]
        assert max(within) < 1e-9
        assert rep.meta["degree_plus_one_inexact"] is True
        assert rep.meta["min_over_draws_worst_deviation_at_degree_plus_one"] > 1e-3

    def test_ckf3_fourth_moment_gap(self):
        n = 4
        rep = rule_check(n, IntegrationScheme.from_label("ckf3"), 10, RngStream(2))
        within = [r["max_abs_deviation"] for r in rep.rows if r["degree"] <= 3]
        assert max(within) < 1e-12
        row4 = next(r for r in rep.rows if r["degree"] == 4)
        # the 2n-point rule gives n for the fourth moment (truth 3)
        assert abs(row4["max_abs_deviation"] - (n - 3.0)) < 1e-12

    def test_mc_rejected(self):
        with pytest.raises(ValueError):
            rule_check(3, IntegrationScheme.from_label("mc", mc_samples=10), 5, RngStream(0))


class TestEmitAndLoad:
    def test_integral_csv_schema(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "integral-bench", "--runs", "5", "--n", "4",
            "--schemes", "ckf3,sif5", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "scheme,re_max_pct,re_mean_pct,n_m,points"
        assert lines[header_idx + 1].startswith("ckf3,")
        assert any(l.startswith("# seed: 3") for l in lines)

    def test_filter_csv_schema(self, tmp_path):
        out = tmp_path / "rmse.csv"
        code = main([
            "filter-bench", "--n", "2", "--q", "1", "--steps", "4", "--nmc", "3",
            "--schemes", "ckf3,sif5", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        meta, rows = load_report(str(out))
        assert [r["scheme"] for r in rows] == ["ckf3"] * 4 + ["sif5"] * 4
        assert [int(r["k"]) for r in rows] == [1, 2, 3, 4, 1, 2, 3, 4]
        assert all(float(r["rmse"]) > 0 for r in rows)

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "integral-bench", "--runs", "4", "--n", "4", "--schemes", "sif3",
            "--seed", "5", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        meta, rows = load_report(str(out))
        assert meta["command"] == "integral-bench"
        assert meta["seed"] == 5
        assert rows[0]["scheme"] == "sif3"
        # a reload of the emitted file reproduces the document exactly
        doc = json.loads(out.read_text())
        assert doc == {"meta": meta, "rows": rows}

    def test_rule_check_output(self, tmp_path):
        out = tmp_path / "check.json"
        code = main([
            "rule-check", "--n", "3", "--schemes", "ckf5,sif3", "--runs", "20",
            "--seed", "6", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        meta, rows = load_report(str(out))
        assert meta["schemes"]["ckf5"]["rule_degree"] == 5
        assert meta["schemes"]["sif3"]["rule_degree"] == 3
        degrees = [r["degree"] for r in rows if r["scheme"] == "ckf5"]
        assert degrees == list(range(7))


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        args = ["integral-bench", "--runs", "20", "--n", "4", "--seed", "9",
                "--schemes", "sif5,mc", "--mc-samples", "50"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def _exit_code(argv) -> int:
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Options each command does not read; "workers" sized the removed thread pool.
_UNREAD_OPTIONS = {
    "integral-bench": ["q", "steps", "nmc", "workers"],
    "filter-bench": ["runs", "workers"],
    "rule-check": ["q", "steps", "nmc", "nm", "mc-samples", "workers"],
}


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["integral-bench", "--runs", "0"],
            ["integral-bench", "--config", "no-such-file.cfg"],
            ["integral-bench", "--seed", str(2**64)],
            ["integral-bench", "--n", "1", "--schemes", "sif5"],
            ["filter-bench", "--n", "1", "--schemes", "ckf5"],
            ["rule-check", "--n", "1", "--schemes", "qsif5"],
            ["rule-check", "--schemes", "mc"],
            ["filter-bench", "--q", "60", "--n", "2", "--nmc", "1", "--steps", "5"],
            ["integral-bench", "--n", "1", "--schemes", "ckf3,sif3,mc", "--runs", "2"],
            ["filter-bench", "--n", "2", "--q", "1", "--steps", "2", "--nmc", "1",
             "--schemes", "sif5,sif5"],
            ["rule-check", "--runs", "2", "--schemes", "ckf3, CKF3"],
            ["integral-bench", "--nm", "ckf3=5"],
        ],
        ids=["runs-zero", "missing-config", "seed-too-large", "sif5-n1", "ckf5-n1",
             "qsif5-n1", "rule-check-mc", "trajectory-overflow", "integral-n1",
             "scheme-twice", "rule-check-scheme-twice", "nm-deterministic"],
    )
    def test_bad_value_returns_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("srcf: error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command,option",
        [(c, o) for c, options in _UNREAD_OPTIONS.items() for o in options],
    )
    def test_unread_option_returns_2(self, command, option, tmp_path):
        value = "sif5=2" if option == "nm" else "3"
        assert _exit_code([command, f"--{option}", value]) == 2
        path = tmp_path / "unread.cfg"
        path.write_text(f"{option} = {value}\n")
        assert _exit_code([command, "--config", str(path)]) == 2

    def test_unwritable_out_returns_1(self, tmp_path):
        code = main([
            "integral-bench", "--runs", "2", "--n", "4", "--schemes", "ckf3",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        ])
        assert code == 1


def test_import_loads_numpy_only():
    # the runtime depends on numpy alone: neither the package nor its CLI
    # may pull in scipy, which is a test-only dependency, and the package
    # leaves its CLI unloaded
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import srcf; "
        "print('srcf.cli' in sys.modules); import srcf.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], stdout=subprocess.PIPE,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "[]"]
