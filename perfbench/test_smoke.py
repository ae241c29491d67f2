"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload untraced and traced and checks that every named
metric is printed with its unit, that the correctness gate passes, and that
the benchmark refuses to run without the library's sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# End-to-end metrics printed besides the gated ones listed in BENCHMARK.json.
EXTRA = {
    "filter-study-n10": {"failed_ratio": "ratio", "steps_per_s": "1/s", "rmse_steady_sif5": "state"},
    "integral-study-n6": {"failed_ratio": "ratio", "re_mean_pct_sif5": "%"},
    "filter-online-n20": {
        "failed_ratio": "ratio", "steps_per_s": "1/s", "step_ms_p50": "ms",
        "step_ms_p90": "ms", "rmse_steady_sif5": "state",
    },
}
METRIC = re.compile(r"^metric (\S+) = (\S+) (\S+) \((.*)\)$")
LAYER_SUM = re.compile(r"^layers \+ other = (\S+) ms; traced wall = (\S+) ms$")


def run_all(trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def by_workload(lines):
    sections, current = {}, None
    for line in lines:
        if line.startswith("workload: "):
            current = line.split()[1]
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return sections


def check_result(result, wanted):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in WORKLOADS:
        for entry in wanted:
            metric = result["metrics"][f"{workload}.{entry['name']}"]
            assert metric["unit"] == entry["unit"]
            assert math.isfinite(metric["value"])


def test_end_to_end_metrics_printed_with_units():
    proc = run_all(0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    check_result(json.loads(lines[-1]), SPEC["end_to_end"])
    assert any(line.startswith("machine: nproc=") for line in lines)
    for workload, body in by_workload(lines).items():
        printed = {m[1]: m for m in map(METRIC.match, body) if m}
        wanted = {e["name"]: e["unit"] for e in SPEC["end_to_end"]} | EXTRA[workload]
        for name, unit in wanted.items():
            assert name in printed, f"{workload}: {name} not printed"
            assert printed[name][3] == unit
            assert math.isfinite(float(printed[name][2]))
        for name in ("setup_s", "wall_s", "integrals_per_s", "peak_rss_mb"):
            assert float(printed[name][2]) > 0
        for name in ("step_ms_p50", "step_ms_p90"):
            assert name not in printed or "n=" in printed[name][4]  # sample count
        assert all("PASS" in line for line in body if line.startswith("gate "))


def test_traced_run_reports_every_layer_metric():
    proc = run_all(1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check_result(result, SPEC["per_layer"])
    for workload in WORKLOADS:
        # every span's self time belongs to one *self_ms metric; other_self_ms holds the rest
        values = {k.split(".", 1)[1]: v["value"] for k, v in result["metrics"].items()
                  if k.startswith(workload + ".")}
        self_ms = sum(v for k, v in values.items() if k.endswith("self_ms"))
        assert math.isclose(self_ms, values["traced_wall_ms"], rel_tol=1e-9), workload
    sections = by_workload(lines)
    assert sorted(sections) == sorted(WORKLOADS)
    for workload, body in sections.items():
        sums = [m for m in map(LAYER_SUM.match, body) if m]
        assert len(sums) == 1, workload
        layers_ms, wall_ms = map(float, sums[0].groups())
        assert abs(layers_ms - wall_ms) <= 1e-6 * wall_ms + 1e-3
        assert any(line.startswith("gate traced-equals-untraced: PASS") for line in body)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
