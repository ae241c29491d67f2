"""Benchmark of the srcf library: end-to-end run, traced per-layer run, gate.

Run from the repository root:

    python3 perfbench/run.py --workload filter-study-n10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads, metric names and units come from ``BENCHMARK.json``.  One
workload runs per process, so set-up time and peak memory are its own;
``--workload all`` runs each one in a fresh child process.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` repeats a fixed number of its units with the layer
boundaries wrapped (see ``tracing.py``) and reports the per-layer metrics,
the ``draw_rule_batch`` microbenchmark and the tracing overhead.  Both run
the correctness gate (``gate.py``) outside the timed section; the exit code
is non-zero if it fails or if ``srcf`` cannot be imported from ``src/``.
``--tiny`` shrinks every size for the smoke test (``test_smoke.py``).

End-to-end metrics (the first four are gated by BENCHMARK.json):

setup_s          import of srcf (median over fresh interpreters) plus the
                 median of repeated set-ups: model, inputs and warm-up
wall_s           timed-section wall time per unit of work
integrals_per_s  Gaussian integrals completed per second (a filter step is two)
peak_rss_mb      peak resident memory of the process
failed_ratio     diverged or incorrect ops over ops attempted
steps_per_s      filter steps per second (filter workloads)
step_ms_p50/p90  latency of one online filter step, with its sample count
rmse_steady_sif5 sif5 state RMSE over steps >= 20 (filter workloads)
re_mean_pct_sif5 mean relative error of sif5 in percent (integral workload)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Load comes from one process with workers=1; the BLAS pool is pinned at one
# thread (at most nproc) before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5  # set-up is repeated and its median reported
IMPORT_REPS = 3  # the import is timed in this many fresh interpreters
MIN_UNITS = 3  # a timed run completes at least this many units


def fail(message: str, code: int = 2):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def import_srcf() -> None:
    """Import srcf from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import srcf
    except ImportError as err:
        fail(f"cannot import srcf from {SRC}: {err}")
    if Path(srcf.__file__).resolve().parent.parent != SRC:
        fail(f"srcf was imported from {srcf.__file__}, not from {SRC}")


def import_seconds(reps: int) -> float:
    """Median time to import srcf in a fresh interpreter (start-up excluded)."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import srcf; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE,
                             text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def machine_line(seed: int) -> str:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpus_allowed = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_allowed = os.cpu_count()
    return (
        f"machine: nproc={os.cpu_count()} cpus_allowed={cpus_allowed} "
        f"cpu={platform.machine()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas.get('name')}-{blas.get('version')} blas_threads={BLAS_THREADS} "
        f"workers=1 seed={seed}"
    )


def run_timed(workload, seconds: float, min_units: int) -> list:
    units, start = [], perf_counter()
    while len(units) < min_units or perf_counter() - start < seconds:
        units.append(workload.run_unit(len(units)))
    return units


def end_to_end(workload, units, setup_s: float, import_s: float, setup_times) -> dict:
    """Every end-to-end metric as name -> (value, unit, note)."""
    wall = sum(u.wall_s for u in units)
    n = len(units)
    m = {
        "setup_s": (setup_s, "s", f"import {import_s:.4f} s + median of {len(setup_times)} set-ups"),
        "wall_s": (wall / n, "s", f"timed section {wall:.3f} s over {n} units"),
        "integrals_per_s": (sum(u.integrals for u in units) / wall, "1/s", f"{n} units, {wall:.3f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    m["failed_ratio"] = (failed / attempted, "ratio", f"{failed} failed / {attempted} ops")
    steps = sum(u.steps for u in units)
    if steps:
        m["steps_per_s"] = (steps / wall, "1/s", f"{steps} filter steps")
    step_s = [s for u in units for s in u.step_s]
    if step_s:
        for q in (50, 90):
            m[f"step_ms_p{q}"] = (1e3 * float(np.percentile(step_s, q)), "ms", f"n={len(step_s)} steps")
    m.update(workload.quality(units))
    return m


def run_traced(workload, units, seed: int, tiny: bool):
    from micro import draw_microbench
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        traced = []
        for i in range(workload.trace_units):
            tracer.run_id = i
            traced.append(workload.run_unit(i))
    traced_wall = sum(u.wall_s for u in traced)
    untraced_wall = sum(u.wall_s for u in units[: len(traced)])
    metrics, notes = tracer.layer_metrics(traced_wall, untraced_wall)
    runs = sum(u.runs for u in traced)
    diverged = sum(u.diverged for u in traced)
    metrics["bench.excluded_run_ratio"] = diverged / runs if runs else 0.0
    notes.append(f"bench.excluded_run_ratio: {diverged} of {runs} filter runs diverged")
    micro, micro_lines = draw_microbench(seed, factor=10 if tiny else 1000)
    metrics.update(micro)
    # the wrappers must not change results: same counts and quality, bit for bit
    reference = units[: len(traced)]
    same = [(u.integrals, u.failed) for u in traced] == [(u.integrals, u.failed) for u in reference]
    same = same and np.array_equal(
        [v[0] for v in workload.quality(traced).values()],
        [v[0] for v in workload.quality(reference).values()],
        equal_nan=True,
    )
    check = ("traced-equals-untraced", same, f"{len(traced)} units, counts and quality compared")
    lines = tracer.format_table(traced_wall) + micro_lines
    lines.append(f"trace: {len(tracer.spans)} spans in memory over {len(traced)} units")
    return metrics, notes, lines, traced, check


def run_workload(name: str, args, spec: dict) -> int:
    import_srcf()
    import_s = import_seconds(1 if args.tiny else IMPORT_REPS)
    from gate import run_gate
    from workloads import WORKLOADS

    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    print(machine_line(args.seed))
    print(f"workload: {name} -- {why}")
    workload = WORKLOADS[name](args.seed, args.tiny)
    setup_times = []
    for _ in range(1 if args.tiny else SETUP_REPS):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    units = run_timed(workload, args.seconds, workload.trace_units if args.trace else MIN_UNITS)
    e2e = end_to_end(workload, units, setup_s, import_s, setup_times)
    for metric, (value, unit, note) in e2e.items():
        print(f"metric {metric} = {value!r} {unit} ({note})")

    checks = run_gate(workload, units, args.seed)
    all_units = units
    if args.trace:
        layer, notes, lines, traced, check = run_traced(workload, units, args.seed, args.tiny)
        checks.append(check)
        all_units = units + traced
        for line in lines:
            print(line)
        for note in notes:
            print(f"note: {note}")
    for check_name, ok, detail in checks:
        print(f"gate {check_name}: {'PASS' if ok else 'FAIL'} ({detail})")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if args.trace:
            value = layer.get(entry["name"], 0.0)
            if value == 0:
                print(f"note: {entry['name']} reads 0: no calls or events of its kind in this run")
        else:
            value = e2e[entry["name"]][0]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = all(ok for _, ok, _ in checks) and not any(u.bad for u in all_units)
    result = {
        "correct": correct,
        "attempted": sum(u.ops for u in all_units) + len(checks),
        "failed": sum(u.failed for u in all_units) + sum(not ok for _, ok, _ in checks),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Run every workload in its own child process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {entry['name']} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{entry['name']}.{metric}"] = value
        status = max(status, proc.returncode)
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args.workload, args, spec)


if __name__ == "__main__":
    sys.exit(main())
