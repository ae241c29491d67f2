"""Command-line front end: one runner per command, seeding, and CSV/JSON reports.

Commands and the options each one reads
---------------------------------------
integral-bench
    Relative-error study of the sum-of-powers integral.
    ``--n`` (6), ``--runs`` (1000), ``--schemes`` (all six rules),
    ``--nm`` (sif3=50, sif5=10, qsif5=10), ``--mc-samples`` (600).
filter-bench
    Growth-model filtering RMSE study.
    ``--n`` (10), ``--q`` (2), ``--steps`` (100), ``--nmc`` (500 Monte-Carlo
    runs), ``--schemes`` (every rule but mc), ``--nm``, ``--mc-samples``.
rule-check
    Polynomial-exactness audit of one or more rules: evaluates every
    monomial up to one degree past the rule's order and reports the worst
    deviation per degree.
    ``--n`` (4), ``--runs`` (100 rule draws), ``--schemes`` (sif5).

Every command also reads ``--seed``, ``--out``, ``--format`` (csv) and
``--config``.  A command rejects any flag or config key it does not read.
Flags override config-file values (``key = value`` lines named like the
flags), which override the defaults above; ``--nm`` flags and ``nm`` lines
add up per scheme.  An ``--nm`` item or ``--mc-samples`` for a rule that
``--schemes`` does not select is an error.  The master seed comes from
--seed, the config file, or the SRCF_SEED environment variable, in that
order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from . import __version__
from .bench import (
    GrowthModel,
    IntegralBenchRow,
    TrajectoryOverflowError,
    run_filter_bench,
    run_integral_bench,
)
from .rng import SEED_MAX, RngStream
from .rules import (
    IntegrationScheme,
    SchemeKind,
    draw_rule_batch,
    gaussian_monomial_moment,
)

__all__ = ["BenchConfig", "parse_config", "emit_report", "rule_check", "load_report", "main"]

_COMMON = {
    "seed": (int, 0),
    "out": (str, None),
    "format": (str, "csv"),
    "config": (str, None),
}
_REPETITIONS = {
    "nm": (str, "sif3=50,sif5=10,qsif5=10"),
    "mc-samples": (int, 600),
}


def _run_integral_bench(config: BenchConfig, rng: RngStream):
    report = run_integral_bench(config.n, list(config.schemes), config.runs, rng)
    columns = [f.name for f in fields(IntegralBenchRow)]
    return report.meta, columns, [asdict(r) for r in report.rows], 0


def _run_filter_bench(config: BenchConfig, rng: RngStream):
    model = GrowthModel(q=config.q, n=config.n)
    series = run_filter_bench(model, list(config.schemes), config.n_mc, config.steps, rng)
    first = series[0].meta
    meta = {key: first[key] for key in ("q", "n", "n_mc", "steps", "trajectory_resamples")}
    scheme_keys = ("n_m", "points_per_integral", "evaluated_points_per_integral",
                   "excluded_runs", "variant")
    meta["schemes"] = {s.scheme: {key: s.meta[key] for key in scheme_keys} for s in series}
    rows = [
        {"scheme": s.scheme, "k": k + 1, "rmse": float(v)}
        for s in series
        for k, v in enumerate(s.values)
    ]
    # exit 1 when some scheme diverged on every run
    failed = any(s.meta["excluded_runs"] >= config.n_mc for s in series)
    return meta, ["scheme", "k", "rmse"], rows, int(failed)


def _run_rule_check(config: BenchConfig, rng: RngStream):
    rows, meta = [], {}
    for scheme in config.schemes:
        report = rule_check(config.n, scheme, config.runs, rng.substream(scheme.label))
        rows.extend(report.rows)
        meta[scheme.label] = report.meta
    return {"schemes": meta}, ["scheme", "degree", "max_abs_deviation"], rows, 0


class _Command(NamedTuple):
    """A subcommand: its runner, every option it reads, and its limits.

    ``run(config, rng)`` returns the report's meta, columns and rows and the
    exit status.  ``options`` maps name -> (type, default); the command's
    flags, config-file keys (all options but "config") and defaults come from
    there, so it rejects any option it would not read.
    """

    run: Callable
    options: dict
    min_n: int = 1
    polynomial_rules_only: bool = False


_COMMANDS = {
    # min_n: the integral is 0 at n = 1, so relative errors are undefined
    "integral-bench": _Command(_run_integral_bench, min_n=2, options={
        "n": (int, 6),
        "runs": (int, 1000),
        "schemes": (str, "ckf3,ckf5,sif3,sif5,qsif5,mc"),
        **_REPETITIONS,
        **_COMMON,
    }),
    "filter-bench": _Command(_run_filter_bench, options={
        "n": (int, 10),
        "q": (int, 2),
        "steps": (int, 100),
        "nmc": (int, 500),
        "schemes": (str, "ckf3,ckf5,sif3,sif5,qsif5"),
        **_REPETITIONS,
        **_COMMON,
    }),
    "rule-check": _Command(_run_rule_check, polynomial_rules_only=True, options={
        "n": (int, 4),
        "runs": (int, 100),
        "schemes": (str, "sif5"),
        **_COMMON,
    }),
}

_HELP = {
    "n": "state / integrand dimension",
    "q": "observation nonlinearity exponent",
    "steps": "trajectory length",
    "runs": "independent runs (integral-bench) or rule draws (rule-check)",
    "nmc": "Monte-Carlo filter runs",
    "schemes": "comma-separated subset of ckf3,ckf5,sif3,sif5,qsif5,mc",
    "nm": "repetition count per scheme, e.g. --nm sif5=10 (repeatable)",
    "mc-samples": "samples per MC draw",
    "seed": "master seed (fallback: $SRCF_SEED)",
    "out": "output path (default: stdout)",
    "format": "csv or json",
    "config": "key-value file mirroring the flags",
}


@dataclass(frozen=True)
class BenchConfig:
    """Fully resolved invocation: everything needed to reproduce a report.

    Options the command does not read are None.
    """

    command: str
    n: int
    schemes: tuple[IntegrationScheme, ...]
    seed: int
    out: str | None
    format: str
    q: int | None = None
    steps: int | None = None
    runs: int | None = None
    n_mc: int | None = None
    mc_samples: int | None = None

    @property
    def nm(self) -> dict:
        """Repetition count per scheme label."""
        return {s.label: s.n_m for s in self.schemes}


def _to_int(text: str, source: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {text!r}") from None


def _scheme_label(text: str, source: str) -> str:
    """A scheme label, lower-cased; an unknown one is an error naming ``source``."""
    label = text.strip().lower()
    valid = [k.value for k in SchemeKind]
    if label not in valid:
        raise ValueError(f"{source} {label}: unknown scheme; expected one of: {', '.join(valid)}")
    return label


def _parse_nm(text: str, source: str, selected=None) -> dict:
    """Repetition counts from ``<scheme>=<int>`` items; errors name ``source``.

    With ``selected`` given, an item for a scheme outside it is an error.
    """
    nm = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"{source} expects <scheme>=<int>, got {part!r}")
        label, _, value = part.partition("=")
        label = _scheme_label(label, source)
        if selected is not None and label not in selected:
            raise ValueError(f"{source} {label}: the run selects only {', '.join(selected)}")
        count = _to_int(value.strip(), f"{source} {label}")
        if count < 1:
            raise ValueError(f"{source} {label} must be >= 1, got {count}")
        if count != 1 and SchemeKind(label).deterministic:
            raise ValueError(f"{source} {label} must be 1 for a deterministic rule, got {count}")
        nm[label] = count
    return nm


def _read_config_file(path: str, command: str) -> tuple[dict, dict]:
    """The option values a config file sets, and the ``path:line: key`` of each.

    ``nm`` lines add up: its value is a list of (``path:line: nm``, text).
    Any other key set on a second line is an error naming both lines.
    """
    options = {k: v for k, v in _COMMANDS[command].options.items() if k != "config"}
    values, sources, line_of = {}, {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ValueError(f"cannot read config file {path!r}: {err.strerror}") from None
    for lineno, raw in enumerate(lines, start=1):
        # a comment starts at a "#" that opens the line or follows whitespace
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in options:
            raise ValueError(
                f"{path}:{lineno}: unknown config key {key!r} for {command} "
                f"(valid: {', '.join(sorted(options))})"
            )
        if key != "nm" and key in line_of:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {line_of[key]}")
        line_of[key] = lineno
        sources[key] = f"{path}:{lineno}: {key}"
        value = value.strip()
        if key == "nm":
            value = values.get("nm", []) + [(sources[key], value)]
        elif options[key][0] is int:
            value = _to_int(value, sources[key])
        values[key] = value
    return values, sources


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srcf",
        description="Benchmarks for stochastic spherical-radial integration rules and filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command)
        for name, (kind, _) in spec.options.items():
            if name == "nm":
                p.add_argument("--nm", action="append", metavar="SCHEME=INT", help=_HELP[name])
            else:
                p.add_argument(f"--{name}", dest=name, type=kind, help=_HELP[name])
    return parser


def parse_config(argv) -> BenchConfig:
    """Resolve argv (plus the --config file it names) into a BenchConfig.

    Precedence: command-line flags, then config-file values, then the
    command's defaults.  Flags and config keys the command does not read are
    rejected, and so is any value the command could not run with.
    """
    args = vars(_build_parser().parse_args(list(argv)))
    command = args["command"]
    spec = _COMMANDS[command]
    options = spec.options
    file_vals, file_sources = {}, {}
    if args["config"]:
        file_vals, file_sources = _read_config_file(args["config"], command)

    # every value with the flag, config line or variable it came from
    values = {name: default for name, (_, default) in options.items()}
    sources = {name: f"--{name}" for name in options}
    env_seed = os.environ.get("SRCF_SEED")
    if env_seed is not None:
        values["seed"], sources["seed"] = _to_int(env_seed, "SRCF_SEED"), "SRCF_SEED"
    values.update(file_vals)
    sources.update(file_sources)
    for name, value in args.items():
        if name in options and value is not None:
            values[name], sources[name] = value, f"--{name}"

    for name, (kind, _) in options.items():
        if kind is int and name != "seed" and values[name] < 1:
            raise ValueError(f"{sources[name]} must be >= 1, got {values[name]}")
    if values["format"] not in ("csv", "json"):
        raise ValueError(f"{sources['format']} must be csv or json, got {values['format']!r}")
    if not 0 <= values["seed"] <= SEED_MAX:
        raise ValueError(f"{sources['seed']} must be in [0, 2**64 - 1], got {values['seed']}")

    n, n_source, schemes_source = values["n"], sources["n"], sources["schemes"]
    if n < spec.min_n:
        raise ValueError(f"{n_source} must be >= {spec.min_n} for {command}, got {n}")
    labels = []
    for label in values["schemes"].split(","):
        if not label.strip():
            continue
        label = _scheme_label(label, schemes_source)
        if label in labels:
            raise ValueError(f"{schemes_source} names {label} more than once")
        kind = SchemeKind(label)
        if n < kind.min_dim:
            raise ValueError(f"{n_source} must be >= {kind.min_dim} for {label}, got {n}")
        if spec.polynomial_rules_only and kind.degree is None:
            raise ValueError(f"{command} needs a polynomial-exact rule; mc has no such degree")
        labels.append(label)
    if not labels:
        raise ValueError(f"{schemes_source} must name at least one scheme")

    # later items override earlier ones: defaults, then file lines, then flags
    nm = _parse_nm(options["nm"][1], "--nm") if "nm" in options else {}
    for source, text in file_vals.get("nm", []) + [("--nm", item) for item in args.get("nm") or []]:
        nm.update(_parse_nm(text, source, labels))
    mc_samples = values.get("mc-samples")
    if ("mc-samples" in file_vals or args.get("mc-samples") is not None) and "mc" not in labels:
        only = ", ".join(labels)
        raise ValueError(f"{sources['mc-samples']} is for mc, but the run selects only {only}")
    schemes = tuple(
        IntegrationScheme.from_label(
            label, n_m=nm.get(label, 1), mc_samples=mc_samples if label == "mc" else None
        )
        for label in labels
    )

    return BenchConfig(
        command=command,
        n=n,
        schemes=schemes,
        seed=values["seed"],
        out=values["out"],
        format=values["format"],
        q=values.get("q"),
        steps=values.get("steps"),
        runs=values.get("runs"),
        n_mc=values.get("nmc"),
        mc_samples=mc_samples,
    )


@dataclass(frozen=True)
class RuleCheckReport:
    """Max deviation from the analytic Gaussian moments per monomial degree."""

    rows: list[dict]
    meta: dict


def _monomial_exponents(n: int, degree: int):
    """All exponent vectors with the given total degree, in a fixed order."""
    if degree == 0:
        yield (0,) * n
        return
    for combo in combinations_with_replacement(range(n), degree):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        yield tuple(alpha)


def rule_check(n: int, scheme: IntegrationScheme, draws: int, rng: RngStream) -> RuleCheckReport:
    """Audit a rule's polynomial exactness degree on independent draws.

    Evaluates every monomial of total degree up to (rule degree + 1) on
    ``draws`` realizations of the point set.  For degrees within the rule's
    order the maximum absolute deviation from the analytic moment is
    reported; at one degree past it the report confirms that some monomial
    is inexact on every draw.
    """
    degree = scheme.kind.degree
    if degree is None:
        raise ValueError("rule-check needs a polynomial-exact rule; MC has no such degree")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if scheme.kind.deterministic:
        draws = 1
    points, weights = draw_rule_batch(scheme, n, draws, rng)
    max_exp = degree + 1
    # powers[d, p, i, e] = points[d, p, i] ** e
    powers = np.ones(points.shape + (max_exp + 1,))
    for e in range(1, max_exp + 1):
        powers[..., e] = powers[..., e - 1] * points

    rows = []
    inexact_floor = None
    for total in range(0, max_exp + 1):
        worst = 0.0
        per_draw_worst = np.zeros(draws)
        for alpha in _monomial_exponents(n, total):
            vals = np.ones(points.shape[:2])
            for i, a in enumerate(alpha):
                if a:
                    vals = vals * powers[..., i, a]
            est = np.einsum("dp,dp->d", weights, vals)
            dev = np.abs(est - gaussian_monomial_moment(alpha))
            worst = max(worst, float(dev.max()))
            np.maximum(per_draw_worst, dev, out=per_draw_worst)
        if total == max_exp:
            # the rule must fail some monomial here on every single draw
            inexact_floor = float(per_draw_worst.min())
        rows.append(
            {
                "scheme": scheme.label,
                "degree": total,
                "max_abs_deviation": worst,
            }
        )
    meta = {
        "scheme": scheme.label,
        "n": n,
        "draws": draws,
        "rule_degree": degree,
        "max_deviation_within_degree": max(
            row["max_abs_deviation"] for row in rows if row["degree"] <= degree
        ),
        "degree_plus_one_inexact": bool(inexact_floor > 1e-6),
        "min_over_draws_worst_deviation_at_degree_plus_one": inexact_floor,
    }
    return RuleCheckReport(rows=rows, meta=meta)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _round_floats(obj):
    """A JSON-ready copy: floats to 10 significant digits, a NaN or infinity as None (null)."""
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.10g}") if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _flatten_meta(meta: dict, prefix: str = "") -> list[tuple[str, str]]:
    items = []
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten_meta(value, prefix=f"{name}."))
        else:
            items.append((name, _fmt(value)))
    return items


def emit_report(meta: dict, columns: list[str], rows: list[dict], config: BenchConfig) -> list[str]:
    """Serialize a report to config.format, writing config.out or stdout.

    The metadata block opens with the tool version, command, seed and format,
    followed by ``meta``; each row prints the ``columns`` in order.  Returns
    the list of files written (empty when printing to stdout).  Output is
    byte-for-byte reproducible from (config, seed, version).
    """
    meta = {
        "tool_version": __version__,
        "command": config.command,
        "seed": config.seed,
        "format": config.format,
        **meta,
    }
    if config.format == "json":
        doc = {"meta": _round_floats(meta), "rows": _round_floats(rows)}
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"# {key}: {value}" for key, value in _flatten_meta(meta)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if config.out is None:
        sys.stdout.write(text)
        return []
    with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return [config.out]


def load_report(path: str):
    """Parse a file written by emit_report back into (meta, rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return doc["meta"], doc["rows"]
    meta = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ValueError as err:
        print(f"srcf: error: {err}", file=sys.stderr)
        return 2
    try:
        meta, columns, rows, status = _COMMANDS[config.command].run(config, RngStream(config.seed))
        emit_report(meta, columns, rows, config)
    except TrajectoryOverflowError as err:
        print(f"srcf: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"srcf: i/o error: {err}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
