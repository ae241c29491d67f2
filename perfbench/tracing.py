"""In-memory span tracer for the traced benchmark run.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the module attributes through which one ``srcf`` layer calls the
next with timing wrappers.  Nothing inside ``srcf`` is edited: the wrappers
sit on the call boundary (for example ``srcf.integrate.draw_rule_batch`` is
what ``expect_batch`` looks up at call time).  Each call records a span
(id, parent id, name, layer, start, end, run id, self time) in a list that
is only turned into a table when the run ends.

A layer's self time is its spans' durations minus the time covered by their
child spans and by the tracer's own hooks.  What no layer owns -- the
benchmark's loop between spans and the hooks -- is reported as "other", so
the layer self times plus other add up to the traced wall time exactly.

Besides time, some wrappers count what the program does not report itself:
zero-gain observation estimates, skipped corrections, eigen-clamp fallbacks
of ``spd_sqrt`` (checked by retrying ``np.linalg.cholesky`` on the same
input, outside the span), points drawn and evaluated, and bytes computed
from array sizes.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from srcf import bench, filtering, integrate, rules
from srcf.bench import GrowthModel
from srcf.integrate import VectorFunction, _as_vector_function
from srcf.rng import RngStream

LAYERS = ("bench", "filtering", "integrate", "rules", "samplers", "linalg", "rng")
SCHEMES = ("ckf3", "ckf5", "sif3", "sif5", "qsif5", "mc")


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.draw_s: dict[str, list[float]] = defaultdict(list)
        self.run_id = 0
        self.missing: list[str] = []
        self.hook_s = 0.0  # tracer hook time that fell inside some span
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, layer, before=None, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook_s = 0.0
            if before is not None:
                h0 = perf_counter()
                args = before(args)
                hook_s = perf_counter() - h0
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - frame[1]
                if stack:
                    stack[-1][2] += dur
                spans.append((sid, parent, name, layer, frame[1], t1, self.run_id, dur - frame[2]))
            if after is not None:
                h0 = perf_counter()
                after(out, args, dur)
                hook_s += perf_counter() - h0
            if stack:
                # hook time inside a parent span belongs to the tracer, not the parent
                stack[-1][2] += hook_s
                self.hook_s += hook_s
            return out

        return wrapper

    def _boundaries(self):
        """(owner, attribute, span name, layer, before, after) per call boundary."""
        return [
            (bench, "run_filter_bench", "bench.study", "bench", None, None),
            (bench, "run_integral_bench", "bench.study", "bench", None, None),
            (bench, "run_filter", "filtering.run_filter", "filtering", None, None),
            (bench, "expect", "integrate.expect", "integrate", self._proxy_first, None),
            (bench, "g_sum_powers", "bench.integrand", "bench", None, None),
            (bench, "_simulate_with_count", "bench.simulate", "bench", None, self._after_simulate),
            (filtering, "predict_state", "filtering.predict_state", "filtering", None, None),
            (filtering, "predict_observation", "filtering.predict_observation", "filtering",
             None, self._after_predict_observation),
            (filtering, "correct", "filtering.correct", "filtering", None, self._after_correct),
            (filtering, "expect_batch", "integrate.expect_batch", "integrate", self._proxy_list, None),
            (integrate, "draw_rule_batch", "rules.draw_rule_batch", "rules", None, self._after_draw),
            (integrate, "spd_sqrt", "linalg.spd_sqrt", "linalg", None, self._after_spd_sqrt),
            (rules, "haar_orthogonal_batch", "linalg.haar", "linalg", None, None),
            (rules, "_radial_pair_batch", "samplers.radial_pair", "samplers", None, None),
            (rules, "sample_chi", "samplers.chi", "samplers", None, None),
            (RngStream, "substream", "rng.substream", "rng", None, None),
            (GrowthModel, "transition", "bench.integrand", "bench", None, None),
            (GrowthModel, "observe", "bench.integrand", "bench", None, None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary that exists; restore the originals on exit.

        A boundary a later refactor removed is skipped and noted, so its
        metrics read 0 instead of failing the run.
        """
        saved = []
        try:
            for owner, attr, name, layer, before, after in self._boundaries():
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, layer, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- boundary hooks -----------------------------------------------------

    def _proxy(self, f):
        """Count the points and output bytes of one integrand of expect/expect_batch."""
        f = _as_vector_function(f)
        counts = self.counts

        def counted(x):
            out = f.fn(x)
            counts["integrate.points_evaluated"] += x.shape[0] if f.vectorized else 1
            counts["integrate.bytes_computed"] += np.asarray(out).nbytes
            return out

        return VectorFunction(counted, vectorized=f.vectorized)

    def _proxy_first(self, args):
        return (self._proxy(args[0]),) + tuple(args[1:])

    def _proxy_list(self, args):
        return ([self._proxy(f) for f in args[0]],) + tuple(args[1:])

    def _after_simulate(self, out, args, dur):
        self.counts["bench.trajectory_resamples"] += int(out[2])

    def _after_predict_observation(self, out, args, dur):
        self.counts["filtering.zero_gain"] += int(not np.any(out.pxy))

    def _after_correct(self, out, args, dur):
        pred, obs = args[0], args[1]
        if np.any(obs.pxy):
            self.counts["filtering.correct_with_gain"] += 1
            unchanged = np.array_equal(out.mean, pred.mean) and np.array_equal(out.cov, pred.cov)
            self.counts["filtering.skipped_correction"] += int(unchanged)

    def _after_draw(self, out, args, dur):
        points = out[0]
        self.counts["rules.points_drawn"] += points.shape[0] * points.shape[1]
        # the affine transform writes one state vector per drawn point
        self.counts["integrate.bytes_computed"] += points.nbytes
        self.draw_s[args[0].label].append(dur)

    def _after_spd_sqrt(self, out, args, dur):
        try:
            np.linalg.cholesky(np.asarray(args[0], dtype=np.float64))
        except np.linalg.LinAlgError:
            self.counts["linalg.spd_sqrt_fallback"] += 1

    # -- reporting ----------------------------------------------------------

    def table(self):
        """Per span name and per layer: (calls, self seconds, total seconds).

        Model calls made while simulating a trajectory are not integrands:
        their self time is folded into ``bench.simulate``.
        """
        by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer: dict[str, list] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        simulating = {span[0] for span in self.spans if span[2] == "bench.simulate"}
        for _sid, parent, name, layer, t0, t1, _run, self_s in self.spans:
            if name == "bench.integrand" and parent in simulating:
                by_name["bench.simulate"][1] += self_s
                by_layer[layer][1] += self_s
                continue
            for row in (by_name[name], by_layer[layer]):
                row[0] += 1
                row[1] += self_s
                row[2] += t1 - t0
        return dict(by_name), by_layer

    def self_total_s(self) -> float:
        """Sum of every span's self time: the traced time some layer owns."""
        return sum(span[-1] for span in self.spans)

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> tuple[dict, list[str]]:
        """The per-layer metric values plus notes for layers that saw no calls."""
        by_name, by_layer = self.table()
        counts = self.counts
        notes = [f"boundary {m} not found; its metrics read 0" for m in self.missing]

        def calls(*names):
            return sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)

        def self_ms(*names):
            return 1e3 * sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)

        def ratio(num, base, label, what):
            notes.append(f"{label}: {num} of {base} {what}")
            return num / base if base else 0.0

        draw = "rules.draw_rule_batch"
        samplers = ("samplers.radial_pair", "samplers.chi")
        expects = ("integrate.expect", "integrate.expect_batch")
        m = {
            "rules.draw_calls": calls(draw),
            "rules.draw_self_ms": self_ms(draw),
            "rules.points_drawn": counts["rules.points_drawn"],
            "samplers.calls": calls(*samplers),
            "samplers.self_ms": self_ms(*samplers),
            "linalg.haar_calls": calls("linalg.haar"),
            "linalg.haar_self_ms": self_ms("linalg.haar"),
            "linalg.spd_sqrt_calls": calls("linalg.spd_sqrt"),
            "linalg.spd_sqrt_self_ms": self_ms("linalg.spd_sqrt"),
            "linalg.spd_sqrt_fallback_ratio": ratio(
                counts["linalg.spd_sqrt_fallback"], calls("linalg.spd_sqrt"),
                "linalg.spd_sqrt_fallback_ratio", "spd_sqrt calls rejected by np.linalg.cholesky"),
            "integrate.expect_calls": calls(*expects),
            "integrate.self_ms": self_ms(*expects),
            "integrate.points_evaluated": counts["integrate.points_evaluated"],
            "integrate.bytes_computed": counts["integrate.bytes_computed"],
            "filtering.predict_state_self_ms": self_ms("filtering.predict_state"),
            "filtering.predict_observation_self_ms": self_ms("filtering.predict_observation"),
            "filtering.correct_self_ms": self_ms("filtering.correct"),
            "filtering.run_filter_self_ms": self_ms("filtering.run_filter"),
            "filtering.zero_gain_ratio": ratio(
                counts["filtering.zero_gain"], calls("filtering.predict_observation"),
                "filtering.zero_gain_ratio", "predict_observation calls returned all-zero pxy"),
            "filtering.skipped_correction_ratio": ratio(
                counts["filtering.skipped_correction"], counts["filtering.correct_with_gain"],
                "filtering.skipped_correction_ratio", "correct calls with pxy != 0 returned the prediction"),
            "rng.substream_calls": calls("rng.substream"),
            "rng.substream_self_ms": self_ms("rng.substream"),
            "bench.integrand_self_ms": self_ms("bench.integrand"),
            "bench.simulate_self_ms": self_ms("bench.simulate"),
            "bench.study_self_ms": self_ms("bench.study"),
            "bench.trajectory_resamples": counts["bench.trajectory_resamples"],
            "other_self_ms": 1e3 * (traced_wall_s - self.self_total_s()),
            "traced_wall_ms": 1e3 * traced_wall_s,
            "trace_overhead_ratio": traced_wall_s / untraced_wall_s,
        }
        for label in SCHEMES:
            durations = self.draw_s.get(label)
            m[f"rules.draw_us_p50.{label}"] = 1e6 * float(np.median(durations)) if durations else 0.0
        for layer, (n_calls, _, _) in by_layer.items():
            if n_calls == 0:
                notes.append(f"layer {layer}: its wrappers saw no calls; its metrics read 0")
        return m, notes

    def format_table(self, traced_wall_s: float) -> list[str]:
        """Human-readable per-layer and per-boundary self-time and count table."""
        by_name, by_layer = self.table()
        lines = [f"{'layer / boundary':<34}{'calls':>10}{'self_ms':>12}{'total_ms':>12}{'self%':>8}"]

        def row(label, calls, self_s, total_s=None):
            share = 100.0 * self_s / traced_wall_s if traced_wall_s > 0 else 0.0
            total = "" if total_s is None else f"{1e3 * total_s:.3f}"
            return f"{label:<34}{calls:>10}{1e3 * self_s:>12.3f}{total:>12}{share:>8.2f}"

        for layer in LAYERS:
            # a layer's total would count nested spans of the same layer twice
            calls, self_s, _ = by_layer[layer]
            lines.append(row(layer, calls, self_s))
            for name in sorted(n for n in by_name if n.split(".")[0] == layer):
                lines.append(row("  " + name, *by_name[name]))
        other = traced_wall_s - self.self_total_s()
        lines.append(row("other", 0, other))
        lines.append(row("  of which tracer hooks in spans", 0, self.hook_s))
        layer_sum = sum(v[1] for v in by_layer.values()) + other
        lines.append(f"layers + other = {1e3 * layer_sum:.3f} ms; traced wall = {1e3 * traced_wall_s:.3f} ms")
        return lines
