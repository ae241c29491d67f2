"""The call boundaries that ``perfbench/tracing.py`` wraps are looked up at call time.

The benchmark tracer times each layer by replacing, for one run, the module
attribute through which one layer calls the next (``srcf.integrate``'s
``draw_rule_batch``, say).  A call site that stops looking the name up
there, because the import moved or the function is bound elsewhere, leaves
that layer's traced metrics at 0 and fails nothing.  These tests replace
the same attributes with counting wrappers and fail instead.
"""

import functools

import numpy as np
import pytest

from srcf import bench, integrate, rules
from srcf.filtering import run_filter
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme


def _count_calls(monkeypatch, owner, names):
    """Replace each ``owner.<name>`` with a wrapper that counts its calls."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return counts


def test_filter_step_reaches_the_rule_layer_and_the_root_through_integrate(monkeypatch):
    counts = _count_calls(monkeypatch, integrate, ["draw_rule_batch", "spd_sqrt"])
    model = bench.GrowthModel(q=2, n=3)
    _, ys = bench.simulate_trajectory(model, 1, RngStream(1))
    run_filter(model.state_space(), IntegrationScheme.from_label("sif5", n_m=2), ys,
               model.init_belief(), RngStream(2))
    assert all(counts.values()), counts


@pytest.mark.parametrize("label,names", [
    ("sif3", ["haar_orthogonal_batch", "sample_chi"]),
    ("sif5", ["haar_orthogonal_batch", "_radial_pair_batch"]),
])
def test_draws_reach_samplers_and_rotations_through_rules(monkeypatch, label, names):
    counts = _count_calls(monkeypatch, rules, names)
    sch = IntegrationScheme.from_label(label, n_m=2)
    rules.draw_rule_batch(sch, 4, sch.n_m, RngStream(3), mean=np.ones(4), root=2.0 * np.eye(4))
    assert all(counts.values()), counts


def test_studies_reach_their_layers_through_bench(monkeypatch):
    counts = _count_calls(monkeypatch, bench,
                          ["expect", "g_sum_powers", "run_filter", "_simulate_with_count"])
    schemes = [IntegrationScheme.from_label("ckf3"), IntegrationScheme.from_label("sif3", n_m=2)]
    bench.run_integral_bench(3, schemes, 2, RngStream(4))
    bench.run_filter_bench(bench.GrowthModel(q=1, n=2), schemes, 1, 2, RngStream(5))
    assert all(counts.values()), counts
