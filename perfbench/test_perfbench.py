"""Self-tests of the benchmark: span arithmetic, the percentile rule, the
tracer's bindings, metric tables against BENCHMARK.json, and a tiny-size
smoke run of each workload.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import images  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from mpslab import exact, experiments, mps  # noqa: E402


def test_covered_length_merges_and_clips():
    assert tr.covered_length([], 0.0, 10.0) == 0.0
    assert tr.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert tr.covered_length([(-2, 1), (9, 12)], 0, 10) == 2.0
    assert tr.covered_length([(1, 2), (1, 2)], 0, 10) == 1.0


def test_self_time_subtracts_direct_children_only():
    # root 0..10 > a 1..4 > b 2..3 ; root > c 6..9
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tr.self_times(starts, ends, parents) == [4.0, 2.0, 1.0, 3.0]


def test_summarize_counts_children_and_phases():
    t = tr.Tracer()
    with t.span("op"):
        with t.span("dmrg.optimize_site"):
            for _ in range(3):
                with t.span("dmrg.site_loss"):
                    pass
            with t.span("dmrg.site_gradient"):
                pass
    s = tr.summarize(t)
    opt = s.layer("dmrg.optimize_site")
    assert opt.calls == 1
    assert opt.child_calls["dmrg.site_loss"] == 3
    assert s.phase_calls["op"]["dmrg.site_loss"] == 3
    assert s.root_seconds >= s.root_self_seconds >= 0.0
    assert "op" not in s.layers


@pytest.mark.parametrize("n, want", [(0, None), (19, None), (20, 50.0),
                                     (100, 90.0), (550, 90.0),
                                     (1000, 99.0), (10_000, 99.9),
                                     (100_000, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert tr.tail_percentile(n) == want


def test_percentile_interpolates():
    values = list(range(101))
    assert tr.percentile(values, 50.0) == 50.0
    assert tr.percentile(values, 90.0) == 90.0
    assert tr.percentile([1.0, 2.0], 50.0) == 1.5
    assert tr.percentile([3.0], 99.0) == 3.0


def test_tracer_replaces_every_binding_and_restores_them():
    original = mps.compress
    original_eval = mps.MPS.evaluate_batch
    assert experiments.compress is original and exact.compress is original
    t = tr.Tracer()
    targets = [tr.Target("mps.compress", mps, "compress"),
               tr.Target("mps.evaluate_batch", mps.MPS, "evaluate_batch"),
               tr.Target("gone", mps, "no_such_function")]
    with t.installed(targets, tr.package_modules(), np):
        assert mps.compress is not original
        assert experiments.compress is mps.compress is exact.compress
        with t.span("op"):
            w, _ = exact.compress(np.ones((2, 2, 2)), 2)
            w.evaluate_batch(np.ones((3, 3, 2)))
            np.einsum("i->", np.ones(2))
    assert t.missing == ["gone:no_such_function"]
    assert mps.compress is original and experiments.compress is original
    assert mps.MPS.evaluate_batch is original_eval
    s = tr.summarize(t)
    assert s.layer("mps.compress").calls == 1
    assert s.layer("mps.evaluate_batch").calls == 1
    assert s.einsum_calls >= 1


def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == harness.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_images_are_seeded_and_in_range():
    protos = images.prototypes()
    assert protos.shape == (10, 14, 14) and protos.max() == 1.0
    a, la = images.sample(protos, 50, np.random.default_rng(3), 0.08)
    b, lb = images.sample(protos, 50, np.random.default_rng(3), 0.08)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert set(la) <= set(range(10))


def test_ops_of_a_run_use_disjoint_seeds():
    seeds = {workloads.base_seed(s, op) for s in range(4) for op in range(64)
             if op or s == 0}
    assert len(seeds) == 4 * 63 + 1
    assert workloads.base_seed(7, 0) == workloads.base_seed(0, 0)


TINY = {
    "inv-scan": dict(n_sites=4, n_train=60, n_test=64, replicates=3,
                     chis=(2, 3, 9), reference={}),
    "dmrg-reg": dict(n_sites=4, n_train=60, n_val=64, n_test=64, chi=3,
                     sweeps=2, reference={}),
    "clf-sweep": dict(side=4, n_train=64, n_test=64, chi=3, reference={}),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_smoke(name, tmp_path):
    kwargs = dict(TINY[name])
    if name == "inv-scan":
        kwargs["out_dir"] = str(tmp_path)
    w = workloads.WORKLOADS[name](**kwargs)
    probes = iter([0.3, 0.1, 0.2, 0.5, 0.4, 0.6])
    records, e2e = harness.run_untraced(w, seed=1, seconds=0.0,
                                        probe_setup=lambda: next(probes),
                                        min_ops=2)
    assert len(records) == 2 and all(r.work for r in records)
    assert [f for r in records for f in r.failures] == []
    assert set(e2e) == set(harness.END_TO_END)
    assert e2e["setup_s"] == 0.35  # median of the probes around two ops
    assert all(math.isfinite(v) for v in e2e.values())
    records, layers = harness.run_traced(w, seed=1, seconds=0.0)
    assert [f for r in records for f in r.failures
            if f.startswith("count:")] == []
    assert set(layers) == set(harness.PER_LAYER)
    assert all(math.isfinite(v) for v in layers.values())
    calls = w.expected_calls
    for label, want in calls.items():
        if label + ".calls" in layers:
            assert layers[label + ".calls"] == want
