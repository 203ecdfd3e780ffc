"""Tests of the benchmark itself: span arithmetic, seeded inputs, metric
names against BENCHMARK.json, and an untraced process free of wrappers."""
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import matchdyn  # noqa: E402
import matchdyn.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def span(key, start, end, parent, outer=True, attr=None):
    return [key, key, start, end, parent, outer, attr]


def test_self_times_subtract_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 3.0, 6.0, 0),       # overlaps a: covered once
        span("c", 8.0, 12.0, 0),      # runs past its parent: clipped
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_count_recursive_spans_once_inclusive():
    spans = [
        span("algebroid.field", 0.0, 0.010, -1),
        span("algebroid.field", 0.002, 0.006, 0, outer=False),
        span("groups.lift_matrix", 0.003, 0.005, 1),
        span("dynamics.junction", 0.020, 0.030, -1, attr="direct"),
        span("dynamics.junction", 0.030, 0.050, -1, attr="matched"),
    ]
    counters = Counter(jacobians=4, newton_jacobians=2, L_evals=30,
                       gradient_calls=10)
    m = tr.layer_metrics(spans, counters, n_junctions=2, n_requests=1,
                         n_gradient_points=4)
    assert m["algebroid.field_calls_per_junction"] == 1.0
    # 10 ms outer field minus 2 ms of lift_matrix, over two junctions
    assert m["algebroid.field_self_ms_per_junction"] == pytest.approx(4.0)
    assert m["groups.lift_matrix_ms_per_junction"] == pytest.approx(1.0)
    assert m["numerics.jacobian_useful_ratio"] == 0.5
    assert m["dynamics.L_evals_per_junction"] == 15.0
    assert m["dynamics.gradient_distinct_ratio"] == 0.4
    assert m["scenarios.direct_junction_ms"] == pytest.approx(5.0)
    assert m["scenarios.matched_junction_ms"] == pytest.approx(10.0)


def test_junction_spans_sum_both_presentations_of_one_step():
    spans = [
        # a trivial_groupoid request: direct then matched del_step per step
        span("cli.main", 0.0, 1.0, -1),
        span("dynamics.junction", 0.000, 0.005, 0, attr="direct"),
        span("dynamics.junction", 0.005, 0.070, 0, attr="matched"),
        span("dynamics.junction", 0.070, 0.076, 0, attr="direct"),
        span("dynamics.junction", 0.076, 0.136, 0, attr="matched"),
        # a request that steps a single descriptor
        span("dynamics.solve", 2.0, 3.0, -1),
        span("dynamics.junction", 2.0, 2.2, 5, attr="direct"),
    ]
    assert tr.junction_spans_ms(spans) == pytest.approx([70.0, 66.0, 200.0])


def _generated_files(md, workload, seed, where):
    os.makedirs(where)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        inputs = workloads.generate(md, workload, seed)
    finally:
        os.chdir(cwd)
    files = {name: open(os.path.join(where, name), "rb").read()
             for name in sorted(os.listdir(where))}
    return inputs, files


@pytest.mark.parametrize("workload", ["sl2c", "trivial_groupoid", "verify"])
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    a, fa = _generated_files(matchdyn, workload, 7, str(tmp_path / "a"))
    b, fb = _generated_files(matchdyn, workload, 7, str(tmp_path / "b"))
    assert fa and fa == fb
    assert a.summary == b.summary
    if workload != "verify":  # its files take solves to make
        _, fc = _generated_files(matchdyn, workload, 8, str(tmp_path / "c"))
        assert fa != fc


def test_same_seed_gives_identical_arrays():
    a = workloads.generate(matchdyn, "groups_pairs", 3)
    b = workloads.generate(matchdyn, "groups_pairs", 3)
    assert [r.label for r in a.requests] == [r.label for r in b.requests]
    for ra, rb in zip(a.requests, b.requests):
        assert ra.arrays.keys() == rb.arrays.keys()
        for key in ra.arrays:
            assert np.array_equal(ra.arrays[key], rb.arrays[key])


def test_tail_reads_a_fixed_percentile_and_counts_what_lies_beyond():
    assert run.tail([float(v) for v in range(1, 101)], 90) == (
        pytest.approx(90.1), 10)


def test_per_layer_names_match_benchmark_json():
    layers = tr.layer_metrics([], Counter(), 1, 1, 0)
    sanity = {k: 1.0 for k in run.SANITY_FIGURES}
    fake = {"layers": layers, "elapsed_s": 0.1, "ref_s": [0.003],
            "junctions": 1, "spans": 1,
            "sanity": {"sl2c": sanity, "trivial_groupoid": sanity}}
    names = set(run.layer_values(fake, fake))
    assert names == {m["name"] for m in spec()["per_layer"]}


def test_untraced_run_prints_the_end_to_end_metrics_without_wrappers():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "trivial_groupoid", "--seed", "1", "--seconds", "0.1",
         "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=170)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_install_and_uninstall_wrappers():
    assert tr.count_wrappers(matchdyn) == 0
    t = tr.Tracer()
    try:
        n = t.install(matchdyn)
        assert n > 0 and tr.count_wrappers(matchdyn) == n
        # every namespace that imported fd_jacobian sees the wrapper
        assert hasattr(matchdyn.dynamics.fd_jacobian, "bench_tracer")
        assert hasattr(matchdyn.groups.fd_jacobian, "bench_tracer")
    finally:
        t.uninstall()
    assert tr.count_wrappers(matchdyn) == 0
