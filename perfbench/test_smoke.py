"""Smoke test of the benchmark's traced path on a tiny synthetic city.

Each workload's command runs once untraced and once under traced.py. The
test fails when a layer records no calls, which is what happens when a
refactor moves a public function out of the module the tracer wraps.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


@pytest.fixture(scope="module")
def tiny_city(tmp_path_factory):
    city = tmp_path_factory.mktemp("perfbench") / "city"
    bench.make_city(city, seed=7, segments=16, pois=200)
    return city


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_run_reaches_every_layer(tiny_city, name):
    workload = bench.WORKLOADS[name]
    untraced = bench.run_rep(workload, tiny_city, None, traced=False)
    traced = bench.run_rep(workload, tiny_city, None, traced=True)
    bench.mark_divergent([untraced, traced])

    assert untraced.problems == [] and traced.problems == []
    assert traced.headline, "the output check produced no headline values"
    metrics = bench.per_layer([traced], [untraced])
    for layer in bench.LAYERS:
        assert metrics[f"{layer}.calls"][0] > 0, f"layer {layer} recorded no calls"
    assert metrics["kernels.gwr_local_solves"][0] > 0
    assert metrics["spillover.pairs"][0] > 0
