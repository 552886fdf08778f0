"""Tests of the benchmark's own code: the output checks reject perturbed
values, the dense oracle matches the package, and the tracer's patching,
locking and self-time arithmetic are right.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's default test run.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import disagree_kit as dk  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Tracer, covered_length, self_times  # noqa: E402
from workloads import (Op, SmallSweep, Workload, subseed,  # noqa: E402
                       weighted_random_graph)

N_WEIGHTED = SmallSweep.weighted_nodes


def bump(x: float, rel: float) -> float:
    return x * (1.0 + rel)


# -- checks ---------------------------------------------------------------

def test_exact_check_limits():
    assert checks.check_exact(bump(2.0, 5e-9), bump(9.0, -5e-9), 2.0,
                              9.0) is None
    assert checks.check_exact(bump(2.0, 2e-8), 9.0, 2.0, 9.0) is not None
    assert checks.check_exact(2.0, bump(9.0, -2e-8), 2.0, 9.0) is not None


def test_sandwich_check_limits():
    eps = 0.35
    lo, hi = (1 - eps) ** 3, (1 + eps) ** 3
    assert checks.check_sandwich(lo * 1.001, 1.0, eps) is None
    assert checks.check_sandwich(hi * 0.999, 1.0, eps) is None
    assert checks.check_sandwich(lo * 0.999, 1.0, eps) is not None
    assert checks.check_sandwich(hi * 1.001, 1.0, eps) is not None


def _sweep_rows(exact: dict[str, float]) -> list[dict]:
    rows = []
    for graph, ref in exact.items():
        rows.append({"graph": graph, "method": "exact", "trial": 0,
                     "value": ref})
        for method, budget in checks.SWEEP_BUDGET.items():
            for trial in range(2):
                sign = 1 if trial == 0 else -1
                rows.append({"graph": graph, "method": method,
                             "trial": trial,
                             "value": bump(ref, sign * 0.99 * budget)})
    return rows


def test_sweep_check_accepts_rows_inside_budget():
    exact = {"zachary": 1.2879, "weighted": 2.5}
    rows = _sweep_rows(exact)
    assert checks.check_sweep(0, rows, 18, exact) is None


@pytest.mark.parametrize("index", range(18))
def test_sweep_check_rejects_any_row_over_budget(index):
    exact = {"zachary": 1.2879, "weighted": 2.5}
    rows = _sweep_rows(exact)
    row = rows[index]
    limit = (checks.EXACT_REL_TOL if row["method"] == "exact"
             else checks.SWEEP_BUDGET[row["method"]])
    row["value"] = bump(exact[row["graph"]], 1.02 * limit)
    assert checks.check_sweep(0, rows, 18, exact) is not None


def test_sweep_check_rejects_bad_exit_or_row_count():
    exact = {"zachary": 1.2879, "weighted": 2.5}
    rows = _sweep_rows(exact)
    assert checks.check_sweep(1, rows, 18, exact) is not None
    assert checks.check_sweep(0, rows[:-1], 18, exact) is not None
    assert checks.check_sweep(0, None, 18, exact) is not None


# -- dense oracle and generated inputs --------------------------------------

@pytest.mark.parametrize("weighted_seed", [None, 3, 4])
def test_dense_reference_matches_eigendecomposition(weighted_seed):
    if weighted_seed is None:
        g = dk.load_bundled("zachary")
    else:
        edges = weighted_random_graph(N_WEIGHTED, subseed(weighted_seed, 1))
        g = dk.WeightedGraph.from_edges(N_WEIGHTED, edges)
    summary = dk.decompose(g)
    delta, kemeny = checks.dense_reference(g)
    assert delta == pytest.approx(dk.exact_disagreement(g, summary).delta,
                                  rel=1e-10)
    assert kemeny == pytest.approx(dk.exact_kemeny_two_step(summary),
                                   rel=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_weighted_input_is_connected_and_not_bipartite(seed):
    edges = weighted_random_graph(N_WEIGHTED, subseed(seed, 1))
    check = dk.validate(dk.WeightedGraph.from_edges(N_WEIGHTED, edges))
    assert check.connected and not check.bipartite
    assert edges == weighted_random_graph(N_WEIGHTED, subseed(seed, 1))


# -- tracer ---------------------------------------------------------------

def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert covered_length([(1.0, 5.0), (2.0, 3.0)]) == 4.0


def test_self_time_subtracts_union_of_children_and_leaf_time():
    spans = [Span(1, "p", 0.0, 10.0, None, 1),
             Span(2, "a", 1.0, 3.0, 1, 2),    # overlaps b: another thread
             Span(3, "b", 2.0, 5.0, 1, 3),
             Span(4, "c", 6.0, 7.0, 1, 1),
             Span(5, "d", 6.25, 6.75, 4, 1)]
    selfs = self_times(spans, {1: 1.0, 4: 0.25})
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 1.0) - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0 - 0.5 - 0.25)
    assert selfs[5] == pytest.approx(0.5)
    # covered time beyond the span clamps to zero
    assert self_times([Span(1, "p", 0.0, 1.0, None, 1)], {1: 2.0})[1] == 0.0


def test_instrument_wraps_every_binding_and_restores_them():
    originals = {name: getattr(dk, name) for name in
                 ("validate", "sample_disagreement", "derive_params")}
    step = dk.walks.NeighborSampler.step
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        assert dk.validate is not originals["validate"]
        assert dk.sampler.validate is dk.validate is dk.sparsify.validate
        g = dk.load_bundled("zachary")
        params = dk.derive_params(g.n, 0.25, 0.9, ell=5, walks_per_length=7,
                                  node_budget=4, reuse_walks=True)
        dk.sample_disagreement(g, params)
        metrics = layers.layer_metrics(tracer, 2, 0)
    finally:
        tracer.uninstall()
    assert metrics["graph.validate_calls"] == 1
    assert metrics["graph.load_s"] > 0
    assert metrics["graph.load_edges_per_s"] == pytest.approx(
        g.m / metrics["graph.load_s"])
    assert metrics["sampler.return_probs_calls"] == 4
    assert metrics["walks.step_calls"] == 4 * 2 * (5 - 1)
    assert metrics["walks.walker_steps"] == 7 * 4 * 2 * (5 - 1)
    assert metrics["walks.engine_builds"] == 1
    assert metrics["rng.streams_derived"] == 1 + 4
    assert set(metrics) | {"trace.overhead_s"} == set(layers.PER_LAYER_UNITS)
    for name, fn in originals.items():
        assert getattr(dk, name) is fn
    assert dk.sampler.validate is originals["validate"]
    assert dk.walks.NeighborSampler.step is step
    assert not tracer._patches


def test_cached_property_wrapper_still_caches():
    g = dk.load_bundled("zachary")
    lap = dk.sparsify_two_step(g, 0.5, seed=1)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        first = lap.lambda_min_positive
        assert lap.lambda_min_positive == first
    finally:
        tracer.uninstall()
    assert tracer.counters["sparsify.lambda_min_positive.calls"] == 1
    assert isinstance(type(lap).__dict__["lambda_min_positive"],
                      type(dk.SparsifiedLaplacian.__dict__[
                          "lambda_min_positive"]))


def test_tracer_counts_exactly_under_thread_contention():
    tracer = Tracer()
    leaf = tracer.wrap("t.leaf", lambda x: x, leaf=True,
                       items=lambda args: len(args[0]))
    span = tracer.wrap("t.span", lambda: leaf([1, 2, 3]))
    calls, threads = 2_000, 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker():
            for _ in range(calls):
                span()
        pool = [threading.Thread(target=worker) for _ in range(threads)]

        def run_all():
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        tracer.run_span("root", tracer.run_span, "dispatch", run_all,
                        root=True)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in pool)
    total = calls * threads
    assert tracer.counters["t.span.calls"] == total
    assert tracer.counters["t.leaf.calls"] == total
    assert tracer.counters["t.leaf.items"] == 3 * total
    # pool threads attach to the innermost open span of the root's thread
    dispatch = next(s for s in tracer.spans if s.name == "dispatch")
    children = [s for s in tracer.spans if s.name == "t.span"]
    assert len(children) == total
    assert all(s.parent == dispatch.id for s in children)
    assert sum(tracer.leaf_time[s.id] for s in children) == pytest.approx(
        tracer.counters["t.leaf.time"])


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS


def test_check_all_sets_failures_and_per_pass_maxima():
    class Fake(Workload):
        def check(self, op):
            if op.out == "malformed":
                raise KeyError("result")
            return (None if op.out < 1 else "too big"), {"err": op.out}

    passes = [[Op("a", 1.0, 0.5), Op("b", 1.0, 0.25)],
              [Op("a", 1.0, 2.0), Op("b", 1.0, "malformed"),
               Op("c", 1.0, failure="ValueError: raised")]]
    seen = Fake(HERE, 0).check_all(passes)
    assert seen == [{"err": 0.5}, {"err": 2.0}]
    assert [op.failure for op in passes[0]] == [None, None]
    failures = [op.failure for op in passes[1]]
    assert failures[0] == "too big"
    assert failures[1].startswith("check raised KeyError")
    assert failures[2] == "ValueError: raised"
    assert all(op.out is None for ops in passes for op in ops)
