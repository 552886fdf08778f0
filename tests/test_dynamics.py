import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import disagree_kit as dk
from disagree_kit import dynamics
from helpers import (mc_loop_oracle, path_graph, random_connected_graph,
                     simulate_loop_oracle, triangle)


def test_simulate_triangle_matches_exact():
    cfg = dk.MCConfig(burn_in=1_000, horizon=100_000, seed=3)
    est = dk.simulate_noisy_degroot(triangle(), cfg)
    assert est.value == pytest.approx(8.0 / 9.0, abs=0.05)
    assert est.diagnostics["stderr"] < 0.05


def test_simulate_rejects_bipartite():
    with pytest.raises(dk.DomainError):
        dk.simulate_noisy_degroot(path_graph(5), dk.MCConfig(horizon=10))


def test_simulate_auto_burn_in():
    est = dk.simulate_noisy_degroot(triangle(),
                                    dk.MCConfig(horizon=20_000, seed=0))
    assert est.diagnostics["burn_in_used"] >= 10


def test_simulate_noise_seeds_agree():
    g = random_connected_graph(12, 0.4, seed=1)
    runs = [dk.simulate_noisy_degroot(
        g, dk.MCConfig(burn_in=500, horizon=120_000, seed=s))
        for s in (0, 1)]
    se = np.hypot(runs[0].diagnostics["stderr"], runs[1].diagnostics["stderr"])
    assert abs(runs[0].value - runs[1].value) <= 3 * se


def test_simulate_rademacher_noise():
    est = dk.simulate_noisy_degroot(
        triangle(), dk.MCConfig(burn_in=1_000, horizon=100_000, seed=4,
                                noise="rademacher"))
    assert est.value == pytest.approx(8.0 / 9.0, abs=0.05)


def test_mc_triangle_matches_exact():
    cfg = dk.MCConfig(walks_per_target=10_000, truncation_cap=1_000, seed=5)
    est = dk.simulate_mc_disagreement(triangle(), cfg)
    assert est.value == pytest.approx(8.0 / 9.0, abs=0.05)
    assert est.diagnostics["max_truncation_rate"] == 0.0


def test_mc_truncation_warning():
    g = random_connected_graph(12, 0.4, seed=2)
    cfg = dk.MCConfig(walks_per_target=200, truncation_cap=1, seed=6)
    with pytest.warns(UserWarning, match="truncation"):
        est = dk.simulate_mc_disagreement(g, cfg)
    assert est.diagnostics["max_truncation_rate"] > 0.10
    assert est.diagnostics["truncated_targets"] >= 1


def test_mc_size_guard():
    g = triangle()
    with pytest.raises(dk.ResourceError):
        dk.simulate_mc_disagreement(g, dk.MCConfig(), cap=2)


def test_two_step_moves_match_explicit_two_step_sampling():
    # one move of two base steps vs. explicit neighbor sampling on the
    # materialized two-step graph, from the same start node
    g = triangle()
    gp = dk.two_step_graph(g)
    from disagree_kit.walks import NeighborSampler
    base = NeighborSampler(g)
    two = NeighborSampler(gp)
    rng1 = np.random.default_rng(0)
    rng2 = np.random.default_rng(1)
    n_moves = 20_000
    start = np.zeros(n_moves, dtype=np.int64)
    via_base = base.walk(start.copy(), 2, rng1)
    via_two = two.step(start.copy(), rng2)
    counts_base = np.bincount(via_base, minlength=3)
    counts_two = np.bincount(via_two, minlength=3)
    expected = np.array([0.5, 0.25, 0.25]) * n_moves
    for counts in (counts_base, counts_two):
        assert stats.chisquare(counts, expected).pvalue > 0.01
    table = np.stack([counts_base, counts_two])
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_json_payload():
    est = dk.simulate_mc_disagreement(
        triangle(), dk.MCConfig(walks_per_target=200, seed=1))
    payload = est.to_json()
    assert payload["method"] == "mc"
    assert "max_truncation_rate" in payload["diagnostics"]


def _assert_mc_matches_loop(g, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation warnings are expected
        est = dk.simulate_mc_disagreement(g, cfg)
    value, mean_hits, trunc_rates, _ = mc_loop_oracle(g, cfg)
    pi = g.stationary()
    assert est.value == value
    assert est.per_node == {i: float(pi[i] ** 2 * mean_hits[i])
                            for i in range(g.n)}
    assert est.diagnostics["max_truncation_rate"] == float(trunc_rates.max())
    assert est.diagnostics["truncated_targets"] == int(
        (trunc_rates > 0.10).sum())
    return est


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 12), p=st.floats(0.2, 0.8),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       walks=st.integers(1, 40), cap=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32), chunk=st.sampled_from([1, 7, 1 << 15]),
       buffer_moves=st.sampled_from([1, 2, 5]))
def test_mc_batched_walks_equal_the_per_target_loop(
        n, p, graph_seed, weighted, walks, cap, seed, chunk, buffer_moves):
    # caps of a few moves truncate walkers; small chunks and one-move
    # buffers force several batches and refills in the middle of walks
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    cfg = dk.MCConfig(walks_per_target=walks, truncation_cap=cap, seed=seed)
    with mock.patch.object(dynamics, "MC_CHUNK_WALKERS", chunk), \
            mock.patch.object(dynamics, "_BUFFER_MOVES", buffer_moves):
        _assert_mc_matches_loop(g, cfg)


class _CountingStream:
    """Generator proxy recording the size of every ``random`` draw."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def random(self, size):
        self._sizes.append(size)
        return self._rng.random(size)


@pytest.mark.parametrize("weighted", [False, True])
def test_mc_several_chunks_and_refills_match_the_loop(monkeypatch, weighted):
    g = random_connected_graph(11, 0.3, seed=4, weighted=weighted)
    cfg = dk.MCConfig(walks_per_target=30, truncation_cap=3, seed=9)
    # 4 targets per chunk: chunks of 4, 4 and 3 targets
    monkeypatch.setattr(dynamics, "MC_CHUNK_WALKERS", 4 * 30 + 29)
    # buffers hold one move, so later moves refill in the middle of walks
    monkeypatch.setattr(dynamics, "_BUFFER_MOVES", 1)
    sizes = []
    real = dynamics.derive_rng
    monkeypatch.setattr(dynamics, "derive_rng", lambda *key: _CountingStream(
        real(*key), sizes))
    est = _assert_mc_matches_loop(g, cfg)
    width = 2 * (2 if weighted else 1) * 30
    # beyond the 11 initial fills, refills that keep unread uniforms
    assert len(sizes) > 11 and any(0 < k < width for k in sizes)
    assert est.diagnostics["max_truncation_rate"] > 0.0


def test_mc_walks_longer_than_a_chunk_match_the_loop(monkeypatch):
    monkeypatch.setattr(dynamics, "MC_CHUNK_WALKERS", 16)
    g = random_connected_graph(6, 0.5, seed=1, weighted=True)
    _assert_mc_matches_loop(g, dk.MCConfig(walks_per_target=50,
                                           truncation_cap=20, seed=3))


def test_mc_stderr_is_the_per_target_variance_sum():
    g = random_connected_graph(9, 0.4, seed=5)
    cfg = dk.MCConfig(walks_per_target=60, truncation_cap=500, seed=2)
    est = _assert_mc_matches_loop(g, cfg)  # long walks: default refills
    _, _, _, var_hits = mc_loop_oracle(g, cfg)
    pi = g.stationary()
    assert est.diagnostics["stderr"] == pytest.approx(
        math.sqrt(np.sum(pi ** 4 * var_hits) / 60), rel=1e-12)
    assert est.diagnostics["max_truncation_rate"] == 0.0  # unbiased here
    exact = dk.exact_disagreement(g).delta
    assert abs(est.value - exact) < 4 * est.diagnostics["stderr"]
    one_walk = dk.simulate_mc_disagreement(
        g, dk.MCConfig(walks_per_target=1, seed=2))
    assert math.isnan(one_walk.diagnostics["stderr"])


def _assert_simulate_matches_loop(g, cfg):
    est = dk.simulate_noisy_degroot(g, cfg)
    value, stderr, burn = simulate_loop_oracle(g, cfg)
    assert est.value == value
    got = est.diagnostics["stderr"]
    assert got == stderr or (math.isnan(got) and math.isnan(stderr))
    assert est.diagnostics["burn_in_used"] == burn


@pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
@pytest.mark.parametrize("burn_in", [0, 23, None])
@pytest.mark.parametrize("weighted", [False, True])
def test_simulate_blocks_equal_the_per_step_loop(monkeypatch, noise, burn_in,
                                                 weighted):
    g = random_connected_graph(10, 0.4, seed=8, weighted=weighted)
    # blocks of 7 steps: burn-in 23 spans three blocks and ends inside the
    # fourth, and no total step count here is a multiple of 7
    monkeypatch.setattr(dynamics, "SIMULATE_BLOCK_ENTRIES", 7 * g.n + 3)
    for horizon in (1, 2, 101):
        _assert_simulate_matches_loop(g, dk.MCConfig(
            burn_in=burn_in, horizon=horizon, seed=5, noise=noise))


@pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
def test_simulate_default_blocks_equal_the_per_step_loop(noise):
    g = dk.load_bundled("zachary")  # blocks of 1927 steps
    _assert_simulate_matches_loop(g, dk.MCConfig(
        burn_in=2_000, horizon=3_001, seed=11, noise=noise))


def test_simulate_sparse_blocks_equal_the_per_step_loop():
    # past 2048 nodes the walk matrix stays sparse; an odd cycle with a
    # chord is connected and not bipartite. Blocks hold 31 steps here.
    n = 2_101
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)] + [(0, 1_000, 2.0)]
    g = dk.WeightedGraph.from_edges(n, edges)
    _assert_simulate_matches_loop(g, dk.MCConfig(burn_in=40, horizon=70,
                                                 seed=2))
