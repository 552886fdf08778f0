import numpy as np
import pytest
from scipy import stats

import disagree_kit as dk
from disagree_kit import walks
from disagree_kit.rng import TAG_WALKS, derive_rng
from disagree_kit.walks import NeighborSampler, WeightedIndex
from helpers import random_connected_graph

_RNG = np.random.default_rng(11)
# one heavy entry then many tiny ones: the tiny ones share the last bucket,
# so draws there outrun the forward steps and finish by binary search
_SKEWED = np.concatenate([[1e6], np.full(1000, 1e-6)])


@pytest.mark.parametrize("p", [
    np.ones(37), np.ones(1), _RNG.uniform(0.5, 2.0, 2308),
    _RNG.pareto(1.1, 5000) + 1e-3, np.array([0.0, 3.0, 0.0, 1.0, 0.0]),
    _SKEWED], ids=["unweighted", "single", "weighted", "pareto",
                   "zeros", "skewed"])
@pytest.mark.parametrize("steps", [0, 1, walks.GUIDE_STEPS])
def test_the_guide_table_finds_searchsorted_right(monkeypatch, p, steps):
    monkeypatch.setattr(walks, "GUIDE_STEPS", steps)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], cdf[:-1], np.nextafter(cdf[:-1], 0.0),
        1.0 - np.geomspace(1e-16, 1e-8, 50),
        np.random.default_rng(0).random(20_000)])
    u = u[u < 1.0]  # a cdf entry before the last may already be 1
    got = WeightedIndex(p).draw(u)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("p", [np.ones(40), _RNG.pareto(1.1, 3000) + 1e-3])
def test_a_draw_from_the_stream_equals_generator_choice(p):
    p = p / p.sum()
    expected = np.random.default_rng(5).choice(len(p), size=10_000, p=p)
    got = WeightedIndex(p).draw(np.random.default_rng(5).random(10_000))
    assert np.array_equal(got, expected)


def _weighted_star(leaves, seed):
    """A hub with ``leaves`` leaves of skewed weights: one heavy edge, the
    rest spread over two decades."""
    w = np.random.default_rng(seed).uniform(0.1, 10.0, leaves)
    w[leaves // 3] = 300.0
    return dk.WeightedGraph.from_edges(
        leaves + 1, [(0, i + 1, float(w[i])) for i in range(leaves)])


@pytest.mark.parametrize("graph", [
    random_connected_graph(25, 0.3, seed=3, weighted=True),
    _weighted_star(1500, seed=0)], ids=["weighted", "star"])
def test_alias_tables_give_every_row_its_transition_probabilities(graph):
    # slot s of a row of k slots is picked with probability 1/k, and keeps
    # its neighbor with probability alias_prob[s], else moves to alias_to[s]
    engine = NeighborSampler(graph)
    assert not engine.uniform
    for u in range(graph.n):
        lo, hi = graph.indptr[u], graph.indptr[u + 1]
        k = hi - lo
        mass = np.zeros(graph.n)
        np.add.at(mass, graph.indices[lo:hi], engine.alias_prob[lo:hi] / k)
        np.add.at(mass, engine.alias_to[lo:hi],
                  (1.0 - engine.alias_prob[lo:hi]) / k)
        expected = np.zeros(graph.n)
        expected[graph.indices[lo:hi]] = graph.weights[lo:hi] / graph.degrees[u]
        np.testing.assert_allclose(mass, expected, rtol=1e-12, atol=1e-15)


def test_a_weighted_step_takes_one_uniform_per_walker():
    g = random_connected_graph(20, 0.3, seed=3, weighted=True)
    engine = NeighborSampler(g)
    pos = np.repeat(np.arange(g.n), 50)
    rng, fresh = derive_rng(4, TAG_WALKS, 0), derive_rng(4, TAG_WALKS, 0)
    moved = engine.step(pos, rng)
    u = fresh.random(len(pos))
    # the step read exactly len(pos) uniforms off its stream
    assert np.array_equal(rng.random(9), fresh.random(9))
    # walker i picks slot floor(x) of its row, x = u_i * deg, and keeps it
    # where the fraction of x lies below the slot's alias probability
    x = u * np.diff(g.indptr)[pos]
    slot = g.indptr[pos] + np.floor(x).astype(np.int64)
    keep = x - np.floor(x) < engine.alias_prob[slot]
    assert keep.any() and not keep.all()
    assert np.array_equal(moved, np.where(keep, g.indices[slot],
                                          engine.alias_to[slot]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_steps_from_a_skewed_hub_follow_its_weights(seed):
    # 1500 slots (not a power of two) leave the fraction of x with 42 bits
    g = _weighted_star(1500, seed=7)
    walkers = 1 << 21
    moved = NeighborSampler(g).step(np.zeros(walkers, dtype=np.int64),
                                    derive_rng(seed, TAG_WALKS, 1))
    hub = slice(g.indptr[0], g.indptr[1])
    counts = np.bincount(moved, minlength=g.n)[g.indices[hub]]
    expected = walkers * g.weights[hub] / g.degrees[0]
    assert expected.min() >= 5.0  # the chi-square approximation holds
    assert stats.chisquare(counts, expected).pvalue > 1e-3
