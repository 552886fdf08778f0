import numpy as np
import pytest

from disagree_kit import walks
from disagree_kit.walks import WeightedIndex

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
