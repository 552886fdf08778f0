"""Vectorized neighbor sampling for random walks on a WeightedGraph.

Transitions follow a_uv / d_u. Every step takes one uniform u per
walker: with x = u * k, k the count of v's neighbors, the walker at v
picks its row's slot floor(x). Unweighted rows move to that slot's
neighbor; weighted rows use per-node alias tables built once (Walker,
ACM TOMS 1977) and keep the slot's neighbor where the fraction of x lies
below the slot's alias probability, else move to its alias. Every step
is O(1) per walker.

``NeighborSampler.advance`` moves walkers from uniforms the caller
supplies; ``step`` draws them from one generator. A caller that walks
many RNG streams at once, like the batched hitting walks of
``dynamics.simulate_mc_disagreement``, reads each stream's uniforms in
the order ``step`` would draw them and calls ``advance`` once for all
streams, so seeded results do not depend on the batching (see
``dynamics.MC_CHUNK_WALKERS`` for its memory bound). The sampler's
return-probability walks still call ``step`` node by node, because
``test_instrument_wraps_every_binding_and_restores_them`` in
``bench/selftest.py`` pins that path's call counts (4
``estimate_return_probabilities`` calls, 32 ``step`` calls); batching it
waits for a change to the benchmark.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .graph import WeightedGraph


class NeighborSampler:
    def __init__(self, g: WeightedGraph):
        if g.n > 1 and (g.degrees <= 0).any():
            raise DomainError("random walks need d_i > 0 for every node")
        self.indptr = g.indptr
        self.indices = g.indices
        self.counts = np.diff(g.indptr)
        self.uniform = self._rows_uniform(g)
        if not self.uniform:
            self.alias_prob, slot = self._build_alias(g)
            self.alias_to = self.indices[slot + np.repeat(g.indptr[:-1],
                                                          self.counts)]

    @staticmethod
    def _rows_uniform(g: WeightedGraph) -> bool:
        # Uniform indexing is exact iff all weights within a row agree.
        if len(g.weights) == 0 or np.all(g.weights == g.weights[0]):
            return True
        first_of_row = np.repeat(g.weights[g.indptr[:-1].clip(max=max(
            len(g.weights) - 1, 0))], np.diff(g.indptr))
        return bool(np.all(g.weights == first_of_row))

    @staticmethod
    def _build_alias(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
        nnz = len(g.indices)
        prob = np.ones(nnz)
        slot = np.arange(nnz, dtype=np.int64) - np.repeat(
            g.indptr[:-1], np.diff(g.indptr))
        for u in range(g.n):
            lo, hi = g.indptr[u], g.indptr[u + 1]
            k = hi - lo
            if k <= 1:
                continue
            scaled = g.weights[lo:hi] * (k / g.degrees[u])
            small = [i for i in range(k) if scaled[i] < 1.0]
            large = [i for i in range(k) if scaled[i] >= 1.0]
            p = scaled.copy()
            while small and large:
                s = small.pop()
                l = large.pop()
                prob[lo + s] = p[s]
                slot[lo + s] = l
                p[l] -= 1.0 - p[s]
                (small if p[l] < 1.0 else large).append(l)
            for i in small + large:
                prob[lo + i] = 1.0
                slot[lo + i] = i
        return prob, slot

    def advance(self, pos: np.ndarray, pick: np.ndarray) -> np.ndarray:
        """Advance every walker in ``pos`` by one step, walker i using the
        uniform ``pick[i]``."""
        x = pick * self.counts[pos]
        k = x.astype(np.int64)
        slot = self.indptr[pos] + k
        if self.uniform:
            return self.indices[slot]
        return np.where(x - k < self.alias_prob[slot], self.indices[slot],
                        self.alias_to[slot])

    def step(self, pos: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance every walker in ``pos`` by one step."""
        return self.advance(pos, rng.random(len(pos)))

    def walk(self, pos: np.ndarray, steps: int,
             rng: np.random.Generator) -> np.ndarray:
        for _ in range(steps):
            pos = self.step(pos, rng)
        return pos


#: forward steps a ``WeightedIndex`` draw takes before a binary search
GUIDE_STEPS = 4


class WeightedIndex:
    """``draw(u)`` is ``np.searchsorted(cdf, u, side="right")`` for the cdf
    of ``p`` over its last entry: the indices ``Generator.choice(len(p),
    size, p=p)`` makes of ``rng.random(size)``. A guide table (Chen & Asau,
    AIIE Trans. 1974) of K = 2^b >= len(p) buckets starts a draw at the
    answer for floor(u K) / K (exact, and at most its own) and steps on
    while cdf <= u; draws left after ``GUIDE_STEPS`` take ``searchsorted``."""

    def __init__(self, p: np.ndarray) -> None:
        self.cdf = np.asarray(p, dtype=np.float64).cumsum()
        self.cdf /= self.cdf[-1]
        buckets = 1 << (len(self.cdf) - 1).bit_length()
        self.guide = np.searchsorted(self.cdf, np.arange(buckets) / buckets,
                                     side="right")

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The index of each uniform in ``u``, which lie in [0, 1)."""
        idx = self.guide[(u * len(self.guide)).astype(np.int64)]
        todo = np.flatnonzero(self.cdf[idx] <= u)
        for _ in range(GUIDE_STEPS):
            idx[todo] += 1
            todo = todo[self.cdf[idx[todo]] <= u[todo]]
        idx[todo] = np.searchsorted(self.cdf, u[todo], side="right")
        return idx
