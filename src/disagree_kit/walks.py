"""Vectorized neighbor sampling for random walks on a WeightedGraph.

Transitions follow a_uv / d_u. Unweighted rows use direct uniform
indexing into the CSR neighbor arrays; weighted rows use per-node alias
tables built once, so every step is O(1) per walker.

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
            self.alias_prob, self.alias_slot = self._build_alias(g)

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

    @property
    def draws_per_step(self) -> int:
        """Uniforms one walker consumes per step: a neighbor pick, plus
        the alias accept test on weighted rows."""
        return 1 if self.uniform else 2

    def advance(self, pos: np.ndarray, pick: np.ndarray,
                accept: np.ndarray | None = None) -> np.ndarray:
        """Advance every walker in ``pos`` by one step, walker i using the
        uniforms ``pick[i]`` and (weighted rows only) ``accept[i]``."""
        base = self.indptr[pos]
        k = (pick * self.counts[pos]).astype(np.int64)
        if not self.uniform:
            slot = base + k
            k = np.where(accept < self.alias_prob[slot], k,
                         self.alias_slot[slot])
        return self.indices[base + k]

    def step(self, pos: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance every walker in ``pos`` by one step."""
        pick = rng.random(len(pos))
        accept = None if self.uniform else rng.random(len(pos))
        return self.advance(pos, pick, accept)

    def walk(self, pos: np.ndarray, steps: int,
             rng: np.random.Generator) -> np.ndarray:
        for _ in range(steps):
            pos = self.step(pos, rng)
        return pos
