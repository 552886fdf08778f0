"""Shared test utilities: random instances and independent brute-force oracles.

The oracles here deliberately avoid the library's spectral code paths:
hitting times come from linear solves, return probabilities from matrix
powers, components from set expansion, bipartiteness from odd closed
walks.
"""

from __future__ import annotations

import numpy as np

from disagree_kit import WeightedGraph, validate


def random_connected_graph(n, p, seed, weighted=False):
    """Erdos-Renyi-style test instance, resampled until it is connected
    and non-bipartite."""
    r = np.random.default_rng(seed)
    while True:
        iu, ju = np.triu_indices(n, k=1)
        mask = r.random(len(iu)) < p
        edges = [
            (int(a), int(b), float(r.uniform(0.5, 2.0)) if weighted else 1.0)
            for a, b in zip(iu[mask], ju[mask])
        ]
        if edges:
            g = WeightedGraph.from_edges(n, edges)
            v = validate(g)
            if v.connected and not v.bipartite:
                return g


def transition_matrix(g) -> np.ndarray:
    return g.adjacency_dense() / g.degrees[:, None]


def hitting_times_to(p_mat: np.ndarray, target: int) -> np.ndarray:
    """Mean hitting times to ``target`` for the chain ``p_mat``, by solving
    the absorbing linear system; entry at the target is 0."""
    n = p_mat.shape[0]
    a = np.eye(n) - p_mat
    a[target, :] = 0.0
    a[target, target] = 1.0
    b = np.ones(n)
    b[target] = 0.0
    return np.linalg.solve(a, b)


def partial_mean_hitting_oracle(g, target: int, *, two_step=False) -> float:
    """Stationary-weighted mean hitting time by brute force."""
    p_mat = transition_matrix(g)
    if two_step:
        p_mat = p_mat @ p_mat
    h = hitting_times_to(p_mat, target)
    return float(g.stationary() @ h)


def return_probability_oracle(g, node: int, j: int) -> float:
    """P^{2j}_{ii} by explicit matrix powers."""
    p_mat = transition_matrix(g)
    return float(np.linalg.matrix_power(p_mat, 2 * j)[node, node])


def components_oracle(g) -> list[set[int]]:
    """Connected components by naive set expansion."""
    remaining = set(range(g.n))
    comps = []
    while remaining:
        seed_node = min(remaining)
        comp = {seed_node}
        frontier = {seed_node}
        while frontier:
            nxt = set()
            for u in frontier:
                nbrs, _ = g.neighbors(u)
                nxt |= set(int(v) for v in nbrs)
            frontier = nxt - comp
            comp |= nxt
        comps.append(comp)
        remaining -= comp
    return comps


def bipartite_oracle(g) -> bool:
    """True iff no node reaches itself by an odd-length walk, read off
    boolean powers A, A^3, ..., A^n (a shortest odd closed walk is an odd
    cycle, so it has at most n steps)."""
    a = (g.adjacency_dense() > 0).astype(np.int64)
    a2 = np.minimum(a @ a, 1)
    power = a
    for _ in range(1, g.n + 1, 2):
        if np.diag(power).any():
            return False
        power = np.minimum(power @ a2, 1)
    return True


def triangle():
    return WeightedGraph.from_edges(
        3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def path_graph(n):
    return WeightedGraph.from_edges(
        n, [(i, i + 1, 1.0) for i in range(n - 1)])


def star_graph(leaves):
    return WeightedGraph.from_edges(
        leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])
