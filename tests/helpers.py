"""Shared test utilities: random instances and independent brute-force oracles.

The oracles here deliberately avoid the library's spectral code paths:
hitting times come from linear solves, return probabilities from matrix
powers, components from set expansion, bipartiteness from odd closed
walks. The two simulator oracles are the plain loops the batched
simulators must reproduce bit for bit: one target, one step at a time.
The M oracle assembles M = I - S^2 + psi psi^T as whole arrays, the
per-entry arithmetic the packed builder must reproduce bit for bit,
and packs it with LAPACK's own ``dtrttf``; the diag(M^-1) oracle
inverts that M whole. The CG oracle is the block loop that runs its
stop test on every iteration, whose iterates the solver must reproduce
bit for bit. The selected-inversion oracle finds each G_ab by a search
of sorted pair keys, where the library reads it by edge id; both must
give the same bits. The sparsifier oracle sums each sampled pair's
weights with ``np.unique(return_inverse=True)`` and ``np.add.at``, where
the library reads them off the pair counts; both must give the same bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpftrf, dpftri, dtfttr, dtrttf

from disagree_kit import (ConvergenceError, SparsifiedLaplacian,
                          WeightedGraph, validate)
from disagree_kit import dynamics
from disagree_kit.graph import component_roots
from disagree_kit.rng import TAG_NOISE, TAG_SPARSIFY, TAG_WALKS, derive_rng
from disagree_kit.sampler import estimate_gap_bound
from disagree_kit.spectral import normalized_adjacency
from disagree_kit.walks import NeighborSampler, WeightedIndex


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


def m_matrix_oracle(g) -> np.ndarray:
    """M = I - S^2 + psi psi^T assembled whole: the dense S^2 negated, 1
    added on its diagonal, then the whole outer product."""
    s_mat = normalized_adjacency(g)
    m_mat = -(s_mat @ s_mat).toarray()
    m_mat[np.diag_indices(g.n)] += 1.0
    psi = np.sqrt(g.stationary())
    m_mat += np.outer(psi, psi)
    return m_mat


def m_inverse_diagonal_oracle(g) -> np.ndarray:
    """diag(M^-1) with M assembled whole, packed by ``dtrttf``, factored
    by ``dpftrf``, inverted whole by ``dpftri`` (``spectral`` inverts only
    the factor and sums its squared columns), and unpacked by
    ``dtfttr``."""
    packed, info = dtrttf(m_matrix_oracle(g), transr="N", uplo="L")
    assert info == 0
    chol, info = dpftrf(g.n, packed, transr="N", uplo="L")
    assert info == 0
    inv, info = dpftri(g.n, chol, transr="N", uplo="L")
    assert info == 0
    inv, info = dtfttr(g.n, inv, transr="N", uplo="L")
    assert info == 0
    return np.diag(inv).copy()


def cg_block_oracle(mat, inv_diag, lam_min, kappa, max_iters, b, scale):
    """``sparsify._cg_block`` with its stop test run on every iteration."""
    k = b.shape[1]
    x = np.zeros_like(b)
    lx = np.zeros_like(b)
    r = b.copy()
    z = inv_diag[:, None] * r
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    done = scale == 0.0
    thresh_sq = np.full(k, np.inf)
    it = 0
    while not done.all():
        if it >= max_iters:
            worst = float(np.max(np.linalg.norm(r[:, ~done], axis=0)))
            raise ConvergenceError(
                f"projected CG hit the {max_iters}-iteration cap",
                residual=worst)
        q = mat @ p
        pq = np.einsum("ij,ij->j", p, q)
        alpha = np.where(done | (pq <= 0.0), 0.0, rz / np.where(pq == 0, 1, pq))
        np.multiply(alpha, p, out=z)
        x += z
        np.multiply(alpha, q, out=z)
        lx += z
        r -= z
        r -= r.mean(axis=0, keepdims=True)
        lower = 2.0 * np.einsum("ij,ij->j", b, x) - np.einsum(
            "ij,ij->j", x, lx)
        np.maximum(lower, 0.0, out=lower)
        thresh_sq = kappa * kappa * lam_min * lower
        res_sq = np.einsum("ij,ij->j", r, r)
        done = done | (res_sq <= thresh_sq)
        np.multiply(inv_diag[:, None], r, out=z)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.where(rz == 0.0, 0.0, rz_new / np.where(rz == 0, 1, rz))
        p *= beta
        p += z
        rz = rz_new
        it += 1
    x -= x.mean(axis=0, keepdims=True)
    return x, it


def inverse_diagonal_oracle(elim) -> np.ndarray:
    """diag(G) of a complete ``Elimination`` by selected inversion, with
    every stored pair G_ij, i <= j, kept under the key i n + j and found by
    a binary search of the sorted keys; the arithmetic and its order are
    those of ``Elimination.inverse_diagonal``."""
    rest = elim.rest
    n = len(rest) + sum(len(r.sel) for r in elim.rounds)
    top_i, top_j = np.triu_indices(len(rest))
    ends = [(rest[top_i], rest[top_j])]
    for r in elim.rounds:
        v = r.sel[r.rows()]
        ends += [(np.minimum(v, r.nbr), np.maximum(v, r.nbr)), (r.sel, r.sel)]
    keys = np.concatenate([i * n + j for i, j in ends])
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def entry(i, j):
        return order[np.searchsorted(sorted_keys, i * n + j)]

    bounds = np.cumsum([0] + [len(i) for i, _ in ends])
    values = np.empty(len(keys))
    values[:bounds[1]] = elim.rest_pinv[top_i, top_j]
    for t in range(len(elim.rounds) - 1, -1, -1):
        r = elim.rounds[t]
        ptr, w = r.ptr, r.wt
        per = np.diff(ptr)
        row = np.repeat(np.arange(len(r.sel)), per)
        reps = per[row]
        e = np.repeat(np.arange(len(w)), reps)
        f = (ptr[row[e]] + np.arange(len(e))
             - np.repeat(np.cumsum(reps) - reps, reps))
        a, b = r.nbr[e], r.nbr[f]
        g_ab = values[entry(np.minimum(a, b), np.maximum(a, b))]
        g_vb = np.bincount(f, weights=w[e] * g_ab,
                           minlength=len(w)) * r.inv_d[row]
        g_vv = r.inv_d * (1.0 + np.bincount(row, weights=w * g_vb,
                                            minlength=len(r.sel)))
        edges, diag, end = bounds[1 + 2 * t:4 + 2 * t]
        values[edges:diag] = g_vb
        values[diag:end] = g_vv
    return values[entry(np.arange(n), np.arange(n))]


def sparsify_add_at_oracle(g, epsilon, seed=0, *, oversample=1.0,
                           max_retries=3):
    """``sparsify_two_step`` with each pair's weight accumulated by
    ``np.add.at`` over the ``np.unique`` inverse, as it was built before the
    pair counts were used; same draws, same retries."""
    engine = NeighborSampler(g)
    s = max(1, int(math.ceil(
        oversample * g.m * epsilon ** (-2) * math.log2(max(g.n, 2)))))
    edge_draw = WeightedIndex(g.weights / g.d_sum)
    row_of_slot = np.repeat(np.arange(g.n), np.diff(g.indptr))
    for attempt in range(max_retries + 1):
        rng = derive_rng(seed, TAG_SPARSIFY, attempt)
        slots = edge_draw.draw(rng.random(s))
        u = row_of_slot[slots]
        w = engine.step(g.indices[slots], rng)
        keep = u != w
        lo = np.minimum(u[keep], w[keep])
        hi = np.maximum(u[keep], w[keep])
        uniq, inv = np.unique(lo * g.n + hi, return_inverse=True)
        acc = np.zeros(len(uniq))
        np.add.at(acc, inv, g.d_sum / (2.0 * s))
        eu = (uniq // g.n).astype(np.int64)
        ev = (uniq % g.n).astype(np.int64)
        if len(uniq) and not component_roots(g.n, eu, ev).any():
            return SparsifiedLaplacian(g.n, eu, ev, acc, sample_count=s)
        s *= 2
    raise ConvergenceError(
        f"sparsifier stayed disconnected after {max_retries} retries")


def ring_with_chords(n, chords, seed):
    """The n-cycle plus ``chords`` uniformly random chords: an expander,
    whose elimination fills in."""
    rng = np.random.default_rng(seed)
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(pairs) < n + chords:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((a, b))
    return WeightedGraph.from_edges(n, [(a, b, 1.0) for a, b in sorted(pairs)])


def triangle():
    return WeightedGraph.from_edges(
        3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def path_graph(n):
    return WeightedGraph.from_edges(
        n, [(i, i + 1, 1.0) for i in range(n - 1)])


def star_graph(leaves):
    return WeightedGraph.from_edges(
        leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


def mc_loop_oracle(g, config):
    """Hitting-time baseline walked one target at a time through
    ``NeighborSampler.walk``: (value, per-target mean moves, truncation
    rates, sample variances of the moves)."""
    pi = g.stationary()
    engine = NeighborSampler(g)
    walks = config.walks_per_target
    mean_hits = np.zeros(g.n)
    trunc_rates = np.zeros(g.n)
    var_hits = np.full(g.n, np.nan)
    for target in range(g.n):
        rng = derive_rng(config.seed, TAG_WALKS, target)
        pos = rng.choice(g.n, size=walks, p=pi)
        steps = np.zeros(walks, dtype=np.int64)
        alive = pos != target
        for move in range(1, config.truncation_cap + 1):
            if not alive.any():
                break
            idx = np.flatnonzero(alive)
            moved = engine.walk(pos[idx], 2, rng)  # one two-step move
            pos[idx] = moved
            hit = moved == target
            steps[idx[hit]] = move
            alive[idx[hit]] = False
        steps[alive] = config.truncation_cap
        trunc_rates[target] = alive.mean()
        mean_hits[target] = steps.mean()
        if walks > 1:
            var_hits[target] = steps.var(ddof=1)
    return (float(np.sum(pi * pi * mean_hits)), mean_hits, trunc_rates,
            var_hits)


def simulate_loop_oracle(g, config):
    """Noisy recursion drawn and reduced one step at a time:
    (value, batch-means stderr, burn-in used)."""
    burn = config.burn_in
    if burn is None:
        lam = estimate_gap_bound(g, iters=100, seed=config.seed)
        burn = 10 * int(math.ceil(1.0 / (1.0 - lam)))
    pi = g.stationary()
    p_mat = g.adjacency_csr().multiply(1.0 / g.degrees[:, None]).tocsr()
    if dynamics._steps_dense(p_mat):
        p_mat = p_mat.toarray()
    rng = derive_rng(config.seed, TAG_NOISE)
    x = np.zeros(g.n)
    total = 0.0
    batch_len = max(1, config.horizon // 32)
    batch_sums = []
    acc = 0.0
    for t in range(burn + config.horizon):
        if config.noise == "gaussian":
            noise = rng.standard_normal(g.n)
        else:
            noise = rng.integers(0, 2, size=g.n) * 2.0 - 1.0
        x = p_mat @ x + noise
        if t >= burn:
            dev = x - pi @ x
            val = float(pi @ (dev * dev))
            total += val
            acc += val
            if (t - burn + 1) % batch_len == 0:
                batch_sums.append(acc / batch_len)
                acc = 0.0
    stderr = (float(np.std(batch_sums, ddof=1) / math.sqrt(len(batch_sums)))
              if len(batch_sums) > 1 else float("nan"))
    return total / config.horizon, stderr, burn
