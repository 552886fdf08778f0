"""Sparsified two-step Laplacians, a Laplacian solver, and the
sketch-and-solve disagreement estimator.

The two-step Laplacian is estimated without ever forming the dense
two-step graph: two-step paths are sampled edge-first, each contributing
d_sum/(2s) to its endpoint pair, which is an unbiased Monte-Carlo
construction of D - D(D^{-1}A)^2 (self-loops cancel and are dropped).
Quadratic forms in the pseudoinverse are then read off a sketch of fair
signs, bits of one stream, whose rows a Laplacian solver recovers.

The solver has two paths. Where the sparsified Laplacian stays sparse
under elimination of low-degree vertices (the paper's planar-like
models), it is solved exactly by Gaussian elimination in rounds of
independent low-degree vertices (``SparsifiedLaplacian.elimination``);
the Schur complement of a Laplacian is again a Laplacian. Where that
elimination would fill in (hubs, expanders), or its solution fails the
energy-norm certificate, Jacobi-preconditioned block CG solves it. The
exact route (``spectral``) eliminates the one-step graph's double cover
the same way and reads its inverse diagonal off the rounds
(``Elimination.inverse_diagonal``) by the edge ids the rounds record. A
round is flat arrays: per entry its neighbour, weight and edge id, per
fill pair an edge id, 8 bytes each. On gsw n = 2048's cover the 20 rounds
hold 11,528 entries and 12,973 fill pairs, 480 KiB, 191 KiB of it ids.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DomainError
from .graph import WeightedGraph, component_roots, require_ergodic
from .graph import validate  # noqa: F401  bench/selftest.py checks this binding
from .results import DisagreementEstimate
from .rng import TAG_SKETCH, TAG_SPARSIFY, derive_rng
from .threads import worker_count
from .walks import NeighborSampler, WeightedIndex

#: size of one n x width float64 CG block: its per-iteration arrays then
#: stay in a core's L2 cache instead of streaming through memory
CG_BLOCK_BYTES = 1 << 19

#: the chance, at most, that approx's sketch is off by more than 1 +- eps
FAILURE_PROB = 0.05

#: elimination takes only vertices with at most this many neighbours; a
#: vertex's fill is at most MAX_DEGREE (MAX_DEGREE - 1) / 2 edges
MAX_DEGREE = 32

#: the elimination's tie-break hash id * TIE_HASH mod 2^64, odd: a bijection
TIE_HASH = np.uint64(0x9E3779B97F4A7C15)

#: elimination is abandoned for CG once fewer than this share of the
#: vertices left have at most MAX_DEGREE neighbours (hub-heavy graphs)
LOW_DEGREE_SHARE = 0.75


@dataclass(frozen=True)
class EliminationRound:
    """One round of ``SparsifiedLaplacian.elimination``: the independent
    set ``sel`` of vertices it eliminates and their reciprocal weighted
    degrees ``inv_d`` in the Schur complement they leave. Its entries are
    its edges, grouped by eliminated vertex, those of sel[i] at
    ptr[i]:ptr[i + 1]: ``nbr`` is each entry's neighbour (a vertex id; no
    neighbour is eliminated in the round), ``wt`` its weight and ``ids``
    its edge id; ``fill`` holds the edge ids of each group's pairs of
    entries (a, b), a before b."""

    sel: np.ndarray
    inv_d: np.ndarray
    ptr: np.ndarray
    nbr: np.ndarray
    wt: np.ndarray
    ids: np.ndarray
    fill: np.ndarray

    def rows(self) -> np.ndarray:
        """Each entry's position in ``sel``."""
        return np.repeat(np.arange(len(self.sel)), np.diff(self.ptr))


@dataclass(frozen=True)
class Elimination:
    """Gaussian elimination of a connected Laplacian in ``rounds``, with the
    last vertices ``rest`` factored densely: ``rest_pinv`` is the
    pseudoinverse of their Schur complement, ``rest_ids`` the ids of the
    edges among them (else -1). An edge keeps its id, and a fill pair takes
    its edge's or a fresh one, below ``edge_ids``. An abandoned elimination
    keeps the rounds it completed and has no ``rest``.

    The rounds are records of flat arrays, built without a sparse matrix;
    ``apply`` builds the products it needs from them.

    A complete elimination defines a generalized inverse G of L (L G L = L):
    with L = U^T diag(D_sel, L') U for the first round's unit upper
    triangular U, G = U^-1 diag(D_sel^-1, G') U^-T, recursively, and
    G' = ``rest_pinv`` on the dense block."""

    rounds: list[EliminationRound]
    rest: np.ndarray | None = None
    rest_pinv: np.ndarray | None = None
    rest_ids: np.ndarray | None = None
    edge_ids: int = 0

    @property
    def complete(self) -> bool:
        return self.rest is not None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """For a complete elimination, the mean-zero solution of
        L x = b - mean(b), column by column."""
        x = self.apply(b - b.mean(axis=0))
        x -= x.mean(axis=0)
        return x

    def apply(self, work: np.ndarray) -> np.ndarray:
        """G b for the n x k columns b of ``work``, which it overwrites:
        forward substitution (one sparse product per round, a CSC matrix
        whose rows are the round's distinct neighbours), the dense block,
        then backward substitution in reverse order (one product per round,
        a CSR matrix over all n vertices)."""
        n = len(work)
        x = np.zeros_like(work)
        mark = np.zeros(n, dtype=bool)
        col = np.empty(n, dtype=np.int64)
        for r in self.rounds:
            mark[r.nbr] = True
            nbrs = np.flatnonzero(mark)
            mark[nbrs] = False
            col[nbrs] = np.arange(len(nbrs))
            work[nbrs] += sp.csc_array(
                (r.wt, col[r.nbr], r.ptr), shape=(len(nbrs), len(r.sel))
            ) @ (work[r.sel] * r.inv_d[:, None])
        x[self.rest] = self.rest_pinv @ work[self.rest]
        for r in reversed(self.rounds):
            x[r.sel] = (work[r.sel] + sp.csr_array(
                (r.wt, r.nbr, r.ptr), shape=(len(r.sel), n)) @ x
            ) * r.inv_d[:, None]
        return x

    def inverse_diagonal(self) -> np.ndarray:
        """diag(G) of a complete elimination, by selected inversion
        (Erisman & Tinney, CACM 1975), in work proportional to the sum of
        |N(v)|^2 over the eliminated v.

        The rounds are walked backward. For v eliminated with neighbours
        N(v) and weights w_va, G_vb = (1/d_v) sum_{a in N(v)} w_va G_ab for
        each b in N(v), and G_vv = 1/d_v + (1/d_v) sum_b w_vb G_vb. The
        neighbours of v stay adjacent until one of them is eliminated, so
        each G_ab, a != b, is the G_vb of a later round or an entry of the
        dense block, stored under the id of the edge between a and b: read
        at the round's ``fill`` ids, each G_vb stored at its ``ids``."""
        n = len(self.rest) + sum(len(r.sel) for r in self.rounds)
        g_node = np.empty(n)
        g_node[self.rest] = np.diagonal(self.rest_pinv)
        g_edge = np.empty(self.edge_ids)
        on = self.rest_ids >= 0
        g_edge[self.rest_ids[on]] = self.rest_pinv[on]
        for r in reversed(self.rounds):
            ptr, w = r.ptr, r.wt
            row = r.rows()
            # every pair (e, f) of entries in one row: a, b in N(v)
            reps = np.diff(ptr)[row]
            e = np.repeat(np.arange(len(w)), reps)
            f = (ptr[row[e]] + np.arange(len(e))
                 - np.repeat(np.cumsum(reps) - reps, reps))
            g_ab = np.empty(len(e))
            g_ab[e == f] = g_node[r.nbr]
            g_ab[e < f] = g_edge[r.fill]
            # (f, e) lies (e - f)(k - 1) before (e, f) in a row's k^2 pairs
            low = np.flatnonzero(e > f)
            g_ab[low] = g_ab[low - (e[low] - f[low]) * (reps[e[low]] - 1)]
            g_vb = np.bincount(f, weights=w[e] * g_ab,
                               minlength=len(w)) * r.inv_d[row]
            g_node[r.sel] = r.inv_d * (1.0 + np.bincount(
                row, weights=w * g_vb, minlength=len(r.sel)))
            g_edge[r.ids] = g_vb
        return g_node


@dataclass
class SparsifiedLaplacian:
    """Loop-free weighted edge list of a Laplacian: approx's sampled
    two-step Laplacian, or the exact route's double cover.

    Rows of the (implicit) incidence matrix orient each edge from
    ``edge_u`` to ``edge_v``; ``sample_count`` records how many two-step
    paths built it (0 for the cover).
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    sample_count: int

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n)
        np.add.at(deg, self.edge_u, self.edge_w)
        np.add.at(deg, self.edge_v, self.edge_w)
        return deg

    @property
    def m(self) -> int:
        return len(self.edge_w)

    @property
    def w_min(self) -> float:
        return float(self.edge_w.min())

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        i = np.concatenate([self.edge_u, self.edge_v,
                            self.edge_u, self.edge_v])
        j = np.concatenate([self.edge_v, self.edge_u,
                            self.edge_u, self.edge_v])
        vals = np.concatenate([-self.edge_w, -self.edge_w,
                               self.edge_w, self.edge_w])
        return sp.csr_matrix((vals, (i, j)), shape=(self.n, self.n))

    @cached_property
    def lambda_min_positive(self) -> float:
        """A certified lower bound 2 w_min / (n ecc(0)) on the smallest
        nonzero Laplacian eigenvalue.

        Mohar (1991, "Eigenvalues, diameter, and mean distance in graphs")
        proves lambda_2 >= 4 / (n D) for a connected unweighted graph of
        diameter D. L >= w_min L(support) scales that by w_min, and one
        breadth-first search bounds D <= 2 ecc(0)."""
        indptr, indices = self.matrix.indptr, self.matrix.indices
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = np.array([0])
        ecc = -1
        while frontier.size:  # one level per pass, gathering its CSR rows
            ecc += 1
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            slots = (np.arange(counts.sum())
                     + np.repeat(starts - np.cumsum(counts) + counts, counts))
            nbrs = indices[slots]
            nbrs = nbrs[~seen[nbrs]]
            seen[nbrs] = True
            frontier = np.unique(nbrs)
        if not seen.all():
            raise DomainError("the sparsified graph is disconnected")
        return 2.0 * self.w_min / (self.n * ecc)

    @cached_property
    def elimination(self) -> Elimination:
        """Exact Gaussian elimination of L in rounds, kept only while it
        stays sparse.

        Each round eliminates the vertices with at most MAX_DEGREE
        neighbours whose key (neighbour count, id * TIE_HASH mod 2^64) is
        below that of every such neighbour: an independent set, as in
        multiple-minimum-degree ordering (George & Liu, SIAM Review 1989).
        Ties by id gave a cycle numbered in order one vertex a round; the
        hash's pseudo-random ties, as Luby's (SIAM J. Comput. 1986), take
        O(log n) rounds. Eliminating v drops its edges and adds
        w_a w_b / d_v to each pair (a, b) of its neighbours, so the graph
        left is the Laplacian of the Schur complement. Once at most
        MAX_DEGREE + 1 vertices are left they are factored as one dense
        block: their Schur complement tends to a clique, which would give
        up one vertex a round.

        The elimination is abandoned, keeping the rounds before, where
        fewer than LOW_DEGREE_SHARE of the vertices left have at most
        MAX_DEGREE neighbours, or a Schur complement left with more than
        MAX_DEGREE + 1 vertices has more edges than L: the fill of such
        graphs cannot be bounded in advance, while the dense block's is
        bounded by its order. It is also
        abandoned where the dense block's pseudoinverse does not have rank
        one less than its order: ``pinvh`` dropped a second eigenvalue as
        zero (a nearly disconnected L) or kept the kernel's."""
        n, w, u, v = self.n, self.edge_w, self.edge_u, self.edge_v
        # every key is u n + v with u < v, as np.unique leaves them below
        u, v = np.minimum(u, v), np.maximum(u, v)
        keys, eid, edge_ids = u * n + v, np.arange(self.m), self.m
        prio = np.argsort(np.argsort(np.arange(n, dtype=np.uint64) * TIE_HASH))
        rounds: list[EliminationRound] = []
        while True:
            count = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
            # a Schur complement of a connected L is connected: while two
            # vertices or more are left, each has an edge
            alive = count > 0
            left = int(np.count_nonzero(alive))
            if left <= MAX_DEGREE + 1:
                # scipy's LAPACK, as the exact route's: numpy's runs on a
                # second BLAS thread pool, whose spinning threads slowed the
                # next exact decompose on 2 cores by half
                from scipy.linalg import pinvh
                pos = np.cumsum(alive) - 1
                dense = np.zeros((left, left))
                dense[pos[u], pos[v]] = dense[pos[v], pos[u]] = -w
                dense[np.diag_indices(left)] = -dense.sum(axis=1)
                rest_pinv, rank = pinvh(dense, return_rank=True)
                if rank != left - 1:
                    # a second numerically zero eigenvalue, or the kernel's
                    # above the cutoff: rest_pinv is no generalized inverse
                    return Elimination(rounds)
                rest_ids = np.full((left, left), -1)
                rest_ids[pos[u], pos[v]] = eid
                return Elimination(rounds, np.flatnonzero(alive), rest_pinv,
                                   rest_ids, edge_ids)
            sel = alive & (count <= MAX_DEGREE)
            if np.count_nonzero(sel) < LOW_DEGREE_SHARE * left:
                return Elimination(rounds)
            key = count * n + prio
            sel[np.where(key[u] < key[v], v, u)[sel[u] & sel[v]]] = False
            # the edges at an eliminated vertex, grouped by it (all of its
            # count[v]): at most one end of an edge is eliminated
            at_u = sel[u]
            inc = at_u | sel[v]
            at = np.flatnonzero(inc)
            ev = np.where(at_u, u, v)[at]
            order = np.argsort(ev, kind="stable")
            at, ev = at[order], ev[order]
            ea, ew = (u + v)[at] - ev, w[at]
            elim = np.flatnonzero(sel)
            ptr = np.concatenate(([0], np.cumsum(count[elim])))
            inv_d = 1.0 / np.add.reduceat(ew, ptr[:-1])
            # fill: each edge pairs with the later edges of its group
            group = np.repeat(np.arange(len(elim)), np.diff(ptr))
            later = ptr[group + 1] - np.arange(len(ev)) - 1
            first = np.repeat(np.arange(len(ev)), later)
            second = first + 1 + np.arange(len(first)) - np.repeat(
                np.cumsum(later) - later, later)
            # the next round's edges: those kept, then the fill
            kept = np.flatnonzero(~inc)
            nk = len(kept)
            a, b = ea[first], ea[second]
            pairs = np.empty(nk + len(first), dtype=np.int64)
            vals = np.empty(len(pairs))
            np.take(keys, kept, out=pairs[:nk])
            np.take(w, kept, out=vals[:nk])
            np.add(np.minimum(a, b) * n, np.maximum(a, b), out=pairs[nk:])
            np.multiply(ew[first], ew[second], out=vals[nk:])
            vals[nk:] *= inv_d[group[first]]
            keys, slot = np.unique(pairs, return_inverse=True)
            w = np.bincount(slot, weights=vals)
            if len(w) > self.m and left - len(elim) > MAX_DEGREE + 1:
                return Elimination(rounds)
            u, v = np.divmod(keys, n)
            old, eid = eid, np.full(len(keys), -1)
            eid[slot[:nk]] = old[kept]
            fresh = np.flatnonzero(eid < 0)
            eid[fresh] = edge_ids + np.arange(len(fresh))
            edge_ids += len(fresh)
            rounds.append(EliminationRound(elim, inv_d, ptr, ea, ew, old[at],
                                           eid[slot[nk:]]))


def sparsify_two_step(g: WeightedGraph, epsilon: float, seed: int = 0, *,
                      oversample: float = 1.0,
                      max_retries: int = 3) -> SparsifiedLaplacian:
    """Monte-Carlo spectral approximation of the two-step Laplacian.

    Draws s = ceil(oversample * m * eps^-2 * log2 n) two-step paths: a
    directed edge (u, v) with probability a_uv/d_sum, then w from v with
    probability a_vw/d_v. Each path with u != w adds d_sum/(2s) to the
    undirected pair (u, w); u == w samples count toward s but contribute
    nothing. If the sampled support is disconnected, s doubles (up to
    ``max_retries`` times) before giving up.
    """
    if not 0.0 < epsilon <= 0.5:
        raise DomainError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    require_ergodic(g, "sparsification")
    engine = NeighborSampler(g)
    s = max(1, int(math.ceil(
        oversample * g.m * epsilon ** (-2) * math.log2(max(g.n, 2)))))
    edge_draw = WeightedIndex(g.weights / g.d_sum)  # over the CSR slots
    row_of_slot = np.repeat(np.arange(g.n), np.diff(g.indptr))
    for attempt in range(max_retries + 1):
        rng = derive_rng(seed, TAG_SPARSIFY, attempt)
        slots = edge_draw.draw(rng.random(s))  # rng.choice(..., p=p)'s
        u = row_of_slot[slots]
        v = g.indices[slots]
        w = engine.step(v, rng)
        keep = u != w
        lo = np.minimum(u[keep], w[keep])
        hi = np.maximum(u[keep], w[keep])
        uniq, counts = np.unique(lo * g.n + hi, return_counts=True)
        eu, ev = np.divmod(uniq, g.n)
        if len(uniq) and not component_roots(g.n, eu, ev).any():
            # a pair drawn c times weighs d_sum/(2s) summed c times, in order
            acc = np.cumsum(np.full(counts.max(), g.d_sum / (2.0 * s)))
            return SparsifiedLaplacian(g.n, eu, ev, acc[counts - 1], s)
        s *= 2
    raise ConvergenceError(
        f"sparsifier stayed disconnected after {max_retries} retries")


def laplacian_solve(lap: SparsifiedLaplacian, y: np.ndarray, kappa: float, *,
                    max_iters: int | None = None
                    ) -> tuple[np.ndarray, int]:
    """Approximately solve L x = y with a mean-zero solution such that
    ||x - pinv(L) y||_L <= kappa ||pinv(L) y||_L. Accepts a single vector
    or a column-stacked batch; returns (x, iterations).

    Each column must pass one certificate: ||r||^2 <= kappa^2 * lambda_min
    * (2 y.x - x.L.x) for the mean-zero residual r, the bracket being a
    lower bound on ||pinv(L) y||_L^2 and ``lambda_min_positive`` one on
    lambda_2. It is sufficient for the energy-norm contract.

    Where ``lap.elimination`` is complete, x is its exact solution, checked
    with one product L x, and the iteration count is 0. Where it was
    abandoned, or any column fails the certificate, Jacobi-preconditioned
    conjugate gradients on the mean-zero subspace solve all columns, with
    the certificate as their stopping rule; their x and iteration count do
    not depend on whether elimination was tried. A zero column always passes
    the certificate, so CG runs only on a nonzero batch and reports at
    least one iteration.

    CG lays a batch of k columns out by ``cg_blocks``. With width =
    CG_BLOCK_BYTES // (8 n), the k columns are split into w =
    min(worker_count(), max(1, k // max(2, width))) contiguous ranges,
    one per thread (the calling thread takes the first; a single range
    starts no thread pool), and a range of l columns into
    max(1, l // max(16, width)) consecutive blocks, each solved to its
    own stop. Step sizes, stopping test and re-projection
    are per column, so the layout leaves x bit-identical, and the
    iteration count, the maximum over blocks, is that of one solve on all
    k columns. A block that hits ``max_iters`` raises ConvergenceError
    with that block's worst residual.
    """
    if kappa <= 0.0:
        raise DomainError(f"solver tolerance must be positive, got {kappa}")
    single = y.ndim == 1
    b = y[:, None] if single else y
    scale = np.linalg.norm(b, axis=0)
    if np.any(np.abs(b.sum(axis=0)) > 1e-8 * np.maximum(scale, 1.0)):
        raise DomainError("right-hand side must be orthogonal to ones")
    worker_count()  # a malformed DISAGREE_THREADS is refused on either path
    x, iters = _eliminated(lap, b, kappa), 0
    if x is None:
        x, iters = _cg_solve(lap, b, kappa, max_iters)
    return (x[:, 0] if single else x), iters


def _eliminated(lap: SparsifiedLaplacian, b: np.ndarray,
                kappa: float) -> np.ndarray | None:
    """The elimination path of ``laplacian_solve``: its solution where
    ``lap.elimination`` is complete and every column passes the
    certificate, otherwise None."""
    if not lap.elimination.complete:
        return None
    x = lap.elimination.solve(b)
    lx = lap.matrix @ x
    r = b - lx
    r -= r.mean(axis=0)
    passed = _certified(b, x, lx, r, kappa, lap.lambda_min_positive)
    return x if passed.all() else None


def _certified(b: np.ndarray, x: np.ndarray, lx: np.ndarray, r: np.ndarray,
               kappa: float, lam_min: float) -> np.ndarray:
    """Per column, whether ||r||^2 <= kappa^2 lam_min (2 b.x - x.lx)."""
    lower = 2.0 * np.einsum("ij,ij->j", b, x) - np.einsum("ij,ij->j", x, lx)
    np.maximum(lower, 0.0, out=lower)
    return np.einsum("ij,ij->j", r, r) <= kappa * kappa * lam_min * lower


def _cg_solve(lap: SparsifiedLaplacian, b: np.ndarray, kappa: float,
              max_iters: int | None = None) -> tuple[np.ndarray, int]:
    """The CG path of ``laplacian_solve`` on the columns of ``b``."""
    n, k = b.shape
    scale = np.linalg.norm(b, axis=0)
    # cached properties are read here, not first in the workers, so that
    # each is computed once
    mat = lap.matrix
    lam_min = lap.lambda_min_positive
    inv_diag = 1.0 / lap.degrees
    if max_iters is None:
        max_iters = max(200, 40 * n)

    def solve(blocks: list[tuple[int, int]]) -> list[tuple[np.ndarray, int]]:
        return [_cg_block(mat, inv_diag, lam_min, kappa, max_iters,
                          b[:, lo:hi], scale[lo:hi]) for lo, hi in blocks]

    ranges = cg_blocks(n, k, worker_count())
    if len(ranges) == 1:
        solved = solve(ranges[0])
    else:  # the pool's ranges are submitted before the first is solved
        with ThreadPoolExecutor(max_workers=len(ranges) - 1) as pool:
            solved = sum(pool.map(solve, ranges[1:]), solve(ranges[0]))
    xs, iters = zip(*solved)
    # one block is returned as solved: a copy would double its memory
    x = xs[0] if len(xs) == 1 else np.concatenate(xs, axis=1)
    return x, max(iters)


def cg_blocks(n: int, k: int, threads: int) -> list[list[tuple[int, int]]]:
    """The column layout of ``laplacian_solve``: per thread, the
    consecutive (lo, hi) blocks it solves. Ranges keep at least two
    columns (unless k = 1): numpy reduces a single column in another
    summation order, which would change the last bits of x. Blocks keep
    at least 16, cache-sized or not: at n = 2^15 and 10^5 a 2-column
    block cost about twice as much per column-iteration as a 16-column
    one, which came within 3% of a 32-column one."""
    width = CG_BLOCK_BYTES // (8 * n)
    ranges = _split(0, k, min(threads, max(1, k // max(2, width))))
    return [_split(lo, hi, max(1, (hi - lo) // max(16, width)))
            for lo, hi in ranges]


def _split(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """lo..hi as ``parts`` contiguous ranges whose lengths differ by <= 1."""
    edges = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _cg_block(mat: sp.csr_matrix, inv_diag: np.ndarray, lam_min: float,
              kappa: float, max_iters: int, b: np.ndarray, scale: np.ndarray
              ) -> tuple[np.ndarray, int]:
    """The block CG loop of ``laplacian_solve`` on the columns of ``b``.

    The stop test passes only if ||r||^2 <= kappa^2 lambda_min lower, and
    lower <= b.pinv(L).b <= ||b||^2 / lambda_min while
    ||r||^2 >= d_min r.D^-1.r. So a column whose r.D^-1.r exceeds
    kappa^2 ||b||^2 / d_min cannot pass, and while no column left is
    within twice that (a margin for roundoff) the test is skipped: the
    iterates are those of a loop that runs it on every iteration."""
    x = np.zeros_like(b)
    lx = np.zeros_like(b)
    r = b.copy()
    z = inv_diag[:, None] * r
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    done = scale == 0.0
    testable = 2.0 * kappa * kappa * scale * scale * inv_diag.max()
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
        # z is dead until its recompute below, so it serves as scratch
        np.multiply(alpha, p, out=z)
        x += z
        np.multiply(alpha, q, out=z)
        lx += z
        r -= z
        # re-project: keeps roundoff from drifting out of the ones-complement
        r -= r.mean(axis=0, keepdims=True)
        np.multiply(inv_diag[:, None], r, out=z)
        rz_new = np.einsum("ij,ij->j", r, z)
        if np.any(~done & (rz_new <= testable)):
            done = done | _certified(b, x, lx, r, kappa, lam_min)
        beta = np.where(rz == 0.0, 0.0, rz_new / np.where(rz == 0, 1, rz))
        p *= beta  # then p + z, which equals z + beta p bit for bit
        p += z
        rz = rz_new
        it += 1
    x -= x.mean(axis=0, keepdims=True)
    return x, it


def solver_tolerance(lap: SparsifiedLaplacian, pi: np.ndarray,
                     epsilon: float) -> float:
    """The CG tolerance kappa at which the solve moves approx's value by a
    factor within (1 +- t)^2, t = sqrt(1 + eps) - 1: inside 1 +- eps, the
    solver's share of the (1 +- eps)^3 sandwich.

    The value is d_sum ||A X||_F^2, A = D_pi (I - 1 pi^T), so with X* the
    exact solution it moves by a factor within (1 +- t)^2 for
    t = ||A (X - X*)||_F / ||A X*||_F. Each column e of X - X* and x* of X*
    is orthogonal to 1. So ||(I - 1 pi^T) e||^2 = ||e||^2 +
    n ((pi - 1/n).e)^2 <= c_P ||e||^2 with c_P = 1 + n ||pi - 1/n||^2,
    and by ``laplacian_solve``'s contract ||e||^2 <= ||e||_L^2 / lambda_2
    <= kappa^2 ||x*||_L^2 / lambda_2; while ||A x*||^2 >= pi_min^2 ||x*||^2
    >= pi_min^2 ||x*||_L^2 / lambda_max. Summed over the columns,
    t <= (pi_max / pi_min) sqrt(c_P lambda_max / lambda_2) kappa, which
    still holds with Mohar's ``lambda_min_positive`` for lambda_2 and twice
    the largest degree of L for lambda_max."""
    t = math.sqrt(1.0 + epsilon) - 1.0
    c_p = 1.0 + lap.n * np.sum((pi - 1.0 / lap.n) ** 2)
    return float(t * pi.min() / pi.max() / np.sqrt(
        c_p * 2.0 * lap.degrees.max() / lap.lambda_min_positive))


def _sketched_rows(lap: SparsifiedLaplacian, k: int, seed: int) -> np.ndarray:
    """Columns q_i = B^T W^{1/2} s_i / sqrt(k) for k rows s_i of fair signs
    from the one stream derive_rng(seed, TAG_SKETCH): s_i is its
    ``random_raw`` words [i W, (i + 1) W), W = ceil(m / 64), unpacked
    little-endian, a 1 bit being +1. Rows go in blocks of at most
    max(1, n k // m): no more floats than q, or one row. Each column is
    summed on its own, so q does not depend on the blocks."""
    n, m, words = lap.n, lap.m, -(-lap.m // 64)
    stream = derive_rng(seed, TAG_SKETCH).bit_generator
    ws = np.sqrt(lap.edge_w) / math.sqrt(k)
    inc = sp.csc_matrix((np.concatenate([ws, -ws]), (np.concatenate(
        [lap.edge_u, lap.edge_v]), np.tile(np.arange(m), 2))), shape=(n, m))
    q = np.empty((n, k))
    for lo, hi in _split(0, k, -(-k // max(1, n * k // m))):
        raw = stream.random_raw((hi - lo) * words).astype("<u8")
        bits = np.unpackbits(raw.view(np.uint8).reshape(-1, 8 * words),
                             axis=1, count=m, bitorder="little")
        signs = np.multiply(bits.T, 2.0, order="C")  # C order: read uncopied
        signs -= 1.0
        q[:, lo:hi] = inc @ signs
    return q


def approx_disagreement(g: WeightedGraph, epsilon: float, seed: int = 0
                        ) -> DisagreementEstimate:
    """Sparsify, sketch, and solve:

        delta ~= d_sum * sum_i pi_i^2 * ||Ztilde e_i - Ztilde pi||^2

    where the k rows of Ztilde solve the sparsified Laplacian against the
    sketched incidence rows. The value is the mean over the rows of
    k d_sum sum_i pi_i^2 (z_ki - (Ztilde pi)_k)^2: Hutchinson's estimate
    (1/k) sum_k s_k^T C s_k, with Rademacher s_k, of the trace of a
    positive semidefinite C, the sparsified delta. For such an estimate,
    k = ceil(6 ln(2/p) / eps^2) rows give a relative error of at most eps
    with probability >= 1 - p, whatever n is (Roosta-Khorasani & Ascher,
    FoCM 2015, Thm 1); the failure probability p is FAILURE_PROB = 0.05
    (``diagnostics["failure_prob"]``). The CG tolerance kappa of
    ``solver_tolerance`` bounds the solve's change of the sum, not of each
    term, to a factor within 1 +- eps. So neither bound covers a node: the
    ``per_node`` terms carry no guarantee of their own.
    ``diagnostics["stderr"]`` is the rows' standard deviation over
    sqrt(k): it covers the sketch's noise only, not the sparsifier's.
    """
    t0 = time.perf_counter()
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    lap = sparsify_two_step(g, min(epsilon, 0.5), seed)
    pi = g.stationary()
    k = math.ceil(6.0 * math.log(2.0 / FAILURE_PROB) / epsilon ** 2)
    kappa = solver_tolerance(lap, pi, epsilon)
    # the sketch is freed once solved, and the solution is reduced in
    # place: no further n x k array is made
    x, iters = laplacian_solve(lap, _sketched_rows(lap, k, seed), kappa)
    # with a complete elimination, 0 iterations means its solution passed:
    # CG runs only on a batch that fails, which has a nonzero column
    solver = "elimination" if iters == 0 and lap.elimination.complete else "cg"
    diffs = x.T
    diffs -= (diffs @ pi)[:, None]
    c = np.einsum("ij,ij->j", diffs, diffs)
    value = float(g.d_sum * np.sum(pi * pi * c))
    diffs *= diffs
    diffs *= k * g.d_sum
    per_row = diffs @ (pi * pi)
    return DisagreementEstimate(
        method="approx", value=value,
        params={"epsilon": epsilon, "seed": seed},
        seed=seed, wall_time_s=time.perf_counter() - t0,
        per_node=dict(enumerate((g.d_sum * pi ** 2 * c).tolist())),
        # the block solver shares one iteration count across the k solves
        diagnostics={"s": lap.sample_count, "m_sparse": lap.m, "k": k,
                     "kappa": kappa, "cg_iterations": [iters],
                     "solver": solver,
                     "elimination_rounds": len(lap.elimination.rounds),
                     "failure_prob": FAILURE_PROB,
                     "stderr": float(per_row.std(ddof=1) / math.sqrt(k))})
