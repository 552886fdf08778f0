"""Sublinear disagreement estimation by truncated even-length random walks.

A node subset is sampled uniformly without replacement; for each sampled
node the even-step return probabilities P^{2j}_ii are estimated by
independent walks, their partial sums approximate the diagonal of the
two-step Laplacian pseudoinverse, and a Horvitz-Thompson scale-up turns
the subset sum into the global estimate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .graph import WeightedGraph, require_ergodic
from .graph import validate  # noqa: F401  bench/selftest.py checks this binding
from .results import DisagreementEstimate
from .rng import TAG_GAP, TAG_NODES, TAG_RETURNS, derive_rng
from .spectral import truncation_length
from .walks import NeighborSampler

#: derived truncation lengths above this trigger a cost warning.
ELL_COST_WARNING = 2_000


@dataclass(frozen=True)
class SampleParams:
    """Tunables of the walk sampler.

    ``ell`` truncates the return-probability series, ``walks_per_length``
    is the walk count per (node, length) pair, ``node_budget`` the size
    of the sampled node set. ``reuse_walks`` harvests every even prefix
    of one long walk instead of running independent walks per length
    (cheaper by a factor of ell, correlated across lengths, unbiased per
    length).
    """

    epsilon: float
    lambda_bound: float
    ell: int
    walks_per_length: int
    node_budget: int
    seed: int = 0
    reuse_walks: bool = False

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "lambda_bound": self.lambda_bound,
            "ell": self.ell,
            "walks": self.walks_per_length,
            "node_budget": self.node_budget,
            "seed": self.seed,
            "reuse_walks": self.reuse_walks,
        }


def derive_params(n: int, epsilon: float, lambda_bound: float, *,
                  seed: int = 0, ell: int | None = None,
                  walks_per_length: int | None = None,
                  node_budget: int | None = None,
                  reuse_walks: bool = False) -> SampleParams:
    """Derive (ell, walks, node budget) from (n, epsilon, lambda bound).

    ell = ``spectral.truncation_length(eps, lam)`` caps the series
    truncation error at eps/2; walks = ceil(2 ell^2 log(2 n^2 ell)/eps^2)
    is the Hoeffding budget; the node budget is
    ceil(sqrt(n log n)/((1-lam) eps)), clamped to n. Explicit values
    override their derivation.
    """
    if n < 2:
        raise DomainError(f"need at least 2 nodes, got {n}")
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < lambda_bound < 1.0:
        raise DomainError(
            f"lambda bound must lie in (0, 1), got {lambda_bound}")
    if ell is None:
        ell = truncation_length(epsilon, lambda_bound)
    if ell < 1:
        raise DomainError(f"truncation length must be >= 1, got {ell}")
    if walks_per_length is None:
        walks_per_length = int(math.ceil(
            2.0 * ell * ell * math.log(2.0 * n * n * ell) / epsilon ** 2))
    if walks_per_length < 1:
        raise DomainError("walk count must be >= 1")
    if node_budget is None:
        node_budget = int(math.ceil(
            math.sqrt(n) * math.sqrt(math.log(n)) /
            ((1.0 - lambda_bound) * epsilon)))
    node_budget = min(n, max(1, node_budget))
    return SampleParams(epsilon=epsilon, lambda_bound=lambda_bound, ell=ell,
                        walks_per_length=walks_per_length,
                        node_budget=node_budget, seed=seed,
                        reuse_walks=reuse_walks)


def estimate_return_probabilities(g: WeightedGraph, node: int,
                                  params: SampleParams,
                                  engine: NeighborSampler | None = None
                                  ) -> np.ndarray:
    """Estimated even-step return probabilities (p^0, p^2, ..., p^{2(ell-1)}).

    p^0 is 1 by definition. Each length gets its own derived RNG stream,
    so estimates are independent of scheduling; with walk reuse a single
    stream per node drives walks of length 2(ell-1) whose even prefixes
    are scored together.
    """
    if not 0 <= node < g.n:
        raise DomainError(f"node {node} out of range")
    if engine is None:
        engine = NeighborSampler(g)
    ell, r = params.ell, params.walks_per_length
    est = np.zeros(ell)
    est[0] = 1.0
    if ell == 1:
        return est
    if params.reuse_walks:
        rng = derive_rng(params.seed, TAG_RETURNS, node, 0)
        pos = np.full(r, node, dtype=np.int64)
        for j in range(1, ell):
            pos = engine.walk(pos, 2, rng)
            est[j] = np.count_nonzero(pos == node) / r
        return est
    for j in range(1, ell):
        rng = derive_rng(params.seed, TAG_RETURNS, node, j)
        pos = np.full(r, node, dtype=np.int64)
        pos = engine.walk(pos, 2 * j, rng)
        est[j] = np.count_nonzero(pos == node) / r
    return est


def _sampled_series_sums(g: WeightedGraph, params: SampleParams
                         ) -> tuple[np.ndarray, np.ndarray]:
    require_ergodic(g, "sampling")
    engine = NeighborSampler(g)
    rng = derive_rng(params.seed, TAG_NODES)
    nodes = np.sort(rng.choice(g.n, size=params.node_budget, replace=False))
    pi = g.stationary()
    sums = np.empty(len(nodes))
    for k, node in enumerate(nodes):
        est = estimate_return_probabilities(g, int(node), params, engine)
        sums[k] = float(np.sum(est - pi[node]))
    return nodes, sums


def _scale_up_stderr(n: int, contribs: np.ndarray) -> float:
    """Standard error of the scale-up (n/|X|) * sum(contribs) over a node
    set X drawn uniformly without replacement (Horvitz-Thompson, with the
    finite-population correction): n * sqrt((1 - |X|/n) * s^2 / |X|)."""
    k = len(contribs)
    if k < 2:
        return float("nan")
    return float(n * math.sqrt((1.0 - k / n) * np.var(contribs, ddof=1) / k))


def sample_disagreement(g: WeightedGraph,
                        params: SampleParams) -> DisagreementEstimate:
    """Estimate disagreement from truncated walks on a sampled node set:

        (n/|X|) * sum_{i in X} pi_i * sum_{j<ell} (p^{2j}_ii - pi_i)

    ``diagnostics["stderr"]`` is the Horvitz-Thompson standard error of
    the node draw. The per-node walk noise enters it through the spread
    of the contributions, discounted by the finite-population factor, so
    with |X| = n it reads 0.
    """
    t0 = time.perf_counter()
    nodes, sums = _sampled_series_sums(g, params)
    pi = g.stationary()
    contribs = pi[nodes] * sums
    value = float(g.n / len(nodes) * contribs.sum())
    return DisagreementEstimate(
        method="sample", value=value, params=params.to_json(),
        seed=params.seed, wall_time_s=time.perf_counter() - t0,
        per_node={int(i): float(c) for i, c in zip(nodes, contribs)},
        diagnostics={"stderr": _scale_up_stderr(g.n, contribs)})


def sample_kemeny_two_step(g: WeightedGraph,
                           params: SampleParams) -> DisagreementEstimate:
    """Kemeny constant of the two-step walk by the same sampling scheme,
    without the stationary weighting (a plain trace estimate)."""
    t0 = time.perf_counter()
    nodes, sums = _sampled_series_sums(g, params)
    value = float(g.n / len(nodes) * sums.sum())
    return DisagreementEstimate(
        method="sample-kemeny", value=value, params=params.to_json(),
        seed=params.seed, wall_time_s=time.perf_counter() - t0,
        per_node={int(i): float(c) for i, c in zip(nodes, sums)},
        diagnostics={"stderr": _scale_up_stderr(g.n, sums)})


def estimate_gap_bound(g: WeightedGraph, *, iters: int = 200, seed: int = 0,
                       inflate: float = 1.05) -> float:
    """Power-iteration bound on max(|lambda_2|, |lambda_N|).

    Runs on S^2 with the top eigenvector deflated analytically, then
    inflates the Rayleigh quotient by ``inflate`` (capped below 1) to be
    safe for use as a truncation bound.
    """
    if g.n < 2:
        raise DomainError("gap estimation needs at least 2 nodes")
    inv_sqrt_d = 1.0 / np.sqrt(g.degrees)
    s_mat = sp.diags(inv_sqrt_d) @ g.adjacency_csr() @ sp.diags(inv_sqrt_d)
    psi1 = np.sqrt(g.stationary())
    rng = derive_rng(seed, TAG_GAP)
    v = rng.standard_normal(g.n)
    v -= psi1 * (psi1 @ v)
    v /= np.linalg.norm(v)
    lam_sq = 0.0
    for _ in range(iters):
        w = s_mat @ (s_mat @ v)
        w -= psi1 * (psi1 @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        v = w / norm
        lam_sq = norm
    lam = math.sqrt(max(lam_sq, 0.0))
    return min(1.0 - 1e-9, lam * inflate)
