"""Sublinear disagreement estimation by truncated even-length random walks.

A node subset is sampled uniformly without replacement; from each sampled
node independent walkers take 2(ell - 1) steps, and the share of them
back at the node after 2j steps estimates the return probability
P^{2j}_ii. The partial sums of these approximate the diagonal of the
two-step Laplacian pseudoinverse, and a Horvitz-Thompson scale-up turns
the subset sum into the global estimate.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .graph import WeightedGraph, require_ergodic
from .graph import validate  # noqa: F401  bench/selftest.py checks this binding
from .results import DisagreementEstimate
from .rng import TAG_GAP, TAG_NODES, TAG_RETURNS, derive_rng
from .spectral import normalized_adjacency, truncation_length
from .walks import NeighborSampler

#: derived truncation lengths above this trigger a cost warning.
ELL_COST_WARNING = 2_000
#: largest truncation length ``derive_params`` derives on its own. The
#: estimator holds ell return probabilities per node and walks 2(ell - 1)
#: steps; where ``estimate_gap_bound`` hits its 1 - 1e-9 ceiling the
#: derived ell reaches about 10^10, which no run can hold, so it is
#: refused and ell or a tighter bound must be given explicitly.
MAX_DERIVED_ELL = 1_000_000
#: ``estimate_gap_bound`` multiplies its power-iteration estimate by this.
GAP_INFLATE = 1.05


@dataclass(frozen=True)
class SampleParams:
    """Tunables of the walk sampler.

    ``ell`` truncates the return-probability series, ``walks_per_length``
    is the walker count per node (each walker's even prefixes serve every
    length), ``node_budget`` the size of the sampled node set.
    """

    epsilon: float
    lambda_bound: float
    ell: int
    walks_per_length: int
    node_budget: int
    seed: int = 0

    def to_json(self) -> dict:
        out = asdict(self)
        out["walks"] = out.pop("walks_per_length")
        return out


def derive_params(n: int, epsilon: float, lambda_bound: float, *,
                  seed: int = 0, ell: int | None = None,
                  walks_per_length: int | None = None,
                  node_budget: int | None = None,
                  reuse_walks: bool = True) -> SampleParams:
    """Derive (ell, walks, node budget) from (n, epsilon, lambda bound).

    ell = ``spectral.truncation_length(eps, lam)`` caps the series
    truncation error at eps/2; walks = ceil(2 ell^2 log(2 n^2 ell)/eps^2)
    is the Hoeffding budget; the node budget is
    ceil(sqrt(n log n)/((1-lam) eps)), clamped to n. Explicit values
    override their derivation (values below 1 are refused); a derived ell
    above ``MAX_DERIVED_ELL`` is refused.

    All lengths share one set of walkers, yet each p^{2j} estimate is a
    mean of ``walks`` iid return indicators, one per walker: Hoeffding
    bounds each (node, j) pair, and the union bound over them needs no
    independence. ``reuse_walks`` must be True; ``bench/selftest.py``
    still passes it until the next benchmark change (ROADMAP item 1).
    """
    if reuse_walks is not True:
        raise DomainError("independent walks per length were removed; "
                          "every length reuses each walker's even prefixes")
    if n < 2:
        raise DomainError(f"need at least 2 nodes, got {n}")
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < lambda_bound < 1.0:
        raise DomainError(
            f"lambda bound must lie in (0, 1), got {lambda_bound}")
    if ell is None:
        ell = truncation_length(epsilon, lambda_bound)
        if ell > MAX_DERIVED_ELL:
            raise ResourceError(
                f"the derived truncation length ell={ell} (lambda bound "
                f"{lambda_bound!r}) exceeds {MAX_DERIVED_ELL}; give ell "
                "with --ell or a tighter --lambda-bound, or the \"ell\" or "
                '"lambda_bound" key of a sweep\'s "sample" section')
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
    if node_budget < 1:
        raise DomainError(f"node budget must be >= 1, got {node_budget}")
    return SampleParams(epsilon=epsilon, lambda_bound=lambda_bound, ell=ell,
                        walks_per_length=walks_per_length,
                        node_budget=min(n, node_budget), seed=seed)


def estimate_return_probabilities(g: WeightedGraph, node: int,
                                  params: SampleParams,
                                  engine: NeighborSampler | None = None
                                  ) -> np.ndarray:
    """Estimated even-step return probabilities (p^0, p^2, ..., p^{2(ell-1)}).

    p^0 is 1 by definition. One derived RNG stream per node drives
    ``walks_per_length`` walkers for 2(ell - 1) steps, and p^{2j} is the
    share of them at the node after 2j steps, so estimates do not depend
    on scheduling.
    """
    if not 0 <= node < g.n:
        raise DomainError(f"node {node} out of range")
    if engine is None:
        engine = NeighborSampler(g)
    ell, r = params.ell, params.walks_per_length
    est = np.ones(ell)
    rng = derive_rng(params.seed, TAG_RETURNS, node, 0)
    pos = np.full(r, node, dtype=np.int64)
    for j in range(1, ell):
        pos = engine.walk(pos, 2, rng)
        est[j] = np.count_nonzero(pos == node) / r
    return est


def _sampled_estimate(g: WeightedGraph, params: SampleParams, method: str,
                      weighted: bool) -> DisagreementEstimate:
    """The scale-up (n/|X|) * sum_{i in X} c_i over a node set X drawn
    uniformly without replacement, where c_i is
    sum_{j<ell} (p^{2j}_ii - pi_i), times pi_i if ``weighted``.
    ``diagnostics["stderr"]`` is its Horvitz-Thompson standard error with
    the finite-population correction, n * sqrt((1 - |X|/n) * s^2 / |X|)
    for s^2 the sample variance of the c_i."""
    t0 = time.perf_counter()
    require_ergodic(g, "sampling")
    engine = NeighborSampler(g)
    rng = derive_rng(params.seed, TAG_NODES)
    nodes = np.sort(rng.choice(g.n, size=params.node_budget, replace=False))
    pi = g.stationary()
    contribs = np.empty(len(nodes))
    for k, node in enumerate(nodes):
        est = estimate_return_probabilities(g, int(node), params, engine)
        contribs[k] = float(np.sum(est - pi[node]))
    if weighted:
        contribs *= pi[nodes]
    k = len(nodes)
    stderr = (float(g.n * math.sqrt((1.0 - k / g.n) *
                                    np.var(contribs, ddof=1) / k))
              if k > 1 else float("nan"))
    return DisagreementEstimate(
        method=method, value=float(g.n / k * contribs.sum()),
        params=params.to_json(), seed=params.seed,
        wall_time_s=time.perf_counter() - t0,
        per_node=dict(zip(nodes.tolist(), contribs.tolist())),
        diagnostics={"stderr": stderr})


def sample_disagreement(g: WeightedGraph,
                        params: SampleParams) -> DisagreementEstimate:
    """Estimate disagreement from truncated walks on a sampled node set:

        (n/|X|) * sum_{i in X} pi_i * sum_{j<ell} (p^{2j}_ii - pi_i)

    Every p^{2j} comes from the same walkers' even prefixes;
    ``derive_params`` says why its walk budget still bounds each.
    ``diagnostics["stderr"]`` covers the node draw. The per-node walk
    noise enters it through the spread of the contributions, discounted
    by the finite-population factor, so with |X| = n it reads 0.
    """
    return _sampled_estimate(g, params, "sample", weighted=True)


def sample_kemeny_two_step(g: WeightedGraph,
                           params: SampleParams) -> DisagreementEstimate:
    """Kemeny constant of the two-step walk by the same sampling scheme,
    without the stationary weighting (a plain trace estimate)."""
    return _sampled_estimate(g, params, "sample-kemeny", weighted=False)


def estimate_gap_bound(g: WeightedGraph, *, iters: int = 200,
                       seed: int = 0) -> float:
    """Power-iteration estimate of max(|lambda_2|, |lambda_N|), inflated.

    Runs on S^2 with the top eigenvector deflated analytically and
    returns sqrt(||S^2 v||) for the last unit iterate v, a Rayleigh-type
    quotient that approaches the true value from below, times
    ``GAP_INFLATE`` and capped at 1 - 1e-9. It is an estimate, not a
    certified bound: before the iteration converges, the inflated value
    can still lie below the true one.
    """
    if g.n < 2:
        raise DomainError("gap estimation needs at least 2 nodes")
    s_mat = normalized_adjacency(g)
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
    return min(1.0 - 1e-9, lam * GAP_INFLATE)
