"""Direct simulation of the noisy averaging recursion and the Monte-Carlo
hitting-time baseline.

The recursion x(t+1) = P x(t) + phi(t) with zero-mean unit-variance
noise never settles; its long-run stationary-weighted variance around
the weighted mean is the disagreement value the spectral module computes
in closed form. The hitting-time baseline instead estimates, per target,
the mean two-step-walk hitting time from stationary starts.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .graph import WeightedGraph, require_ergodic
from .results import DisagreementEstimate
from .rng import TAG_NOISE, TAG_WALKS, derive_rng
from .sampler import estimate_gap_bound
from .walks import NeighborSampler

#: the O(n^2)-flavored hitting-time baseline refuses larger graphs.
MC_NODE_CAP = 10_000


@dataclass(frozen=True)
class MCConfig:
    """Knobs for both simulators.

    ``burn_in=None`` derives 10/(1 - lambda_est) steps from a measured
    spectral bound. ``truncation_cap`` limits each hitting walk (in
    two-step moves); truncated walks bias the estimate down, so their
    rate is reported instead of corrected.
    """

    burn_in: int | None = None
    horizon: int = 100_000
    truncation_cap: int = 1_000
    walks_per_target: int = 1_000
    seed: int = 0
    noise: str = "gaussian"  # or "rademacher"

    def to_json(self) -> dict:
        return {"burn_in": self.burn_in, "horizon": self.horizon,
                "truncation_cap": self.truncation_cap,
                "walks_per_target": self.walks_per_target,
                "seed": self.seed, "noise": self.noise}


def simulate_noisy_degroot(g: WeightedGraph,
                           config: MCConfig) -> DisagreementEstimate:
    """Run the noisy averaging recursion and time-average the weighted
    variance of deviations from the weighted mean after burn-in."""
    if config.horizon < 1 or config.truncation_cap < 1:
        raise DomainError("horizon and truncation cap must be >= 1")
    if config.noise not in ("gaussian", "rademacher"):
        raise DomainError(f"unknown noise kind {config.noise!r}")
    require_ergodic(g, "simulation")
    t0 = time.perf_counter()
    burn = config.burn_in
    if burn is None:
        lam = estimate_gap_bound(g, iters=100, seed=config.seed)
        burn = 10 * int(math.ceil(1.0 / (1.0 - lam)))
    if burn < 0:
        raise DomainError("burn-in must be >= 0")
    pi = g.stationary()
    p_mat = g.adjacency_csr().multiply(1.0 / g.degrees[:, None]).tocsr()
    if g.n <= 2048:
        p_mat = p_mat.toarray()
    rng = derive_rng(config.seed, TAG_NOISE)
    x = np.zeros(g.n)
    total = 0.0
    n_batches = 32
    batch_len = max(1, config.horizon // n_batches)
    batch_sums: list[float] = []
    acc = 0.0
    for t in range(burn + config.horizon):
        if config.noise == "gaussian":
            noise = rng.standard_normal(g.n)
        else:
            noise = rng.integers(0, 2, size=g.n) * 2.0 - 1.0
        x = p_mat @ x + noise
        if not np.all(np.isfinite(x)):
            raise DomainError("opinion vector overflowed; the walk matrix "
                              "is not a contraction on this input")
        if t >= burn:
            dev = x - pi @ x
            val = float(pi @ (dev * dev))
            total += val
            acc += val
            if (t - burn + 1) % batch_len == 0:
                batch_sums.append(acc / batch_len)
                acc = 0.0
    value = total / config.horizon
    stderr = (float(np.std(batch_sums, ddof=1) / math.sqrt(len(batch_sums)))
              if len(batch_sums) > 1 else float("nan"))
    return DisagreementEstimate(
        method="simulate", value=value, params=config.to_json(),
        seed=config.seed, wall_time_s=time.perf_counter() - t0,
        diagnostics={"burn_in_used": burn, "stderr": stderr})


def simulate_mc_disagreement(g: WeightedGraph, config: MCConfig, *,
                             cap: int = MC_NODE_CAP) -> DisagreementEstimate:
    """Hitting-time baseline: for every target i, walk the two-step chain
    from stationary starts and average the moves needed to hit i; the
    disagreement is sum_i pi_i^2 * H_i."""
    if g.n > cap:
        raise ResourceError(f"hitting-time baseline capped at {cap} nodes")
    if config.truncation_cap < 1 or config.walks_per_target < 1:
        raise DomainError("truncation cap and walk count must be >= 1")
    require_ergodic(g, "simulation")
    t0 = time.perf_counter()
    pi = g.stationary()
    engine = NeighborSampler(g)
    walks = config.walks_per_target
    mean_hits = np.zeros(g.n)
    trunc_rates = np.zeros(g.n)
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
        steps[alive] = config.truncation_cap  # truncated: undercounts
        trunc_rates[target] = alive.mean()
        mean_hits[target] = steps.mean()
    max_rate = float(trunc_rates.max())
    if max_rate > 0.10:
        warnings.warn(
            f"hitting-time truncation rate reached {max_rate:.1%}; the "
            "estimate is biased low", stacklevel=2)
    value = float(np.sum(pi * pi * mean_hits))
    return DisagreementEstimate(
        method="mc", value=value, params=config.to_json(), seed=config.seed,
        wall_time_s=time.perf_counter() - t0,
        per_node={i: float(pi[i] ** 2 * mean_hits[i]) for i in range(g.n)},
        diagnostics={"max_truncation_rate": max_rate,
                     "truncated_targets": int((trunc_rates > 0.10).sum())})
