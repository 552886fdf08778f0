"""Direct simulation of the noisy averaging recursion and the Monte-Carlo
hitting-time baseline.

The recursion x(t+1) = P x(t) + phi(t) with zero-mean unit-variance
noise never settles; its long-run stationary-weighted variance around
the weighted mean is the disagreement value the spectral module computes
in closed form. The hitting-time baseline instead estimates, per target,
the mean two-step-walk hitting time from stationary starts.

Both run batched, with the seeded outputs of a one-step, one-target
loop. The recursion draws its noise ``SIMULATE_BLOCK_ENTRIES`` entries
(512 KiB) at a time and reduces each block once; per step only
x = P x + noise remains. The hitting walks advance up to
``MC_CHUNK_WALKERS`` walkers (about 6 MB with their buffers) as one
array; each target keeps its own stream and reads its uniforms in the
order the loop drew them. A counter-based stream yields the same numbers
whether drawn in one call or in several, which is what makes both exact.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .graph import WeightedGraph, require_ergodic
from .results import DisagreementEstimate
from .rng import TAG_NOISE, TAG_WALKS, derive_rng
from .sampler import estimate_gap_bound
from .walks import NeighborSampler

#: the O(n^2)-flavored hitting-time baseline refuses larger graphs.
MC_NODE_CAP = 10_000

#: hitting walkers (targets x walks_per_target) advanced as one batch.
#: A walker takes about 180 bytes (its state, its share of one move's
#: temporaries and of its target's uniform buffer on a weighted graph),
#: so a batch stays near 6 MB at any graph size up to ``MC_NODE_CAP``; a
#: single target with more walkers than this makes a batch on its own.
MC_CHUNK_WALKERS = 1 << 15

#: moves' worth of uniforms a target's buffer holds for all its walkers.
_BUFFER_MOVES = 2

#: noise entries (steps x nodes) drawn and checked as one block by the
#: noisy recursion: 512 KiB of noise, or one step on graphs with more
#: nodes than this.
SIMULATE_BLOCK_ENTRIES = 1 << 16

#: most burn-in steps the noisy recursion derives on its own. The
#: derived 10 * ceil(1/(1 - lambda)) passes it once the inflated spectral
#: estimate exceeds 1 - 1e-5, and reaches 10^10 steps where that estimate
#: hits its 1 - 1e-9 ceiling; such a run would never end, so it is
#: refused and the burn-in must be given explicitly.
MAX_DERIVED_BURN_IN = 1_000_000


@dataclass(frozen=True)
class MCConfig:
    """Knobs for both simulators.

    ``burn_in=None`` derives 10/(1 - lambda_est) steps from a measured
    spectral estimate and refuses more than ``MAX_DERIVED_BURN_IN``.
    ``truncation_cap`` limits each hitting walk of the mc baseline (in
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
        return asdict(self)


def simulate_noisy_degroot(g: WeightedGraph,
                           config: MCConfig) -> DisagreementEstimate:
    """Run the noisy averaging recursion and time-average the weighted
    variance of deviations from the weighted mean after burn-in."""
    if config.horizon < 1:
        raise DomainError("horizon must be >= 1")
    if config.noise not in ("gaussian", "rademacher"):
        raise DomainError(f"unknown noise kind {config.noise!r}")
    require_ergodic(g, "simulation")
    t0 = time.perf_counter()
    burn = config.burn_in
    if burn is None:
        lam = estimate_gap_bound(g, iters=100, seed=config.seed)
        burn = 10 * int(math.ceil(1.0 / (1.0 - lam)))
        if burn > MAX_DERIVED_BURN_IN:
            raise ResourceError(
                f"the derived burn-in of {burn} steps (spectral estimate "
                f"{lam!r}) exceeds {MAX_DERIVED_BURN_IN}; give the burn-in "
                'with --burn-in, or the "burn_in" key of a sweep\'s '
                '"simulate" section')
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
    done = 0  # post-burn-in steps
    rows = max(1, SIMULATE_BLOCK_ENTRIES // g.n)
    for first in range(0, burn + config.horizon, rows):
        size = min(rows, burn + config.horizon - first)
        if config.noise == "gaussian":
            block = rng.standard_normal((size, g.n))
        else:
            block = rng.integers(0, 2, size=(size, g.n)) * 2.0 - 1.0
        for i in range(size):  # row i becomes x after step first + i
            block[i] += p_mat @ x
            x = block[i]
        if not np.all(np.isfinite(block)):
            raise DomainError("opinion vector overflowed; the walk matrix "
                              "is not a contraction on this input")
        kept = block[max(0, burn - first):]
        # vecdot takes each row's dot product with the kernel of pi @ x;
        # kept @ pi would add in another order and change the last bits
        dev = kept - np.vecdot(kept, pi)[:, None]
        for val in np.vecdot(dev * dev, pi).tolist():  # sums in step order
            total += val
            acc += val
            done += 1
            if done % batch_len == 0:
                batch_sums.append(acc / batch_len)
                acc = 0.0
    value = total / config.horizon
    stderr = (float(np.std(batch_sums, ddof=1) / math.sqrt(len(batch_sums)))
              if len(batch_sums) > 1 else float("nan"))
    return DisagreementEstimate(
        method="simulate", value=value, params=config.to_json(),
        seed=config.seed, wall_time_s=time.perf_counter() - t0,
        diagnostics={"burn_in_used": burn, "stderr": stderr})


def _hitting_moves(engine: NeighborSampler, pi: np.ndarray,
                   targets: np.ndarray, walks: int, cap: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-step moves each of ``walks`` stationary-start walkers needs to
    hit its target, ``cap`` where it never does, as a (targets, walks)
    array; also each target's count of truncated walkers.

    Every target draws from its own stream exactly what a loop over that
    target alone would: its start nodes, then per move and per base step
    one uniform per live walker for the neighbor pick (and one for the
    alias test on weighted graphs), live walkers in index order. The
    uniforms are read from per-target buffers refilled from the streams,
    so the walkers of all targets advance as one array."""
    n_targets = len(targets)
    rngs = [derive_rng(seed, TAG_WALKS, int(t)) for t in targets]
    start = np.stack([rng.choice(len(pi), size=walks, p=pi)
                      for rng in rngs])
    per_step = engine.draws_per_step
    per_move = 2 * per_step
    width = per_move * walks * _BUFFER_MOVES
    buf = np.stack([rng.random(width) for rng in rngs])
    flat_buf = buf.reshape(-1)
    cursor = np.zeros(n_targets, dtype=np.int64)
    moves = np.zeros((n_targets, walks), dtype=np.int64)
    flat_moves = moves.reshape(-1)
    live = np.flatnonzero(start != targets[:, None])  # (target, walker) order
    row = live // walks
    pos = start.reshape(-1)[live]
    goal = targets[row]
    row_origin = np.arange(n_targets) * width
    for move in range(1, cap + 1):
        if len(live) == 0:
            break
        alive = np.bincount(row, minlength=n_targets)
        need = per_move * alive
        for r in np.flatnonzero(cursor + need > width):
            unread = width - cursor[r]
            buf[r, :unread] = buf[r, cursor[r]:].copy()
            buf[r, unread:] = rngs[r].random(width - unread)
            cursor[r] = 0
        # a target's uniforms for this move: per base step, one block of
        # picks (then one of accept tests) with one entry per live walker
        at = ((row_origin + cursor - np.cumsum(alive) + alive)[row]
              + np.arange(len(live)))
        stride = alive[row]
        for _ in range(2):
            pick = flat_buf[at]
            accept = None
            if per_step == 2:
                accept = flat_buf[at + stride]
            at += per_step * stride
            pos = engine.advance(pos, pick, accept)
        cursor += need
        hit = pos == goal
        flat_moves[live[hit]] = move
        keep = ~hit
        live, row, pos, goal = live[keep], row[keep], pos[keep], goal[keep]
    flat_moves[live] = cap  # truncated: undercounts
    return moves, np.bincount(row, minlength=n_targets)


def simulate_mc_disagreement(g: WeightedGraph, config: MCConfig, *,
                             cap: int = MC_NODE_CAP) -> DisagreementEstimate:
    """Hitting-time baseline: for every target i, walk the two-step chain
    from stationary starts and average the moves needed to hit i; the
    disagreement is sum_i pi_i^2 * H_i.

    Targets are walked ``MC_CHUNK_WALKERS // walks_per_target`` at a
    time (at least one) as one batch; each keeps its own RNG stream, so
    the result does not depend on the batching. ``stderr`` is
    sqrt(sum_i pi_i^4 s_i^2 / walks), s_i^2 the sample variance of
    target i's (capped) hitting moves."""
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
    var_hits = np.full(g.n, np.nan)
    trunc_rates = np.zeros(g.n)
    per_chunk = max(1, MC_CHUNK_WALKERS // walks)
    for lo in range(0, g.n, per_chunk):
        targets = np.arange(lo, min(g.n, lo + per_chunk))
        moves, truncated = _hitting_moves(engine, pi, targets, walks,
                                          config.truncation_cap, config.seed)
        mean_hits[targets] = moves.mean(axis=1)
        if walks > 1:
            var_hits[targets] = moves.var(axis=1, ddof=1)
        trunc_rates[targets] = truncated / walks
    max_rate = float(trunc_rates.max())
    if max_rate > 0.10:
        warnings.warn(
            f"hitting-time truncation rate reached {max_rate:.1%}; the "
            "estimate is biased low", stacklevel=2)
    value = float(np.sum(pi * pi * mean_hits))
    stderr = float(np.sqrt(np.sum(pi ** 4 * var_hits) / walks))
    return DisagreementEstimate(
        method="mc", value=value, params=config.to_json(), seed=config.seed,
        wall_time_s=time.perf_counter() - t0,
        per_node={i: float(pi[i] ** 2 * mean_hits[i]) for i in range(g.n)},
        diagnostics={"max_truncation_rate": max_rate,
                     "truncated_targets": int((trunc_rates > 0.10).sum()),
                     "stderr": stderr})
