"""Direct simulation of the noisy averaging recursion and the Monte-Carlo
hitting-time baseline.

The recursion x(t+1) = P x(t) + phi(t) with zero-mean unit-variance
noise never settles; its long-run stationary-weighted variance around
the weighted mean is the disagreement value the spectral module computes
in closed form. The hitting-time baseline instead estimates, per target,
the mean two-step-walk hitting time from stationary starts.

The recursion draws its noise ``SIMULATE_BLOCK_ENTRIES`` entries (512
KiB) at a time and reduces each block once, with the seeded outputs of a
one-step loop: a counter-based stream yields the same numbers whether
drawn in one call or in several. The hitting-time baseline walks one set
of walkers for all targets, each until it has hit every target: at most
H_max (1 + 1/2 + ... + 1/n) moves in expectation (Matthews, Ann. Probab.
1988).
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
from .walks import NeighborSampler, WeightedIndex

#: the hitting-time baseline refuses larger graphs: a block of walkers
#: would hold at most 104, too few to outweigh each move's fixed numpy cost.
MC_NODE_CAP = 10_000

#: (walker, target) first-hit entries one block of hitting walkers holds:
#: 4 MiB of int32, or one walker on graphs with more nodes than this.
MC_BLOCK_ENTRIES = 1 << 20

#: noise entries (steps x nodes) drawn and checked as one block by the
#: noisy recursion: 512 KiB of noise, or one step on graphs with more
#: nodes than this.
SIMULATE_BLOCK_ENTRIES = 1 << 16

#: the noisy recursion steps with a dense P up to this many nodes, and up
#: to 2048 nodes where at least a quarter of P's entries are nonzero; with
#: the CSR P otherwise. One step, dense against CSR (a 2-core VM): gsw (3
#: entries a row) 4.5/4.3 us at n = 192, 56/5.1 at 512, 801/9.4 at 2048;
#: random graphs with a quarter of the entries 54/45 us at n = 512,
#: 809/860 at 2048, with half 196/415 at 1024, 902/2689 at 2048.
SIMULATE_DENSE_NODES = 192

#: most burn-in steps the noisy recursion derives on its own. The
#: derived 10 * ceil(1/(1 - lambda)) passes it once the inflated spectral
#: estimate exceeds 1 - 1e-5, and reaches 10^10 steps where that estimate
#: hits its 1 - 1e-9 ceiling; such a run would never end, so it is
#: refused and the burn-in must be given explicitly.
MAX_DERIVED_BURN_IN = 1_000_000


@dataclass(frozen=True)
class MCConfig:
    """Knobs for both simulators. The mc baseline reads only ``seed``,
    ``truncation_cap`` and ``walks_per_target``, the noisy recursion the
    others; each records only what it reads.

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


def _steps_dense(p_mat) -> bool:
    n = p_mat.shape[0]
    return n <= SIMULATE_DENSE_NODES or (n <= 2048 and 4 * p_mat.nnz >= n * n)


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
    dense, buf = _steps_dense(p_mat), np.empty(g.n)
    if dense:
        p_mat = p_mat.toarray()
    p_dot = p_mat.dot  # the bound method skips np.dot's dispatch
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
        for row in block:  # row i becomes x after step first + i
            row += p_dot(x, buf) if dense else p_mat @ x
            x = row
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
        method="simulate", value=value,
        params={k: v for k, v in config.to_json().items()
                if k not in ("truncation_cap", "walks_per_target")},
        seed=config.seed, wall_time_s=time.perf_counter() - t0,
        diagnostics={"burn_in_used": burn, "stderr": stderr})


def _first_hits(engine: NeighborSampler, starts: WeightedIndex,
                pi2: np.ndarray, walkers: int, cap: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The first two-step move after which each of ``walkers`` walkers,
    started from ``rng.choice(n, walkers, p=pi)``'s draws, sits at each
    target, as a (walkers, n) array: 0 at its start, ``cap + 1`` where it
    never does within ``cap`` moves. Also each walker's sum_i pi_i^2 T_i,
    T_i its entry capped at ``cap``. Per move and base step ``rng`` gives
    one uniform per unfinished walker, in index order."""
    n, miss = len(pi2), cap + 1
    first = np.full((walkers, n), miss,
                    dtype=np.int32 if miss < 2 ** 31 else np.int64)
    flat = first.reshape(-1)
    walker = np.arange(walkers)
    pos = starts.draw(rng.random(walkers))
    first[walker, pos] = 0
    # every target is charged the cap until a hit at move m refunds cap - m
    total = cap * (np.sum(pi2) - pi2[pos])
    left = np.full(walkers, n - 1)  # targets not yet hit
    base = walker * n
    move = 0
    while move < cap and len(walker):
        move += 1
        for u in rng.random((2, len(walker))):  # one row per base step
            pos = engine.advance(pos, u)
        at = base + pos
        new = flat[at] == miss
        if new.any():
            flat[at[new]] = move
            total[walker[new]] -= pi2[pos[new]] * (cap - move)
            left -= new
            if not left.all():
                keep = left > 0
                walker, pos, base, left = (walker[keep], pos[keep],
                                           base[keep], left[keep])
    return first, total


def simulate_mc_disagreement(g: WeightedGraph,
                             config: MCConfig) -> DisagreementEstimate:
    """Hitting-time baseline: walk the two-step chain from stationary
    starts and average, per target i, the moves a walker needs to hit i;
    the disagreement is sum_i pi_i^2 * H_i.

    Every walker serves every target: it walks until it has hit them all,
    or for ``truncation_cap`` moves. Walkers run in blocks of
    ``MC_BLOCK_ENTRIES // n`` (at least one); block b draws from stream
    (``TAG_WALKS``, b). ``stderr`` is std(Y, ddof=1) / sqrt(walks) over the
    walkers' Y = sum_i pi_i^2 T_i, T_i the (capped) moves to hit i, so it
    includes the covariance between one walker's hitting times."""
    if g.n > MC_NODE_CAP:
        raise ResourceError(
            f"hitting-time baseline capped at {MC_NODE_CAP} nodes")
    if config.truncation_cap < 1 or config.walks_per_target < 1:
        raise DomainError("truncation cap and walk count must be >= 1")
    require_ergodic(g, "simulation")
    t0 = time.perf_counter()
    pi = g.stationary()
    pi2 = pi ** 2
    engine = NeighborSampler(g)
    starts = WeightedIndex(pi)
    walks, cap = config.walks_per_target, config.truncation_cap
    moves = truncated = 0  # per target, summed over the blocks
    per_walker = []
    rows = max(1, MC_BLOCK_ENTRIES // g.n)
    for b, lo in enumerate(range(0, walks, rows)):
        first, total = _first_hits(engine, starts, pi2, min(rows, walks - lo),
                                   cap, derive_rng(config.seed, TAG_WALKS, b))
        moves = moves + np.sum(first, axis=0, dtype=np.int64)
        truncated = truncated + np.sum(first > cap, axis=0)
        per_walker.append(total)
    mean_hits = (moves - truncated) / walks  # a miss is stored as cap + 1
    trunc_rates = truncated / walks
    max_rate = float(trunc_rates.max())
    if max_rate > 0.10:
        warnings.warn(
            f"hitting-time truncation rate reached {max_rate:.1%}; the "
            "estimate is biased low", stacklevel=2)
    value = float(np.sum(pi * pi * mean_hits))
    stderr = (float(np.std(np.concatenate(per_walker), ddof=1)
                    / math.sqrt(walks)) if walks > 1 else float("nan"))
    return DisagreementEstimate(
        method="mc", value=value, seed=config.seed,
        params={"seed": config.seed, "truncation_cap": config.truncation_cap,
                "walks_per_target": walks},
        wall_time_s=time.perf_counter() - t0,
        per_node=dict(enumerate((pi2 * mean_hits).tolist())),
        diagnostics={"max_truncation_rate": max_rate,
                     "truncated_targets": int((trunc_rates > 0.10).sum()),
                     "stderr": stderr})
