"""Seeded generators for the model-network families, plus closed-form oracles
for the deterministic pseudofractal family.

Every stochastic generator takes an explicit 64-bit seed and is
reproducible: the same spec and seed give a byte-identical edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DomainError, ResourceError, UsageError
from .graph import WeightedGraph

#: node-count guard for the pseudofractal family (g=14 is ~7.2M nodes).
PSFW_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class GeneratorSpec:
    """Family name plus family-specific parameters and a seed."""

    family: str  # a key of FAMILIES
    params: dict = field(default_factory=dict)
    seed: int = 0

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params),
                "seed": self.seed}


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Dispatch a GeneratorSpec through ``FAMILIES``; an unknown family, a
    missing parameter or an unknown one is a ``UsageError``."""
    if spec.family not in FAMILIES:
        raise UsageError(f"unknown generator family {spec.family!r}; "
                         f"choose from {', '.join(FAMILIES)}")
    make, required, optional = FAMILIES[spec.family]
    missing = [k for k in required if k not in spec.params]
    if missing:
        raise UsageError(f"family {spec.family!r} needs {', '.join(missing)}")
    unknown = sorted(set(spec.params) - set(required) - set(optional))
    if unknown:
        raise UsageError(f"family {spec.family!r} takes "
                         f"{', '.join(required + optional)}, not "
                         f"{', '.join(unknown)}")
    return make(spec.seed, **spec.params)


def generate_ba(n: int, m: int, *, m0: int | None = None,
                seed: int = 0) -> WeightedGraph:
    """Preferential-attachment graph: each new node wires to m distinct
    existing nodes drawn with probability proportional to degree.

    The seed graph is the cycle on m0 nodes (a single edge when m0=2),
    giving a connected degree-uniform start. Attachment without
    replacement is realized by rejection sampling over an endpoint list,
    which is exactly degree-proportional.
    """
    if m0 is None:
        m0 = max(m + 1, 3)
    if not (1 <= m <= m0 <= n):
        raise DomainError(f"need 1 <= m <= m0 <= n, got m={m}, m0={m0}, n={n}")
    if m0 < 2:
        raise DomainError("seed graph needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    if m0 == 2:
        edges = [(0, 1)]
    else:
        edges = [(i, (i + 1) % m0) for i in range(m0)]
    endpoints = [u for e in edges for u in e]
    for new in range(m0, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            t = endpoints[int(rng.integers(len(endpoints)))]
            chosen.add(t)
        for t in sorted(chosen):
            edges.append((t, new))
            endpoints.append(t)
            endpoints.append(new)
    return WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in edges])


def generate_apollonian(n: int, *, d: int = 2, seed: int = 0) -> WeightedGraph:
    """Random Apollonian network: start from a (d+2)-clique and repeatedly
    glue a new node onto a uniformly chosen active (d+1)-clique."""
    if d < 2:
        raise DomainError(f"dimension d must be >= 2, got {d}")
    if n < d + 2:
        raise DomainError(f"need n >= d+2 = {d + 2}, got {n}")
    rng = np.random.default_rng(seed)
    base = d + 2
    edges = [(i, j) for i, j in combinations(range(base), 2)]
    active = [c for c in combinations(range(base), d + 1)]
    for new in range(base, n):
        idx = int(rng.integers(len(active)))
        clique = active[idx]
        active[idx] = active[-1]  # swap-remove keeps selection O(1)
        active.pop()
        for u in clique:
            edges.append((u, new))
        for skip in range(d + 1):
            active.append(clique[:skip] + clique[skip + 1:] + (new,))
    return WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in edges])


def generate_gsw(n: int, p: float, *, seed: int = 0) -> WeightedGraph:
    """Growing small-world network on a perimeter.

    Start from a triangle on a cycle. Each step picks a uniformly random
    gap between adjacent perimeter nodes, inserts a new node there,
    connects it to both gap endpoints, and removes the edge between
    those endpoints with probability p (if still present).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"removal probability must be in [0, 1], got {p}")
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    rng = np.random.default_rng(seed)
    perimeter = [0, 1, 2]
    edges = {(0, 1), (1, 2), (0, 2)}
    for new in range(3, n):
        pos = int(rng.integers(len(perimeter)))
        a = perimeter[pos]
        b = perimeter[(pos + 1) % len(perimeter)]
        edges.add((min(a, new), max(a, new)))
        edges.add((min(b, new), max(b, new)))
        if p > 0.0 and rng.random() < p:
            edges.discard((min(a, b), max(a, b)))
        perimeter.insert(pos + 1, new)
    return WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in edges])


def psfw_node_count(g: int) -> int:
    return (3 ** (g + 1) + 3) // 2


def generate_psfw(g: int) -> WeightedGraph:
    """Pseudofractal scale-free web after g iterations (deterministic).

    Iteration takes every existing edge and attaches a fresh node to
    both of its endpoints, tripling the edge count; the result has
    (3^(g+1)+3)/2 nodes and 3^(g+1) edges.
    """
    if g < 0:
        raise DomainError(f"iteration count must be >= 0, got {g}")
    n = psfw_node_count(g)
    if n > PSFW_NODE_CAP:
        raise ResourceError(f"pseudofractal web with g={g} has {n} nodes, "
                            f"beyond the cap of {PSFW_NODE_CAP}")
    u = np.array([0, 0, 1], dtype=np.int64)
    v = np.array([1, 2, 2], dtype=np.int64)
    size = 3
    for _ in range(g):
        new = size + np.arange(len(u), dtype=np.int64)
        u, v = np.concatenate([u, u, v]), np.concatenate([v, new, new])
        size += len(new)
    return WeightedGraph(size, u, v, np.ones(len(u)))


#: family -> (seed, **params) -> graph, required params, optional params.
#: ``generate`` and the CLI's ``gen`` and sweep read the names from here.
FAMILIES = {
    "ba": (lambda seed, **p: generate_ba(**p, seed=seed), ("n", "m"),
           ("m0",)),
    "apollonian": (lambda seed, **p: generate_apollonian(**p, seed=seed),
                   ("n",), ("d",)),
    "gsw": (lambda seed, **p: generate_gsw(**p, seed=seed), ("n", "p"), ()),
    "psfw": (lambda seed, g: generate_psfw(g), ("g",), ()),
}


@dataclass(frozen=True)
class PsfwSpectrum:
    """Transition-matrix eigenvalues of the pseudofractal web, with
    multiplicities, sorted descending."""

    entries: tuple[tuple[float, int], ...]

    @property
    def node_count(self) -> int:
        return sum(mult for _, mult in self.entries)

    def to_array(self) -> np.ndarray:
        return np.concatenate([np.full(mult, val)
                               for val, mult in self.entries])


def psfw_spectrum(g: int) -> PsfwSpectrum:
    """Closed-form spectrum of the pseudofractal transition matrix (g >= 2):
    1 once, 1 - 3/2^(s+1) with multiplicity (3^(g-s)+3)/2 for s = 0..g,
    and 1 - 4/2^(s+2) with multiplicity (3^(g-s)-3)/2 for s = 0..g-2.
    """
    if g < 2:
        raise DomainError(f"closed-form spectrum needs g >= 2, got {g}")
    entries: list[tuple[float, int]] = [(1.0, 1)]
    for s in range(g + 1):
        entries.append((1.0 - 3.0 / 2 ** (s + 1), (3 ** (g - s) + 3) // 2))
    for s in range(g - 1):
        entries.append((1.0 - 4.0 / 2 ** (s + 2), (3 ** (g - s) - 3) // 2))
    entries.sort(key=lambda t: -t[0])
    return PsfwSpectrum(tuple(entries))


def psfw_kemeny_closed_form(g: int) -> float:
    """Kemeny constant of the two-step pseudofractal walk, analytically:

        sum_{s=0}^{g}   2^(2s+1) (3^(g-s-1)+1) / (2^(s+2)-3)
      + sum_{s=0}^{g-2} 2^(2s-1) (3^(g-s)-3)   / (2^(s+1)-1)

    evaluated in exact rational arithmetic.
    """
    if g < 2:
        raise DomainError(f"closed form needs g >= 2, got {g}")
    total = Fraction(0)
    for s in range(g + 1):
        num = Fraction(2) ** (2 * s + 1) * (Fraction(3) ** (g - s - 1) + 1)
        total += num / (2 ** (s + 2) - 3)
    for s in range(g - 1):
        num = Fraction(2) ** (2 * s - 1) * (3 ** (g - s) - 3)
        total += num / (2 ** (s + 1) - 1)
    return float(total)


def powerlaw_exponent_mle(degrees: np.ndarray, *, k_min: int = 10) -> float:
    """Continuous maximum-likelihood estimate of a degree-tail exponent:
    1 + m / sum(log(k_i / (k_min - 1/2))) over degrees >= k_min."""
    tail = np.asarray(degrees, dtype=np.float64)
    tail = tail[tail >= k_min]
    if len(tail) < 10:
        raise DomainError(f"too few tail degrees >= {k_min} for an MLE fit")
    return float(1.0 + len(tail) / np.sum(np.log(tail / (k_min - 0.5))))
