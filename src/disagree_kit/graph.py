"""Undirected weighted graphs: representation, I/O, validation, two-step graph.

Nodes are dense 0-based integers after loading; the loader relabels
arbitrary ids and records the mapping in ``node_labels``. Only
``WeightedGraph.__init__`` puts edges in canonical order. Degrees follow
the convention that a self-loop contributes its weight once, which makes
the two-step graph degree-preserving.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, DuplicateEdgeError, ParseError, ResourceError

#: Largest node count admitted to dense materializations (two-step graph,
#: full eigendecompositions, the Cholesky route). Beyond this, exact runs
#: by elimination where that completes.
DENSE_NODE_CAP = 20_000

_EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


class WeightedGraph:
    """Immutable undirected weighted graph in CSR adjacency form.

    ``edge_u/edge_v/edge_w`` hold the canonical undirected edge list with
    ``edge_u <= edge_v``, sorted lexicographically; self-loops appear once.
    ``indptr/indices/weights`` are the per-node sorted neighbor arrays.
    """

    __slots__ = ("n", "edge_u", "edge_v", "edge_w", "indptr", "indices",
                 "weights", "degrees", "d_sum", "w_min", "w_max",
                 "node_labels", "_pi", "_validation")

    def __init__(self, n, edge_u, edge_v, edge_w, node_labels=None):
        self.n = int(n)
        eu = np.asarray(edge_u, dtype=np.int64)
        ev = np.asarray(edge_v, dtype=np.int64)
        ew = np.asarray(edge_w, dtype=np.float64)
        # canonical form: u <= v, lexicographic order
        swap = eu > ev
        eu, ev = np.where(swap, ev, eu), np.where(swap, eu, ev)
        order = np.lexsort((ev, eu))
        self.edge_u = eu[order]
        self.edge_v = ev[order]
        self.edge_w = ew[order]
        # Symmetrize into CSR rows; loops enter their row once.
        loop = self.edge_u == self.edge_v
        rows = np.concatenate([self.edge_u, self.edge_v[~loop]])
        cols = np.concatenate([self.edge_v, self.edge_u[~loop]])
        vals = np.concatenate([self.edge_w, self.edge_w[~loop]])
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(self.indptr, rows + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = cols
        self.weights = vals
        self.degrees = np.zeros(self.n, dtype=np.float64)
        np.add.at(self.degrees, rows, vals)
        self.d_sum = float(self.degrees.sum())
        if len(self.edge_w):
            self.w_min = float(self.edge_w.min())
            self.w_max = float(self.edge_w.max())
        else:
            self.w_min = self.w_max = float("nan")
        self.node_labels = (None if node_labels is None
                            else np.asarray(node_labels, dtype=np.int64))
        self._pi = None
        self._validation = None
        for arr in (self.edge_u, self.edge_v, self.edge_w, self.indptr,
                    self.indices, self.weights, self.degrees):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]], *,
                   allow_self_loops: bool = False,
                   node_labels=None) -> "WeightedGraph":
        """Build a graph from (u, v, w) triples. Reports the first bad edge in
        input order (range, then weight, then self-loop), else the first
        duplicate in canonical order."""
        n = int(n)
        if n < 1:
            raise DomainError("graph needs at least one node")
        try:
            e = np.fromiter(map(tuple, edges), dtype=_EDGE_DTYPE)
        except OverflowError:  # an id past int64 or a weight past float64
            raise DomainError(_first_bad_edge(n, edges, allow_self_loops)
                              ) from None
        u, v, w = e["u"], e["v"], e["w"]
        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad_weight = ~(np.isfinite(w) & (w > 0.0))
        loop = (u == v) & (not allow_self_loops)
        bad = out_of_range | bad_weight | loop
        if bad.any():
            k = int(np.argmax(bad))
            uk, vk = int(u[k]), int(v[k])
            if out_of_range[k]:
                raise DomainError(f"edge ({uk}, {vk}) out of range for n={n}")
            if bad_weight[k]:
                raise DomainError(
                    f"edge ({uk}, {vk}) has nonpositive weight {float(w[k])}")
            raise DomainError(f"self-loop at node {uk} is not allowed here")
        if not len(u) and n > 1:
            raise DomainError("edge list is empty")
        g = cls(n, u, v, w, node_labels=node_labels)
        dup = (g.edge_u[1:] == g.edge_u[:-1]) & (g.edge_v[1:] == g.edge_v[:-1])
        if dup.any():
            k = int(np.argmax(dup))
            raise DuplicateEdgeError(
                f"duplicate undirected edge ({g.edge_u[k]}, {g.edge_v[k]})")
        return g

    # -- bookkeeping ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges, self-loops counted once."""
        return len(self.edge_u)

    @property
    def has_self_loops(self) -> bool:
        return bool((self.edge_u == self.edge_v).any())

    @property
    def is_unit_weighted(self) -> bool:
        return bool(np.all(self.edge_w == 1.0))

    def stationary(self) -> np.ndarray:
        """Stationary distribution pi_i = d_i / d_sum of the random walk."""
        if self._pi is None:
            if self.n == 1:
                pi = np.ones(1)
            else:
                if self.d_sum <= 0 or (self.degrees <= 0).any():
                    raise DomainError("stationary distribution needs d_i > 0")
                pi = self.degrees / self.d_sum
            pi.setflags(write=False)
            self._pi = pi
        return self._pi

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def adjacency_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.weights, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def adjacency_dense(self) -> np.ndarray:
        return self.adjacency_csr().toarray()

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w):
            yield int(u), int(v), float(w)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _first_bad_edge(n: int, edges, allow_self_loops: bool) -> str:
    """What ``from_edges`` reports when a triple overflows ``_EDGE_DTYPE``:
    the first bad edge in input order, by its checks run one edge at a
    time on Python numbers. A one-shot iterator is spent by then, and the
    message names no edge."""
    for u, v, w in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        try:
            w = float(w)
        except OverflowError:
            return f"edge ({u}, {v}) has a weight too large for a float"
        if not (np.isfinite(w) and w > 0.0):
            return f"edge ({u}, {v}) has nonpositive weight {w}"
        if u == v and not allow_self_loops:
            return f"self-loop at node {u} is not allowed here"
    return f"an edge's node id or weight overflows (n={n})"


@dataclass(frozen=True)
class GraphValidation:
    """Connectivity and bipartiteness report.

    ``lcc_node_map`` maps original node ids onto dense ids of the largest
    connected component; it is None when the graph is connected. Ties on
    component size go to the component containing the smallest node id.
    """

    connected: bool
    bipartite: bool
    component_count: int
    lcc_node_map: dict[int, int] | None


def component_roots(n: int, edge_u: np.ndarray,
                    edge_v: np.ndarray) -> np.ndarray:
    """Label every node with the smallest node of its connected component.

    Vectorized union-find: each round hooks the larger root of every edge
    that still joins two trees onto the smaller one, then jumps pointers
    until every node points at its root. Parents only ever decrease, so a
    tree's root is its smallest node. (``scipy.sparse.csgraph`` would add
    about 10 MB resident on import.)
    """
    parent = np.arange(n)
    while True:
        pu, pv = parent[edge_u], parent[edge_v]
        cross = pu != pv
        if not cross.any():
            return parent
        edge_u, edge_v = edge_u[cross], edge_v[cross]
        np.minimum.at(parent, np.maximum(pu[cross], pv[cross]),
                      np.minimum(pu[cross], pv[cross]))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand


def validate(g: WeightedGraph) -> GraphValidation:
    """Components and bipartiteness, computed once per graph and cached.

    The graph is bipartite iff its bipartite double cover (edges (u, v+n)
    and (v, u+n), so a self-loop joins a node to its own twin) has twice
    as many components: a component splits in two exactly when it has no
    odd cycle.
    """
    if g._validation is None:  # racing threads store equal values
        n = g.n
        roots = component_roots(n, g.edge_u, g.edge_v)
        cover = component_roots(2 * n,
                                np.concatenate([g.edge_u, g.edge_v]),
                                np.concatenate([g.edge_v + n, g.edge_u + n]))
        ids, sizes = np.unique(roots, return_counts=True)
        n_comp = len(ids)
        lcc_map = None
        if n_comp > 1:
            # ids ascend, so the first maximum holds the smallest node id
            members = np.flatnonzero(roots == ids[np.argmax(sizes)])
            lcc_map = {int(old): new for new, old in enumerate(members)}
        n_cover = int(np.count_nonzero(cover == np.arange(2 * n)))
        g._validation = GraphValidation(
            connected=n_comp == 1, bipartite=n_cover == 2 * n_comp,
            component_count=n_comp, lcc_node_map=lcc_map)
    return g._validation


def require_ergodic(g: WeightedGraph, what: str, *,
                    allow_bipartite: bool = False) -> None:
    """Raise ``DomainError`` unless ``g`` is connected and, unless
    ``allow_bipartite`` is set, non-bipartite."""
    check = validate(g)
    if not check.connected:
        raise DomainError(f"{what} requires a connected graph")
    if check.bipartite and not allow_bipartite:
        raise DomainError(f"{what} requires a non-bipartite graph")


def restrict_to_lcc(g: WeightedGraph) -> WeightedGraph:
    """Relabel onto the largest connected component; identity when connected."""
    mapping = validate(g).lcc_node_map
    if mapping is None:  # connected
        return g
    old = np.fromiter(mapping, dtype=np.int64, count=len(mapping))
    lut = np.full(g.n, -1, dtype=np.int64)
    lut[old] = np.fromiter(mapping.values(), dtype=np.int64,
                           count=len(mapping))
    members = old[np.argsort(lut[old])]  # original ids in new-id order
    keep = lut >= 0
    mask = keep[g.edge_u] & keep[g.edge_v]
    labels_src = g.node_labels if g.node_labels is not None else np.arange(g.n)
    return WeightedGraph(len(mapping), lut[g.edge_u[mask]],
                         lut[g.edge_v[mask]], g.edge_w[mask],
                         node_labels=labels_src[members])


# -- edge-list I/O -----------------------------------------------------

def load_bundled(name: str) -> WeightedGraph:
    """Load one of the packaged fixture graphs ("zachary" or "path5")."""
    from importlib.resources import files

    resource = files("disagree_kit.data") / f"{name}.tsv"
    if not resource.is_file():
        raise DomainError(f"no bundled graph named {name!r}")
    return load_edge_list(io.StringIO(resource.read_text(encoding="utf-8")))


def load_edge_list(source, *, allow_self_loops: bool = False) -> WeightedGraph:
    """Parse a whitespace-separated edge list.

    One edge per line as ``u v`` or ``u v w`` with nonnegative integer
    ids and positive weights; ``#`` lines are comments. Node ids are
    relabeled to dense 0-based integers (mapping kept in
    ``node_labels``). Duplicate undirected edges are rejected.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    elif isinstance(source, bytes):
        lines = io.StringIO(source.decode("utf-8")).readlines()
    else:
        lines = source.readlines()

    raw = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise ParseError("expected 'u v' or 'u v w'", line_no)
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise ParseError(f"node ids must be integers: {stripped!r}",
                             line_no) from None
        if u < 0 or v < 0:
            raise ParseError("node ids must be nonnegative", line_no)
        if max(u, v) >= 2 ** 63:  # ids are relabeled through int64
            raise ParseError("node ids must be below 2**63", line_no)
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"weight must be a number: {parts[2]!r}",
                                 line_no) from None
            if not np.isfinite(w) or w <= 0.0:
                raise DomainError(
                    f"line {line_no}: weight must be positive, got {w}")
        else:
            w = 1.0
        raw.append((u, v, w))
    if not raw:
        raise DomainError("edge list is empty")

    us, vs, ws = zip(*raw)
    ids, dense = np.unique(np.array(us + vs, dtype=np.int64),
                           return_inverse=True)
    m = len(raw)
    # sorted distinct nonnegative ids are 0..k-1 iff the last one is k-1
    return WeightedGraph.from_edges(
        len(ids), zip(dense[:m].tolist(), dense[m:].tolist(), ws),
        allow_self_loops=allow_self_loops,
        node_labels=None if ids[-1] == len(ids) - 1 else ids)


def edge_list_text(g: WeightedGraph) -> str:
    """Canonical serialization: sorted edges, weights omitted when all 1."""
    u, v = g.edge_u, g.edge_v
    if g.node_labels is not None:
        u, v = g.node_labels[u], g.node_labels[v]
    u, v = u.tolist(), v.tolist()
    if g.is_unit_weighted:
        return "".join(f"{a}\t{b}\n" for a, b in zip(u, v))
    return "".join(f"{a}\t{b}\t{c!r}\n"
                   for a, b, c in zip(u, v, g.edge_w.tolist()))


# -- two-step graph ----------------------------------------------------

def two_step_graph(g: WeightedGraph, *,
                   cap: int = DENSE_NODE_CAP) -> WeightedGraph:
    """Graph whose random walk takes two steps of the walk on ``g``.

    The adjacency entry (u, w) is sum_v a_uv * a_vw / d_v, so the
    transition matrix is P^2 and every node keeps its degree from ``g``
    (self-loop weight counted once). Requires a connected non-bipartite
    base graph: for bipartite inputs the two-step walk is reducible.
    """
    if g.n > cap:
        raise ResourceError(
            f"two-step graph materialization capped at {cap} nodes (n={g.n})")
    if g.n == 1:
        raise DomainError("two-step graph needs at least one edge")
    require_ergodic(g, "two-step graph")
    a = g.adjacency_csr()
    two = (a @ sp.diags(1.0 / g.degrees) @ a).tocoo()
    keep = two.row <= two.col
    labels = None if g.node_labels is None else g.node_labels.copy()
    return WeightedGraph(g.n, two.row[keep], two.col[keep], two.data[keep],
                         node_labels=labels)

