"""Exact computation of disagreement and two-step Kemeny constants.

Everything here works from the normalized adjacency matrix
S = D^{-1/2} A D^{-1/2} and serves as the ground-truth oracle for the
sampling estimators. ``decompose`` is the one place that checks or
factors: a Collatz-Wielandt interval from one sparse mat-vec puts the
leading eigenvalue at 1, and diag(M^-1), M = I - S^2 + psi psi^T
(psi = sqrt(pi)), is computed once. From ``_ELIMINATION_MIN_NODES`` nodes
up it is first read off the elimination of the one-step graph's
bipartite double cover by selected inversion; where that elimination is
abandoned (hubs, expanders), and on smaller graphs, M is factored
densely by Cholesky. While trace(M^-1) is at most ``_TRACE_GATE``
the summary keeps d = diag(M^-1): exact disagreement is d - pi weighted
by pi, the two-step Kemeny constant is trace(M^-1) - 1, and since
trace(M^-1) >= 1/(1 - lambda_k^2) for every k >= 2 no eigensolve is
needed. Above the gate the summary keeps the ``eigvalsh`` eigenvalues
that ``decompose`` checks for a ``NearBipartiteWarning``, and both exact
functions take the eigenpair route. Otherwise the eigenvalues are
computed on the first read of a summary's ``eigenvalues`` or
``gap_bound``, and the eigenvectors by a full ``eigh`` on the first read
of ``eigenvectors``.

The double cover H has nodes v+ and v-, and edges u+v- and u-v+ of
weight a_uv for each edge uv. Its normalized adjacency [[0, S], [S, 0]]
has the eigenpairs (lambda_k, [phi_k; phi_k]/sqrt 2) and
(-lambda_k, [phi_k; -phi_k]/sqrt 2): L_H = D_H - A_H is the direct sum
of D - A and D + A. On a connected non-bipartite graph only lambda_1 = 1
is 1. As 1/(1 - lambda^2) = (1/(1 - lambda) + 1/(1 + lambda))/2 and
phi_1i^2/(2(1 + lambda_1)) = pi_i/4, diag(M^-1)_i is
pinv(I - S_H)(i+, i+) + 3 pi_i/4. For any symmetric generalized inverse
G_H of L_H, pinv(I - S_H) = P_H D_H^1/2 G_H D_H^1/2 P_H, with
P_H = I - psi_H psi_H^T cancelling every kernel term; read at (i+, i+)
that is ``_eliminated_m_inverse_diagonal``'s formula.

Memory: the elimination route holds no n x n buffer, only H's edge list
(H has the graph's sparsity) and its rounds with their edge ids: 480 KiB
at gsw n = 2048, 40% of it ids. ``decompose`` peaked (``tracemalloc``)
1.1, 2.3 and 4.6 MiB above its input on gsw n = 2048, 4096 and 8192,
73 MiB on psfw g = 10 (88,575 nodes), so ``DENSE_NODE_CAP`` bounds the
other routes only. On the Cholesky route M is built straight into
LAPACK's rectangular full packed storage, n(n + 1)/2 float64 numbers:
psi psi^T first, then the sparse pattern of S^2, formed by row blocks.
``dpftrf`` factors M = L L^T and ``dtftri`` inverts L in place, so
``decompose`` holds 4n(n + 1) bytes for it: 16 MiB at n = 2048, 1.6 GB
at ``DENSE_NODE_CAP`` (computed, not run). diag(M^-1) is read off as the
squared column norms of L^-1, a row at a time; the product L^-T L^-1 is
never formed. The eigenvalue and eigenvector routes are not built this
way: on gsw n = 2048 the ``eigvalsh`` route peaked about two n x n
arrays above the interpreter's base and the ``eigh`` route about five.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NearBipartiteWarning, ResourceError
from .graph import (DENSE_NODE_CAP, WeightedGraph, require_ergodic,
                    two_step_graph, validate)
from .sparsify import SparsifiedLaplacian

#: eigenvalues with lambda^2 beyond 1 - _UNIT_EIGEN_TOL are treated as
#: members of the +-1 eigenspaces by the bipartite-bypass pseudoinverse.
_UNIT_EIGEN_TOL = 1e-9
#: ``decompose`` warns about an eigenvalue |lambda_k| > 1 - _NEAR_UNIT, k >= 2.
_NEAR_UNIT = 1e-12
#: trace(M^-1) >= 1/(1 - lambda_k^2), so a trace at most this puts every
#: |lambda_k|, k >= 2, below sqrt(1 - 1e-8): far from the warning's
#: 1 - _NEAR_UNIT, where 1/(1 - lambda^2) is about 5e11. Above it
#: ``decompose`` drops d, checks the eigenvalues for the warning and keeps
#: them for the eigenpair route.
_TRACE_GATE = 1e8
#: ``decompose`` requires the leading eigenvalue within this of 1.
_LAMBDA1_TOL = 1e-8
#: ``decompose`` tries the elimination route from this many nodes up: the
#: crossover of the cover's elimination against Cholesky, medians of 15
#: calls with 2 BLAS threads on a 2-core VM: gsw (p = 0.5) 3.69 against
#: 3.78 ms at n = 384, 4.16 against 5.25 ms at 512, 4.64 against 11.02 ms
#: at 768; apollonian 4.36 against 3.92 ms at 384, 5.24 against 5.98 ms
#: at 512; zachary 0.54 against 0.28 ms
_ELIMINATION_MIN_NODES = 512
#: ``_m_packed`` forms S^2 in row blocks of about this many bytes of
#: values (512 KiB)
_BLOCK_BYTES = 1 << 19


class SpectralSummary:
    """Spectral data of S: eigenvalues (descending), orthonormal
    eigenvectors, and, from ``decompose``, the diagonal of M^-1.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    ``gap_bound`` is max(|lambda_2|, |lambda_N|), the contraction factor
    of the two-step walk on the complement of the stationary direction.

    A summary from ``decompose`` is given the graph and computes the rest
    on first read: ``eigenvalues`` (and ``gap_bound``) by ``eigvalsh`` of
    S, ``eigenvectors`` by a full ``eigh``; each is cached on the summary.
    It also holds d = diag(M^-1), M = I - S^2 + psi psi^T, when
    ``decompose`` certified it (trace at most ``_TRACE_GATE``);
    ``exact_disagreement`` and ``exact_kemeny_two_step`` read it in place
    of the eigenpairs. ``allow_bipartite`` records the mode it was
    checked in, ``solver`` and ``elimination_rounds`` the route that gave
    the diagonal (see ``decompose``).
    """

    def __init__(self, eigenvalues: np.ndarray | None,
                 eigenvectors: np.ndarray | None, gap_bound: float | None,
                 *, graph: WeightedGraph | None = None,
                 m_inv_diag: np.ndarray | None = None,
                 allow_bipartite: bool = False, solver: str = "eigenpairs",
                 elimination_rounds: int = 0) -> None:
        if graph is None and (eigenvalues is None or eigenvectors is None):
            raise DomainError("a spectral summary needs its eigenvalues and "
                              "eigenvectors or the graph to compute them from")
        self._eigenvalues = eigenvalues
        self._gap_bound = gap_bound
        self._eigenvectors = eigenvectors
        self._graph = graph
        self._m_inv_diag = m_inv_diag
        self._allow_bipartite = allow_bipartite
        self.solver = solver
        self.elimination_rounds = elimination_rounds

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self._eigenvalues = _eigenvalues(self._graph)
        return self._eigenvalues

    @property
    def gap_bound(self) -> float:
        if self._gap_bound is None:
            vals = self.eigenvalues
            self._gap_bound = float(max(abs(vals[1]), abs(vals[-1])))
        return self._gap_bound

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            # eigh orders its eigenvalues ascending; reversed, its vectors
            # pair by rank with the descending stored eigenvalues
            vecs = np.linalg.eigh(normalized_adjacency_dense(self._graph))[1]
            self._eigenvectors = vecs[:, ::-1]
        return self._eigenvectors


def normalized_adjacency(g: WeightedGraph) -> sp.csr_matrix:
    """S = D^{-1/2} A D^{-1/2} as a sparse matrix, symmetric bit for bit:
    entry (i, j) is a_ij (d_i^{-1/2} d_j^{-1/2}), whose rounding does not
    depend on the order of i and j."""
    inv_sqrt_d = 1.0 / np.sqrt(g.degrees)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    return sp.csr_matrix(
        (g.weights * (inv_sqrt_d[rows] * inv_sqrt_d[g.indices]), g.indices,
         g.indptr), shape=(g.n, g.n))


def _require_dense_size(g: WeightedGraph) -> None:
    """Refuse the n x n arrays of the Cholesky and eigen routes."""
    if g.n > DENSE_NODE_CAP:
        raise ResourceError(f"the Cholesky and eigen routes are capped at "
                            f"{DENSE_NODE_CAP} nodes")


def normalized_adjacency_dense(g: WeightedGraph) -> np.ndarray:
    _require_dense_size(g)
    inv_sqrt_d = 1.0 / np.sqrt(g.degrees)
    return g.adjacency_dense() * np.outer(inv_sqrt_d, inv_sqrt_d)


def _eigenvalues(g: WeightedGraph) -> np.ndarray:
    """Eigenvalues of S, descending, from a dense ``eigvalsh``."""
    return np.linalg.eigvalsh(normalized_adjacency_dense(g))[::-1]


def decompose(g: WeightedGraph, *,
              allow_bipartite: bool = False) -> SpectralSummary:
    """Check the spectrum of S and compute diag(M^-1),
    M = I - S^2 + psi psi^T, once.

    Above ``DENSE_NODE_CAP`` nodes only the elimination route below runs:
    the Cholesky and eigen routes raise ``ResourceError``. Bipartite
    inputs are rejected (their spectrum contains -1, which makes
    1/(1 - lambda^2) singular) unless ``allow_bipartite`` is set for the
    pseudoinverse-bypass mode; they are then not factored.

    The leading eigenvalue must lie within ``_LAMBDA1_TOL`` of 1. With
    psi = sqrt(pi) > 0 and S nonnegative and irreducible, it lies in
    [min_i (S psi)_i/psi_i, max_i (S psi)_i/psi_i] (Collatz-Wielandt), and
    each ratio is the i-th adjacency row sum over the i-th degree. An
    interval that leaves the tolerance therefore means the degrees do not
    match the adjacency, and raises ``DomainError``.

    M has the eigenvalues 1 and 1 - lambda_k^2, k >= 2. The route to
    d = diag(M^-1) is chosen from the input, with no option. From
    ``_ELIMINATION_MIN_NODES`` nodes up (the measured crossover) d comes
    from the elimination of the graph's bipartite double cover
    (``_eliminated_m_inverse_diagonal``) where that elimination completes
    with a dense block of one numerically zero eigenvalue and a trace at
    most ``_TRACE_GATE``. Otherwise M is factored once by Cholesky
    (``_m_inverse_diagonal``), whatever the elimination did: so on every
    input that leaves the elimination, decompose does what the Cholesky
    route alone does. A failed factorisation raises ``DomainError``
    unless ``allow_bipartite`` is set. The summary keeps d when trace(d)
    is at most ``_TRACE_GATE``, which also rules out any eigenvalue
    beyond 1 - 1e-12 in magnitude other than the leading one. Above the
    gate d is dropped; unless ``allow_bipartite`` is set, the eigenvalues
    are then computed and kept, and any such eigenvalue raises a
    ``NearBipartiteWarning``. Otherwise they are computed on their first
    read, the eigenvectors on theirs. The summary records the route that
    gave d (``"elimination"`` or ``"cholesky"``, ``"eigenpairs"`` without
    d) and the number of elimination rounds kept (0 where none was tried).
    """
    if g.n == 1:
        return SpectralSummary(np.ones(1), np.ones((1, 1)), 0.0)
    require_ergodic(g, "decompose", allow_bipartite=allow_bipartite)
    psi = np.sqrt(g.stationary())
    ratios = (normalized_adjacency(g) @ psi) / psi
    low, high = float(ratios.min()), float(ratios.max())
    if max(abs(low - 1.0), abs(high - 1.0)) > _LAMBDA1_TOL:
        raise DomainError(
            f"the leading eigenvalue's Collatz-Wielandt interval "
            f"[{low!r}, {high!r}] is not within {_LAMBDA1_TOL} of 1: the "
            "degrees do not match the adjacency row sums; the graph data "
            "is inconsistent")
    m_inv_diag = vals = None
    solver, rounds = "cholesky", 0
    if not validate(g).bipartite:
        # bipartite M is singular: the bypass reads the eigenpairs instead
        if g.n >= _ELIMINATION_MIN_NODES:
            m_inv_diag, rounds = _eliminated_m_inverse_diagonal(g)
        if m_inv_diag is not None:
            solver = "elimination"
        else:
            try:
                m_inv_diag = _m_inverse_diagonal(g)
            except DomainError:
                if not allow_bipartite:
                    raise
    if m_inv_diag is not None and m_inv_diag.sum() > _TRACE_GATE:
        m_inv_diag = None
    if m_inv_diag is None:
        solver = "eigenpairs"
        if not allow_bipartite:
            vals = _eigenvalues(g)
            rest = np.abs(vals[1:])
            if rest.max() > 1.0 - _NEAR_UNIT:
                warnings.warn(
                    f"near-bipartite spectrum: eigenvalue "
                    f"{vals[1:][rest.argmax()]!r} makes 1/(1-lambda^2) "
                    "blow up", NearBipartiteWarning, stacklevel=2)
    return SpectralSummary(vals, None, None, graph=g, m_inv_diag=m_inv_diag,
                           allow_bipartite=allow_bipartite, solver=solver,
                           elimination_rounds=rounds)


@dataclass(frozen=True)
class DisagreementExact:
    """Exact disagreement with its per-node decomposition.

    ``ldag_diag[i]`` is the i-th diagonal entry of the pseudoinverse of
    the two-step normalized Laplacian; ``contributions = pi * ldag_diag``
    sums to ``delta``. ``solver`` names the route that computed it:
    ``"elimination"`` or ``"cholesky"`` for diag(M^-1), or
    ``"eigenpairs"``; ``elimination_rounds`` counts the rounds of the
    double cover's elimination that ``decompose`` kept (0 where it was
    not tried).
    """

    delta: float
    pi: np.ndarray
    ldag_diag: np.ndarray
    contributions: np.ndarray
    solver: str = "eigenpairs"
    elimination_rounds: int = 0

    @property
    def value(self) -> float:
        """``delta``, under the name the estimators' results use."""
        return self.delta

    def to_json(self) -> dict:
        return {
            "method": "exact",
            "delta": self.delta,
            "diagnostics": {"solver": self.solver,
                            "elimination_rounds": self.elimination_rounds},
            "per_node": [
                {"node": i, "pi": float(p), "ldag": float(l),
                 "contribution": float(c)}
                for i, (p, l, c) in enumerate(
                    zip(self.pi, self.ldag_diag, self.contributions))
            ],
        }


def two_step_pinv_diagonal(s: SpectralSummary, *,
                           allow_bipartite_pseudoinverse: bool = False
                           ) -> np.ndarray:
    """Diagonal of pinv(I - S^2) from the eigendecomposition of S.

    The bypass mode drops every eigenvalue with lambda^2 = 1 (both the
    +1 and -1 eigenspaces) instead of only the leading one, which is the
    natural reading of the pseudoinverse on bipartite graphs.
    """
    lam = s.eigenvalues
    mask = (lam * lam < 1.0 - _UNIT_EIGEN_TOL if allow_bipartite_pseudoinverse
            else np.arange(len(lam)) > 0)
    denom = 1.0 - lam[mask] ** 2
    psi = s.eigenvectors[:, mask]
    return (psi * psi) @ (1.0 / denom)


def _m_packed(g: WeightedGraph) -> np.ndarray:
    """M = I - S^2 + psi psi^T in LAPACK's rectangular full packed format
    (TRANSR = 'N', UPLO = 'L'), as a C-order array of k = ceil(n/2) rows
    and n + 1 - n % 2 columns: row c holds M[k + c - odd, k:k + c + 1 - odd]
    and then M[c, c:], with odd = n % 2.

    psi psi^T is written straight into those slices, then the lower
    triangle of the sparse pattern of S^2 is overwritten with
    ((-s2_ij) + delta_ij) + psi_i psi_j; off that pattern M is psi_i psi_j
    alone. S^2 is formed a row block at a time, sized so that a block
    holds at most about ``_BLOCK_BYTES`` of values. Since S is symmetric
    bit for bit so is M: the packed lower triangle equals the upper one."""
    s_mat = normalized_adjacency(g)
    psi = np.sqrt(g.stationary())
    n = g.n
    k, odd = (n + 1) // 2, n % 2
    cols = n + 1 - odd
    packed = np.empty((k, cols))
    for c in range(k):
        np.multiply(psi[c], psi[c:], out=packed[c, c + 1 - odd:])
        np.multiply(psi[k + c - odd], psi[k:k + c + 1 - odd],
                    out=packed[c, :c + 1 - odd])
    flat = packed.reshape(-1)
    # row i of S^2 has at most min(n, sum of i's neighbours' degrees)
    # entries
    counts = np.diff(s_mat.indptr)
    reach = np.add.reduceat(counts[s_mat.indices], s_mat.indptr[:-1])
    rows = max(1, _BLOCK_BYTES // (8 * min(n, int(reach.max()))))
    for lo in range(0, n, rows):
        block = s_mat[lo:lo + rows] @ s_mat
        i = np.repeat(np.arange(lo, lo + block.shape[0]),
                      np.diff(block.indptr))
        lower = block.indices <= i
        i, j, s2 = i[lower], block.indices[lower], block.data[lower]
        # lower entry (i, j): column j of the leading part when j < k,
        # else row i - k + odd of the trailing triangle
        flat[np.where(j < k, j * cols + i + 1 - odd,
                      (i - k + odd) * cols + j - k)] = (
            ((-s2) + (i == j)) + psi[i] * psi[j])
    return packed


@functools.cache
def _lapack_dtftri():
    """LAPACK's ``dtftri`` from scipy's ``cython_lapack`` capsule, which
    scipy.linalg.lapack does not wrap: void(char *transr, char *uplo,
    char *diag, int *n, double *a, int *info)."""
    # imported here: scipy.linalg adds ~0.1 s and ~8 MB to every CLI run
    from scipy.linalg import cython_lapack
    capsule = cython_lapack.__pyx_capi__["dtftri"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    int_p = ctypes.POINTER(ctypes.c_int)
    signature = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p,
                                 ctypes.c_char_p, int_p, ctypes.c_void_p,
                                 int_p)
    return signature(get_pointer(capsule, get_name(capsule)))


def _dtftri(n: int, a: np.ndarray) -> int:
    """Invert in place the lower triangular factor of order n held in
    ``a`` (rectangular full packed, TRANSR = 'N', UPLO = 'L', non-unit
    diagonal); return LAPACK's info."""
    if (a.dtype != np.float64 or not a.flags.c_contiguous
            or not a.flags.writeable or a.size != n * (n + 1) // 2):
        raise ValueError("dtftri needs a writeable contiguous float64 "
                         "array of n(n + 1)/2 numbers")
    info = ctypes.c_int(0)
    _lapack_dtftri()(b"N", b"L", b"N", ctypes.byref(ctypes.c_int(n)),
                     a.ctypes.data, ctypes.byref(info))
    return info.value


def _m_inverse_diagonal(g: WeightedGraph) -> np.ndarray:
    """Diagonal of M^-1, M = I - S^2 + psi psi^T, from one dense Cholesky
    factorisation: ``decompose``'s route below ``_ELIMINATION_MIN_NODES``
    nodes and wherever ``_eliminated_m_inverse_diagonal`` gives none.

    On a connected non-bipartite graph psi = sqrt(pi) spans the kernel
    of I - S^2, so M is positive definite and
    M^-1 = pinv(I - S^2) + psi psi^T: the pseudoinverse diagonal is
    diag(M^-1) - pi. M = L L^T is factored (``dpftrf``) in the packed
    array of ``_m_packed``, which holds n(n + 1)/2 numbers where a full
    matrix holds n^2, and L is inverted there in place (``dtftri``).
    M^-1 = L^-T L^-1, so diag(M^-1)_i is the squared norm of column i of
    L^-1, summed a packed row at a time: row c holds column c of L^-1
    from the diagonal down after its first c + 1 - odd entries, which are
    row c - odd of the trailing triangle (nodes k, k + 1, ...). The
    product L^-T L^-1 that ``dpftri`` would form is never needed. A
    failed factorisation or inversion raises ``DomainError``.
    """
    # imported here: scipy.linalg adds ~0.1 s and ~8 MB to every CLI run
    from scipy.linalg.lapack import dpftrf
    _require_dense_size(g)
    n = g.n
    packed = _m_packed(g)
    chol, info = dpftrf(n, packed.reshape(-1), transr="N", uplo="L",
                        overwrite_a=1)
    if info > 0:
        raise DomainError(
            f"I - S^2 + psi psi^T is not positive definite (its leading "
            f"minor of order {info} is not); the graph is near-bipartite "
            "or its data is inconsistent")
    info = _dtftri(n, chol)
    if info != 0:
        raise DomainError(f"inverting the Cholesky factor of M failed "
                          f"(LAPACK dtftri info={info})")
    inv = chol.reshape(packed.shape)
    k, odd = len(inv), n % 2
    diag = np.empty(n)
    trailing = np.zeros(inv.shape[1])
    squares = np.empty(inv.shape[1])
    for c, row in enumerate(inv):
        split = c + 1 - odd
        np.square(row, out=squares)
        diag[c] = squares[split:].sum()
        trailing[:split] += squares[:split]
    diag[k:] = trailing[:n - k]
    return diag


def _cover_laplacian(g: WeightedGraph) -> SparsifiedLaplacian:
    """Laplacian of the bipartite double cover H of ``g`` as an edge list:
    nodes v+ = v and v- = v + n, edges (u+, v-) and (u-, v+) of weight
    a_uv for each edge uv, one edge (u+, u-) for a self-loop (which
    counts once in a degree). H's degrees are then [d; d]."""
    n, u, v, w = g.n, g.edge_u, g.edge_v, g.edge_w
    pair = u != v
    return SparsifiedLaplacian(2 * n, np.concatenate([u, v[pair]]),
                               np.concatenate([v + n, u[pair] + n]),
                               np.concatenate([w, w[pair]]), sample_count=0)


def _eliminated_m_inverse_diagonal(g: WeightedGraph
                                   ) -> tuple[np.ndarray | None, int]:
    """Diagonal of M^-1 from the elimination of the double cover's
    Laplacian L_H (``_cover_laplacian``), and the number of elimination
    rounds kept; the diagonal is None where the elimination is abandoned
    or its trace is above ``_TRACE_GATE``.

    Selected inversion gives diag(G_H) for the generalized inverse G_H the
    elimination defines. With d_H = [d; d], pi = d / d_sum and y = G_H d_H
    (one ``apply``), diag(M^-1)_i = d_i G_H(i+, i+) - pi_i y_i+
    + pi_i (d_H^T y) / (4 d_sum) + 3 pi_i / 4 (see the module docstring).
    d_H^T y sums both halves of y, which need not be equal."""
    elim = _cover_laplacian(g).elimination
    rounds = len(elim.rounds)
    if not elim.complete:
        return None, rounds
    n, d, pi = g.n, g.degrees, g.stationary()
    y = elim.apply(np.tile(d, 2)[:, None])[:, 0]
    diag = (d * elim.inverse_diagonal()[:n] - pi * y[:n]
            + pi * (d @ (y[:n] + y[n:]) / (4.0 * g.d_sum)) + 0.75 * pi)
    return (None if diag.sum() > _TRACE_GATE else diag), rounds


def exact_disagreement(g: WeightedGraph,
                       s: SpectralSummary | None = None, *,
                       allow_bipartite_pseudoinverse: bool = False
                       ) -> DisagreementExact:
    """Disagreement delta = sum_i pi_i * sum_{k>=2} psi_ki^2/(1-lambda_k^2).

    ``s`` is used only when ``decompose`` built it from ``g`` itself, and
    in the default mode unless this call asks for the bypass too; any
    other summary (or none) is replaced by ``decompose(g)``. The pseudoinverse
    diagonal is then diag(M^-1) - pi when the summary holds d = diag(M^-1),
    and otherwise (the bipartite bypass, or a trace above ``_TRACE_GATE``)
    comes from the eigenpairs of the summary.
    """
    if g.n == 1:
        return DisagreementExact(0.0, np.ones(1), np.zeros(1), np.zeros(1))
    if (s is None or s._graph is not g
            or (s._allow_bipartite and not allow_bipartite_pseudoinverse)):
        s = decompose(g, allow_bipartite=allow_bipartite_pseudoinverse)
    pi = g.stationary()
    if allow_bipartite_pseudoinverse or s._m_inv_diag is None:
        ldag = two_step_pinv_diagonal(
            s, allow_bipartite_pseudoinverse=allow_bipartite_pseudoinverse)
        solver = "eigenpairs"
    else:
        ldag = s._m_inv_diag - pi
        solver = s.solver
    contrib = pi * ldag
    return DisagreementExact(float(contrib.sum()), pi, ldag, contrib,
                             solver, s.elimination_rounds)


def exact_kemeny_two_step(s: SpectralSummary) -> float:
    """Kemeny constant of the two-step walk: sum_{k>=2} 1/(1-lambda_k^2).

    That sum is trace(M^-1) - 1, read from the diagonal of M^-1 when the
    summary holds it (``decompose`` keeps it only while the trace is at
    most ``_TRACE_GATE``). Any other summary sums its eigenvalues: above
    the gate M is too ill-conditioned for its inverse (on two triangles
    bridged by weight 1e-14 the trace is 3.9% below the true 1.5e14, the
    ``eigvalsh`` sum 0.08% above it).
    """
    m_inv_diag = s._m_inv_diag
    if m_inv_diag is not None:
        return float(m_inv_diag.sum() - 1.0)
    lam = s.eigenvalues[1:]
    return float(np.sum(1.0 / (1.0 - lam * lam)))


@dataclass(frozen=True)
class PseudoinverseCheck:
    """Agreement report for three routes to pinv of the two-step Laplacian."""

    direct_vs_transform: float
    direct_vs_series: float
    series_terms: int
    diagonal_min: float


def pseudoinverse_identity_check(g: WeightedGraph, *, eps: float = 1e-5,
                                 cap: int = 200) -> PseudoinverseCheck:
    """Cross-check pinv(I - S^2) three independent ways (test-scale only).

    Route 1 eigendecomposes the normalized Laplacian of the explicitly
    materialized two-step graph; route 2 transforms the pseudoinverse of
    its combinatorial Laplacian; route 3 sums the even-power series
    S^{2i} - psi_1 psi_1^T truncated at the length that caps the tail of
    a geometric series with ratio gap_bound^2 below eps/2.
    """
    if g.n > cap:
        raise ResourceError(f"pseudoinverse check capped at {cap} nodes")
    require_ergodic(g, "pseudoinverse check")
    gp = two_step_graph(g)

    sqrt_d = np.sqrt(g.degrees)
    proj = np.eye(g.n) - np.outer(sqrt_d, sqrt_d) / g.d_sum

    s2 = normalized_adjacency_dense(gp)
    direct = np.linalg.pinv(np.eye(g.n) - s2, hermitian=True)

    lap = np.diag(gp.degrees) - gp.adjacency_dense()
    lap_pinv = np.linalg.pinv(lap, hermitian=True)
    transform = proj @ (sqrt_d[:, None] * lap_pinv * sqrt_d[None, :]) @ proj

    # the lazy summary computes the eigenvalues only, not decompose's factor
    ell = truncation_length(eps, SpectralSummary(None, None, None,
                                                 graph=g).gap_bound)
    s2_base = normalized_adjacency_dense(g)
    s2_base = s2_base @ s2_base
    power = np.eye(g.n)
    series = np.zeros((g.n, g.n))
    for _ in range(ell):
        series += power - np.outer(sqrt_d, sqrt_d) / g.d_sum
        power = power @ s2_base

    return PseudoinverseCheck(
        direct_vs_transform=float(np.max(np.abs(direct - transform))),
        direct_vs_series=float(np.max(np.abs(direct - series))),
        series_terms=ell,
        diagonal_min=float(np.min(np.diag(direct))),
    )


def truncation_length(epsilon: float, lam: float) -> int:
    """Series length keeping the geometric tail below epsilon/2.

    ceil(log(2/(epsilon*(1-lam))) / (2*log(1/lam))), clamped to >= 1.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"spectral bound must lie in (0, 1), got {lam}")
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    arg = 2.0 / (epsilon * (1.0 - lam))
    if arg <= 1.0:
        warnings.warn("loose tolerance makes the derived truncation length "
                      "nonpositive; clamping to 1", stacklevel=2)
        return 1
    return max(1, int(np.ceil(np.log(arg) / (2.0 * np.log(1.0 / lam)))))
