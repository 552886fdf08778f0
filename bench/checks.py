"""Output checks of the benchmark and the independent dense oracle they use.

Every check returns ``None`` when the output is correct and a one-line
reason otherwise. Tolerances are the package's acceptance criteria:
c4 (the sketch sandwich) and c7 (estimator budgets against exact); they
are never loosened here.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

#: exact routes must agree with the dense oracle to this relative error.
EXACT_REL_TOL = 1e-8
#: c7 budgets against exact: (estimator budget + exact budget 0.005).
SWEEP_BUDGET = {"sample": 0.045, "approx": 0.125, "mc": 0.065,
                "simulate": 0.045}


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def dense_reference(g) -> tuple[float, float]:
    """(delta, two-step Kemeny) without an eigendecomposition.

    With S = D^-1/2 A D^-1/2 and psi = sqrt(pi), M = I - S^2 + psi psi^T
    is positive definite and M^-1 = pinv(I - S^2) + psi psi^T, so
    diag(pinv) = diag(M^-1) - pi and Kemeny = trace(M^-1) - 1. The
    diagonal of M^-1 is read off the inverse Cholesky factor.
    """
    pi = g.stationary()
    inv_sqrt_d = sp.diags(1.0 / np.sqrt(g.degrees))
    s_mat = (inv_sqrt_d @ g.adjacency_csr() @ inv_sqrt_d).tocsr()
    m_mat = -(s_mat @ s_mat).toarray()
    m_mat[np.diag_indices(g.n)] += 1.0
    psi = np.sqrt(pi)
    m_mat += np.outer(psi, psi)
    chol = sla.cholesky(m_mat, lower=True)
    inv_chol = sla.solve_triangular(chol, np.eye(g.n), lower=True)
    minv_diag = np.einsum("ij,ij->j", inv_chol, inv_chol)
    ldag = minv_diag - pi
    return float(pi @ ldag), float(minv_diag.sum() - 1.0)


def check_exact(delta: float, kemeny: float, ref_delta: float,
                ref_kemeny: float) -> str | None:
    for label, value, ref in (("delta", delta, ref_delta),
                              ("Kemeny", kemeny, ref_kemeny)):
        err = rel_err(value, ref)
        if not err <= EXACT_REL_TOL:
            return (f"exact {label} {value!r} differs from the dense oracle "
                    f"{ref!r} by {err:.3e} (limit {EXACT_REL_TOL})")
    return None


def check_sandwich(value: float, exact: float, epsilon: float) -> str | None:
    """c4: approx lies in [(1-eps)^3, (1+eps)^3] * exact."""
    ratio = value / exact
    lo, hi = (1.0 - epsilon) ** 3, (1.0 + epsilon) ** 3
    if not lo <= ratio <= hi:
        return f"approx/exact ratio {ratio!r} outside [{lo:.4f}, {hi:.4f}]"
    return None


def check_sweep(exit_code: int, rows: list[dict] | None, expected_rows: int,
                exact: dict[str, float]) -> str | None:
    """c7 budgets for every estimator row; exact rows match the oracle."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if rows is None or len(rows) != expected_rows:
        got = None if rows is None else len(rows)
        return f"expected {expected_rows} rows, got {got}"
    for row in rows:
        value, method = row["value"], row["method"]
        ref = exact[row["graph"]]
        limit = EXACT_REL_TOL if method == "exact" else SWEEP_BUDGET[method]
        err = rel_err(value, ref)
        if not (math.isfinite(value) and err <= limit):
            return (f"{row['graph']} {method} trial {row['trial']}: "
                    f"{value!r} is {err:.4f} from exact {ref!r} "
                    f"(limit {limit})")
    return None
