import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import disagree_kit as dk
from disagree_kit.graph import DENSE_NODE_CAP
from disagree_kit.spectral import truncation_length, two_step_pinv_diagonal
from helpers import (hitting_times_to, inverse_diagonal_oracle,
                     m_inverse_diagonal_oracle, m_matrix_oracle,
                     partial_mean_hitting_oracle, path_graph,
                     random_connected_graph, ring_with_chords,
                     transition_matrix, triangle)


def test_triangle_eigenvalues():
    s = dk.decompose(triangle())
    assert np.allclose(s.eigenvalues, [1.0, -0.5, -0.5], atol=1e-12)
    assert s.gap_bound == pytest.approx(0.5, abs=1e-12)


def test_decompose_rejects_bipartite():
    with pytest.raises(dk.DomainError):
        dk.decompose(path_graph(5))


def test_decompose_invariants():
    for seed in range(3):
        g = random_connected_graph(25, 0.25, seed=seed, weighted=True)
        s = dk.decompose(g)
        assert abs(s.eigenvalues[0] - 1.0) < 1e-8
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.max(np.abs(gram - np.eye(g.n))) < 1e-8
        psi1 = s.eigenvectors[:, 0]
        ref = np.sqrt(g.stationary())
        assert min(np.max(np.abs(psi1 - ref)), np.max(np.abs(psi1 + ref))) < 1e-8
        assert s.eigenvalues[-1] > -1.0


def test_psfw_g2_spectrum_crosscheck():
    s = dk.decompose(dk.generate_psfw(2))
    expected = np.sort(dk.psfw_spectrum(2).to_array())
    assert np.max(np.abs(np.sort(s.eigenvalues) - expected)) < 1e-10


def test_exact_disagreement_triangle():
    g = triangle()
    res = dk.exact_disagreement(g)
    assert res.delta == pytest.approx(8.0 / 9.0, abs=1e-12)
    # brute-force pseudoinverse oracle
    s_mat = dk.spectral.normalized_adjacency_dense(g)
    pinv = np.linalg.pinv(np.eye(3) - s_mat @ s_mat, hermitian=True)
    assert res.delta == pytest.approx(
        float(g.stationary() @ np.diag(pinv)), abs=1e-10)
    assert np.allclose(res.contributions.sum(), res.delta, atol=1e-10)
    assert (res.ldag_diag >= 0).all()


def test_exact_disagreement_path5_bypass_table():
    g = path_graph(5)
    s = dk.decompose(g, allow_bipartite=True)
    res = dk.exact_disagreement(g, s, allow_bipartite_pseudoinverse=True)
    assert np.allclose(res.pi, [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-9)
    assert np.allclose(res.ldag_diag, [1.25, 1.0, 0.5, 1.0, 1.25], atol=1e-9)
    assert np.allclose(res.contributions,
                       [0.15625, 0.25, 0.125, 0.25, 0.15625], atol=1e-9)
    assert res.delta == pytest.approx(0.9375, abs=1e-9)


def test_exact_disagreement_zachary(zachary_path):
    g = dk.load_edge_list(zachary_path)
    assert (g.n, g.m) == (34, 78)
    assert dk.exact_disagreement(g).delta == pytest.approx(1.287, abs=1e-3)


def test_exact_json_schema():
    res = dk.exact_disagreement(triangle())
    payload = res.to_json()
    assert payload["method"] == "exact"
    assert payload["delta"] == pytest.approx(8.0 / 9.0)
    assert {"node", "pi", "ldag", "contribution"} == set(payload["per_node"][0])
    assert payload["diagnostics"] == {"solver": "cholesky",
                                      "elimination_rounds": 0}
    bypass = dk.exact_disagreement(path_graph(5),
                                   allow_bipartite_pseudoinverse=True)
    assert bypass.to_json()["diagnostics"] == {"solver": "eigenpairs",
                                               "elimination_rounds": 0}


def test_delta_from_pairwise_hitting_times():
    # disagreement as the stationary-squared-weighted mean hitting time of
    # the two-step chain, each hitting time by an absorbing linear solve
    for seed in range(20):
        g = random_connected_graph(8 + (seed % 5) * 8, 0.35, seed=900 + seed,
                                   weighted=seed % 4 == 0)
        pi = g.stationary()
        delta = dk.exact_disagreement(g).delta
        p2 = transition_matrix(g)
        p2 = p2 @ p2
        total = sum(pi[i] ** 2 * float(pi @ hitting_times_to(p2, i))
                    for i in range(g.n))
        assert total == pytest.approx(delta, rel=1e-9)


def test_delta_as_squared_weighted_partial_hitting():
    for seed in range(5):
        g = random_connected_graph(15, 0.35, seed=70 + seed)
        pi = g.stationary()
        delta = dk.exact_disagreement(g).delta
        alt = sum(pi[i] ** 2 * partial_mean_hitting_oracle(g, i, two_step=True)
                  for i in range(g.n))
        assert alt == pytest.approx(delta, abs=1e-10 * max(1.0, delta))


def test_kemeny_two_step():
    assert dk.exact_kemeny_two_step(dk.decompose(triangle())) == pytest.approx(
        8.0 / 3.0, abs=1e-12)
    single = dk.decompose(dk.WeightedGraph.from_edges(1, []))
    assert dk.exact_kemeny_two_step(single) == 0.0


def test_pseudoinverse_identity_check_triangle():
    report = dk.pseudoinverse_identity_check(triangle(), eps=1e-8)
    assert report.direct_vs_transform < 1e-8
    assert report.direct_vs_series < 1e-8
    assert report.diagonal_min >= 0.0


def test_pseudoinverse_identity_check_random():
    report = dk.pseudoinverse_identity_check(
        random_connected_graph(30, 0.3, seed=3), eps=1e-5)
    assert report.direct_vs_transform < 1e-7
    assert report.direct_vs_series < 1e-6


def test_truncation_length_bounds():
    # tail control of the truncated even-power series
    for seed, eps in ((0, 0.1), (1, 0.01), (2, 0.1), (3, 0.01)):
        g = random_connected_graph(20 + 10 * (seed % 3), 0.3, seed=200 + seed)
        s = dk.decompose(g)
        ell = truncation_length(eps, s.gap_bound)
        ldag = two_step_pinv_diagonal(s)
        p_mat = transition_matrix(g)
        pi = g.stationary()
        power = np.eye(g.n)
        partial = np.zeros(g.n)
        p2 = p_mat @ p_mat
        for _ in range(ell):
            partial += np.diag(power) - pi
            power = power @ p2
        assert np.max(np.abs(ldag - partial)) <= eps / 2
        # aggregate: |delta - truncated delta| <= eps/2
        delta = dk.exact_disagreement(g, s).delta
        assert abs(delta - float(pi @ partial)) <= eps / 2


def test_degeneracy_rotation_invariance():
    g = dk.generate_psfw(2)
    s = dk.decompose(g)
    rng = np.random.default_rng(0)
    vals, vecs = s.eigenvalues.copy(), s.eigenvectors.copy()
    # rotate inside each repeated-eigenvalue block
    start = 0
    for end in range(1, len(vals) + 1):
        if end == len(vals) or abs(vals[end] - vals[start]) > 1e-9:
            if end - start > 1:
                q, _ = np.linalg.qr(rng.standard_normal((end - start,
                                                         end - start)))
                vecs[:, start:end] = vecs[:, start:end] @ q
            start = end
    rotated = dk.SpectralSummary(vals, vecs, s.gap_bound)
    assert np.allclose(two_step_pinv_diagonal(rotated),
                       two_step_pinv_diagonal(s), atol=1e-9)
    assert dk.exact_kemeny_two_step(rotated) == pytest.approx(
        dk.exact_kemeny_two_step(s), abs=1e-9)


def test_near_unit_eigenvalue_warning():
    # two triangles bridged by a vanishing weight: lambda_2 -> 1
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1e-14)]
    g = dk.WeightedGraph.from_edges(6, edges)
    with pytest.warns(dk.errors.NearBipartiteWarning):
        dk.decompose(g)


def _eigh_route(g):
    """delta and ldag from the full-eigh eigenvectors, the oracle of the
    Cholesky route."""
    ldag = two_step_pinv_diagonal(dk.decompose(g))
    return float(g.stationary() @ ldag), ldag


def _tree_with_a_triangle(n, chords, seed, weighted):
    """Connected non-bipartite graph: a triangle on nodes 0-2, a random
    tree hanging the other nodes on it, and up to ``chords`` random extra
    edges; weights uniform in [0.5, 2] when ``weighted``."""
    rng = np.random.default_rng(seed)
    pairs = {(0, 1), (1, 2), (0, 2)}
    pairs |= {(int(rng.integers(0, v)), v) for v in range(3, n)}
    for u, v in rng.integers(0, n, size=(chords, 2)):
        if u != v:
            pairs.add((int(min(u, v)), int(max(u, v))))
    return dk.WeightedGraph.from_edges(n, [
        (u, v, float(rng.uniform(0.5, 2.0)) if weighted else 1.0)
        for u, v in sorted(pairs)])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 60), chords=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1), weighted=st.booleans())
def test_cholesky_delta_matches_the_eigh_route(n, chords, seed, weighted):
    g = _tree_with_a_triangle(n, chords, seed, weighted)
    res = dk.exact_disagreement(g)
    delta, ldag = _eigh_route(g)
    assert res.delta == pytest.approx(delta, rel=1e-10)
    assert np.allclose(res.ldag_diag, ldag, rtol=1e-10, atol=0.0)


def test_cholesky_delta_matches_the_eigh_route_on_gsw_1024():
    g = dk.generate_gsw(1024, 0.5, seed=11)
    res = dk.exact_disagreement(g)
    assert res.solver == "elimination" and res.elimination_rounds > 0
    delta, ldag = _eigh_route(g)
    assert res.delta == pytest.approx(delta, rel=1e-10)
    assert np.allclose(res.ldag_diag, ldag, rtol=1e-10, atol=0.0)


def test_exact_paths_run_no_eigh_and_eigenvectors_run_it_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    g = random_connected_graph(30, 0.3, seed=4, weighted=True)
    s = dk.decompose(g)
    dk.exact_disagreement(g, s)
    dk.exact_disagreement(g)
    dk.exact_kemeny_two_step(s)
    assert calls == []
    first = s.eigenvectors
    assert s.eigenvectors is first
    assert len(calls) == 1
    # paired by rank with the stored eigenvalues
    s_mat = dk.spectral.normalized_adjacency_dense(g)
    assert np.allclose(s_mat @ first, first * s.eigenvalues, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 50), p=st.floats(0.3, 0.9),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       data=st.data())
def test_row_block_m_equals_the_whole_assembly(n, p, graph_seed, weighted,
                                               data):
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    whole = dk.spectral._m_inverse_diagonal(g)
    # several blocks of ``rows`` rows, the last one partial
    rows = data.draw(st.integers(2, n - 1).filter(lambda r: n % r),
                     label="rows")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.spectral, "_BLOCK_BYTES", 8 * n * rows)
        d = dk.spectral._m_inverse_diagonal(g)
    assert np.array_equal(d, whole)
    # the oracle inverts M whole (dpftri): the sums differ in rounding
    assert np.allclose(d, m_inverse_diagonal_oracle(g), rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 40), p=st.floats(0.3, 0.9),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans())
@example(n=3, p=0.9, graph_seed=0, weighted=False)
@example(n=4, p=0.9, graph_seed=0, weighted=True)
def test_diagonal_sums_the_squared_columns_of_the_inverse_factor(
        n, p, graph_seed, weighted):
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    factors = []
    real = dk.spectral._dtftri

    def recording(order, a):
        factors.append(a.copy())
        info = real(order, a)
        factors.append(a.copy())
        return info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.spectral, "_dtftri", recording)
        d = dk.spectral._m_inverse_diagonal(g)
    chol, inv = (np.tril(scipy.linalg.lapack.dtfttr(
        n, a, transr="N", uplo="L")[0]) for a in factors)
    assert np.allclose(inv @ chol, np.eye(n), rtol=0, atol=1e-10)
    # n positive squares summed in another order
    assert np.allclose(d, (inv * inv).sum(axis=0), rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None)
@given(half=st.integers(3, 25), odd=st.integers(0, 1), p=st.floats(0.3, 0.9),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       data=st.data())
def test_packed_m_equals_lapacks_packing_of_the_whole_m(half, odd, p,
                                                        graph_seed, weighted,
                                                        data):
    n = 2 * half + odd
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    rows = data.draw(st.integers(2, n - 1).filter(lambda r: n % r),
                     label="rows")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.spectral, "_BLOCK_BYTES", 8 * n * rows)
        packed = dk.spectral._m_packed(g)
    whole = m_matrix_oracle(g)
    # S, and so M, is symmetric bit for bit: either triangle packs alike
    assert np.array_equal(whole, whole.T)
    expected, info = scipy.linalg.lapack.dtrttf(whole, transr="N", uplo="L")
    assert info == 0
    assert packed.shape == ((n + 1) // 2, n + 1 - odd)
    assert np.array_equal(packed.reshape(-1), expected)


def test_decompose_holds_m_in_packed_storage():
    """tracemalloc sees numpy's buffers: the peak is M's n(n + 1)/2 packed
    numbers plus a block and the sparse S, well under one n x n array."""
    g = dk.generate_gsw(1024, 0.5, seed=0)
    dk.decompose(triangle())  # the lazy scipy.linalg import stays out
    tracemalloc.start()
    try:
        dk.decompose(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.85 * 8 * g.n ** 2


def test_failed_cholesky_raises_domain_error(monkeypatch):
    def failing_dpftrf(n, a, **kwargs):
        return a, 3

    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", failing_dpftrf)
    with pytest.raises(dk.DomainError, match="not positive definite"):
        dk.exact_disagreement(triangle())
    with pytest.raises(dk.DomainError, match="not positive definite"):
        dk.decompose(triangle())


def test_failed_inversion_raises_domain_error(monkeypatch):
    monkeypatch.setattr(dk.spectral, "_dtftri", lambda n, a: 3)
    with pytest.raises(dk.DomainError, match="dtftri info=3"):
        dk.exact_disagreement(triangle())
    with pytest.raises(dk.DomainError, match="dtftri info=3"):
        dk.decompose(triangle())


def test_dtftri_refuses_a_buffer_of_the_wrong_size_or_layout():
    with pytest.raises(ValueError, match=r"n\(n \+ 1\)/2"):
        dk.spectral._dtftri(3, np.ones(5))
    with pytest.raises(ValueError, match=r"n\(n \+ 1\)/2"):
        dk.spectral._dtftri(3, np.ones(12)[::2])


def test_decompose_raises_above_the_node_cap(monkeypatch):
    monkeypatch.setattr(dk.spectral, "DENSE_NODE_CAP", 2)
    with pytest.raises(dk.ResourceError, match="capped at 2 nodes"):
        dk.decompose(triangle())


def test_the_node_cap_spares_graphs_that_eliminate():
    g = dk.generate_gsw(DENSE_NODE_CAP + 1, 0.5, seed=0)
    res = dk.exact_disagreement(g)
    assert res.solver == "elimination" and res.elimination_rounds > 0
    assert np.isfinite(res.delta) and np.all(res.ldag_diag > 0.0)
    # the bipartite bypass reads eigenpairs, which stay capped
    with pytest.raises(dk.ResourceError, match="eigen routes are capped"):
        dk.exact_disagreement(g, allow_bipartite_pseudoinverse=True)


def test_a_hub_graph_above_the_node_cap_raises_before_any_dense_array():
    g = dk.generate_ba(DENSE_NODE_CAP + 1, 3, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(dk.ResourceError,
                           match="Cholesky and eigen routes are capped"):
            dk.decompose(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n float64 array would be 3.2 GB
    assert peak < 0.05 * 8 * g.n * g.n


def _eigvalsh_kemeny(g):
    """sum_{k>=2} 1/(1 - lambda_k^2) over the ``eigvalsh`` spectrum of S,
    the oracle of the trace route."""
    lam = np.linalg.eigvalsh(dk.spectral.normalized_adjacency_dense(g))[:-1]
    return float(np.sum(1.0 / (1.0 - lam * lam)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 60), chords=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1), weighted=st.booleans())
def test_trace_kemeny_matches_the_eigenvalue_sum(n, chords, seed, weighted):
    g = _tree_with_a_triangle(n, chords, seed, weighted)
    assert dk.exact_kemeny_two_step(dk.decompose(g)) == pytest.approx(
        _eigvalsh_kemeny(g), rel=1e-10)


def test_trace_kemeny_matches_the_eigenvalue_sum_on_gsw_1024():
    g = dk.generate_gsw(1024, 0.5, seed=11)
    assert dk.exact_kemeny_two_step(dk.decompose(g)) == pytest.approx(
        _eigvalsh_kemeny(g), rel=1e-10)


def _count_eigensolves(monkeypatch):
    """Patch ``eigvalsh`` and ``eigh`` to log their names into a list."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counting(*args, _name=name, _real=getattr(np.linalg, name),
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("first_read", ["eigenvalues", "gap_bound"])
def test_exact_paths_run_no_eigensolve_and_eigenvalues_are_lazy(
        monkeypatch, first_read):
    g = random_connected_graph(30, 0.3, seed=4, weighted=True)
    expected = np.linalg.eigvalsh(
        dk.spectral.normalized_adjacency_dense(g))[::-1]
    calls = _count_eigensolves(monkeypatch)
    s = dk.decompose(g)
    dk.exact_disagreement(g, s)
    dk.exact_disagreement(g)
    dk.exact_kemeny_two_step(s)
    assert calls == []
    getattr(s, first_read)
    assert calls == ["eigvalsh"]
    assert np.array_equal(s.eigenvalues, expected)
    assert s.gap_bound == max(abs(expected[1]), abs(expected[-1]))
    assert calls == ["eigvalsh"]


def test_summary_of_another_graph_does_not_change_delta():
    g = random_connected_graph(30, 0.3, seed=4, weighted=True)
    other = random_connected_graph(30, 0.3, seed=5, weighted=True)
    own = dk.exact_disagreement(g).delta
    assert dk.exact_disagreement(g, dk.decompose(other)).delta == own
    assert dk.exact_disagreement(other).delta != own


def _count_factorisations(monkeypatch):
    """Patch LAPACK's ``dpftrf`` to log each call into a list."""
    calls = []
    real = scipy.linalg.lapack.dpftrf

    def counting(*args, **kwargs):
        calls.append("dpftrf")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", counting)
    return calls


def test_bipartite_summary_eigenvalues_match_eigvalsh(monkeypatch):
    g = path_graph(5)
    factorisations = _count_factorisations(monkeypatch)
    s = dk.decompose(g, allow_bipartite=True)
    assert factorisations == []
    expected = np.linalg.eigvalsh(
        dk.spectral.normalized_adjacency_dense(g))[::-1]
    assert np.array_equal(s.eigenvalues, expected)
    assert s.gap_bound == pytest.approx(1.0, abs=1e-12)


def _with_one_degree_scaled(g, factor):
    """``g`` with node 0's degree off its adjacency row sum by ``factor``:
    inconsistent graph data, whose S has a leading eigenvalue below 1."""
    degrees = g.degrees.copy()
    degrees[0] *= factor
    g.degrees = degrees
    g.d_sum = float(degrees.sum())
    return g


def test_collatz_wielandt_miss_raises_without_an_eigensolve(monkeypatch):
    g = _with_one_degree_scaled(random_connected_graph(30, 0.3, seed=4),
                                1.0 + 1e-4)
    psi = np.sqrt(g.stationary())
    ratios = (dk.spectral.normalized_adjacency(g) @ psi) / psi
    # the interval brackets the leading eigenvalue
    lead = np.linalg.eigvalsh(dk.spectral.normalized_adjacency_dense(g))[-1]
    assert ratios.min() <= lead <= ratios.max()
    calls = _count_eigensolves(monkeypatch)
    with pytest.raises(dk.DomainError, match="leading eigenvalue"):
        dk.decompose(g)
    assert calls == []


def test_high_trace_factor_is_dropped_for_the_eigenpair_route(monkeypatch):
    # the bridged triangles of the near-unit warning test: the
    # factorisation succeeds with a trace far above the gate
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1e-14)]
    g = dk.WeightedGraph.from_edges(6, edges)
    factorisations = _count_factorisations(monkeypatch)
    calls = _count_eigensolves(monkeypatch)
    with pytest.warns(dk.errors.NearBipartiteWarning):
        s = dk.decompose(g)
    assert s._m_inv_diag is None
    delta = dk.exact_disagreement(g, s).delta
    kemeny = dk.exact_kemeny_two_step(s)
    assert factorisations == ["dpftrf"]
    # both read the eigenvalues the warning check computed, delta also
    # the eigenvectors; the ill-conditioned factor is 3.9% off either
    # true value (60-digit mpmath eigenvalues: delta 2.5e13, Kemeny 1.5e14)
    assert calls == ["eigvalsh", "eigh"]
    assert delta == pytest.approx(2.5e13, rel=1e-2)
    assert kemeny == pytest.approx(1.5e14, rel=1e-2)


def test_exact_disagreement_factors_once(monkeypatch):
    g = random_connected_graph(30, 0.3, seed=4, weighted=True)
    other = dk.decompose(random_connected_graph(30, 0.3, seed=5))
    s = dk.decompose(g)
    explicit = dk.SpectralSummary(s.eigenvalues, s.eigenvectors, s.gap_bound)
    expected = dk.exact_disagreement(g, s).delta
    factorisations = _count_factorisations(monkeypatch)
    # without a summary, with its own (counting the decompose that makes
    # it), another graph's, and explicit eigenpairs
    for run in (lambda: dk.exact_disagreement(g),
                lambda: dk.exact_disagreement(g, dk.decompose(g)),
                lambda: dk.exact_disagreement(g, other),
                lambda: dk.exact_disagreement(g, explicit)):
        factorisations.clear()
        assert run().delta == expected
        assert factorisations == ["dpftrf"]


def test_bipartite_bypass_runs_no_factorisation(monkeypatch):
    g = path_graph(5)
    factorisations = _count_factorisations(monkeypatch)
    dk.exact_disagreement(g, allow_bipartite_pseudoinverse=True)
    bypass = dk.decompose(g, allow_bipartite=True)
    dk.exact_disagreement(g, bypass, allow_bipartite_pseudoinverse=True)
    assert factorisations == []
    # a summary checked in the bypass mode does not serve the default one
    with pytest.raises(dk.DomainError, match="non-bipartite"):
        dk.exact_disagreement(g, bypass)


def _weighted_gsw(n, seed):
    """gsw with its edge weights drawn uniformly from [0.5, 2]."""
    g = dk.generate_gsw(n, 0.5, seed=seed)
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, size=g.m)
    return dk.WeightedGraph.from_edges(n, [
        (u, v, float(w)) for (u, v, _), w in zip(g.edges(), weights)])


def _cover_route_input(family, n, seed):
    """gsw, weighted gsw, gsw with self-loops of weight in [0.5, 2] at a
    tenth of its nodes, or apollonian on n nodes, or psfw g = 2..7 (15 to
    3282 nodes), g set by n."""
    if family == "psfw":
        return dk.generate_psfw(2 + n % 6)
    if family == "apollonian":
        return dk.generate_apollonian(n, seed=seed)
    if family == "gsw-loops":
        rng = np.random.default_rng(seed)
        loops = [(int(v), int(v), float(rng.uniform(0.5, 2.0)))
                 for v in rng.choice(n, n // 10, replace=False)]
        return dk.WeightedGraph.from_edges(n, [
            *dk.generate_gsw(n, 0.5, seed=seed).edges(), *loops],
            allow_self_loops=True)
    return (_weighted_gsw(n, seed) if family == "weighted-gsw"
            else dk.generate_gsw(n, 0.5, seed=seed))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gsw", "weighted-gsw", "gsw-loops",
                               "apollonian", "psfw"]),
       n=st.integers(20, 600), seed=st.integers(0, 10_000))
@example(family="gsw", n=20, seed=0)
@example(family="weighted-gsw", n=600, seed=0)
@example(family="gsw-loops", n=600, seed=3)
@example(family="apollonian", n=800, seed=0)
@example(family="apollonian", n=20, seed=9687)
@example(family="psfw", n=22, seed=0)
@example(family="psfw", n=5, seed=0)
def test_elimination_route_matches_the_cholesky_route(family, n, seed):
    g = _cover_route_input(family, n, seed)
    # a few small gsw are bipartite (n = 20, seed 370): decompose refuses
    # them before this route
    assume(not dk.validate(g).bipartite)
    d, _ = dk.spectral._eliminated_m_inverse_diagonal(g)
    assert d is not None
    assert np.allclose(d, dk.spectral._m_inverse_diagonal(g), rtol=1e-12,
                       atol=0)


@pytest.mark.parametrize("g", [8, 9, 10])
def test_psfw_kemeny_by_elimination_matches_the_closed_form(g):
    s = dk.decompose(dk.generate_psfw(g))
    assert s.solver == "elimination" and s.elimination_rounds > 0
    assert dk.exact_kemeny_two_step(s) == pytest.approx(
        dk.psfw_kemeny_closed_form(g), rel=1e-9, abs=0)


def test_the_cover_of_a_bipartite_graph_is_not_eliminated():
    # its cover is two copies of the graph: the dense block has two zero
    # eigenvalues
    n = 600
    g = dk.WeightedGraph.from_edges(
        n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    d, rounds = dk.spectral._eliminated_m_inverse_diagonal(g)
    assert d is None and rounds > 0


def test_a_star_with_a_chord_is_eliminated():
    # a hub of degree n - 1: its two-step graph would be full, its double
    # cover is two stars joined by the chord's two copies
    n = 800
    g = dk.WeightedGraph.from_edges(
        n, [(0, v, 1.0) for v in range(1, n)] + [(1, 2, 1.0)])
    res = dk.exact_disagreement(g)
    assert res.solver == "elimination" and res.elimination_rounds > 0
    delta, ldag = _eigh_route(g)
    assert res.delta == pytest.approx(delta, rel=1e-10)
    assert np.allclose(res.ldag_diag, ldag, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("graph", [
    dk.generate_gsw(300, 0.5, seed=2), dk.load_bundled("zachary"),
    _weighted_gsw(200, 4)], ids=["gsw", "zachary", "weighted-gsw"])
def test_selected_inversion_is_the_diagonal_of_the_dense_replay(graph):
    """G built densely from the same rounds, G = U^-1 diag(D^-1, G') U^-T
    one round at a time, is a generalized inverse of the double cover's
    Laplacian, its diagonal is the selected inversion's and its products
    are ``apply``'s."""
    lap = dk.spectral._cover_laplacian(graph)
    elim = lap.elimination
    assert elim.complete
    n = lap.n
    big = np.zeros((n, n))
    big[np.ix_(elim.rest, elim.rest)] = elim.rest_pinv
    left = np.zeros(n, dtype=bool)
    left[elim.rest] = True
    for r in reversed(elim.rounds):
        kept = np.flatnonzero(left)
        dw = np.zeros((len(r.sel), n))
        np.add.at(dw, (r.rows(), r.nbr), r.wt)
        dw *= r.inv_d[:, None]
        dw = dw[:, kept]
        cross = dw @ big[np.ix_(kept, kept)]
        big[np.ix_(r.sel, kept)] = cross
        big[np.ix_(kept, r.sel)] = cross.T
        big[np.ix_(r.sel, r.sel)] = np.diag(r.inv_d) + cross @ dw.T
        left[r.sel] = True
    lap_dense = lap.matrix.toarray()
    assert np.allclose(lap_dense @ big @ lap_dense, lap_dense, rtol=0,
                       atol=1e-10)
    assert np.allclose(elim.inverse_diagonal(), np.diag(big), rtol=1e-12,
                       atol=0)
    assert np.array_equal(elim.inverse_diagonal(),
                          inverse_diagonal_oracle(elim))
    b = np.random.default_rng(0).standard_normal((n, 3))
    assert np.allclose(elim.apply(b.copy()), big @ b, rtol=1e-12,
                       atol=1e-12 * np.abs(big @ b).max())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 600), seed=st.integers(0, 10_000),
       weighted=st.booleans())
@example(n=20, seed=0, weighted=False)
@example(n=600, seed=3, weighted=True)
def test_selected_inversion_by_edge_id_equals_the_sorted_key_search(
        n, seed, weighted):
    g = (_weighted_gsw(n, seed) if weighted
         else dk.generate_gsw(n, 0.5, seed=seed))
    assume(not dk.validate(g).bipartite)
    elim = dk.spectral._cover_laplacian(g).elimination
    assert elim.complete
    assert np.array_equal(elim.inverse_diagonal(),
                          inverse_diagonal_oracle(elim))


def test_exact_on_gsw_2048_reproduces_its_recorded_values():
    # recorded by the two-step Laplacian's elimination, which the double
    # cover's matches within 1.1e-15; the dense block's LAPACK and BLAS
    # calls set the last bits, which vary with the build
    res, kemeny = _exact_and_kemeny(dk.generate_gsw(2048, 0.5, seed=0))
    assert res.solver == "elimination" and res.elimination_rounds == 20
    assert res.delta == pytest.approx(5.082989860006107, rel=1e-12, abs=0)
    assert kemeny == pytest.approx(9605.052295952784, rel=1e-12, abs=0)


def _exact_and_kemeny(g):
    s = dk.decompose(g)
    res = dk.exact_disagreement(g, s)
    return res, dk.exact_kemeny_two_step(s)


# the cover of the expander fills in past its edge count in round 1
@pytest.mark.parametrize("graph, rounds", [
    (dk.generate_ba(800, 3, seed=0), 0),
    (ring_with_chords(800, 800, seed=0), 1)], ids=["ba", "expander"])
def test_graphs_whose_elimination_fills_in_keep_the_cholesky_route(graph,
                                                                   rounds):
    assert graph.n >= dk.spectral._ELIMINATION_MIN_NODES
    res, kemeny = _exact_and_kemeny(graph)
    assert res.solver == "cholesky" and res.elimination_rounds == rounds
    # the route that runs when elimination is not tried
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.spectral, "_ELIMINATION_MIN_NODES", graph.n + 1)
        dense, dense_kemeny = _exact_and_kemeny(graph)
    assert res.delta == dense.delta and kemeny == dense_kemeny
    assert np.array_equal(res.ldag_diag, dense.ldag_diag)


# their two-step Laplacians fill in; their double covers do not
@pytest.mark.parametrize("graph", [
    dk.generate_apollonian(800, seed=0), dk.generate_psfw(6)],
    ids=["apollonian", "psfw6"])
def test_graphs_whose_two_step_elimination_fills_in_take_the_cover_route(
        graph):
    assert graph.n >= dk.spectral._ELIMINATION_MIN_NODES
    res, kemeny = _exact_and_kemeny(graph)
    assert res.solver == "elimination" and res.elimination_rounds > 0
    # the route that runs when elimination is not tried
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.spectral, "_ELIMINATION_MIN_NODES", graph.n + 1)
        dense, dense_kemeny = _exact_and_kemeny(graph)
    assert dense.solver == "cholesky"
    assert res.delta == pytest.approx(dense.delta, rel=1e-12, abs=0)
    assert kemeny == pytest.approx(dense_kemeny, rel=1e-12, abs=0)
    assert np.allclose(res.ldag_diag, dense.ldag_diag, rtol=1e-12, atol=0)


def _joined_gsw_halves(weight):
    """gsw n = 300 at seeds 1 and 2, joined by one edge of ``weight``."""
    a, b = (dk.generate_gsw(300, 0.5, seed=seed) for seed in (1, 2))
    return dk.WeightedGraph.from_edges(600, [
        *a.edges(), *((u + 300, v + 300, w) for u, v, w in b.edges()),
        (0, 300, weight)])


def _decompose_outcome(g):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = dk.decompose(g)
    return [w.category for w in caught], s._m_inv_diag is None, s.solver


@pytest.mark.parametrize("weight, warns", [
    (1e-8, False), (1e-14, True), (1e-16, True)])
def test_nearly_disconnected_inputs_leave_the_elimination_route(weight,
                                                                warns):
    """The elimination reaches its dense block in 15 rounds on all three,
    but its trace is above the gate (1e-8), or the block has a second
    numerically zero eigenvalue that ``pinvh`` would silently drop (1e-14,
    1e-16).
    Forced onto the elimination route, decompose then does what the
    Cholesky route does: it drops d, and warns where that does."""
    g = _joined_gsw_halves(weight)
    d, rounds = dk.spectral._eliminated_m_inverse_diagonal(g)
    assert d is None and rounds == 15
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk.spectral, "_ELIMINATION_MIN_NODES", 0)
        forced = _decompose_outcome(g)
    expected = ([dk.errors.NearBipartiteWarning] if warns else [], True,
                "eigenpairs")
    assert forced == _decompose_outcome(g) == expected
