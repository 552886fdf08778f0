import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import disagree_kit as dk
from disagree_kit import sparsify
from disagree_kit.rng import TAG_SKETCH, derive_rng
from disagree_kit.sparsify import (CG_BLOCK_BYTES, FAILURE_PROB, MAX_DEGREE,
                                   TIE_HASH, _sketched_rows, cg_blocks,
                                   solver_tolerance)
from helpers import (cg_block_oracle, random_connected_graph,
                     ring_with_chords, sparsify_add_at_oracle, triangle)


def _sketch_rows_for(eps):
    """approx's row count: ceil(6 ln(2/delta) / eps^2), delta = 0.05."""
    return math.ceil(6 * math.log(2 / 0.05) / eps ** 2)


def _oversample_for(g, eps, s_target):
    return s_target / (g.m * eps ** (-2) * math.log2(g.n))


def test_sparsifier_triangle_converges_to_two_step_weights():
    g = triangle()
    lap = dk.sparsify_two_step(g, 0.5, seed=3,
                               oversample=_oversample_for(g, 0.5, 10 ** 6))
    weights = {(int(u), int(v)): w for u, v, w in
               zip(lap.edge_u, lap.edge_v, lap.edge_w)}
    assert set(weights) == {(0, 1), (0, 2), (1, 2)}
    for w in weights.values():
        assert w == pytest.approx(0.5, abs=0.01)


def test_sparsifier_unbiased():
    g = random_connected_graph(20, 0.3, seed=9)
    gp = dk.two_step_graph(g)
    lap_true = np.diag(gp.degrees) - gp.adjacency_dense()
    draws = np.empty((200, 20, 20))
    for t in range(200):
        sl = dk.sparsify_two_step(g, 0.5, seed=t,
                                  oversample=_oversample_for(g, 0.5, 1_000))
        draws[t] = sl.matrix.toarray()
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(200)
    # 4 SE: the max over ~300 entries needs an extreme-value allowance
    assert np.all(np.abs(mean - lap_true) <= 4.0 * se + 1e-9)
    # and on average the z-scores behave like noise, not bias
    z = np.abs(mean - lap_true) / np.where(se == 0, np.inf, se)
    assert z.mean() < 1.5


def test_sparsifier_quadratic_form_fidelity():
    eps = 0.25
    for seed in (0, 1):
        g = random_connected_graph(40, 0.25, seed=20 + seed,
                                   weighted=seed == 1)
        gp = dk.two_step_graph(g)
        lap_true = np.diag(gp.degrees) - gp.adjacency_dense()
        lap = dk.sparsify_two_step(g, eps, seed=seed)
        lap_hat = lap.matrix.toarray()
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x = rng.standard_normal(g.n)
            x -= x.mean()
            x /= np.linalg.norm(x)
            ratio = (x @ lap_hat @ x) / (x @ lap_true @ x)
            assert 1 - 2 * eps <= ratio <= 1 + 2 * eps


def test_sparsifier_rejects_bad_epsilon_and_bipartite():
    with pytest.raises(dk.DomainError):
        dk.sparsify_two_step(triangle(), 0.9)
    path = dk.WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(dk.DomainError):
        dk.sparsify_two_step(path, 0.25)


def test_sparsifier_disconnect_retry_and_failure():
    g = triangle()
    # a single sampled pair cannot connect three nodes
    with pytest.raises(dk.ConvergenceError):
        dk.sparsify_two_step(g, 0.5, seed=0, oversample=1e-9, max_retries=0)
    lap = dk.sparsify_two_step(g, 0.5, seed=0, oversample=1e-9, max_retries=6)
    assert lap.sample_count > 1  # doubled until connected


@pytest.mark.parametrize("graph, kwargs", [
    (random_connected_graph(40, 0.2, seed=21), {}),
    (random_connected_graph(40, 0.2, seed=22, weighted=True), {}),
    (dk.generate_gsw(768, 0.5, seed=3), {}),
    # seeds 0, 2 and 3 draw one self-loop first: an empty sample, then retries
    (triangle(), {"oversample": 1e-9, "max_retries": 6})],
    ids=["unweighted", "weighted", "gsw", "retrying"])
def test_sparsifier_weights_from_pair_counts_equal_np_add_at(graph, kwargs):
    for seed in range(4):
        lap = dk.sparsify_two_step(graph, 0.5, seed=seed, **kwargs)
        expected = sparsify_add_at_oracle(graph, 0.5, seed, **kwargs)
        assert lap.sample_count == expected.sample_count
        assert kwargs == {} or lap.sample_count > 1
        for name in ("edge_u", "edge_v", "edge_w"):
            got, want = getattr(lap, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_self_loop_removal_preserves_laplacian():
    g = random_connected_graph(15, 0.35, seed=2)
    gp = dk.two_step_graph(g)
    assert gp.has_self_loops
    keep = gp.edge_u != gp.edge_v
    no_loops = dk.WeightedGraph.from_edges(
        gp.n, zip(gp.edge_u[keep], gp.edge_v[keep], gp.edge_w[keep]))
    lap_with = np.diag(gp.degrees) - gp.adjacency_dense()
    lap_without = np.diag(no_loops.degrees) - no_loops.adjacency_dense()
    assert np.max(np.abs(lap_with - lap_without)) < 1e-12


def test_normalized_pinv_transform_on_loopy_graphs():
    for seed in range(3):
        g = random_connected_graph(30 + 25 * seed, 0.2, seed=50 + seed,
                                   weighted=seed == 1)
        report = dk.pseudoinverse_identity_check(g, eps=1e-6)
        assert report.direct_vs_transform < 1e-7


def test_laplacian_solve_zero_rhs():
    lap = dk.sparsify_two_step(triangle(), 0.5, seed=1)
    x, iters = dk.laplacian_solve(lap, np.zeros(3), 1e-3)
    assert np.all(x == 0.0) and iters == 0


def test_laplacian_solve_requires_mean_zero_rhs():
    lap = dk.sparsify_two_step(triangle(), 0.5, seed=1)
    with pytest.raises(dk.DomainError):
        dk.laplacian_solve(lap, np.ones(3), 1e-3)


def _cg_path(lap, y, kappa, **kwargs):
    """``laplacian_solve`` on its CG path, whether or not ``lap`` would be
    eliminated."""
    x, iters = sparsify._cg_solve(lap, y.reshape(len(y), -1), kappa, **kwargs)
    return x.reshape(y.shape), iters


def _check_energy_norm_contract(k, lap=None, solve=dk.laplacian_solve):
    """Solve k random right-hand sides at three tolerances and check every
    column against the dense pseudoinverse."""
    if lap is None:
        g = random_connected_graph(30, 0.3, seed=4, weighted=True)
        lap = dk.sparsify_two_step(g, 0.25, seed=1)
    n = lap.n
    dense = lap.matrix.toarray()
    pinv = np.linalg.pinv(dense, hermitian=True)
    vals = np.linalg.eigvalsh(dense)
    cond_root = math.sqrt(vals[-1] / vals[1])
    rng = np.random.default_rng(0)
    for kappa in (0.1, 1e-3, 1e-6):
        y = rng.standard_normal((n, k))
        y -= y.mean(axis=0)
        x, _ = solve(lap, y[:, 0] if k == 1 else y, kappa)
        x = x.reshape(n, k)
        assert np.all(np.abs(x.sum(axis=0))
                      < 1e-8 * np.linalg.norm(x, axis=0))
        err = x - pinv @ y
        num = np.sqrt(np.einsum("ij,ij->j", err, dense @ err))
        exact = pinv @ y
        den = np.sqrt(np.einsum("ij,ij->j", exact, dense @ exact))
        assert np.all(num <= kappa * den)
        # residual bound with the explicit conditioning factor
        res = (np.linalg.norm(dense @ x - y, axis=0)
               / np.linalg.norm(y, axis=0))
        assert np.all(res <= kappa * cond_root * (1 + 1e-9))


def test_laplacian_solve_energy_norm_contract():
    _check_energy_norm_contract(1)


@pytest.mark.parametrize("graph, forced_cg", [
    ("gsw", False), ("gsw", True), ("ba", False)],
    ids=["gsw-elimination", "gsw-cg", "ba-cg"])
def test_the_energy_norm_contract_holds_on_both_paths(graph, forced_cg):
    # gsw is eliminated in rounds; ba (hubs) is not, and runs CG
    g = (dk.generate_gsw(200, 0.5, seed=4) if graph == "gsw" else
         dk.generate_ba(120, 3, seed=4))
    lap = dk.sparsify_two_step(g, 0.5, seed=1)
    assert lap.elimination.complete == (graph == "gsw")
    assert graph == "ba" or len(lap.elimination.rounds) > 1
    _check_energy_norm_contract(
        5, lap, _cg_path if forced_cg else dk.laplacian_solve)


def _count_blocks(monkeypatch):
    """Record the column count of every block ``laplacian_solve`` solves."""
    blocks = []
    real = sparsify._cg_block

    def counting(mat, inv_diag, lam_min, kappa, max_iters, b, scale):
        blocks.append(b.shape[1])
        return real(mat, inv_diag, lam_min, kappa, max_iters, b, scale)

    monkeypatch.setattr(sparsify, "_cg_block", counting)
    return blocks


def test_laplacian_solve_energy_norm_contract_split_block(monkeypatch):
    blocks = _count_blocks(monkeypatch)
    monkeypatch.setenv("DISAGREE_THREADS", "2")
    width = CG_BLOCK_BYTES // (8 * 30)
    # two threads, two blocks each
    _check_energy_norm_contract(4 * width + 1, solve=_cg_path)
    assert len(blocks) == 4 * 3  # four blocks at each of three tolerances
    assert sorted(set(blocks)) == [width, width + 1]


def _ba_sketch_block(n=400, eps=0.5):
    # hubs: laplacian_solve abandons elimination and runs CG
    g = dk.generate(dk.GeneratorSpec("ba", {"n": n, "m": 3}, 0))
    lap = dk.sparsify_two_step(g, eps, seed=0)
    assert not lap.elimination.complete
    q = _sketched_rows(lap, 576, 0)
    # 576 columns of width 163: three blocks on one thread, one on each of two
    assert cg_blocks(n, 576, 1) == [[(0, 192), (192, 384), (384, 576)]]
    assert cg_blocks(n, 576, 2) == [[(0, 288)], [(288, 576)]]
    return lap, q, solver_tolerance(lap, g.stationary(), eps)


def test_laplacian_solve_split_is_bit_identical(monkeypatch):
    lap, q, kappa = _ba_sketch_block()
    blocks = _count_blocks(monkeypatch)
    monkeypatch.setenv("DISAGREE_THREADS", "1")
    x1, it1 = dk.laplacian_solve(lap, q, kappa)
    assert blocks == [192, 192, 192]
    monkeypatch.setenv("DISAGREE_THREADS", "2")
    x2, it2 = dk.laplacian_solve(lap, q, kappa)
    assert blocks[3:] == [288, 288]
    assert np.array_equal(x1, x2)
    assert it1 == it2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_laplacian_solve_equals_one_cg_block_on_all_columns(monkeypatch,
                                                            threads):
    lap, q, kappa = _ba_sketch_block()
    max_iters = max(200, 40 * lap.n)
    direct, direct_it = sparsify._cg_block(
        lap.matrix, 1.0 / lap.degrees, lap.lambda_min_positive, kappa,
        max_iters, q, np.linalg.norm(q, axis=0))
    monkeypatch.setenv("DISAGREE_THREADS", threads)
    x, it = dk.laplacian_solve(lap, q, kappa)
    assert np.array_equal(x, direct)
    assert it == direct_it


def test_a_single_range_starts_no_thread_pool(monkeypatch):
    lap, q, kappa = _ba_sketch_block()
    q = np.ascontiguousarray(q[:, :89])
    # approx's 89 columns: one range and one block, even on two threads
    assert cg_blocks(lap.n, 89, 2) == [[(0, 89)]]
    direct, direct_it = sparsify._cg_block(
        lap.matrix, 1.0 / lap.degrees, lap.lambda_min_positive, kappa,
        max(200, 40 * lap.n), q, np.linalg.norm(q, axis=0))

    def no_pool(*args, **kwargs):
        raise AssertionError("a single range started a thread pool")

    monkeypatch.setattr(sparsify, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("DISAGREE_THREADS", "2")
    x, it = dk.laplacian_solve(lap, q, kappa)
    assert np.array_equal(x, direct)
    assert it == direct_it


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 60), p=st.floats(0.15, 0.6),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       k=st.integers(1, 40), width=st.integers(2, 20),
       kappa=st.sampled_from([0.5, 1e-2, 1e-4, 1e-8]),
       rhs_seed=st.integers(0, 2 ** 32 - 1), zero_column=st.booleans())
def test_cg_skipping_the_stop_test_keeps_every_iterate(
        n, p, graph_seed, weighted, k, width, kappa, rhs_seed, zero_column):
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    lap = dk.sparsify_two_step(g, 0.5, seed=graph_seed)
    rng = np.random.default_rng(rhs_seed)
    # columns of very different sizes stop on different iterations
    y = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
    y -= y.mean(axis=0)
    if zero_column:
        y[:, 0] = 0.0
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("DISAGREE_THREADS", threads)
            # blocks of ``width`` columns or more, split across the threads
            mp.setattr(sparsify, "CG_BLOCK_BYTES", 8 * n * width)
            x, it = sparsify._cg_solve(lap, y, kappa)
            mp.setattr(sparsify, "_cg_block", cg_block_oracle)
            expected, expected_it = sparsify._cg_solve(lap, y, kappa)
        assert np.array_equal(x, expected)
        assert it == expected_it


def test_laplacian_solve_split_block_iteration_cap(monkeypatch):
    lap, q, kappa = _ba_sketch_block()
    blocks = _count_blocks(monkeypatch)
    monkeypatch.setenv("DISAGREE_THREADS", "2")
    with pytest.raises(dk.ConvergenceError) as exc:
        dk.laplacian_solve(lap, q, kappa, max_iters=1)
    assert len(blocks) == 2
    assert exc.value.residual is not None


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10 ** 6), k=st.integers(1, 5_000),
       threads=st.integers(1, 8))
def test_cg_blocks_partition_the_columns_in_order(n, k, threads):
    ranges = cg_blocks(n, k, threads)
    assert 1 <= len(ranges) <= threads
    assert all(ranges)
    flat = [block for blocks in ranges for block in blocks]
    assert flat[0][0] == 0 and flat[-1][1] == k
    assert all(a[1] == b[0] for a, b in zip(flat, flat[1:]))
    assert all(hi - lo >= (1 if k == 1 else 2) for lo, hi in flat)
    # a block is narrower than 16 columns only as the whole of its range
    assert all(hi - lo >= 16 or len(blocks) == 1
               for blocks in ranges for lo, hi in blocks)


def test_cg_blocks_keep_16_columns_where_a_cache_sized_block_is_narrower():
    # n = 2^15: a 512 KiB block would be 2 columns wide
    assert cg_blocks(2 ** 15, 64, 2) == [[(0, 16), (16, 32)],
                                        [(32, 48), (48, 64)]]
    # the thread split still goes down to two columns a range
    assert cg_blocks(10 ** 5, 20, 2) == [[(0, 10)], [(10, 20)]]
    # n = 2^12: cache-sized blocks are 16 columns wide
    assert cg_blocks(2 ** 12, 64, 1) == [[(0, 16), (16, 32), (32, 48),
                                         (48, 64)]]


def test_laplacian_solve_iteration_cap():
    g = random_connected_graph(40, 0.2, seed=5)
    lap = dk.sparsify_two_step(g, 0.25, seed=2)
    y = np.zeros(40)
    y[0], y[-1] = 1.0, -1.0
    with pytest.raises(dk.ConvergenceError) as exc:
        _cg_path(lap, y, 1e-10, max_iters=1)
    assert exc.value.residual is not None


def _tree_with_chords(n, chords, seed, weighted):
    """A random recursive tree plus ``chords`` random edges: sparse, with
    no hubs."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(chords):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((a, b))
    pairs = sorted(pairs)
    weights = (rng.uniform(0.5, 2.0, size=len(pairs)) if weighted
               else np.ones(len(pairs)))
    return dk.WeightedGraph.from_edges(
        n, [(a, b, float(w)) for (a, b), w in zip(pairs, weights)])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 160), chord_share=st.floats(0.0, 0.3),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       k=st.integers(1, 6), rhs_seed=st.integers(0, 2 ** 32 - 1))
def test_elimination_matches_the_dense_pseudoinverse(
        n, chord_share, graph_seed, weighted, k, rhs_seed):
    g = _tree_with_chords(n, int(chord_share * n), graph_seed, weighted)
    # the graph's own Laplacian: elimination takes any connected one
    lap = dk.SparsifiedLaplacian(g.n, g.edge_u, g.edge_v, g.edge_w,
                                 sample_count=0)
    assume(lap.elimination.complete)
    y = np.random.default_rng(rhs_seed).standard_normal((n, k))
    y -= y.mean(axis=0)
    x = lap.elimination.solve(y)
    expected = np.linalg.pinv(lap.matrix.toarray(), hermitian=True) @ y
    assert np.all(np.linalg.norm(x - expected, axis=0)
                  <= 1e-10 * np.linalg.norm(expected, axis=0))
    solved, iters = dk.laplacian_solve(lap, y, 1e-6)
    assert iters == 0 and np.array_equal(solved, x)


@pytest.mark.parametrize("graph", [
    dk.generate_gsw(300, 0.5, seed=2), dk.load_bundled("zachary"),
    _tree_with_chords(150, 40, 1, True)], ids=["gsw", "zachary", "tree"])
def test_elimination_rounds_are_the_dense_schur_complements(graph):
    """Replays every round densely: each eliminates an independent set of
    local minima of (neighbour count, id * TIE_HASH mod 2^64) among
    vertices with at most MAX_DEGREE neighbours, its weights are those of
    the Schur complement, and no Schur complement has more edges than L."""
    lap = dk.sparsify_two_step(graph, 0.5, seed=3)
    elim = lap.elimination
    assert elim.complete
    s = lap.matrix.toarray()
    left = np.ones(lap.n, dtype=bool)
    for r in elim.rounds:
        off = (s != 0.0) & ~np.eye(lap.n, dtype=bool) & left & left[:, None]
        count = off.sum(axis=1)
        assert np.all(left[r.sel]) and np.all(count[r.sel] <= MAX_DEGREE)
        assert not off[np.ix_(r.sel, r.sel)].any()
        tie = np.arange(lap.n, dtype=np.uint64) * TIE_HASH
        for v in r.sel:
            low = np.flatnonzero(off[v] & (count <= MAX_DEGREE))
            assert np.all((count[v] < count[low])
                          | ((count[v] == count[low]) & (tie[v] < tie[low])))
        nbrs = np.flatnonzero(off[r.sel].any(axis=0))
        assert np.array_equal(np.unique(r.nbr), nbrs)
        weights = np.zeros((len(r.sel), lap.n))
        np.add.at(weights, (r.rows(), r.nbr), r.wt)
        np.testing.assert_allclose(weights[:, nbrs],
                                   -s[np.ix_(r.sel, nbrs)], rtol=1e-12)
        np.testing.assert_allclose(r.inv_d, 1.0 / s[r.sel, r.sel],
                                   rtol=1e-12)
        left[r.sel] = False
        kept = np.flatnonzero(left)
        s[np.ix_(kept, kept)] -= (s[np.ix_(kept, r.sel)] / s[r.sel, r.sel]
                                  @ s[np.ix_(r.sel, kept)])
        s[r.sel] = 0.0
        s[:, r.sel] = 0.0
        edges = np.count_nonzero(np.triu(s, k=1))
        assert edges <= lap.m
    assert np.array_equal(elim.rest, np.flatnonzero(left))
    assert len(elim.rest) <= MAX_DEGREE + 1
    np.testing.assert_allclose(
        elim.rest_pinv,
        np.linalg.pinv(s[np.ix_(elim.rest, elim.rest)], hermitian=True),
        atol=1e-10 * np.abs(elim.rest_pinv).max())


def test_approx_on_gsw_768_reproduces_its_recorded_value():
    # recorded before rounds became flat arrays; the dense block's LAPACK
    # and BLAS calls set the last bits, which vary with the build
    est = dk.approx_disagreement(dk.generate_gsw(768, 0.5, seed=0), 0.5,
                                 seed=0)
    assert est.diagnostics["solver"] == "elimination"
    assert est.value == pytest.approx(4.178321430100525, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [100, 2000, 8001])
@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_a_chain_numbered_in_order_eliminates_in_log_n_rounds(n, closed):
    """Ties broken by the id itself took n - 33 rounds here (one local
    minimum a round); the hashed tie-break takes about log2 n."""
    u = np.arange(n if closed else n - 1)
    v = (u + 1) % n
    lap = dk.SparsifiedLaplacian(n, np.minimum(u, v), np.maximum(u, v),
                                 np.ones(len(u)), sample_count=0)
    elim = lap.elimination
    assert elim.complete
    assert len(elim.rounds) <= 2 * math.log2(n)


@pytest.mark.parametrize("bridge, complete", [(1.0, True), (1e-20, False)])
def test_a_dense_block_with_two_zero_eigenvalues_abandons_the_elimination(
        bridge, complete):
    # two 10-cliques joined by one edge: 20 vertices are one dense block,
    # whose second eigenvalue is numerically zero when the bridge is
    u, v = np.triu_indices(10, k=1)
    lap = dk.SparsifiedLaplacian(
        20, np.concatenate([u, u + 10, [0]]), np.concatenate([v, v + 10, [10]]),
        np.concatenate([np.ones(90), [bridge]]), sample_count=0)
    assert lap.elimination.complete == complete
    assert lap.elimination.rounds == []


@pytest.mark.parametrize("graph", [
    dk.generate_ba(200, 3, seed=0), dk.generate_apollonian(200, seed=0),
    ring_with_chords(201, 201, seed=0)], ids=["ba", "apollonian", "expander"])
def test_graphs_that_would_fill_in_abort_onto_bit_identical_cg(graph):
    lap = dk.sparsify_two_step(graph, 0.5, seed=0)
    assert not lap.elimination.complete
    q = _sketched_rows(lap, 89, 0)
    kappa = solver_tolerance(lap, graph.stationary(), 0.5)
    x, iters = dk.laplacian_solve(lap, q, kappa)
    expected, expected_iters = sparsify._cg_solve(lap, q, kappa)
    assert np.array_equal(x, expected) and iters == expected_iters > 0


def test_a_failed_certificate_falls_back_to_bit_identical_cg():
    g = dk.generate_gsw(300, 0.5, seed=5)
    lap = dk.sparsify_two_step(g, 0.5, seed=0)
    q = _sketched_rows(lap, 89, 0)
    kappa = solver_tolerance(lap, g.stationary(), 0.5)
    assert dk.laplacian_solve(lap, q, kappa)[1] == 0
    # a wrong dense block: the certificate, not the rules, must catch it
    lap.elimination = dataclasses.replace(
        lap.elimination, rest_pinv=2.0 * lap.elimination.rest_pinv)
    x, iters = dk.laplacian_solve(lap, q, kappa)
    expected, expected_iters = sparsify._cg_solve(lap, q, kappa)
    assert np.array_equal(x, expected) and iters == expected_iters > 0


def test_approx_records_which_solver_ran():
    for g, solver in ((dk.generate_gsw(300, 0.5, seed=1), "elimination"),
                      (dk.generate_ba(200, 3, seed=1), "cg")):
        d = dk.approx_disagreement(g, 0.5, seed=2).diagnostics
        assert d["solver"] == solver
        if solver == "elimination":
            assert d["cg_iterations"] == [0] and d["elimination_rounds"] > 0
        else:
            assert d["cg_iterations"][0] > 0 and d["elimination_rounds"] == 0


@pytest.mark.parametrize("n, p", [(12, 0.5), (40, 0.3)])
def test_sketch_rows_are_the_bits_of_one_stream(n, p):
    """Row r's signs are words [r W, (r + 1) W) of one stream, bit e % 64
    of word e // 64 for edge e, 1 being +1; each row's column is the signed
    incidence rows weighted by sqrt(w_e / k)."""
    g = random_connected_graph(n, p, seed=n, weighted=True)
    lap = dk.sparsify_two_step(g, 0.5, seed=1)
    k, seed, m = 7, 11, lap.m
    words = -(-m // 64)
    raw = derive_rng(seed, TAG_SKETCH).bit_generator.random_raw(k * words)
    signs = np.array([[(int(raw[r * words + e // 64]) >> (e % 64)) & 1
                       for e in range(m)] for r in range(k)]) * 2.0 - 1.0
    incidence = np.zeros((lap.n, m))
    incidence[lap.edge_u, np.arange(m)] = 1.0
    incidence[lap.edge_v, np.arange(m)] = -1.0
    expected = incidence @ (np.sqrt(lap.edge_w / k)[:, None] * signs.T)
    q = _sketched_rows(lap, k, seed)
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-12)
    assert np.array_equal(q, _sketched_rows(lap, k, seed))
    assert not np.array_equal(q, _sketched_rows(lap, k, seed + 1))


@pytest.mark.parametrize("graph", [
    dk.generate_gsw(300, 0.5, seed=2), dk.generate_ba(400, 3, seed=0)],
    ids=["gsw", "ba"])
def test_the_sketch_does_not_depend_on_its_blocks(monkeypatch, graph):
    lap = dk.sparsify_two_step(graph, 0.5, seed=0)
    n, k, m = lap.n, 89, lap.m
    blocks = []
    split = sparsify._split

    def recording(lo, hi, parts):
        blocks.extend(split(lo, hi, parts))
        return blocks[-parts:]

    monkeypatch.setattr(sparsify, "_split", recording)
    q = _sketched_rows(lap, k, 0)
    # a block of r rows holds r m floats, no more than the n k of q
    assert all(hi - lo <= max(1, n * k // m) for lo, hi in blocks)
    assert len(blocks) > 1
    monkeypatch.setattr(sparsify, "_split",
                        lambda lo, hi, parts: [(i, i + 1) for i in range(k)])
    assert np.array_equal(_sketched_rows(lap, k, 0), q)
    monkeypatch.setattr(sparsify, "_split", lambda lo, hi, parts: [(0, k)])
    assert np.array_equal(_sketched_rows(lap, k, 0), q)


def _sketch_value(x, pi):
    """The value approx reads off a solution x, over d_sum:
    ||D_pi (I - 1 pi^T) x||_F^2."""
    return float(np.sum((pi[:, None] * (x - pi @ x)) ** 2))


def _sparsified_delta(g, pinv):
    """d_sum sum_i pi_i^2 (e_i - pi)^T pinv (e_i - pi): the trace the
    sketch estimates."""
    pi = g.stationary()
    centred = np.eye(g.n) - pi  # row i: e_i - pi
    return g.d_sum * float(np.sum(
        pi ** 2 * np.einsum("ij,jk,ik->i", centred, pinv, centred)))


@pytest.mark.parametrize("eps, graph_seed", [(0.5, 6), (0.25, 7)])
def test_the_sketch_covers_the_trace_in_all_but_a_delta_share_of_seeds(
        eps, graph_seed):
    """With exact solves, approx's row count puts the estimate within
    (1 +- eps) of the sparsified delta in at least a 1 - delta share
    of seeds."""
    g = random_connected_graph(30, 0.25, seed=graph_seed, weighted=True)
    lap = dk.sparsify_two_step(g, eps, seed=0)
    pinv = np.linalg.pinv(lap.matrix.toarray(), hermitian=True)
    trace = _sparsified_delta(g, pinv)
    pi = g.stationary()
    k = _sketch_rows_for(eps)
    seeds = 100
    inside = sum(
        abs(g.d_sum * _sketch_value(pinv @ _sketched_rows(lap, k, seed), pi)
            - trace) <= eps * trace for seed in range(seeds))
    assert inside >= (1.0 - FAILURE_PROB) * seeds


@pytest.mark.parametrize("n", [25, 200])
def test_the_sketch_row_count_depends_on_epsilon_alone(n):
    g = random_connected_graph(n, 0.3 if n < 100 else 0.05, seed=14)
    for eps, k in ((0.5, 89), (0.3, 246), (0.25, 355)):
        est = dk.approx_disagreement(g, eps, seed=3)
        assert est.diagnostics["k"] == _sketch_rows_for(eps) == k
        assert est.diagnostics["failure_prob"] == FAILURE_PROB == 0.05


def test_sketch_solve_sandwich_on_quadratic_forms():
    # approx's row count and the aggregate solver tolerance keep the
    # value within (1 +- eps)^2 of the sparsified delta
    eps = 0.25
    for seed in range(3):
        g = random_connected_graph(40, 0.3, seed=80 + seed)
        lap = dk.sparsify_two_step(g, eps, seed=seed)
        pinv = np.linalg.pinv(lap.matrix.toarray(), hermitian=True)
        pi = g.stationary()
        kappa = solver_tolerance(lap, pi, eps)
        x, _ = dk.laplacian_solve(
            lap, _sketched_rows(lap, _sketch_rows_for(eps), seed), kappa)
        value = g.d_sum * _sketch_value(x, pi)
        delta = _sparsified_delta(g, pinv)
        assert (1 - eps) ** 2 * delta <= value <= (1 + eps) ** 2 * delta
        # same seed, so approx_disagreement draws this sparsifier and sketch
        assert dk.approx_disagreement(g, eps, seed=seed).value == pytest.approx(
            value, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), p=st.floats(0.15, 0.6),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       eps=st.floats(0.01, 0.99), k=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solver_tolerance_bounds_the_change_in_the_value(
        n, p, graph_seed, weighted, eps, k, seed):
    """At solver_tolerance's kappa, the solve moves the value by a factor
    within [(1 - t)^2, (1 + t)^2], t = sqrt(1 + eps) - 1."""
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    lap = dk.sparsify_two_step(g, 0.5, seed=seed)
    pi = g.stationary()
    q = _sketched_rows(lap, k, seed)
    exact = _sketch_value(
        np.linalg.pinv(lap.matrix.toarray(), hermitian=True) @ q, pi)
    assume(exact > 1e-9 * np.sum(q * q))
    x, _ = dk.laplacian_solve(lap, q, solver_tolerance(lap, pi, eps))
    t = math.sqrt(1.0 + eps) - 1.0
    assert (1 - t) ** 2 <= _sketch_value(x, pi) / exact <= (1 + t) ** 2


def test_solver_tolerance_formula():
    g = random_connected_graph(12, 0.4, seed=3, weighted=True)
    lap = dk.sparsify_two_step(g, 0.25, seed=0)
    eps = 0.25
    pi = g.stationary()
    c_p = 1 + 12 * np.sum((pi - 1 / 12) ** 2)
    lam_max = 2 * lap.degrees.max()
    expected = ((math.sqrt(1 + eps) - 1) * pi.min() / pi.max()
                / math.sqrt(c_p * lam_max / lap.lambda_min_positive))
    assert solver_tolerance(lap, pi, eps) == pytest.approx(expected,
                                                           rel=1e-12)
    # the eigenvalue bounds it uses are bounds
    vals = np.linalg.eigvalsh(lap.matrix.toarray())
    assert lap.lambda_min_positive <= vals[1] and vals[-1] <= lam_max


def test_approx_stderr_is_the_spread_of_the_sketch_rows():
    eps, seed = 0.3, 5
    g = random_connected_graph(40, 0.25, seed=17, weighted=True)
    est = dk.approx_disagreement(g, eps, seed=seed)
    lap = dk.sparsify_two_step(g, eps, seed=seed)
    k = _sketch_rows_for(eps)
    pi = g.stationary()
    x, _ = dk.laplacian_solve(lap, _sketched_rows(lap, k, seed),
                              solver_tolerance(lap, pi, eps))
    per_row = [k * g.d_sum * sum(pi[i] ** 2 * (row[i] - row @ pi) ** 2
                                 for i in range(g.n)) for row in x.T]
    assert np.mean(per_row) == pytest.approx(est.value, rel=1e-12)
    assert est.diagnostics["stderr"] == pytest.approx(
        np.std(per_row, ddof=1) / math.sqrt(k), rel=1e-10)


@pytest.mark.parametrize("weighted", [False, True])
def test_approx_reductions_equal_the_copying_expressions(monkeypatch,
                                                         weighted):
    """The in-place reductions of the solution give the value, per-node
    terms and stderr of the expressions that copy it, bit for bit."""
    eps, seed = 0.3, 5
    g = random_connected_graph(40, 0.25, seed=17, weighted=weighted)
    solved = []
    real = sparsify.laplacian_solve

    def capturing(*args, **kwargs):
        x, iters = real(*args, **kwargs)
        solved.append(x.copy())
        return x, iters

    monkeypatch.setattr(sparsify, "laplacian_solve", capturing)
    est = dk.approx_disagreement(g, eps, seed=seed)
    k = est.diagnostics["k"]
    pi = g.stationary()
    z = solved[0].T
    p = z @ pi
    diffs = z - p[:, None]
    c = np.einsum("ij,ij->j", diffs, diffs)
    per_row = k * g.d_sum * (diffs * diffs) @ (pi * pi)
    assert est.value == float(g.d_sum * np.sum(pi * pi * c))
    assert est.per_node == {i: float(g.d_sum * pi[i] ** 2 * c[i])
                            for i in range(g.n)}
    assert est.diagnostics["stderr"] == float(
        per_row.std(ddof=1) / math.sqrt(k))


def test_lambda_min_bound_lies_below_lambda_2_on_gsw_dense_input():
    # an unconverged eigensolver estimate overshot lambda_2 on this input
    g = dk.generate_gsw(768, 0.5, seed=621272063)
    lap = dk.sparsify_two_step(g, 0.5, seed=520846937)
    lambda_2 = np.linalg.eigvalsh(lap.matrix.toarray())[1]
    assert 0.0 < lap.lambda_min_positive <= lambda_2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 40), p=st.floats(0.15, 0.6),
       graph_seed=st.integers(0, 10_000), weighted=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_lambda_min_bound_lies_below_lambda_2(n, p, graph_seed, weighted,
                                              seed):
    g = random_connected_graph(n, p, graph_seed, weighted=weighted)
    own = dk.SparsifiedLaplacian(g.n, g.edge_u, g.edge_v, g.edge_w,
                                 sample_count=0)
    for lap in (own, dk.sparsify_two_step(g, 0.5, seed=seed)):
        lambda_2 = np.linalg.eigvalsh(lap.matrix.toarray())[1]
        assert 0.0 < lap.lambda_min_positive <= lambda_2


def test_approx_on_gsw_leaks_no_warning():
    g = dk.generate_gsw(768, 0.5, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = dk.approx_disagreement(g, 0.5, seed=11)
    assert est.value > 0.0


def test_approx_estimate_nonnegative_contributions():
    g = random_connected_graph(25, 0.3, seed=14)
    est = dk.approx_disagreement(g, 0.3, seed=3)
    assert all(v >= 0.0 for v in est.per_node.values())
    assert est.diagnostics["k"] == 246
    payload = est.to_json()
    assert payload["method"] == "approx"
    assert {"s", "k", "kappa", "cg_iterations",
            "failure_prob"} <= set(payload["diagnostics"])
