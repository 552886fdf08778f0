"""Acceptance suite: one test per release criterion, each timed against its
stated budget. The conftest hook prints a PASS/FAIL line per criterion in
the terminal summary.
"""

import time

import numpy as np
import pytest

import disagree_kit as dk
from disagree_kit.sampler import SampleParams
from helpers import random_connected_graph

EPS = 0.25


# -- criterion 1: five-node-path oracle table ---------------------------

def test_c1_path5_pseudoinverse_table(path5_path):
    g = dk.load_edge_list(path5_path)
    s = dk.decompose(g, allow_bipartite=True)
    res = dk.exact_disagreement(g, s, allow_bipartite_pseudoinverse=True)
    assert np.max(np.abs(res.pi - [0.125, 0.25, 0.25, 0.25, 0.125])) < 1e-9
    assert np.max(np.abs(res.ldag_diag - [1.25, 1.0, 0.5, 1.0, 1.25])) < 1e-9
    expected = [0.15625, 0.25, 0.125, 0.25, 0.15625]
    assert np.max(np.abs(res.contributions - expected)) < 1e-9
    assert res.delta == pytest.approx(0.9375, abs=1e-9)


# -- criterion 2: Zachary across the four estimators --------------------

def test_c2_zachary_all_methods(zachary_path):
    g = dk.load_edge_list(zachary_path)

    t0 = time.perf_counter()
    summary = dk.decompose(g)
    delta = dk.exact_disagreement(g, summary).delta
    t_exact = time.perf_counter() - t0
    assert delta == pytest.approx(1.287, abs=1e-3)

    t0 = time.perf_counter()
    base = dk.derive_params(g.n, EPS, summary.gap_bound,
                            walks_per_length=20_000)
    errs = [abs(dk.sample_disagreement(
        g, SampleParams(**{**base.__dict__, "seed": seed})).value - delta)
        / delta for seed in range(20)]
    t_sample = time.perf_counter() - t0
    assert np.mean(errs) <= 0.05

    t0 = time.perf_counter()
    errs = [abs(dk.approx_disagreement(g, EPS, seed=seed).value - delta)
            / delta for seed in range(20)]
    t_approx = time.perf_counter() - t0
    assert np.mean(errs) <= 0.10

    t0 = time.perf_counter()
    mc = dk.simulate_mc_disagreement(
        g, dk.MCConfig(walks_per_target=3_000, truncation_cap=3_000, seed=0))
    t_mc = time.perf_counter() - t0
    assert abs(mc.value - delta) / delta <= 0.15

    for label, t in (("exact", t_exact), ("sample", t_sample),
                     ("approx", t_approx), ("mc", t_mc)):
        assert t < 60.0, f"{label} took {t:.1f}s"


# -- criterion 3: additive error bound of the walk sampler --------------

def test_c3_sampler_error_bound():
    t0 = time.perf_counter()
    for gi, n in enumerate(range(20, 100, 8)):
        g = random_connected_graph(n, 0.35, seed=100 + gi,
                                   weighted=gi % 3 == 0)
        summary = dk.decompose(g)
        delta = dk.exact_disagreement(g, summary).delta
        bound = (np.sqrt(n) + 1) * EPS
        base = dk.derive_params(n, EPS, summary.gap_bound)
        good = sum(
            abs(dk.sample_disagreement(
                g, SampleParams(**{**base.__dict__, "seed": t})).value
                - delta) <= bound
            for t in range(50))
        assert good >= 0.95 * 50, f"graph {gi}: {good}/50 inside the bound"
    assert time.perf_counter() - t0 < 300.0


# -- criterion 4: multiplicative sandwich of the sketch pipeline --------

def test_c4_sketch_sandwich():
    t0 = time.perf_counter()
    lo, hi = (1 - EPS) ** 3, (1 + EPS) ** 3
    inside = 0
    for gi in range(4):
        g = random_connected_graph(30, 0.3, seed=770 + gi,
                                   weighted=gi % 2 == 1)
        delta = dk.exact_disagreement(g).delta
        for trial in range(25):
            ratio = dk.approx_disagreement(g, EPS,
                                           seed=1_000 * gi + trial).value / delta
            inside += lo <= ratio <= hi
    assert inside >= 95
    assert time.perf_counter() - t0 < 300.0


# -- criterion 5: pseudofractal Kemeny constants ------------------------

def test_c5_psfw_kemeny():
    t0 = time.perf_counter()
    # closed form against the eigenvalue-multiset sum
    for g_it in range(2, 7):
        lam = np.sort(dk.psfw_spectrum(g_it).to_array())[::-1][1:]
        spectral_sum = float(np.sum(1.0 / (1.0 - lam ** 2)))
        closed = dk.psfw_kemeny_closed_form(g_it)
        assert abs(closed - spectral_sum) / spectral_sum < 1e-8
    # sampling estimate on generation 8
    f8 = dk.generate_psfw(8)
    k_true = dk.psfw_kemeny_closed_form(8)
    lam8 = float(np.max(np.abs(dk.psfw_spectrum(8).to_array()[1:])))
    params = dk.derive_params(f8.n, EPS, lam8, seed=0, walks_per_length=100)
    est = dk.sample_kemeny_two_step(f8, params)
    assert abs(est.value - k_true) / k_true <= 0.05
    assert time.perf_counter() - t0 < 600.0


def test_c5b_sampler_runtime_scales_like_sqrt_n():
    # stand-in for the full-scale scalability table: wall time of the
    # sampler across pseudofractal generations 8..12 at fixed tolerance
    # and spectral bound fits N^alpha with alpha in [0.4, 0.7]
    t0 = time.perf_counter()
    sizes, times = [], []
    for g_it in range(8, 13):
        f = dk.generate_psfw(g_it)
        params = dk.derive_params(f.n, 0.2, 0.8, seed=1, walks_per_length=20)
        wall = min(dk.sample_kemeny_two_step(f, params).wall_time_s
                   for _ in range(2))
        sizes.append(f.n)
        times.append(wall)
    alpha = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert 0.4 <= alpha <= 0.7, f"fitted runtime exponent {alpha:.3f}"
    assert time.perf_counter() - t0 < 600.0


# -- criterion 6: size-(in)dependence of the disagreement value ---------

def test_c6_delta_constancy_and_log_growth():
    t0 = time.perf_counter()
    # scale-free growth: sampled disagreement stays flat from 2k to 20k
    means = []
    for n in (2_000, 20_000):
        g = dk.generate_ba(n, 2, seed=1)
        lam = dk.estimate_gap_bound(g, iters=300, seed=0)
        base = dk.derive_params(n, 0.3, lam, walks_per_length=400,
                                node_budget=3_000)
        vals = [dk.sample_disagreement(
            g, SampleParams(**{**base.__dict__, "seed": s})).value
            for s in range(10)]
        means.append(float(np.mean(vals)))
    drift = abs(means[0] - means[1]) / np.mean(means)
    assert drift < 0.10, f"sampled means {means} drift {drift:.3f}"

    # small-world growth: exact disagreement grows like log N
    sizes = [2 ** k for k in range(8, 14)]
    deltas = []
    for n in sizes:
        g = dk.generate_gsw(n, 0.5, seed=11)
        deltas.append(dk.exact_disagreement(g).delta)
    x = np.log(sizes)
    slope, intercept = np.polyfit(x, deltas, 1)
    fitted = slope * x + intercept
    ss_res = np.sum((np.array(deltas) - fitted) ** 2)
    ss_tot = np.sum((np.array(deltas) - np.mean(deltas)) ** 2)
    r_sq = 1.0 - ss_res / ss_tot
    assert slope > 0
    assert r_sq > 0.9, f"deltas {deltas} fit R^2 {r_sq:.3f}"
    assert time.perf_counter() - t0 < 1_200.0


# -- criterion 7: all five estimators agree -----------------------------

TOLERANCE_BUDGET = {"exact": 0.005, "sample": 0.04, "approx": 0.12,
                    "mc": 0.06, "simulate": 0.04}


def test_c7_estimator_consistency():
    for gi in range(10):
        n = 12 + 3 * gi
        g = random_connected_graph(n, 0.35, seed=500 + gi,
                                   weighted=gi % 2 == 0)
        summary = dk.decompose(g)
        exact = dk.exact_disagreement(g, summary).delta
        params = dk.derive_params(n, EPS, summary.gap_bound, seed=gi,
                                  walks_per_length=4_000)
        values = {
            "exact": exact,
            "sample": dk.sample_disagreement(g, params).value,
            "approx": dk.approx_disagreement(g, EPS, seed=gi).value,
            "mc": dk.simulate_mc_disagreement(
                g, dk.MCConfig(walks_per_target=3_000, truncation_cap=2_000,
                               seed=gi)).value,
            "simulate": dk.simulate_noisy_degroot(
                g, dk.MCConfig(horizon=150_000, seed=gi)).value,
        }
        for a, va in values.items():
            for b, vb in values.items():
                budget = (TOLERANCE_BUDGET[a] + TOLERANCE_BUDGET[b]) * exact
                assert abs(va - vb) <= budget, (
                    f"graph {gi}: {a}={va:.4f} vs {b}={vb:.4f} "
                    f"exceeds {budget:.4f}")


# -- criterion 8: pseudoinverse identities -------------------------------

def test_c8_pseudoinverse_identities():
    # normalized-vs-combinatorial pseudoinverse transform on loopy graphs
    for seed, n in ((0, 40), (1, 70), (2, 100)):
        g = random_connected_graph(n, 0.15, seed=300 + seed,
                                   weighted=seed == 1)
        report = dk.pseudoinverse_identity_check(g, eps=1e-6)
        assert report.direct_vs_transform < 1e-7
        # even-power series identity at the derived truncation length
        assert report.direct_vs_series < 1e-6
        assert report.diagonal_min >= 0.0

    # series truncation bound and its aggregate version
    for seed, eps in ((0, 0.1), (1, 0.01), (2, 0.1), (3, 0.01)):
        n = 20 + 10 * (seed % 3)
        g = random_connected_graph(n, 0.3, seed=200 + seed)
        summary = dk.decompose(g)
        ell = dk.spectral.truncation_length(eps, summary.gap_bound)
        ldag = dk.spectral.two_step_pinv_diagonal(summary)
        pi = g.stationary()
        p_mat = g.adjacency_dense() / g.degrees[:, None]
        p2 = p_mat @ p_mat
        power = np.eye(n)
        partial = np.zeros(n)
        for _ in range(ell):
            partial += np.diag(power) - pi
            power = power @ p2
        assert np.max(np.abs(ldag - partial)) <= eps / 2
        delta = dk.exact_disagreement(g, summary).delta
        assert abs(delta - float(pi @ partial)) <= eps / 2
