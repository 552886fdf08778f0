import numpy as np
import pytest

import disagree_kit as dk
from disagree_kit.sampler import SampleParams
from helpers import (path_graph, random_connected_graph,
                     return_probability_oracle, star_graph, triangle)


def test_derive_params_formula():
    p = dk.derive_params(10 ** 4, 0.25, 0.5)
    assert p.ell == 2  # ceil(log 16 / (2 log 2))
    assert p.node_budget <= 10 ** 4
    # walk budget matches the printed formula
    expected_r = int(np.ceil(2 * 4 * np.log(2 * 10 ** 8 * 2) / 0.25 ** 2))
    assert p.walks_per_length == expected_r


def test_derive_params_conservative_bound_is_huge():
    p = dk.derive_params(100, 0.3, 0.9998, walks_per_length=1, node_budget=1)
    assert p.ell == 26034  # frozen from high-precision evaluation


def test_derive_params_refuses_a_derived_ell_beyond_the_cap():
    # a lambda bound at estimate_gap_bound's 1 - 1e-9 ceiling derives
    # ell of about 10^10
    with pytest.raises(dk.ResourceError, match='--ell.*"ell"'):
        dk.derive_params(3, 0.25, 1.0 - 1e-9)
    # a given ell is not capped, and the cap itself is derivable
    assert dk.derive_params(3, 0.25, 1.0 - 1e-9, ell=5).ell == 5
    lam = 0.99999
    ell = dk.spectral.truncation_length(0.25, lam)
    assert ell <= dk.sampler.MAX_DERIVED_ELL
    assert dk.derive_params(3, 0.25, lam).ell == ell


def test_derive_params_clamps_loose_tolerance():
    with pytest.warns(UserWarning):
        p = dk.derive_params(100, 5.0, 0.5)
    assert p.ell == 1


def test_derive_params_validation():
    with pytest.raises(dk.DomainError):
        dk.derive_params(1, 0.25, 0.5)
    with pytest.raises(dk.DomainError):
        dk.derive_params(10, -1.0, 0.5)
    with pytest.raises(dk.DomainError):
        dk.derive_params(10, 0.25, 1.5)


def test_node_budget_clamped():
    p = dk.derive_params(5, 0.25, 0.9)
    assert p.node_budget == 5
    assert dk.derive_params(5, 0.25, 0.9, node_budget=50).node_budget == 5


def test_independent_walks_per_length_are_refused():
    with pytest.raises(dk.DomainError, match="independent walks"):
        dk.derive_params(10, 0.25, 0.5, reuse_walks=False)
    assert dk.derive_params(10, 0.25, 0.5, reuse_walks=True) == \
        dk.derive_params(10, 0.25, 0.5)


@pytest.mark.parametrize("ell", [1, 2, 5])
def test_sampler_derives_one_stream_per_sampled_node(monkeypatch, ell):
    """The node draw takes one stream, and each sampled node one for all
    its lengths."""
    calls = []
    real = dk.sampler.derive_rng

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dk.sampler, "derive_rng", counting)
    g = dk.load_bundled("zachary")
    p = dk.derive_params(g.n, 0.25, 0.9, ell=ell, walks_per_length=7,
                         node_budget=4)
    dk.sample_disagreement(g, p)
    assert len(calls) == 1 + 4


def test_return_probability_zero_length_is_one():
    g = triangle()
    p = dk.derive_params(3, 0.5, 0.5, ell=1, walks_per_length=10)
    est = dk.estimate_return_probabilities(g, 0, p)
    assert est.tolist() == [1.0]


def test_return_probability_triangle():
    g = triangle()
    p = dk.derive_params(3, 0.25, 0.5, ell=2, walks_per_length=100_000, seed=1)
    est = dk.estimate_return_probabilities(g, 0, p)
    assert return_probability_oracle(g, 0, 1) == pytest.approx(0.5)
    assert est[1] == pytest.approx(0.5, abs=0.01)


def test_return_probability_path_center():
    g = path_graph(5)
    p = dk.derive_params(5, 0.25, 0.5, ell=2, walks_per_length=100_000, seed=2)
    est = dk.estimate_return_probabilities(g, 2, p)
    assert return_probability_oracle(g, 2, 1) == pytest.approx(0.5)
    assert est[1] == pytest.approx(0.5, abs=0.01)


def test_return_probabilities_unbiased_small_graph():
    g = random_connected_graph(8, 0.5, seed=31, weighted=True)
    r = 100_000
    p = dk.derive_params(8, 0.25, 0.5, ell=4, walks_per_length=r, seed=3)
    for node in (0, 5):
        est = dk.estimate_return_probabilities(g, node, p)
        for j in range(1, 4):
            truth = return_probability_oracle(g, node, j)
            se = np.sqrt(truth * (1 - truth) / r)
            assert abs(est[j] - truth) <= 3 * se + 1e-9


def test_even_length_parity_on_star():
    # on a star, every even-length walk returns to the hub with certainty,
    # so any odd-step contamination would show up immediately
    g = star_graph(5)
    p = dk.derive_params(6, 0.25, 0.5, ell=4, walks_per_length=500, seed=4)
    est = dk.estimate_return_probabilities(g, 0, p)
    assert est.tolist() == [1.0, 1.0, 1.0, 1.0]
    leaf = dk.estimate_return_probabilities(g, 1, p)
    assert leaf[0] == 1.0
    assert np.all(leaf[1:] <= 1.0)


def test_reuse_walks_unbiased():
    g = triangle()
    p = dk.derive_params(3, 0.25, 0.5, ell=3, walks_per_length=200_000,
                         seed=5)
    est = dk.estimate_return_probabilities(g, 0, p)
    assert est[1] == pytest.approx(return_probability_oracle(g, 0, 1),
                                   abs=0.01)
    assert est[2] == pytest.approx(return_probability_oracle(g, 0, 2),
                                   abs=0.01)


def test_sample_disagreement_deterministic():
    g = random_connected_graph(25, 0.3, seed=8)
    p = dk.derive_params(25, 0.3, 0.6, seed=17, walks_per_length=200)
    a = dk.sample_disagreement(g, p).value
    b = dk.sample_disagreement(g, p).value
    assert a == b
    shifted = SampleParams(**{**p.__dict__, "seed": 18})
    assert dk.sample_disagreement(g, shifted).value != a


def test_sample_disagreement_consistency_limit():
    g = triangle()
    p = dk.derive_params(3, 0.25, 0.5, ell=6, walks_per_length=300_000,
                         node_budget=3, seed=9)
    est = dk.sample_disagreement(g, p)
    assert est.value == pytest.approx(8.0 / 9.0, abs=0.01)
    payload = est.to_json()
    assert payload["method"] == "sample"
    assert payload["params"]["ell"] == 6


def test_sample_rejects_bipartite():
    p = dk.derive_params(5, 0.25, 0.5, walks_per_length=10)
    with pytest.raises(dk.DomainError):
        dk.sample_disagreement(path_graph(5), p)


def test_sample_kemeny_triangle_limit():
    g = triangle()
    p = dk.derive_params(3, 0.25, 0.5, ell=6, walks_per_length=300_000,
                         node_budget=3, seed=10)
    est = dk.sample_kemeny_two_step(g, p)
    assert est.value == pytest.approx(8.0 / 3.0, abs=0.02)


def test_sample_kemeny_psfw4_vs_exact():
    f = dk.generate_psfw(4)
    lam = float(np.max(np.abs(dk.psfw_spectrum(4).to_array()[1:])))
    p = dk.derive_params(f.n, 0.25, lam, walks_per_length=400, seed=11)
    est = dk.sample_kemeny_two_step(f, p)
    exact = dk.exact_kemeny_two_step(dk.decompose(f))
    assert abs(est.value - exact) / exact < 0.05


def test_estimate_gap_bound_brackets_truth(zachary_path):
    g = dk.load_edge_list(zachary_path)
    truth = dk.decompose(g).gap_bound
    est = dk.estimate_gap_bound(g, iters=300, seed=0)
    assert truth <= est <= min(1.0, truth * 1.1)


def test_additive_error_bound_holds_on_small_graphs():
    # |delta - estimate| <= (sqrt(n)+1) eps with the true contraction factor
    eps = 0.25
    violations = 0
    trials = 0
    for gi in range(4):
        g = random_connected_graph(20 + 10 * gi, 0.4, seed=600 + gi)
        s = dk.decompose(g)
        delta = dk.exact_disagreement(g, s).delta
        p = dk.derive_params(g.n, eps, s.gap_bound, seed=0)
        for trial in range(10):
            pp = SampleParams(**{**p.__dict__, "seed": trial})
            est = dk.sample_disagreement(g, pp).value
            trials += 1
            if abs(est - delta) > (np.sqrt(g.n) + 1) * eps:
                violations += 1
    assert violations / trials <= 0.05


def test_sample_stderr_is_horvitz_thompson_without_replacement():
    g = dk.load_bundled("zachary")

    def run(budget, seed):
        params = dk.derive_params(g.n, 0.25, 0.9, seed=seed, ell=6,
                                  walks_per_length=400, node_budget=budget)
        return dk.sample_disagreement(g, params)

    est = run(8, 0)
    contribs = np.array(list(est.per_node.values()))
    assert est.diagnostics["stderr"] == pytest.approx(
        g.n * np.sqrt((1 - 8 / g.n) * contribs.var(ddof=1) / 8), rel=1e-12)
    assert run(g.n, 0).diagnostics["stderr"] == 0.0  # every node drawn
    assert np.isnan(run(1, 0).diagnostics["stderr"])
    # it tracks the spread of the estimate over node draws
    runs = [run(8, seed) for seed in range(40)]
    spread = np.std([r.value for r in runs], ddof=1)
    typical = np.mean([r.diagnostics["stderr"] for r in runs])
    assert 0.5 < spread / typical < 2.0
