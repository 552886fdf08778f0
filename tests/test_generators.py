import numpy as np
import pytest

import disagree_kit as dk
from disagree_kit.generators import powerlaw_exponent_mle, psfw_node_count


def test_ba_seed_graph_only():
    g = dk.generate_ba(3, 2, m0=3, seed=5)
    assert g.n == 3 and g.m == 3  # the seed triangle, no growth steps
    assert np.allclose(g.degrees, 2.0)


def test_ba_average_degree_and_tail():
    g = dk.generate_ba(10_000, 2, m0=3, seed=7)
    avg = 2.0 * g.m / g.n
    assert abs(avg - 4.0) / 4.0 < 0.05
    gamma = powerlaw_exponent_mle(g.degrees, k_min=10)
    assert 2.5 <= gamma <= 3.5


def test_ba_param_validation():
    with pytest.raises(dk.DomainError):
        dk.generate_ba(10, 5, m0=3)
    with pytest.raises(dk.DomainError):
        dk.generate_ba(2, 3)


def test_apollonian_initial_clique():
    g = dk.generate_apollonian(4, d=2, seed=0)
    assert g.m == 6  # K4
    assert np.allclose(g.degrees, 3.0)


def test_apollonian_one_growth_step():
    g = dk.generate_apollonian(5, d=2, seed=1)
    assert g.m == 9
    assert sorted(g.degrees) == [3.0, 3.0, 4.0, 4.0, 4.0]


def test_apollonian_edge_count_formula():
    g = dk.generate_apollonian(10_000, d=2, seed=3)
    assert g.m == 3 * (10_000 - 4) + 6
    g3 = dk.generate_apollonian(500, d=3, seed=3)
    assert g3.m == 10 + 4 * (500 - 5)


def test_gsw_edge_counts():
    assert dk.generate_gsw(3, 0.0, seed=0).m == 3
    for n in (10, 257, 500):
        assert dk.generate_gsw(n, 1.0, seed=4).m == n
        assert dk.generate_gsw(n, 0.0, seed=4).m == 2 * n - 3


def test_gsw_param_validation():
    with pytest.raises(dk.DomainError):
        dk.generate_gsw(10, 1.5)
    with pytest.raises(dk.DomainError):
        dk.generate_gsw(2, 0.5)


def test_psfw_counts():
    for g_it in range(9):
        f = dk.generate_psfw(g_it)
        assert f.n == psfw_node_count(g_it)
        assert f.m == 3 ** (g_it + 1)
    assert dk.generate_psfw(0).m == 3
    assert (dk.generate_psfw(1).n, dk.generate_psfw(1).m) == (6, 9)
    assert (dk.generate_psfw(4).n, dk.generate_psfw(4).m) == (123, 243)


def test_psfw_cap():
    with pytest.raises(dk.ResourceError):
        dk.generate_psfw(20)


def test_psfw_spectrum_g2():
    spec = dk.psfw_spectrum(2)
    assert spec.node_count == 15
    mult = {val: m for val, m in spec.entries}
    assert mult[-0.5] == 6
    with pytest.raises(dk.DomainError):
        dk.psfw_spectrum(1)


def test_psfw_spectrum_matches_dense_eigensolve():
    f = dk.generate_psfw(3)
    s = dk.decompose(f)
    expected = np.sort(dk.psfw_spectrum(3).to_array())
    assert np.max(np.abs(np.sort(s.eigenvalues) - expected)) < 1e-8


def test_psfw_kemeny_closed_form():
    # table values for the two largest generations reported numerically
    assert dk.psfw_kemeny_closed_form(12) == pytest.approx(1.15e6, rel=5e-3)
    assert dk.psfw_kemeny_closed_form(13) == pytest.approx(3.45e6, rel=5e-3)
    with pytest.raises(dk.DomainError):
        dk.psfw_kemeny_closed_form(1)
    for g_it in range(2, 7):
        lam = np.sort(dk.psfw_spectrum(g_it).to_array())[::-1][1:]
        spectral_sum = float(np.sum(1.0 / (1.0 - lam ** 2)))
        closed = dk.psfw_kemeny_closed_form(g_it)
        assert abs(closed - spectral_sum) / spectral_sum < 1e-8


def test_generators_connected_100_seed_sweep():
    for seed in range(100):
        assert dk.validate(dk.generate_ba(40, 2, seed=seed)).connected
        assert dk.validate(dk.generate_apollonian(40, d=2,
                                                  seed=seed)).connected
        assert dk.validate(dk.generate_gsw(40, 0.7, seed=seed)).connected
    assert dk.validate(dk.generate_psfw(3)).connected


def test_generator_determinism():
    for spec in (dk.GeneratorSpec("ba", {"n": 200, "m": 2}, seed=9),
                 dk.GeneratorSpec("apollonian", {"n": 200, "d": 2}, seed=9),
                 dk.GeneratorSpec("gsw", {"n": 200, "p": 0.5}, seed=9),
                 dk.GeneratorSpec("psfw", {"g": 4}, seed=0)):
        a = dk.edge_list_text(dk.generate(spec))
        b = dk.edge_list_text(dk.generate(spec))
        assert a == b
    # different seed, different graph (for the stochastic families)
    a = dk.edge_list_text(dk.generate_ba(200, 2, seed=1))
    b = dk.edge_list_text(dk.generate_ba(200, 2, seed=2))
    assert a != b


@pytest.mark.parametrize("family, params", [
    ("ba", {"n": 200, "m": 2}), ("ba", {"n": 200, "m": 2, "m0": 5}),
    ("apollonian", {"n": 200}), ("apollonian", {"n": 200, "d": 3}),
    ("gsw", {"n": 200, "p": 0.3}), ("psfw", {"g": 3}),
])
def test_generate_dispatches_to_the_family_generator(family, params):
    direct = {"ba": dk.generate_ba, "apollonian": dk.generate_apollonian,
              "gsw": dk.generate_gsw,
              "psfw": lambda g, seed: dk.generate_psfw(g)}
    g = dk.generate(dk.GeneratorSpec(family, params, seed=11))
    ref = direct[family](**params, seed=11)
    assert dk.edge_list_text(g) == dk.edge_list_text(ref)


@pytest.mark.parametrize("family, params, message", [
    ("ba", {"n": 10}, "family 'ba' needs m"),
    ("gsw", {"p": 0.5}, "family 'gsw' needs n"),
    ("gsw", {"n": 10, "p": 0.5, "q": 3}, "family 'gsw' takes n, p, not q"),
    ("psfw", {"g": 2, "n": 5}, "family 'psfw' takes g, not n"),
    ("lattice", {"n": 10}, "unknown generator family 'lattice'"),
])
def test_generate_checks_the_family_and_its_params(family, params, message):
    with pytest.raises(dk.UsageError, match=message):
        dk.generate(dk.GeneratorSpec(family, params))
