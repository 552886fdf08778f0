import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disagree_kit as dk
from disagree_kit.graph import component_roots
from helpers import (bipartite_oracle, components_oracle, path_graph,
                     random_connected_graph, transition_matrix, triangle)


def test_load_triangle():
    g = dk.load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
    assert g.n == 3 and g.m == 3
    assert np.allclose(g.degrees, 2.0)
    assert g.is_unit_weighted


def test_load_path5_table_values():
    g = dk.load_edge_list(io.StringIO("0 1\n1 2\n2 3\n3 4\n"))
    assert np.allclose(g.degrees, [1, 2, 2, 2, 1])
    assert g.d_sum == 8.0
    assert np.allclose(g.stationary(), [0.125, 0.25, 0.25, 0.25, 0.125])


def test_load_rejects_nonpositive_weight():
    with pytest.raises(dk.DomainError):
        dk.load_edge_list(io.StringIO("0 1 -2.0\n"))
    with pytest.raises(dk.DomainError):
        dk.load_edge_list(io.StringIO("0 1 0\n"))


def test_load_malformed_line_reports_number():
    with pytest.raises(dk.ParseError) as exc:
        dk.load_edge_list(io.StringIO("0 1\nnot an edge here either\n"))
    assert exc.value.line_no == 2


def test_load_rejects_node_ids_past_int64_with_their_line():
    g = dk.load_edge_list(io.StringIO(f"0 1\n1 {2 ** 63 - 1}\n"))
    assert g.node_labels[-1] == 2 ** 63 - 1
    with pytest.raises(dk.ParseError) as exc:
        dk.load_edge_list(io.StringIO(f"0 1\n1 {2 ** 63}\n"))
    assert exc.value.line_no == 2
    with pytest.raises(dk.DomainError, match="out of range"):
        dk.WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2 ** 63, 1.0)])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 1.0), (1, 2 ** 63, 1.0)],
     f"edge (1, {2 ** 63}) out of range for n=3"),
    ([(0, 1, 1.0), (-2 ** 63 - 1, 2, 1.0)],
     f"edge ({-2 ** 63 - 1}, 2) out of range for n=3"),
    ([(0, 1, 1.0), (1, 2, 10 ** 400)],
     "edge (1, 2) has a weight too large for a float"),
    # the first bad edge in input order, not the one that overflowed
    ([(0, 1, -1.0), (1, 2 ** 63, 1.0)],
     "edge (0, 1) has nonpositive weight -1.0"),
    ([(1, 1, 1.0), (1, 2, 10 ** 400)],
     "self-loop at node 1 is not allowed here"),
    # a spent iterator names no edge
    (iter([(0, 1, 1.0), (1, 2 ** 63, 1.0)]),
     "an edge's node id or weight overflows (n=3)"),
])
def test_from_edges_names_the_edge_past_int64_or_float64(edges, message):
    with pytest.raises(dk.DomainError) as exc:
        dk.WeightedGraph.from_edges(3, edges)
    assert str(exc.value) == message


def test_load_rejects_duplicate_edges():
    with pytest.raises(dk.DuplicateEdgeError):
        dk.load_edge_list(io.StringIO("0 1\n1 2\n1 0\n"))


def test_load_rejects_self_loops_by_default():
    with pytest.raises(dk.DomainError):
        dk.load_edge_list(io.StringIO("0 0\n0 1\n"))
    g = dk.load_edge_list(io.StringIO("0 0 2.0\n0 1 1.0\n"),
                          allow_self_loops=True)
    assert g.degrees[0] == 3.0  # loop weight counted once


@st.composite
def _edge_list_texts(draw):
    """(edge-list text, its canonical serialization): sparse labels, shuffled
    edges, reversed endpoints, comments and blank lines, weighted or not."""
    labels = draw(st.lists(st.integers(0, 10**12), min_size=2, max_size=12,
                           unique=True))
    label = st.sampled_from(labels)
    pairs = sorted(draw(st.sets(
        st.tuples(label, label).filter(lambda e: e[0] != e[1])
        .map(lambda e: (min(e), max(e))), min_size=1, max_size=20)))
    weight = (st.floats(1e-3, 1e3) if draw(st.booleans())
              else st.just(1.0))
    weights = [draw(weight) for _ in pairs]
    unit = all(w == 1.0 for w in weights)
    canonical = "".join(f"{a}\t{b}\n" if unit else f"{a}\t{b}\t{w!r}\n"
                        for (a, b), w in zip(pairs, weights))
    lines = []
    for i in draw(st.permutations(range(len(pairs)))):
        a, b = pairs[i]
        if draw(st.booleans()):
            a, b = b, a
        sep = draw(st.sampled_from(["\t", " ", "  "]))
        lines.append(sep.join([str(a), str(b)] +
                              ([] if unit else [repr(weights[i])])))
        lines.extend(draw(st.lists(st.sampled_from(["", "# note", "  "]),
                                   max_size=2)))
    return "\n".join(lines) + "\n", canonical


@settings(max_examples=200, deadline=None)
@given(_edge_list_texts())
def test_load_and_edge_list_text_round_trip(case):
    text, canonical = case
    g = dk.load_edge_list(io.StringIO(text))
    assert dk.edge_list_text(g) == canonical
    again = dk.load_edge_list(io.StringIO(canonical))
    assert dk.edge_list_text(again) == canonical
    for attr in ("edge_u", "edge_v", "edge_w", "indptr", "indices",
                 "weights"):
        assert np.array_equal(getattr(again, attr), getattr(g, attr))


@pytest.mark.parametrize("edges, allow_loops, error, message", [
    # range, then weight, then self-loop, on the first bad edge in input order
    ([(0, 1, 1.0), (0, 5, -1.0), (2, 2, 1.0)], False, dk.DomainError,
     "edge (0, 5) out of range for n=3"),
    ([(0, 1, 1.0), (1, 1, 0.0), (0, 9, 1.0)], False, dk.DomainError,
     "edge (1, 1) has nonpositive weight 0.0"),
    ([(0, 1, 1.0), (2, 2, 1.0), (1, 2, float("nan"))], False, dk.DomainError,
     "self-loop at node 2 is not allowed here"),
    ([(2, 2, 1.0), (0, 1, float("inf")), (0, 3, 1.0)], True, dk.DomainError,
     "edge (0, 1) has nonpositive weight inf"),
    # every per-edge check comes before any duplicate
    ([(0, 1, 1.0), (1, 0, 1.0), (1, 2, -1.0)], False, dk.DomainError,
     "edge (1, 2) has nonpositive weight -1.0"),
    # the first duplicate in canonical order, whatever the input order
    ([(2, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0), (1, 0, 2.0)], False,
     dk.DuplicateEdgeError, "duplicate undirected edge (0, 1)"),
])
def test_from_edges_reports_the_first_bad_edge(edges, allow_loops, error,
                                               message):
    with pytest.raises(error) as exc:
        dk.WeightedGraph.from_edges(3, edges, allow_self_loops=allow_loops)
    assert str(exc.value) == message
    if error is dk.DomainError:
        assert not isinstance(exc.value, dk.DuplicateEdgeError)


def _loop_from_edges(n, edges, allow_self_loops):
    """The per-edge loop ``from_edges`` once ran: canonical (u, v, w) arrays
    or the error it raises."""
    us, vs, ws = [], [], []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise dk.DomainError(f"edge ({u}, {v}) out of range for n={n}")
        if w <= 0.0 or not np.isfinite(w):
            raise dk.DomainError(f"edge ({u}, {v}) has nonpositive weight {w}")
        if u == v and not allow_self_loops:
            raise dk.DomainError(f"self-loop at node {u} is not allowed here")
        us.append(min(u, v))
        vs.append(max(u, v))
        ws.append(w)
    if not us and n > 1:
        raise dk.DomainError("edge list is empty")
    order = sorted(range(len(us)), key=lambda i: (us[i], vs[i]))
    for a, b in zip(order, order[1:]):
        if (us[a], vs[a]) == (us[b], vs[b]):
            raise dk.DuplicateEdgeError(
                f"duplicate undirected edge ({us[a]}, {vs[a]})")
    return ([us[i] for i in order], [vs[i] for i in order],
            [ws[i] for i in order])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(st.tuples(
    st.integers(-1, 7), st.integers(-1, 7),
    st.sampled_from([1.0, 2.5, 0.0, -1.0, float("nan"), float("inf")])),
    max_size=8), st.booleans())
def test_from_edges_matches_the_per_edge_loop(n, edges, allow_self_loops):
    try:
        expected = _loop_from_edges(n, edges, allow_self_loops)
    except dk.DomainError as exc:
        with pytest.raises(type(exc)) as got:
            dk.WeightedGraph.from_edges(n, edges,
                                        allow_self_loops=allow_self_loops)
        assert str(got.value) == str(exc)
        return
    g = dk.WeightedGraph.from_edges(n, edges,
                                    allow_self_loops=allow_self_loops)
    assert [g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()] == \
        list(expected)


def test_loader_relabels_and_roundtrips():
    text = "5\t9\n7\t9\n5\t7\n"
    g = dk.load_edge_list(io.StringIO(text))
    assert g.n == 3
    assert list(g.node_labels) == [5, 7, 9]
    # identical up to edge ordering, byte-identical once canonical
    dumped = dk.edge_list_text(g)
    assert sorted(dumped.splitlines()) == sorted(text.splitlines())
    assert dk.edge_list_text(dk.load_edge_list(io.StringIO(dumped))) == dumped
    # round trip for weighted graphs too
    wt = "0\t1\t1.5\n1\t2\t2.0\n"
    g2 = dk.load_edge_list(io.StringIO(wt))
    assert dk.edge_list_text(g2) == wt


def test_canonical_edge_order_is_input_independent():
    a = dk.load_edge_list(io.StringIO("2 0\n0 1\n1 2\n"))
    b = dk.load_edge_list(io.StringIO("0 1\n1 2\n0 2\n"))
    assert dk.edge_list_text(a) == dk.edge_list_text(b)


def test_validate_triangle_and_path():
    v = dk.validate(triangle())
    assert v.connected and not v.bipartite
    v = dk.validate(path_graph(5))
    assert v.connected and v.bipartite


def _disjoint_triangles():
    return dk.WeightedGraph.from_edges(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])


def test_validate_disjoint_triangles_lcc_tiebreak():
    g = _disjoint_triangles()
    v = dk.validate(g)
    assert not v.connected and not v.bipartite
    assert v.component_count == 2
    assert len(v.lcc_node_map) == len(components_oracle(g)[0]) == 3
    assert set(v.lcc_node_map) == {0, 1, 2}  # tie -> smallest min node id
    lcc = dk.restrict_to_lcc(g)
    assert lcc.n == 3 and lcc.m == 3
    assert list(lcc.node_labels) == [0, 1, 2]


@st.composite
def _edge_lists(draw, self_loops=False):
    n = draw(st.integers(1, 20))
    node = st.integers(0, n - 1)
    pairs = draw(st.sets(
        st.tuples(node, node).filter(lambda e: self_loops or e[0] != e[1])
        .map(lambda e: (min(e), max(e))),
        min_size=1 if n > 1 else 0, max_size=2 * n))
    return n, draw(st.permutations(sorted(pairs)))


def _check_component_roots(n, pairs):
    g = dk.WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in pairs])
    eu = np.array([u for u, _ in pairs], dtype=np.int64)
    ev = np.array([v for _, v in pairs], dtype=np.int64)
    roots = component_roots(n, eu, ev)
    for comp in components_oracle(g):
        assert set(roots[sorted(comp)]) == {min(comp)}


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_component_roots_match_components_oracle(case):
    _check_component_roots(*case)


def test_component_roots_on_seeded_random_edge_lists():
    # hooking on a non-root would orphan a subtree; that shows up in
    # well under 1% of small random graphs, so sample many of them
    rng = np.random.default_rng(0)
    for _ in range(3000):
        n = int(rng.integers(2, 21))
        pairs = {(min(e), max(e)) for e in
                 rng.integers(0, n, (int(rng.integers(1, 2 * n)), 2))
                 if e[0] != e[1]}
        if pairs:
            _check_component_roots(n, list(rng.permutation(sorted(pairs))))


@settings(max_examples=300, deadline=None)
@given(_edge_lists(self_loops=True))
def test_validate_matches_oracles(case):
    n, pairs = case
    g = dk.WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in pairs],
                                    allow_self_loops=True)
    comps = components_oracle(g)
    v = dk.validate(g)
    assert v.connected == (len(comps) == 1)
    assert v.component_count == len(comps)
    assert v.bipartite == bipartite_oracle(g)
    if len(comps) == 1:
        assert v.lcc_node_map is None
    else:
        lcc = max(comps, key=len)  # first max: smallest min node id
        assert v.lcc_node_map == {old: new for new, old
                                  in enumerate(sorted(lcc))}


def _dict_relabelled_lcc(g, mapping):
    """The LCC by per-node dict lookups, as restrict_to_lcc once built it."""
    keep = np.array([u in mapping for u in range(g.n)])
    mask = keep[g.edge_u] & keep[g.edge_v]
    lut = np.full(g.n, -1, dtype=np.int64)
    for old, new in mapping.items():
        lut[old] = new
    labels = g.node_labels if g.node_labels is not None else np.arange(g.n)
    return (len(mapping), lut[g.edge_u[mask]], lut[g.edge_v[mask]],
            g.edge_w[mask], labels[sorted(mapping, key=mapping.get)])


@settings(max_examples=200, deadline=None)
@given(_edge_lists(), st.booleans())
def test_restrict_to_lcc_matches_dict_relabelling(case, labelled):
    n, pairs = case
    labels = np.arange(n) * 3 + 7 if labelled else None
    g = dk.WeightedGraph.from_edges(
        n, [(u, v, 1.0 + u + v) for u, v in pairs], node_labels=labels)
    v = dk.validate(g)
    lcc = dk.restrict_to_lcc(g)
    if v.connected:
        assert lcc is g
        return
    n_lcc, eu, ev, ew, lcc_labels = _dict_relabelled_lcc(g, v.lcc_node_map)
    oracle = dk.WeightedGraph(n_lcc, eu, ev, ew)
    assert lcc.n == n_lcc
    for attr in ("edge_u", "edge_v", "edge_w"):
        assert np.array_equal(getattr(lcc, attr), getattr(oracle, attr))
    assert np.array_equal(lcc.node_labels, lcc_labels)


def test_validate_is_cached_per_graph():
    g = triangle()
    assert dk.validate(g) is dk.validate(g)


_PRECONDITION_SITES = {
    "sample": lambda g: dk.sample_disagreement(
        g, dk.derive_params(g.n, 0.25, 0.5, walks_per_length=10)),
    "simulate": lambda g: dk.simulate_noisy_degroot(
        g, dk.MCConfig(horizon=10)),
    "mc": lambda g: dk.simulate_mc_disagreement(
        g, dk.MCConfig(walks_per_target=10)),
    "decompose": dk.decompose,
    "sparsify": lambda g: dk.sparsify_two_step(g, 0.25),
    "two-step": dk.two_step_graph,
}


@pytest.mark.parametrize("site", sorted(_PRECONDITION_SITES))
@pytest.mark.parametrize("graph, reason", [
    pytest.param(path_graph(5), "non-bipartite", id="path5"),
    pytest.param(_disjoint_triangles(), "connected", id="two-triangles"),
])
def test_precondition_sites_reject(site, graph, reason):
    with pytest.raises(dk.DomainError, match=f"requires a {reason} graph"):
        _PRECONDITION_SITES[site](graph)


def test_two_step_triangle_closed_form():
    gp = dk.two_step_graph(triangle())
    expected = {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0,
                (0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}
    got = {(u, v): w for u, v, w in gp.edges()}
    assert got.keys() == expected.keys()
    for k, w in expected.items():
        assert got[k] == pytest.approx(w, abs=1e-12)
    assert np.allclose(gp.degrees, 2.0)


def test_two_step_rejects_bipartite_and_big():
    with pytest.raises(dk.DomainError):
        dk.two_step_graph(path_graph(5))
    with pytest.raises(dk.ResourceError):
        dk.two_step_graph(triangle(), cap=2)


def test_two_step_properties_random():
    for seed in range(6):
        g = random_connected_graph(10 + 5 * seed, 0.3, seed=seed,
                                   weighted=seed % 2 == 0)
        gp = dk.two_step_graph(g)
        # degree preservation
        assert np.allclose(gp.degrees, g.degrees, rtol=1e-9)
        # transition matrix equals the squared base transition matrix
        p2 = transition_matrix(g)
        p2 = p2 @ p2
        assert np.max(np.abs(transition_matrix(gp) - p2)) < 1e-10
        # stationary invariance pi' P^2 = pi'
        pi = g.stationary()
        assert np.max(np.abs(pi @ p2 - pi)) < 1e-12
        # total adjacency mass (loops once) equals d_sum
        assert gp.adjacency_dense().sum() == pytest.approx(g.d_sum)


def test_stationary_invariants():
    for seed in range(3):
        g = random_connected_graph(20, 0.2, seed=seed, weighted=True)
        pi = g.stationary()
        assert abs(pi.sum() - 1.0) < 1e-12
        assert (pi > 0).all()


def test_load_bundled_fixtures():
    z = dk.load_bundled("zachary")
    assert (z.n, z.m) == (34, 78)
    assert (dk.load_bundled("path5").n, dk.load_bundled("path5").m) == (5, 4)
    with pytest.raises(dk.DomainError):
        dk.load_bundled("missing")
