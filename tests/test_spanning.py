import pytest

import threepage as tp
from threepage.cli import read_entries
from threepage.spanning import face_set_feasible

from conftest import (DEGENERATE_PATH, GRID_GREEDY_GAP, HOPF, KINK, TREFOIL,
                      TWO_CLASPS, braid_closure_pd, torus_pd, tree_subcomplex)

# frozen maximum face counts; n <= 6 values confirmed by the
# subcomplex-enumeration oracle, larger ones pinned from exact search
EXPECTED_M = {
    "hopf": 1, "trefoil": 2, "trefoil_switched": 2, "figure_eight": 2,
    "solomon": 3, "cinquefoil": 4, "k5_2": 3, "t2_6": 5, "granny": 4,
    "k6_1": 4, "k6_2": 4, "k6_3": 3, "t2_7": 6, "t2_7_sw2": 6,
    "t2_8": 7, "t2_8_sw1": 7, "t2_8_sw3": 7,
}


def bigons(cx):
    return [f for f in range(cx.face_count) if cx.face_size(f) == 2]


def triangles(cx):
    return [f for f in range(cx.face_count) if cx.face_size(f) == 3]


def test_spanning_tree_strategies():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    for strategy in ("bfs", "dfs", "random"):
        edges = tp.spanning_tree(cx, strategy=strategy, seed=7)
        assert len(edges) == cx.n - 1
        assert edges == tp.spanning_tree(cx, strategy=strategy, seed=7)
        sub = tree_subcomplex(tp.ExtendedSpanningTree(
            edges=edges, faces=frozenset()), cx)
        assert tp.is_contractible(sub, cx)
    with pytest.raises(tp.DiagramError):
        tp.spanning_tree(cx, strategy="mst")


def assert_infeasible(faces, cx):
    """Both face_set_feasible and complete_to_est reject the face set."""
    assert face_set_feasible(faces, cx) is False
    with pytest.raises(tp.DiagramError, match="face set is not feasible"):
        tp.complete_to_est(faces, cx)


def test_feasibility_frozen_examples():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    two_bigons = set(bigons(cx)[:2])
    assert face_set_feasible(two_bigons, cx)
    assert_infeasible(set(bigons(cx)), cx)      # all three
    assert_infeasible(set(triangles(cx)), cx)   # chi = -1
    assert face_set_feasible(set(), cx)
    assert face_set_feasible({0}, cx)

    hopf_cx = tp.CellComplex(tp.parse_pd(HOPF))
    a, b = hopf_cx.edge_sides(0)
    opposite = ({f for f in range(4)} - {a, b}).pop()
    # opposite faces of the 4-cycle dual: edge-disjoint but chi = 0
    assert not set(hopf_cx.face_edges(a)) & set(hopf_cx.face_edges(opposite))
    assert_infeasible({a, opposite}, hopf_cx)
    # adjacent faces share an edge
    assert_infeasible({a, b}, hopf_cx)


def test_all_three_trefoil_bigons_infeasible_reason():
    # the three bigons pairwise share no edge but wedge into one component
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    bs = bigons(cx)
    edge_sets = [set(cx.face_edges(f)) for f in bs]
    assert not (edge_sets[0] & edge_sets[1] or edge_sets[0] & edge_sets[2]
                or edge_sets[1] & edge_sets[2])
    # chi of the union: 3 vertices, 6 edges, 3 faces -> 0
    assert not face_set_feasible(set(bs), cx)


def test_complete_to_est():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    two = set(bigons(cx)[:2])
    est = tp.complete_to_est(two, cx)
    boundary = set().union(*(cx.face_edges(f) for f in two))
    assert est.edges == frozenset(boundary)      # no bridges needed
    assert len(est.edges) == cx.n + len(two) - 1
    assert tp.is_contractible(tree_subcomplex(est, cx), cx)

    hopf_cx = tp.CellComplex(tp.parse_pd(HOPF))
    one = {0}
    est = tp.complete_to_est(one, hopf_cx)
    assert est.edges == frozenset(hopf_cx.face_edges(0))
    assert len(est.edges) == 2

    empty = tp.complete_to_est(set(), cx)
    assert len(empty.edges) == cx.n - 1          # ordinary spanning tree
    with pytest.raises(tp.DiagramError):
        tp.complete_to_est(set(triangles(cx)), cx)


def test_exact_and_greedy_and_oracle(corpus_complexes):
    for name, cx in corpus_complexes.items():
        res = tp.exact_max_faces(cx)
        assert res.exact
        assert res.m == EXPECTED_M[name], name
        assert len(res.est.faces) == res.m
        assert face_set_feasible(res.est.faces, cx)
        assert tp.is_contractible(tree_subcomplex(res.est, cx), cx)
        greedy = tp.greedy_max_faces(cx)
        assert face_set_feasible(greedy.faces, cx)
        assert len(greedy.faces) <= res.m
        if cx.n <= 6:
            assert tp.oracle_max_faces(cx) == res.m, name


def test_greedy_orders():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    assert len(tp.greedy_max_faces(cx, order="by-size").faces) == 2
    assert len(tp.greedy_max_faces(cx, order="by-dual-degree").faces) == 2
    r1 = tp.greedy_max_faces(cx, order="random", seed=3)
    assert r1 == tp.greedy_max_faces(cx, order="random", seed=3)
    hopf_cx = tp.CellComplex(tp.parse_pd(HOPF))
    assert len(tp.greedy_max_faces(hopf_cx).faces) == 1
    with pytest.raises(tp.DiagramError,
                       match="^unknown greedy order: sideways$"):
        tp.greedy_max_faces(cx, order="sideways")


def test_greedy_falls_short_on_a_grid_diagram():
    """Greedy finds 3 faces where 4 fit, yet both trees certify 3n - 1
    or less: the merges of repair make up for the face greedy misses."""
    d = tp.parse_pd(GRID_GREEDY_GAP)
    cx = tp.CellComplex(d)
    assert (d.n, d.is_reduced()) == (7, True)
    assert len(tp.greedy_max_faces(cx).faces) == 3
    exact = tp.exact_max_faces(cx)
    assert (exact.m, exact.exact) == (4, True)
    nsis = tp.nsis_exact(tp.SimpleGraph.from_dual(cx.dual_graph()))
    assert (nsis.size, nsis.exact) == (4, True)
    for config in (tp.RunConfig(), tp.RunConfig(exact=True)):
        cert = tp.certify(d, config)
        assert cert.verified and len(cert.final.points) == 14 <= 3 * d.n - 1


def test_budget_degrades_gracefully():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    res = tp.exact_max_faces(cx, budget=2)
    assert not res.exact
    assert face_set_feasible(res.est.faces, cx)


def test_budget_hit_deeper_than_recursion_limit():
    """Include-first dives about a thousand faces deep here; no recursion."""
    word = [(i % 2 + 1) * (-1) ** i for i in range(2400)]
    cx = tp.CellComplex(tp.parse_pd(braid_closure_pd(word, 3)))
    res = tp.exact_max_faces(cx, budget=1500)
    assert (res.exact, res.nodes) == (False, 1501)
    assert res.m == len(res.est.faces)
    assert face_set_feasible(res.est.faces, cx)


def test_oracle_rejects_large():
    cx = tp.CellComplex(tp.parse_pd(torus_pd(7)))
    with pytest.raises(tp.DiagramError):
        tp.oracle_max_faces(cx)


def test_witness_pair_postconditions(corpus_complexes):
    for name, cx in corpus_complexes.items():
        if cx.n < 3:
            continue
        w = tp.witness_pair(cx)
        ea, eb = w.edge_a, w.edge_b
        d = cx.diagram
        assert set(d.edge_endpoints(ea)) & set(d.edge_endpoints(eb)), name
        assert set(d.edge_endpoints(ea)) != set(d.edge_endpoints(eb)), name
        assert ea in cx.face_edges(w.face_a), name
        assert eb in cx.face_edges(w.face_b), name
        assert w.face_a != w.face_b
        assert not set(cx.face_edges(w.face_a)) & set(cx.face_edges(w.face_b))
        assert face_set_feasible({w.face_a, w.face_b}, cx), name


def test_witness_pair_preconditions_and_gap():
    with pytest.raises(tp.DiagramError):
        tp.witness_pair(tp.CellComplex(tp.parse_pd(HOPF)))     # n < 3
    with pytest.raises(tp.DiagramError):
        tp.witness_pair(tp.CellComplex(tp.parse_pd(KINK)))     # n < 3
    kinked_hopf = next(body for name, body, _ in read_entries(DEGENERATE_PATH)
                       if name == "kinked_hopf")
    with pytest.raises(tp.DiagramError,
                       match="^witness search requires a reduced diagram$"):
        tp.witness_pair(tp.CellComplex(tp.parse_pd(kinked_hopf)))
    # composite diagram: feasible pairs exist but never share a crossing,
    # so the local certificate is honestly reported as missing
    clasps = tp.CellComplex(tp.parse_pd(TWO_CLASPS))
    assert tp.exact_max_faces(clasps).m == 2
    assert tp.witness_pair(clasps) is None


def test_search_results_are_dual_nsis(corpus_complexes):
    for cx in corpus_complexes.values():
        graph = tp.SimpleGraph.from_dual(cx.dual_graph())
        for est in (tp.exact_max_faces(cx).est, tp.greedy_max_faces(cx)):
            assert tp.is_nsis(graph, est.faces)
