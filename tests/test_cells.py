import pytest

import threepage as tp
from threepage.cells import Subcomplex

from conftest import HOPF, KINK, NON_SPHERE, TREFOIL, disjoint_union


def face_edge_sets(cx):
    return sorted(sorted(cx.face_edges(f)) for f in range(cx.face_count))


def test_trefoil_faces_frozen():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    assert cx.face_count == 5
    # labels {1,3,5}, {4,1}, {2,6,4}, {5,2}, {6,3} as edge ids
    assert face_edge_sets(cx) == [[0, 2, 4], [0, 3], [1, 3, 5], [1, 4], [2, 5]]
    sizes = sorted(cx.face_size(f) for f in range(cx.face_count))
    assert sizes == [2, 2, 2, 3, 3]


def test_trefoil_dual_is_k23():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    dual = cx.dual_graph()
    assert len(dual.vertices) == 5
    degrees = sorted(len(dual.adjacency[f]) for f in range(5))
    assert degrees == [2, 2, 2, 3, 3]
    small, large = sorted(dual.classes, key=len)
    assert (len(small), len(large)) == (2, 3)
    # complete bipartite: every small-class face adjacent to every large one
    for f in small:
        assert dual.adjacency[f] == large


def test_hopf_dual_is_4cycle():
    cx = tp.CellComplex(tp.parse_pd(HOPF))
    dual = cx.dual_graph()
    assert len(dual.vertices) == 4
    assert all(len(dual.adjacency[f]) == 2 for f in range(4))


def test_checkerboard_proper(corpus_complexes):
    for name, cx in corpus_complexes.items():
        white, black = cx.dual_graph().classes
        for e in range(cx.diagram.edge_count):
            a, b = cx.edge_sides(e)
            assert (a in white) != (b in white), name
            assert (a in black) != (b in black), name


def test_kink_complex():
    cx = tp.CellComplex(tp.parse_pd(KINK))
    assert cx.face_count == 3
    assert sorted(cx.face_size(f) for f in range(3)) == [1, 1, 2]


def test_rejections():
    with pytest.raises(tp.DiagramError):
        tp.CellComplex(tp.parse_pd(NON_SPHERE))   # torus-like rotation
    with pytest.raises(tp.DiagramError):
        tp.CellComplex(tp.parse_pd(disjoint_union(HOPF, HOPF)))
    with pytest.raises(tp.DiagramError):
        tp.CellComplex(tp.parse_pd("PD[]"))


def test_edge_sides_cover_faces(corpus_complexes):
    for cx in corpus_complexes.values():
        per_face = {f: 0 for f in range(cx.face_count)}
        for e in range(cx.diagram.edge_count):
            for f in cx.edge_sides(e):
                per_face[f] += 1
        for f in range(cx.face_count):
            assert per_face[f] == cx.face_size(f)


def test_subcomplex_euler_and_closure():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    full = Subcomplex(vertices=frozenset(range(3)),
                      edges=frozenset(range(cx.diagram.edge_count)),
                      faces=frozenset(range(cx.face_count)))
    assert tp.is_closed(full, cx)
    assert tp.euler_characteristic(full, cx) == 2
    assert not tp.is_contractible(full, cx)
    assert tp.complement_components(full, cx) == 0

    tree = Subcomplex(vertices=frozenset(range(3)),
                      edges=frozenset({0, 1}), faces=frozenset())
    assert tp.is_closed(tree, cx)
    assert tp.euler_characteristic(tree, cx) == 1
    assert tp.is_contractible(tree, cx)
    assert tp.complement_components(tree, cx) == 1

    # a face without its boundary edges is not closed
    open_sub = Subcomplex(vertices=frozenset(range(3)),
                          edges=frozenset(), faces=frozenset({0}))
    assert not tp.is_closed(open_sub, cx)
    # an edge without its endpoints is not closed either
    bare_edge = Subcomplex(vertices=frozenset(), edges=frozenset({0}),
                           faces=frozenset())
    with pytest.raises(tp.DiagramError, match="^subcomplex is not closed$"):
        tp.euler_characteristic(bare_edge, cx)


def test_subcomplex_components_counts():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    scattered = Subcomplex(vertices=frozenset(range(3)),
                           edges=frozenset(), faces=frozenset())
    assert len(tp.subcomplex_components(scattered, cx)) == 3
    one_edge = Subcomplex(vertices=frozenset(range(3)),
                          edges=frozenset({0}), faces=frozenset())
    assert len(tp.subcomplex_components(one_edge, cx)) == 2


def test_complement_components_frozen_examples():
    cx = tp.CellComplex(tp.parse_pd(HOPF))
    tree = Subcomplex(vertices=frozenset(range(2)),
                      edges=frozenset({tuple(sorted(tp.spanning_tree(cx)))[0]}),
                      faces=frozenset())
    assert tp.complement_components(tree, cx) == 1
    sides = cx.edge_sides(0)
    opposite = {f for f in range(4)} - set(sides)
    both = Subcomplex(vertices=frozenset(range(2)),
                      edges=frozenset(range(4)),
                      faces=frozenset({min(sides), min(opposite)}))
    # all edges plus two non-adjacent faces leave two isolated faces
    assert tp.is_closed(both, cx)
    assert tp.complement_components(both, cx) == 2
