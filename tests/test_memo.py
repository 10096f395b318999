"""Structures computed once per diagram or cell complex.

PlaneDiagram keeps its edge endpoints, split into connected pieces and
is_reduced; CellComplex keeps its dual graph, a SimpleGraph with its index
form.  After any mix of calls, each must equal what a fresh object computes
and what a direct recomputation from the PD code gives, and one CLI row
must build each of them once.
"""

import pytest

import threepage as tp
from threepage import cli, nsis
from threepage.diagram import PlaneDiagram, crossing_of

from conftest import (CORPUS_TEXTS, HOPF, KINK, TREFOIL, braid_closure_pd,
                      disjoint_union, torus_pd, tree_subcomplex)

hypothesis = pytest.importorskip("hypothesis")
given, settings = hypothesis.given, hypothesis.settings

from test_incremental import split_closures  # noqa: E402 (after importorskip)


def reference_pieces(d):
    """Crossing sets of the connected pieces, by a search over the darts."""
    adj = {c: set() for c in range(d.n)}
    for d1, d2 in d.edge_darts:
        adj[crossing_of(d1)].add(crossing_of(d2))
        adj[crossing_of(d2)].add(crossing_of(d1))
    pieces, seen = [], set()
    for root in range(d.n):
        if root in seen:
            continue
        seen.add(root)
        piece, queue = [root], [root]
        while queue:
            for w in adj[queue.pop()] - seen:
                seen.add(w)
                piece.append(w)
                queue.append(w)
        pieces.append(sorted(piece))
    return pieces


def reference_dual_adjacency(cx):
    adj = {f: set() for f in range(cx.face_count)}
    for e in range(cx.diagram.edge_count):
        a, b = cx.edge_sides(e)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {f: frozenset(s) for f, s in adj.items()}


def warm(d):
    """Ask a diagram, its pieces and their complexes for every kept value;
    returns the pieces with their complexes."""
    d.is_connected()
    out = []
    for c in d.connected_components():
        c.is_reduced()
        cx = tp.CellComplex(c)
        cx.dual_graph()
        tp.is_contractible(tree_subcomplex(tp.greedy_max_faces(cx), cx), cx)
        out.append((c, cx))
    return out


def check_piece(c, cx, fresh):
    """A warmed piece and its complex against a fresh copy of the piece."""
    assert c == fresh and c.connected_components()[0] is c
    assert c.is_reduced() == fresh.is_reduced()
    dual = cx.dual_graph()
    assert cx.dual_graph() is dual
    assert dual == tp.CellComplex(fresh).dual_graph()
    assert dict(dual.adjacency) == reference_dual_adjacency(cx)
    assert dual.vertices == tuple(range(cx.face_count))
    white, black = dual.classes
    assert 0 in white
    for e in range(c.edge_count):
        a, b = cx.edge_sides(e)
        assert (a in white) != (b in white) and (a in black) != (b in black)
    assert tp.SimpleGraph.from_dual(dual) is dual
    with pytest.raises(TypeError):
        dual.adjacency[0] = frozenset()
    full = tp.Subcomplex(vertices=frozenset(range(cx.n)),
                         edges=frozenset(range(c.edge_count)),
                         faces=frozenset(range(cx.face_count)))
    assert not tp.is_contractible(full, cx)


def check_memo(text):
    d = tp.parse_pd(text)
    warm(d)
    pieces = warm(d)
    fresh = tp.parse_pd(text)

    split = reference_pieces(fresh)
    assert d.is_connected() == fresh.is_connected() == (len(split) <= 1)
    assert d.connected_components() == fresh.connected_components() == \
        [PlaneDiagram([d.crossings[c] for c in piece]) for piece in split]
    for e, (d1, d2) in enumerate(fresh.edge_darts):
        assert d.edge_endpoints(e) == (crossing_of(d1), crossing_of(d2))
    if len(split) > 1:
        with pytest.raises(tp.DiagramError):
            d.is_reduced()
    else:
        assert pieces[0][0] is d
    for (c, cx), new in zip(pieces, fresh.connected_components(), strict=True):
        check_piece(c, cx, new)


FIXED = sorted(CORPUS_TEXTS.values()) + [
    KINK, HOPF, torus_pd(7), disjoint_union(KINK, TREFOIL),
    disjoint_union(braid_closure_pd([1, -2, 1, -2], 3), HOPF),
]


@pytest.mark.parametrize("k", range(len(FIXED)))
def test_kept_values_equal_fresh_ones_on_fixed_cases(k):
    check_memo(FIXED[k])


@settings(max_examples=100, deadline=None)
@given(split_closures())
def test_kept_values_equal_fresh_ones(text):
    check_memo(text)


def test_connected_row_builds_each_structure_once(monkeypatch):
    """One connected --exact --nsis row: one PlaneDiagram and one dual
    graph, an indexed SimpleGraph built once and never copied."""
    built = {"PlaneDiagram": 0, "SimpleGraph": 0}
    init, index = PlaneDiagram.__init__, nsis.SimpleGraph.__post_init__

    def counting_index(self):
        built["SimpleGraph"] += 1
        index(self)

    def counting_init(self, *args, **kwargs):
        built["PlaneDiagram"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlaneDiagram, "__init__", counting_init)
    monkeypatch.setattr(nsis.SimpleGraph, "__post_init__", counting_index)
    config = cli.RunConfig(exact=True, nsis=True, budget=40)
    row, severity = cli.analyze_entry("granny", CORPUS_TEXTS["granny"],
                                      config)
    assert severity == cli.OK and row["components"] == 1
    assert row["nsis_max"] is not None and row["witness"] != "skipped"
    assert built == {"PlaneDiagram": 1, "SimpleGraph": 1}
