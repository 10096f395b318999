"""Dual-graph NSIS search: exact branch and bound plus the leafy greedy."""

import pytest

from threepage import (
    CellComplex,
    DiagramError,
    SimpleGraph,
    exact_max_faces,
    is_nsis,
    nsis_exact,
    nsis_greedy_leafy,
    nsis_ratio_report,
    parse_pd,
)


def graph(edges, vertices=None, classes=None):
    vs = sorted(vertices if vertices is not None
                else {v for e in edges for v in e})
    adj = {v: set() for v in vs}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return SimpleGraph(vertices=tuple(vs),
                       adjacency={v: frozenset(adj[v]) for v in vs},
                       classes=classes)


def cycle4():
    return graph([(0, 1), (1, 2), (2, 3), (3, 0)])


def star(k):
    return graph([(0, i) for i in range(1, k + 1)],
                 classes=(frozenset({0}), frozenset(range(1, k + 1))))


class TestSimpleGraph:
    def test_validation_errors(self):
        with pytest.raises(DiagramError, match="duplicate"):
            SimpleGraph(vertices=(0, 0), adjacency={0: frozenset()})
        with pytest.raises(DiagramError, match="unknown"):
            SimpleGraph(vertices=(0,), adjacency={0: frozenset(), 1: frozenset()})
        with pytest.raises(DiagramError, match="self-loop"):
            SimpleGraph(vertices=(0,), adjacency={0: frozenset({0})})
        with pytest.raises(DiagramError, match="symmetric"):
            SimpleGraph(vertices=(0, 1),
                        adjacency={0: frozenset({1}), 1: frozenset()})
        with pytest.raises(DiagramError, match="missing"):
            SimpleGraph(vertices=(0, 1), adjacency={0: frozenset()})

    @pytest.mark.parametrize("classes", [
        (frozenset({0, 2}), frozenset({1, 2, 3})),  # 2 in both
        (frozenset({0}), frozenset({1, 3})),        # 2 in neither
        (frozenset({0, 2}), frozenset({1, 3, 4})),  # 4 is no vertex
        (frozenset({0, 1}), frozenset({2, 3})),     # edge 0-1 in one class
    ])
    def test_classes_must_be_a_two_colouring(self, classes):
        with pytest.raises(DiagramError,
                           match="^classes are not a 2-colouring of the graph$"):
            graph([(0, 1), (1, 2), (2, 3), (3, 0)], classes=classes)

    def test_from_dual(self, corpus_complexes):
        for name, cx in corpus_complexes.items():
            g = SimpleGraph.from_dual(cx.dual_graph())
            assert len(g.vertices) == cx.face_count, name
            assert g.is_connected(), name
            assert g.classes is not None, name
            a, b = g.classes
            assert a | b == set(g.vertices) and not (a & b), name


class TestIsNsis:
    def test_four_cycle(self):
        g = cycle4()
        assert is_nsis(g, frozenset({0}))
        assert is_nsis(g, frozenset())
        # Opposite pair is independent but disconnects the residual.
        assert not is_nsis(g, frozenset({0, 2}))
        assert not is_nsis(g, frozenset({0, 1}))
        assert not is_nsis(g, frozenset({9}))

    def test_all_vertices_rejected(self):
        g = graph([(0, 1)])
        assert not is_nsis(g, frozenset({0, 1}))


class TestExact:
    @pytest.mark.parametrize("g,size", [
        (cycle4(), 1),
        (graph([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]), 2),
        (graph([(0, 1), (1, 2)]), 2),
        (star(5), 5),
        (graph([(a, b) for a in range(4) for b in range(a + 1, 4)]), 1),
        (graph([], vertices=[0]), 0),
    ])
    def test_frozen_sizes(self, g, size):
        res = nsis_exact(g)
        assert res.exact
        assert res.size == size
        assert is_nsis(g, res.vertices) or res.size == 0
        assert len(res.vertices) == res.size

    def test_budget_degrades_gracefully(self):
        g = graph([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        res = nsis_exact(g, budget=2)
        assert not res.exact
        assert res.size <= 2
        assert is_nsis(g, res.vertices) or res.size == 0

    def test_chain_deeper_than_recursion_limit(self):
        res = nsis_exact(star(1200))
        assert (res.size, res.exact) == (1200, True)

    def test_disconnected_rejected(self):
        g = graph([(0, 1), (2, 3)])
        with pytest.raises(DiagramError):
            nsis_exact(g)


class TestGreedyLeafy:
    def test_star_finds_all_leaves(self):
        got = nsis_greedy_leafy(star(6))
        assert got == frozenset(range(1, 7))

    def test_requires_classes(self):
        with pytest.raises(DiagramError):
            nsis_greedy_leafy(cycle4())

    def test_requires_connected(self):
        g = graph([(0, 1), (2, 3)],
                  classes=(frozenset({0, 2}), frozenset({1, 3})))
        with pytest.raises(DiagramError):
            nsis_greedy_leafy(g)

    def test_seed_deterministic(self, corpus_complexes):
        for name, cx in corpus_complexes.items():
            g = SimpleGraph.from_dual(cx.dual_graph())
            assert nsis_greedy_leafy(g, seed=7) == nsis_greedy_leafy(g, seed=7), name

    def test_seed_changes_nothing(self, corpus_complexes):
        """The candidates share a checkerboard class, an independent set of
        the dual, so the keep loop keeps all of them in any order."""
        for name, cx in corpus_complexes.items():
            g = SimpleGraph.from_dual(cx.dual_graph())
            want = nsis_greedy_leafy(g, seed=0)
            for seed in range(1, 6):
                assert nsis_greedy_leafy(g, seed=seed) == want, (name, seed)

    def test_corpus_valid_and_bounded(self, corpus_complexes):
        for name, cx in corpus_complexes.items():
            g = SimpleGraph.from_dual(cx.dual_graph())
            got = nsis_greedy_leafy(g)
            assert is_nsis(g, got) or not got, name
            assert len(got) <= nsis_exact(g).size, name


class TestCorpusConsistency:
    def test_m_max_at_most_nsis_max(self, corpus_complexes):
        for name, cx in corpus_complexes.items():
            m_max = len(exact_max_faces(cx).est.faces)
            nsis_max = nsis_exact(SimpleGraph.from_dual(cx.dual_graph())).size
            assert m_max <= nsis_max, name

    def test_chosen_faces_are_nsis(self, corpus_complexes):
        for name, cx in corpus_complexes.items():
            g = SimpleGraph.from_dual(cx.dual_graph())
            faces = exact_max_faces(cx).est.faces
            assert is_nsis(g, faces) or not faces, name


class TestRatioReport:
    def test_frozen_small_table(self):
        records = [
            {"name": "trefoil", "n": 3, "nsis_max": 2, "m_max": 2},
            {"name": "hopf", "n": 2, "nsis_max": 1, "m_max": 1},
        ]
        rep = nsis_ratio_report(records)
        assert [r["name"] for r in rep["rows"]] == ["hopf", "trefoil"]
        assert rep["rows"][0]["nsis_ratio"] == 0.5
        assert rep["min_nsis_ratio"] == 0.5
        assert rep["min_m_ratio"] == 0.5

    def test_empty(self):
        rep = nsis_ratio_report([])
        assert rep["rows"] == []
        assert rep["min_nsis_ratio"] is None
        assert rep["min_m_ratio"] is None
