"""Binding circle construction, repair, and the four-condition verifier."""

import dataclasses

import pytest

from threepage import (
    CellComplex,
    DiagramError,
    ExtendedSpanningTree,
    InternalError,
    boundary_sequence,
    chords_cross,
    exact_max_faces,
    greedy_max_faces,
    parse_pd,
    repair,
    spanning_tree,
    verify_binding,
)

from threepage import cli, pipeline
from threepage.binding import (INSIDE_UNDER, KIND_EDGE_CUT, OUTSIDE, Arc,
                               BindingPoint, BindingSequence)

from conftest import HOPF, KINK, TREFOIL, TREFOIL_SWITCHED

# Switched Hopf: both crossings become over-passes for one strand, so the
# unrepaired walk has two same-type passage pairs that repair must merge.
HOPF_SWITCHED = "PD[X(1,4,2,3), X(2,4,1,3)]"


def build(text, mode="exact"):
    d = parse_pd(text)
    cx = CellComplex(d)
    if mode == "exact":
        est = exact_max_faces(cx).est
    elif mode == "greedy":
        est = greedy_max_faces(cx)
    else:
        est = ExtendedSpanningTree(edges=spanning_tree(cx), faces=frozenset())
    return d, cx, est, boundary_sequence(est, cx)


class TestChordsCross:
    def test_transversal(self):
        assert chords_cross(0, 2, 1, 3)
        assert chords_cross(1, 3, 0, 2)

    def test_shared_endpoint_never_crosses(self):
        assert not chords_cross(0, 2, 2, 3)
        assert not chords_cross(0, 2, 0, 3)

    def test_nested_and_disjoint(self):
        assert not chords_cross(0, 3, 1, 2)
        assert not chords_cross(0, 1, 2, 3)


class TestFrozenWalks:
    def test_hopf_m1_points(self):
        d, cx, est, seq = build(HOPF)
        assert sorted(est.edges) == [0, 2]
        assert sorted(est.faces) == [0]
        assert [(p.id, p.edge, p.kind) for p in seq.points] == [
            (0, 2, "edge-cut"),
            (1, 1, "near-vertex"),
            (2, 3, "near-vertex"),
            (3, 0, "edge-cut"),
            (4, 3, "near-vertex"),
            (5, 1, "near-vertex"),
        ]
        assert seq.tree is est and d.n == 2 and len(seq.tree.faces) == 1
        assert not seq.repaired

    def test_hopf_m1_arcs(self):
        _, _, _, seq = build(HOPF)
        got = [(a.id, a.type, a.ends[0], a.ends[1],
                a.crossings, a.edge) for a in seq.arcs]
        assert got == [
            (0, "inside-under", 3, 5, (0,), None),
            (1, "inside-over", 4, 0, (0,), None),
            (2, "inside-under", 0, 2, (1,), None),
            (3, "inside-over", 1, 3, (1,), None),
            (4, "outside", 5, 1, (), 1),
            (5, "outside", 4, 2, (), 3),
        ]

    def test_trefoil_m0_points(self):
        d = parse_pd(TREFOIL)
        cx = CellComplex(d)
        tree = spanning_tree(cx)
        assert sorted(tree) == [0, 1]
        est = ExtendedSpanningTree(edges=tree, faces=frozenset())
        seq = boundary_sequence(est, cx)
        assert [(p.edge, p.kind) for p in seq.points] == [
            (0, "edge-cut"),
            (2, "near-vertex"),
            (5, "near-vertex"),
            (3, "near-vertex"),
            (3, "near-vertex"),
            (1, "edge-cut"),
            (5, "near-vertex"),
            (2, "near-vertex"),
            (4, "near-vertex"),
            (4, "near-vertex"),
        ]

    def test_trefoil_m0_arcs(self):
        d = parse_pd(TREFOIL)
        cx = CellComplex(d)
        est = ExtendedSpanningTree(edges=spanning_tree(cx),
                                   faces=frozenset())
        seq = boundary_sequence(est, cx)
        got = [(a.type, a.ends[0], a.ends[1], a.crossings)
               for a in seq.arcs]
        assert got == [
            ("inside-under", 0, 5, (0,)),
            ("inside-over", 4, 9, (0,)),
            ("inside-under", 1, 3, (1,)),
            ("inside-over", 2, 0, (1,)),
            ("inside-under", 8, 6, (2,)),
            ("inside-over", 5, 7, (2,)),
            ("outside", 1, 7, ()),
            ("outside", 4, 3, ()),
            ("outside", 9, 8, ()),
            ("outside", 2, 6, ()),
        ]
        outside_edges = [a.edge for a in seq.arcs if a.type == "outside"]
        assert outside_edges == [2, 3, 4, 5]


class TestPointCounts:
    @pytest.mark.parametrize("strategy,seed", [
        ("bfs", 0), ("dfs", 0), ("random", 0), ("random", 3),
    ])
    def test_tree_only_count(self, corpus_complexes, strategy, seed):
        for name, cx in corpus_complexes.items():
            tree = spanning_tree(cx, strategy=strategy, seed=seed)
            est = ExtendedSpanningTree(edges=tree, faces=frozenset())
            seq = boundary_sequence(est, cx)
            n = cx.diagram.n
            assert len(seq.points) == 3 * n + 1, name

    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_extended_count(self, corpus_complexes, mode):
        for name, cx in corpus_complexes.items():
            if mode == "exact":
                est = exact_max_faces(cx).est
            else:
                est = greedy_max_faces(cx)
            seq = boundary_sequence(est, cx)
            n = cx.diagram.n
            m = len(est.faces)
            assert len(seq.points) == 3 * n + 1 - m, name
            assert seq.tree is est


class TestVerifier:
    def test_corpus_unrepaired_structure(self, corpus, corpus_complexes):
        # Conditions 1-3 hold for every raw walk; condition 4 only for
        # alternating diagrams.
        for name, cx in corpus_complexes.items():
            d = corpus[name]
            seq = boundary_sequence(exact_max_faces(cx).est, cx)
            rep = verify_binding(seq, d)
            assert rep.c1_structure and rep.c2_coverage and rep.c3_types, name
            assert rep.ok == d.is_alternating(), name

    def test_corpus_repaired_ok(self, corpus, corpus_complexes):
        for name, cx in corpus_complexes.items():
            d = corpus[name]
            seq = repair(boundary_sequence(exact_max_faces(cx).est, cx), d)
            rep = verify_binding(seq, d)
            assert rep.ok, (name, rep.offenders)
            assert rep.offenders == ()

    @pytest.mark.parametrize("field, value", [
        ("darts", 4 * 3 + 1), ("edge", 99), ("darts", -3), ("edge", -1)])
    def test_out_of_range_is_a_structure_offender(self, field, value):
        # An inside arc's end dart at an edge cut, or an outside arc's
        # edge, outside the diagram's range: reported, never raised.
        d, cx, est, seq = build(TREFOIL)
        cuts = {p.id for p in seq.points if p.kind == "edge-cut"}
        if field == "darts":
            k, arc = next((k, a) for k, a in enumerate(seq.arcs)
                          if a.darts and a.ends[0] in cuts)
            bad = dataclasses.replace(arc, darts=(value,) + arc.darts[1:])
            want = f"structure: darts out of range: [{value}]"
        else:
            k, arc = next((k, a) for k, a in enumerate(seq.arcs)
                          if a.edge is not None)
            bad = dataclasses.replace(arc, edge=value)
            want = f"structure: outside arc {arc.id} on edge {value}"
        arcs = seq.arcs[:k] + (bad,) + seq.arcs[k + 1:]
        rep = verify_binding(dataclasses.replace(seq, arcs=arcs), d)
        assert not rep.ok and not rep.c1_structure
        assert want in rep.offenders, rep.offenders

    @pytest.mark.parametrize("tamper, want", [
        # arc 1 takes arc 0's id
        (lambda a: dataclasses.replace(a, id=0) if a.id == 1 else a,
         "structure: duplicate arc ids"),
        # arc 1, the over-strand of crossing 0, claims the under-strand's
        # darts 0 and 2
        (lambda a: dataclasses.replace(a, darts=(0, 2)) if a.id == 1 else a,
         "structure: dart 0 in arcs 0 and 1"),
        # both strands of crossing 0 retyped as edge middles
        (lambda a: dataclasses.replace(a, type=OUTSIDE)
         if a.crossings == (0,) else a,
         "coverage: crossings passed by no inside arc: [0]"),
    ], ids=["duplicate-arc-id", "dart-in-two-arcs", "uncovered-crossing"])
    def test_tampered_arcs_named(self, tamper, want):
        d, cx, est, seq = build(TREFOIL)
        assert [(a.id, a.darts) for a in seq.arcs if a.crossings == (0,)] \
            == [(0, (0, 2)), (1, (1, 3))]
        arcs = tuple(map(tamper, seq.arcs))
        rep = verify_binding(dataclasses.replace(seq, arcs=arcs), d)
        assert not rep.ok and want in rep.offenders, rep.offenders

    def test_alternation_offenders_named(self):
        d, cx, est, seq = build(HOPF_SWITCHED)
        rep = verify_binding(seq, d)
        assert not rep.ok
        assert any("alternation" in off for off in rep.offenders)


class TestRepair:
    def test_alternating_repair_keeps_walk(self, corpus, corpus_complexes):
        for name, cx in corpus_complexes.items():
            d = corpus[name]
            if not d.is_alternating():
                continue
            seq = boundary_sequence(exact_max_faces(cx).est, cx)
            fixed = repair(seq, d)
            assert fixed.points == seq.points, name
            assert fixed.arcs == seq.arcs, name
            assert fixed.repaired and not seq.repaired

    def test_idempotent(self, corpus, corpus_complexes):
        for name, cx in corpus_complexes.items():
            d = corpus[name]
            once = repair(boundary_sequence(exact_max_faces(cx).est, cx), d)
            assert repair(once, d) == once, name

    def test_trefoil_switched_counts(self):
        d, cx, est, seq = build(TREFOIL_SWITCHED)
        assert len(seq.points) == 8
        fixed = repair(seq, d)
        assert len(fixed.points) == 4
        assert verify_binding(fixed, d).ok

    def test_switched_hopf_frozen(self):
        d, cx, est, seq = build(HOPF_SWITCHED)
        assert len(seq.points) == 6
        fixed = repair(seq, d)
        # Surviving points keep their original ids.
        assert [p.id for p in fixed.points] == [1, 2, 4, 5]
        assert [(p.edge, p.kind) for p in fixed.points] == [
            (1, "near-vertex"), (3, "near-vertex"),
            (3, "near-vertex"), (1, "near-vertex"),
        ]
        got = [(a.id, a.type, a.ends[0], a.ends[1], a.crossings)
               for a in fixed.arcs]
        assert got == [
            (0, "inside-under", 5, 1, (0, 1)),
            (1, "inside-over", 4, 2, (0, 1)),
            (4, "outside", 5, 1, ()),
            (5, "outside", 4, 2, ()),
        ]
        assert verify_binding(fixed, d).ok

    def test_cut_joining_one_arc_to_itself_stays(self):
        """Two under arcs meet at both cuts: the first cut merges them,
        and the second, with both ends on the merged arc, stays, since
        removing it would close the arc into a circle."""
        d = parse_pd(HOPF)
        seq = BindingSequence(
            points=(BindingPoint(0, 0, KIND_EDGE_CUT, 0),
                    BindingPoint(1, 1, KIND_EDGE_CUT, 2)),
            arcs=(Arc(0, INSIDE_UNDER, (0, 1), (0,), (0, 2), None),
                  Arc(1, INSIDE_UNDER, (0, 1), (1,), (4, 6), None)),
            tree=ExtendedSpanningTree(edges=frozenset({0, 1}),
                                      faces=frozenset()),
            repaired=False)
        fixed = repair(seq, d)
        assert [p.id for p in fixed.points] == [1]
        assert [(a.id, a.ends) for a in fixed.arcs] == [(0, (1, 1))]
        assert repair(fixed, d) == fixed
        assert ("alternation: point 1 joins arcs 0 and 0 of type "
                "inside-under") in verify_binding(fixed, d).offenders

    @pytest.mark.parametrize("repair_on", [True, False])
    def test_lost_arc_is_a_structure_failure(self, monkeypatch, repair_on):
        """A walk that lost an inside arc leaves an edge cut with one arc
        end: repair leaves that cut alone, and verify_binding reports it
        with repair on or off."""
        walk = pipeline.boundary_sequence

        def lossy(est, cx):
            seq = walk(est, cx)
            k = next(k for k, a in enumerate(seq.arcs) if a.type != OUTSIDE)
            return dataclasses.replace(seq,
                                       arcs=seq.arcs[:k] + seq.arcs[k + 1:])

        monkeypatch.setattr(pipeline, "boundary_sequence", lossy)
        row, severity = cli.analyze_entry(
            "lossy", TREFOIL_SWITCHED, cli.RunConfig(repair=repair_on))
        assert severity == cli.VERIFICATION and row["bound"] is None
        assert row["failure"].startswith("verification: structure: "), \
            row["failure"]


class TestDegenerate:
    def test_kink_exact_two_points(self):
        d = parse_pd(KINK)
        cx = CellComplex(d)
        res = exact_max_faces(cx)
        assert len(res.est.faces) == 2
        seq = boundary_sequence(res.est, cx)
        assert [(p.edge, p.kind) for p in seq.points] == [
            (0, "edge-cut"), (1, "edge-cut"),
        ]
        assert verify_binding(seq, d).ok

    def test_kink_empty_tree_four_points(self):
        d = parse_pd(KINK)
        cx = CellComplex(d)
        est = ExtendedSpanningTree(edges=frozenset(), faces=frozenset())
        seq = boundary_sequence(est, cx)
        assert [(p.edge, p.kind) for p in seq.points] == [
            (0, "near-vertex"), (0, "near-vertex"),
            (1, "near-vertex"), (1, "near-vertex"),
        ]
        assert verify_binding(seq, d).ok


class TestPreconditions:
    def test_unknown_edge_rejected(self):
        d = parse_pd(HOPF)
        cx = CellComplex(d)
        est = ExtendedSpanningTree(edges=frozenset({99}), faces=frozenset())
        with pytest.raises(DiagramError):
            boundary_sequence(est, cx)

    def test_face_outside_tree_rejected(self):
        d = parse_pd(HOPF)
        cx = CellComplex(d)
        est = ExtendedSpanningTree(edges=frozenset({0}),
                                   faces=frozenset({0}))
        with pytest.raises(DiagramError):
            boundary_sequence(est, cx)

    def test_non_contractible_rejected(self):
        d = parse_pd(TREFOIL)
        cx = CellComplex(d)
        # Edges 0 and 3 share both endpoints: a cycle, not a tree.
        est = ExtendedSpanningTree(edges=frozenset({0, 3}),
                                   faces=frozenset())
        with pytest.raises(DiagramError):
            boundary_sequence(est, cx)
