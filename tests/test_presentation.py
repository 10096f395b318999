"""Chord presentations: flattening, page verification, overlay, SVG."""

import dataclasses

import pytest

from threepage import (
    CellComplex,
    ExtendedSpanningTree,
    ThreePagePresentation,
    boundary_sequence,
    canonical_form,
    exact_max_faces,
    interleaving_pairs,
    overlay_reconstruct,
    parse_pd,
    render_svg,
    repair,
    to_presentation,
    verify_binding,
    verify_pages,
)

from conftest import HOPF, KINK, TREFOIL, TREFOIL_SWITCHED

EMPTY = ThreePagePresentation(points=(), chords=(), repaired=False, bound=0)


@pytest.fixture(scope="module")
def hopf_pres():
    d = parse_pd(HOPF)
    cx = CellComplex(d)
    seq = boundary_sequence(exact_max_faces(cx).est, cx)
    return d, to_presentation(seq)


class TestToPresentation:
    def test_bound_and_pages(self, hopf_pres):
        _, pres = hopf_pres
        assert pres.bound == len(pres.points) == 6
        assert not pres.repaired
        assert [c.page for c in pres.chords] == [1, 2, 1, 2, 3, 3]

    def test_chord_endpoints_match_arcs(self, hopf_pres):
        _, pres = hopf_pres
        assert [(c.a, c.b) for c in pres.chords] == [
            (3, 5), (4, 0), (0, 2), (1, 3), (5, 1), (4, 2),
        ]

    def test_positions_and_span(self, hopf_pres):
        _, pres = hopf_pres
        assert [pres.position(p) for p in pres.points] == list(range(6))
        assert pres.span(pres.chords[0]) == (3, 5)
        assert pres.span(pres.chords[1]) == (0, 4)

    def test_json_shape(self, hopf_pres):
        _, pres = hopf_pres
        d = pres.to_json_dict()
        assert set(d) == {"points", "arcs", "bound", "repaired"}
        assert d["bound"] == 6
        assert d["arcs"][0] == {"a": 3, "b": 5, "page": 1, "crossings": [0]}

    def test_corrupted_sequence_rejected(self):
        # to_presentation only flattens; verify_binding, which certify
        # runs on every sequence it presents, rejects the corruption.
        d = parse_pd(HOPF)
        cx = CellComplex(d)
        seq = boundary_sequence(exact_max_faces(cx).est, cx)
        bad = dataclasses.replace(seq, points=seq.points[:-1])
        rep = verify_binding(bad, d)
        assert not rep.ok and not rep.c1_structure
        assert any("6 arcs" in off for off in rep.offenders)

    def test_corpus_counts(self, corpus, corpus_complexes):
        for name, cx in corpus_complexes.items():
            seq = boundary_sequence(exact_max_faces(cx).est, cx)
            pres = to_presentation(seq)
            assert pres.bound == len(seq.points), name
            assert len(pres.chords) == len(seq.points), name


class TestVerifyPages:
    def test_corpus_unrepaired(self, corpus, corpus_complexes):
        # Degree and planarity always hold for raw walks; the
        # distinct-pages condition is exactly alternation.
        for name, cx in corpus_complexes.items():
            d = corpus[name]
            pres = to_presentation(
                boundary_sequence(exact_max_faces(cx).est, cx))
            rep = verify_pages(pres)
            assert rep.degree_ok and rep.planar_ok, name
            assert rep.pages_distinct_ok == d.is_alternating(), name
            assert rep.ok == d.is_alternating(), name

    def test_same_page_at_point_rejected(self, hopf_pres):
        _, pres = hopf_pres
        chords = list(pres.chords)
        chords[0] = dataclasses.replace(chords[0], page=2)
        mutant = dataclasses.replace(pres, chords=tuple(chords))
        rep = verify_pages(mutant)
        assert not rep.pages_distinct_ok
        assert not rep.ok
        assert any("page-2" in off for off in rep.offenders)

    def test_degenerate_chord_rejected(self, hopf_pres):
        _, pres = hopf_pres
        chords = list(pres.chords)
        chords[0] = dataclasses.replace(chords[0], a=chords[0].b)
        mutant = dataclasses.replace(pres, chords=tuple(chords))
        rep = verify_pages(mutant)
        assert not rep.degree_ok
        assert not rep.ok

    def test_unknown_page_rejected(self, hopf_pres):
        _, pres = hopf_pres
        chords = list(pres.chords)
        chords[0] = dataclasses.replace(chords[0], page=7)
        mutant = dataclasses.replace(pres, chords=tuple(chords))
        assert not verify_pages(mutant).ok
        assert not overlay_reconstruct(mutant).supported

    def test_empty_ok(self):
        assert verify_pages(EMPTY).ok

    def test_bound_must_be_the_arc_count(self):
        """The bound is what a row prints, so a presentation whose bound
        is not its chord count is refused, and only for that."""
        cx = CellComplex(parse_pd(TREFOIL))
        pres = to_presentation(boundary_sequence(exact_max_faces(cx).est, cx))
        assert verify_pages(pres).ok
        rep = verify_pages(dataclasses.replace(pres, bound=99))
        assert not rep.ok and not rep.degree_ok
        assert rep.offenders == (
            f"bound 99 is not the arc count {len(pres.chords)}",)


class TestInterleavings:
    def test_hopf_frozen(self, hopf_pres):
        _, pres = hopf_pres
        assert interleaving_pairs(pres) == ((0, 1), (2, 3))

    def test_one_pair_per_crossing(self, corpus, corpus_complexes):
        for name, cx in corpus_complexes.items():
            pres = to_presentation(
                boundary_sequence(exact_max_faces(cx).est, cx))
            assert len(interleaving_pairs(pres)) == cx.diagram.n, name


class TestOverlay:
    def test_hopf_round_trip(self, hopf_pres):
        d, pres = hopf_pres
        res = overlay_reconstruct(pres)
        assert res.supported
        assert res.pd_text == "PD[X(1,2,3,4), X(4,3,2,1)]"
        assert canonical_form(res.diagram) == canonical_form(d)

    def test_corpus_round_trips(self, corpus, corpus_complexes):
        for name, cx in corpus_complexes.items():
            d = corpus[name]
            pres = to_presentation(
                boundary_sequence(exact_max_faces(cx).est, cx))
            res = overlay_reconstruct(pres)
            assert res.supported, (name, res.reason)
            assert canonical_form(res.diagram) == canonical_form(d), name

    def test_merged_arcs_unsupported(self):
        d = parse_pd(TREFOIL_SWITCHED)
        cx = CellComplex(d)
        seq = repair(boundary_sequence(exact_max_faces(cx).est, cx), d)
        pres = to_presentation(seq)
        res = overlay_reconstruct(pres)
        assert not res.supported
        assert "single-passage" in res.reason

    def test_empty_gives_empty_code(self):
        res = overlay_reconstruct(EMPTY)
        assert res.supported
        assert res.pd_text == "PD[]"

    def test_kink_m2_unsupported_m0_round_trips(self):
        # Edge cuts erase the loop's crossing pairing; near cuts keep it.
        d = parse_pd(KINK)
        cx = CellComplex(d)
        best = to_presentation(
            boundary_sequence(exact_max_faces(cx).est, cx))
        assert not overlay_reconstruct(best).supported
        tree0 = ExtendedSpanningTree(edges=frozenset(), faces=frozenset())
        raw = to_presentation(boundary_sequence(tree0, cx))
        res = overlay_reconstruct(raw)
        assert res.supported
        assert res.pd_text == "PD[X(1,1,2,2)]"


class TestRenderSvg:
    def test_deterministic(self, hopf_pres):
        _, pres = hopf_pres
        assert render_svg(pres) == render_svg(pres)

    def test_hopf_structure(self, hopf_pres):
        _, pres = hopf_pres
        svg = render_svg(pres)
        assert svg.startswith("<svg")
        assert svg.count("<text") == 6
        assert svg.count('class="p1"') == 2
        assert svg.count('class="p2"') == 2
        assert svg.count('class="p3"') == 2
        assert svg.count('class="pt"') == 6

    def test_options(self, hopf_pres):
        _, pres = hopf_pres
        assert 'width="480"' in render_svg(pres)

    def test_empty_is_bare_circle(self):
        svg = render_svg(EMPTY)
        assert svg.count('class="binding"') == 1
        assert svg.count('class="pt"') == 0
        assert svg.count("<path") == 0
