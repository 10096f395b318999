"""The paper's identities between the face searches and the dual graph.

Edge-disjoint faces are independent in the dual, and the complement of
the extended spanning tree retracts onto the dual minus its faces, so a
face set is feasible exactly when it is a non-separating independent set
(NSIS) of the simple dual.  Hence the exact face search and the exact
NSIS search agree whenever both finish, and greedy never beats them.
On small components the subcomplex enumeration agrees with the exact
search too, and every CLI row keeps the walk's point counts, as does
every certificate, on its greedy or exact tree.  A row,
of damaged input too, repeats exactly, with the exit code its failure
names.  A certified inside arc with its two ends swapped is refused.
Each property runs over braid closures and over random grid diagrams,
where greedy is sometimes not optimal.
"""

import dataclasses
import re

import pytest

import threepage as tp
from threepage import cli
from threepage.binding import OUTSIDE
from threepage.spanning import face_set_feasible, oracle_max_faces

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

from test_incremental import (  # noqa: E402
    FIXED_DIAGRAMS, ORDERS, check_repair, components, grid_diagrams,
    non_alternating, split_closures)

BUDGET = 2_000


def check_feasible_is_nsis(text, data):
    for d in components(text):
        cx = tp.CellComplex(d)
        graph = tp.SimpleGraph.from_dual(cx.dual_graph())
        faces = range(cx.face_count)
        for _ in range(5):
            chosen = data.draw(st.sets(st.sampled_from(faces)))
            feasible = face_set_feasible(chosen, cx)
            assert feasible == tp.is_nsis(graph, chosen)
            try:
                tp.complete_to_est(chosen, cx)
            except tp.DiagramError:
                assert not feasible, chosen
            else:
                assert feasible, chosen


@settings(max_examples=100, deadline=None)
@given(split_closures(), st.data())
def test_feasible_face_sets_are_the_dual_nsis(text, data):
    check_feasible_is_nsis(text, data)


@settings(max_examples=100, deadline=None)
@given(grid_diagrams(), st.data())
def test_feasible_face_sets_are_the_dual_nsis_on_grids(text, data):
    check_feasible_is_nsis(text, data)


def check_searches_agree(d, seed):
    """Whether both exact searches finished; where they did, their sizes
    agree, and where the face search did, no greedy order beats it."""
    cx = tp.CellComplex(d)
    exact = tp.exact_max_faces(cx, budget=BUDGET)
    if not exact.exact:
        return False
    for order in ORDERS:
        greedy = tp.greedy_max_faces(cx, order=order, seed=seed)
        assert len(greedy.faces) <= exact.m, order
    nsis = tp.nsis_exact(tp.SimpleGraph.from_dual(cx.dual_graph()),
                         budget=BUDGET)
    if nsis.exact:
        assert exact.m == nsis.size
    return nsis.exact


def test_exact_m_is_nsis_max_on_fixed_cases():
    assert all(check_searches_agree(d, k)
               for k, d in enumerate(FIXED_DIAGRAMS))


@settings(max_examples=100, deadline=None)
@given(split_closures(), st.integers(0, 2**16))
def test_exact_m_is_nsis_max_and_bounds_greedy(text, seed):
    for d in components(text):
        check_searches_agree(d, seed)


@settings(max_examples=100, deadline=None)
@given(grid_diagrams(), st.integers(0, 2**16))
def test_exact_m_is_nsis_max_and_bounds_greedy_on_grids(text, seed):
    for d in components(text):
        check_searches_agree(d, seed)


@settings(max_examples=100, deadline=None)
@given(grid_diagrams())
def test_repair_and_bound_on_grids(text):
    """check_repair on each component, and the paper's bound 3n - 1 on
    each reduced one with at least three crossings."""
    for d in components(text):
        check_repair(d)
        if d.n >= 3 and d.is_reduced():
            cert = tp.certify(d)
            assert cert.verified and len(cert.final.points) <= 3 * d.n - 1


def check_certified_counts(text):
    """On every component, with the greedy tree and with the tree of an
    exact search at BUDGET, the walk certify presents has 3n + 1 - m
    points, and repair removes one per non-alternating tree edge, a(Y)."""
    for d in components(text):
        for config in (tp.RunConfig(), tp.RunConfig(exact=True,
                                                    budget=BUDGET)):
            cert = tp.certify(d, config)
            assert len(cert.raw.points) == \
                3 * d.n + 1 - len(cert.tree.faces), config
            assert len(cert.raw.points) - len(cert.final.points) == \
                non_alternating(cert.tree, d), config


@settings(max_examples=100, deadline=None)
@given(split_closures())
def test_certified_counts(text):
    check_certified_counts(text)


@settings(max_examples=100, deadline=None)
@given(grid_diagrams())
def test_certified_counts_on_grids(text):
    check_certified_counts(text)


def check_swapped_ends_refused(text):
    """An inside arc's ends are two point ids whose order follows its
    darts, so an inside arc of a certified sequence with its ends swapped
    is refused by verify_binding with a structure offender."""
    for d in components(text):
        final = tp.certify(d).final
        for k, a in enumerate(final.arcs):
            if a.type == OUTSIDE:
                continue
            arcs = list(final.arcs)
            arcs[k] = dataclasses.replace(a, ends=a.ends[::-1])
            swapped = dataclasses.replace(final, arcs=tuple(arcs))
            report = tp.verify_binding(swapped, d)
            assert not report.ok and not report.c1_structure, a
            assert any(s.startswith("structure: ")
                       for s in report.offenders), a


@settings(max_examples=100, deadline=None)
@given(split_closures())
def test_swapped_inside_ends_are_refused(text):
    check_swapped_ends_refused(text)


@settings(max_examples=100, deadline=None)
@given(grid_diagrams())
def test_swapped_inside_ends_are_refused_on_grids(text):
    check_swapped_ends_refused(text)


def check_oracle_and_row(text):
    """The oracle equals the exact m on every component with n <= 6, and
    the CLI row is verified with points_before = 3n + c - m and
    bound = points_after <= points_before."""
    for d in components(text):
        if d.n <= 6:
            cx = tp.CellComplex(d)
            assert oracle_max_faces(cx) == tp.exact_max_faces(cx).m
    row, severity = cli.analyze_entry("row", text, tp.RunConfig())
    assert severity == cli.OK and row["verified"], row["failure"]
    assert row["points_before"] == \
        3 * row["n"] + row["components"] - row["m"]
    assert row["bound"] == row["points_after"] <= row["points_before"]


@settings(max_examples=100, deadline=None)
@given(split_closures())
def test_oracle_and_row_counts(text):
    check_oracle_and_row(text)


@settings(max_examples=100, deadline=None)
@given(grid_diagrams())
def test_oracle_and_row_counts_on_grids(text):
    check_oracle_and_row(text)


SEVERITY_OF_PREFIX = {None: cli.OK, "parse": cli.PARSE,
                      "validation": cli.VALIDATION,
                      "verification": cli.VERIFICATION}


@st.composite
def damaged_texts(draw):
    """A closure or grid diagram, sometimes damaged: a character dropped,
    a label set to 0, a label repeated a third time, the tail cut, or two
    labels swapped, which keeps every label twice but often leaves no
    sphere embedding."""
    text = draw(st.one_of(split_closures(), grid_diagrams()))
    kind = draw(st.sampled_from(["none", "drop", "zero", "third", "cut",
                                 "swap"]))
    if kind in ("drop", "cut"):
        k = draw(st.integers(0, len(text) - 1))
        return text[:k] + text[k + 1:] if kind == "drop" else text[:k]
    if kind == "none":
        return text
    labels = list(re.finditer(r"\d+", text))
    i, j = sorted(draw(st.lists(st.integers(0, len(labels) - 1),
                                min_size=2, max_size=2, unique=True)))
    a, b = labels[i], labels[j]
    if kind == "zero":
        new_a, new_b = a.group(), "0"
    else:
        hypothesis.assume(a.group() != b.group())
        new_a = b.group() if kind == "swap" else a.group()
        new_b = a.group()
    return (text[:a.start()] + new_a + text[a.end():b.start()] + new_b
            + text[b.end():])


@settings(max_examples=100, deadline=None)
@given(damaged_texts())
def test_rows_repeat_and_exit_codes_match(text):
    """Two runs give equal public rows, and the severity is the one the
    failure prefix names; no row fails as an internal error."""
    first, severity = cli.analyze_entry("row", text, tp.RunConfig())
    again, repeat = cli.analyze_entry("row", text, tp.RunConfig())
    assert cli._row_public(first) == cli._row_public(again)
    assert severity == repeat
    failure = first["failure"]
    prefix = failure.split(":", 1)[0] if failure else None
    assert prefix in SEVERITY_OF_PREFIX, failure
    assert severity == SEVERITY_OF_PREFIX[prefix], failure
