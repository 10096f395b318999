"""The paper's identities between the face searches and the dual graph.

Edge-disjoint faces are independent in the dual, and the complement of
the extended spanning tree retracts onto the dual minus its faces, so a
face set is feasible exactly when it is a non-separating independent set
(NSIS) of the simple dual.  Hence the exact face search and the exact
NSIS search agree whenever both finish, and greedy never beats them.
Each property runs over braid closures and over random grid diagrams,
where greedy is sometimes not optimal.
"""

import pytest

import threepage as tp
from threepage.spanning import face_set_feasible

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

from test_incremental import (  # noqa: E402
    FIXED_DIAGRAMS, ORDERS, check_repair, components, grid_diagrams,
    split_closures)

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
