import time

import pytest

import threepage as tp
from threepage.diagram import dart_id, rotate, slot_of, strand_slot_type

from conftest import (FIGURE_EIGHT, HOPF, KINK, NON_SPHERE, TREFOIL,
                      TREFOIL_SWITCHED, TWO_CLASPS, disjoint_union,
                      relabel_shift, torus_pd)


def test_parse_basic_shapes():
    d = tp.parse_pd(TREFOIL)
    assert d.n == 3
    assert d.edge_count == 6
    assert tp.parse_pd("PD[]").n == 0
    multi = tp.parse_pd("PD[\n  X(1,4,2,3),\n  X(3,2,4,1)\n]")
    assert multi == tp.parse_pd(HOPF)


def test_parse_brackets_and_text_roundtrip():
    d = tp.parse_pd("PD[X[1,4,2,3], X[3,2,4,1]]")
    assert tp.parse_pd(d.pd_text()) == d


def test_hash_and_repr():
    a = tp.parse_pd(HOPF)
    b = tp.PlaneDiagram([(1, 4, 2, 3), (3, 2, 4, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == "PlaneDiagram([X(1, 4, 2, 3), X(3, 2, 4, 1)])"


@pytest.mark.parametrize("bad", [
    "PD[X(1,2,3)]",                      # arity
    "PD[X(1,2,3,4,5)]",                  # arity
    "PD[X(1,1,1,2)]",                    # label three times
    "PD[X(1,2,3,4)]",                    # labels once
    "not a pd at all",
    "PD[X(1,4,2,3) garbage X(3,2,4,1)]",
    "PD[X(0,0,1,1)]",                    # label 0
    "PD[X(\u0661,\u0661,\u0662,\u0662)]",  # Arabic-Indic digits
])
def test_parse_rejects(bad):
    with pytest.raises(tp.PDSyntaxError):
        tp.parse_pd(bad)


@pytest.mark.parametrize("bad, quoted", [
    ("PD[X(1,2,3,4]", "'X(1,2,3,4'"),                  # unclosed entry
    ("PD[Y(1,3,2,4), X(3,1,4,2)]", "'Y(1,3,2,4)'"),    # unknown entry
])
def test_parse_quotes_leftover_as_written(bad, quoted):
    with pytest.raises(tp.PDSyntaxError) as err:
        tp.parse_pd(bad)
    assert str(err.value) == f"unparsed content in PD expression: {quoted}"


@pytest.mark.parametrize("bad, quoted", [
    # A long run of separators before more leftover text.
    ("PD[X(1,1,2,2)x" + " " * 199_984 + "y]", "'x" + " " * 39 + "'"),
    # Entries that are opened and never closed.
    ("PD[" + "X(" * 99_998 + "]", repr("X(" * 20)),
])
def test_parse_error_path_is_linear(bad, quoted):
    """200,000 characters are refused with the usual message in well
    under 2 s; a scan retried from every position would take minutes."""
    start = time.perf_counter()
    with pytest.raises(tp.PDSyntaxError) as err:
        tp.parse_pd(bad)
    assert time.perf_counter() - start < 2
    assert str(err.value) == f"unparsed content in PD expression: {quoted}"


def test_bad_entry_message_is_cut():
    """The entry is quoted up to 40 characters, like every other parse
    message, so one bad line cannot fill a 100 kB report cell."""
    with pytest.raises(tp.PDSyntaxError) as err:
        tp.parse_pd("PD[" + "X(" * 50_000 + "]X(]")
    assert str(err.value) == f"bad crossing entry: {'X(' * 20!r}"


@pytest.mark.parametrize("row", [
    (1.5, 1, 2, 2), (True, True, 2, 2), ("1", "1", 2, 2),
    ("1_0", "1_0", 2, 2), (0, 0, 1, 1), (-1, -1, 2, 2),
    ("1" * 4301, "1" * 4301, 2, 2),
])
def test_constructor_takes_positive_int_labels_only(row):
    """The public constructor converts nothing: each label must be an
    int of at least 1, as parse_pd reads them."""
    with pytest.raises(tp.PDSyntaxError, match="is not a positive int$"):
        tp.PlaneDiagram([row])


@pytest.mark.parametrize("rows, quoted", [
    ([5], "5"), ([(1, 1, 2, 2), None], "None"),
])
def test_constructor_rows_must_be_label_rows(rows, quoted):
    """A row that is not iterable is a syntax error, not a TypeError."""
    with pytest.raises(tp.PDSyntaxError) as err:
        tp.PlaneDiagram(rows)
    assert str(err.value) == f"crossing {quoted} is not a row of labels"


def test_wide_row_message_is_cut():
    """A 30,000-label entry is quoted up to 40 characters, so its report
    cell stays readable by csv, whose fields stop at 131,072 characters."""
    labels = ",".join(map(str, range(1, 30_001)))
    with pytest.raises(tp.PDSyntaxError) as err:
        tp.parse_pd(f"PD[X({labels})]")
    quoted = repr(tuple(range(1, 30_001)))[:40]
    assert str(err.value) == \
        f"crossing {quoted} has 30000 labels, expected 4"


@pytest.mark.parametrize("bad", [
    "PD[" + ", ".join(f"X({4 * c + 1},{4 * c + 2},{4 * c + 3},{4 * c + 4})"
                      for c in range(7_500)) + "]",
    f"PD[X({'9' * 4_000},{'8' * 4_000},2,2)]",
], ids=["lone-labels", "long-labels"])
def test_label_count_message_is_cut(bad):
    """Labels that do not occur twice are listed up to 40 characters:
    30,000 lone labels, or two 4,000-digit ones, give a short message."""
    with pytest.raises(tp.PDSyntaxError) as err:
        tp.parse_pd(bad)
    assert str(err.value).startswith("arc labels must appear exactly twice: ")
    assert len(str(err.value)) < 200


def test_dart_arithmetic():
    assert [rotate(dart_id(1, s)) for s in range(4)] == [5, 6, 7, 4]
    assert [slot_of(dart_id(2, s)) for s in range(4)] == [0, 1, 2, 3]
    assert strand_slot_type(0) == "under"
    assert strand_slot_type(2) == "under"
    assert strand_slot_type(1) == "over"
    assert strand_slot_type(3) == "over"


def test_trefoil_edge_structure():
    d = tp.parse_pd(TREFOIL)
    # labels map to edge ids label-1; each edge joins two crossings
    assert d.edge_labels == (1, 2, 3, 4, 5, 6)
    assert d.edge_endpoints(0) == (0, 1)   # label 1: X0 slot0, X1 slot3
    assert d.edge_endpoints(3) == (0, 1)   # label 4: parallel to it
    for e in range(6):
        a, b = d.edge_darts[e]
        assert d.opposite(a) == b and d.opposite(b) == a
        assert d.edge_of(a) == e and d.edge_of(b) == e


def test_strand_types_and_alternating():
    d = tp.parse_pd(TREFOIL)
    assert d.is_alternating()
    assert not tp.parse_pd(TREFOIL_SWITCHED).is_alternating()
    assert tp.parse_pd(HOPF).is_alternating()
    # every edge of an alternating diagram has one under and one over end
    for a, b in d.edge_darts:
        assert {d.strand_type(a), d.strand_type(b)} == {"under", "over"}


def test_loops_and_reduced():
    kink = tp.parse_pd(KINK)
    assert kink.loop_edges() == (0, 1)
    assert not kink.is_reduced()
    assert tp.parse_pd(TREFOIL).is_reduced()
    assert tp.parse_pd(HOPF).is_reduced()
    assert tp.parse_pd(TWO_CLASPS).is_reduced()


def test_connectivity():
    d = tp.parse_pd(disjoint_union(HOPF, TREFOIL))
    assert not d.is_connected()
    comps = d.connected_components()
    assert sorted(c.n for c in comps) == [2, 3]
    assert all(c.is_connected() for c in comps)
    with pytest.raises(tp.DiagramError):
        d.is_reduced()


def test_canonical_form_invariance():
    d = tp.parse_pd(TREFOIL)
    base = tp.canonical_form(d)
    assert base == tp.canonical_form(tp.parse_pd(relabel_shift(TREFOIL, 3)))
    # rotating a row by two slots renames the same plane map
    rotated = tp.parse_pd("PD[X(2,5,1,4), X(3,6,4,1), X(5,2,6,3)]")
    assert base == tp.canonical_form(rotated)
    # permuting crossing order too
    permuted = tp.parse_pd("PD[X(5,2,6,3), X(1,4,2,5), X(3,6,4,1)]")
    assert base == tp.canonical_form(permuted)


def test_canonical_form_distinguishes():
    tre = tp.canonical_form(tp.parse_pd(TREFOIL))
    assert tre != tp.canonical_form(tp.parse_pd(TREFOIL_SWITCHED))
    assert tre != tp.canonical_form(tp.parse_pd(FIGURE_EIGHT))
    # reflection reverses the rotation order; the trefoil diagram is chiral
    mirror = tp.parse_pd("PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2)]")
    assert tre != tp.canonical_form(mirror)


def test_canonical_form_edges():
    assert tp.canonical_form(tp.parse_pd("PD[]")) == (0,)
    with pytest.raises(tp.DiagramError):
        tp.canonical_form(tp.parse_pd(disjoint_union(HOPF, HOPF)))


def test_torus_generator_shape():
    for k in (2, 5, 8):
        d = tp.parse_pd(torus_pd(k))
        assert d.n == k
        assert d.is_alternating()
        assert d.is_reduced()


def test_non_sphere_parses_as_pd():
    # valid PD text; only the embedding check (cells layer) rejects it
    d = tp.parse_pd(NON_SPHERE)
    assert d.n == 1 and d.edge_count == 2
