"""Binding circles as cyclic cut sequences around an extended spanning tree.

The boundary of a small neighborhood of a contractible subcomplex Y is a
circle.  Walked once around, it crosses the diagram at cut points: one on
each edge of Y (where the walk first passes it), two on every other edge
(near its two endpoints).  Between cuts the link falls apart into arcs of
three types: middles of non-Y edges (outside), and per-crossing strand
pieces (inside, all-under or all-over).  This module builds the cyclic
sequence by a corner walk, repairs it where a non-alternating edge joins
two arcs of the same type, and verifies the four defining conditions of a
binding circle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .cells import CellComplex
from .diagram import PlaneDiagram, _Forest, crossing_of, dart_id, rotate
from .errors import DiagramError, InternalError
from .spanning import ExtendedSpanningTree

OUTSIDE = "outside"
INSIDE_UNDER = "inside-under"
INSIDE_OVER = "inside-over"
ARC_TYPES = (OUTSIDE, INSIDE_UNDER, INSIDE_OVER)

# Page convention: under-passages open the book, over-passages sit above
# them, edge middles go outside.
PAGE_BY_TYPE = {INSIDE_UNDER: 1, INSIDE_OVER: 2, OUTSIDE: 3}

KIND_EDGE_CUT = "edge-cut"
KIND_NEAR = "near-vertex"


@dataclass(frozen=True)
class BindingPoint:
    """One transversal intersection of the binding circle with the link.

    anchor_dart pins the location: for a near-vertex cut it is the dart
    whose half-edge carries the cut; for an edge cut it is the dart from
    whose side the walk crossed the edge.
    """

    id: int
    edge: int
    kind: str
    anchor_dart: int


@dataclass(frozen=True)
class ArcEnd:
    point: int
    dart: int | None  # inside arcs: the dart reaching this end


@dataclass(frozen=True)
class Arc:
    id: int
    type: str
    ends: tuple[ArcEnd, ArcEnd]
    crossings: tuple[int, ...]  # passages in path order, ends[0] to ends[1]
    darts: tuple[int, ...]      # two darts per passage, same order
    edge: int | None            # outside arcs: the edge whose middle this is


@dataclass(frozen=True)
class BindingSequence:
    points: tuple[BindingPoint, ...]  # cyclic order of the walk
    arcs: tuple[Arc, ...]
    n: int
    m: int
    repaired: bool
    tree_edges: frozenset[int]
    tree_faces: frozenset[int]


@dataclass(frozen=True)
class BindingReport:
    ok: bool
    c1_structure: bool
    c2_coverage: bool
    c3_types: bool
    c4_alternation: bool
    offenders: tuple[str, ...]


def chords_cross(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Transversal crossing of chords {a1,b1}, {a2,b2} on a circle.

    Positions must satisfy a <= b.  Chords sharing an endpoint do not
    cross: they can always be pushed apart inside the disk.
    """
    if {a1, b1} & {a2, b2}:
        return False
    inside1 = a1 < a2 < b1
    inside2 = a1 < b2 < b1
    return inside1 != inside2


def crossing_pairs(spans) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, whose chords cross, sorted.

    Equal to filtering itertools.combinations(range(len(spans)), 2) by
    chords_cross, spans given as (a, b) with a <= b.  Two chords cross
    iff a_i < a_j < b_i < b_j, so a sweep by left end that keeps the
    right ends of the still-open chords in a sorted list finds each
    crossing pair by bisection: O(P log P + K log K) comparisons for P
    chords and K crossing pairs.
    """
    order = sorted(range(len(spans)), key=lambda i: spans[i][0])
    open_ends: list[tuple[int, int]] = []  # (right end, index), sorted
    out = []
    for a, group in itertools.groupby(order, key=lambda i: spans[i][0]):
        group = list(group)
        del open_ends[:bisect_right(open_ends, (a, len(spans)))]
        for j in group:
            hi = bisect_left(open_ends, (spans[j][1], -1))
            out.extend((i, j) if i < j else (j, i)
                       for _, i in open_ends[:hi])
        for j in group:
            insort(open_ends, (spans[j][1], j))
    out.sort()
    return out


def same_page_crossings(spans, pages) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of crossing chords on one page, sorted.

    One crossing_pairs scan per page, so the cost is that of the scans.
    """
    by_page: dict[int, list[int]] = {}
    for i, page in enumerate(pages):
        by_page.setdefault(page, []).append(i)
    out = []
    for idx in by_page.values():
        out.extend((idx[x], idx[y])
                   for x, y in crossing_pairs([spans[i] for i in idx]))
    out.sort()
    return out


def _passage_partner(dart: int) -> int:
    return rotate(rotate(dart))


def _require_valid(est: ExtendedSpanningTree, cx: CellComplex) -> None:
    """Raise DiagramError unless est is an extended spanning tree of cx.

    Once the faces are edge-disjoint and bounded by tree edges, Y = (all
    crossings, edges, faces) is closed, so it is contractible iff chi = 1
    and it is connected: n - 1 + |F| edges that join all n crossings.
    """
    d = cx.diagram
    if not all(0 <= e < d.edge_count for e in est.edges):
        raise DiagramError("extended spanning tree has an unknown edge id")
    if not all(0 <= f < cx.face_count for f in est.faces):
        raise DiagramError("extended spanning tree has an unknown face id")
    taken: set[int] = set()
    for f in sorted(est.faces):
        fe = set(cx.face_edges(f))
        if fe & taken:
            raise DiagramError("extended spanning tree faces share an edge")
        if not fe <= est.edges:
            raise DiagramError("face boundary leaves the tree edge set")
        taken |= fe
    merges = _Forest(d.n).join(map(d.edge_endpoints, est.edges))
    if merges != d.n - 1 or len(est.edges) != d.n - 1 + len(est.faces):
        raise DiagramError("extended spanning tree is not contractible")


def boundary_sequence(est: ExtendedSpanningTree,
                      cx: CellComplex) -> BindingSequence:
    """Unrepaired cut sequence of the boundary walk around est, 3n+1-m points.

    Each tree edge is cut where the walk first passes it.
    """
    _require_valid(est, cx)
    d = cx.diagram
    tree = est.edges
    points: list[BindingPoint] = []
    near_by_dart: dict[int, int] = {}
    cut_by_edge: dict[int, int] = {}

    def emit(edge: int, kind: str, anchor: int) -> int:
        points.append(BindingPoint(id=len(points), edge=edge,
                                   kind=kind, anchor_dart=anchor))
        return points[-1].id

    if not tree:
        if d.n != 1:
            raise InternalError("empty tree on a multi-crossing diagram")
        for x in range(4):
            near_by_dart[x] = emit(d.edge_of(x), KIND_NEAR, x)
    else:
        in_tree = [d.edge_of(x) in tree for x in d.darts()]

        def next_tree_dart(x: int) -> int:
            y = rotate(x)
            while not in_tree[y]:
                y = rotate(y)
            return y

        walk_darts = {x for x in d.darts()
                      if in_tree[x] and cx.face_of(x) not in est.faces}
        start = min(walk_darts)
        orbit = [start]
        u = next_tree_dart(d.opposite(start))
        while u != start:
            orbit.append(u)
            if len(orbit) > len(walk_darts):
                raise InternalError("boundary walk does not close")
            u = next_tree_dart(d.opposite(u))
        if set(orbit) != walk_darts:
            raise InternalError("boundary walk missed tree darts")

        for u in orbit:
            e = d.edge_of(u)
            if e not in cut_by_edge:
                cut_by_edge[e] = emit(e, KIND_EDGE_CUT, u)
            x = rotate(d.opposite(u))
            while not in_tree[x]:
                near_by_dart[x] = emit(d.edge_of(x), KIND_NEAR, x)
                x = rotate(x)

        if len(cut_by_edge) != len(tree):
            raise InternalError("some tree edge was never cut")
        if len(near_by_dart) != 2 * (d.edge_count - len(tree)):
            raise InternalError("near-vertex cut count mismatch")

    def end_for(x: int) -> ArcEnd:
        e = d.edge_of(x)
        pid = cut_by_edge[e] if e in tree else near_by_dart[x]
        return ArcEnd(point=pid, dart=x)

    arcs: list[Arc] = []
    for c in range(d.n):
        for s, typ in ((0, INSIDE_UNDER), (1, INSIDE_OVER)):
            x0, x1 = dart_id(c, s), dart_id(c, s + 2)
            arcs.append(Arc(id=len(arcs), type=typ,
                            ends=(end_for(x0), end_for(x1)),
                            crossings=(c,), darts=(x0, x1), edge=None))
    for e in range(d.edge_count):
        if e in tree:
            continue
        d1, d2 = sorted(d.edge_darts[e])
        arcs.append(Arc(id=len(arcs), type=OUTSIDE,
                        ends=(ArcEnd(near_by_dart[d1], None),
                              ArcEnd(near_by_dart[d2], None)),
                        crossings=(), darts=(), edge=e))

    seq = BindingSequence(points=tuple(points), arcs=tuple(arcs),
                          n=d.n, m=len(est.faces), repaired=False,
                          tree_edges=frozenset(tree),
                          tree_faces=frozenset(est.faces))
    if len(seq.points) != 3 * seq.n + 1 - seq.m:
        raise InternalError(
            f"expected {3 * seq.n + 1 - seq.m} cuts, emitted {len(seq.points)}")
    return seq


def repair(seq: BindingSequence, d: PlaneDiagram) -> BindingSequence:
    """Remove edge cuts joining two inside arcs of the same type.

    Such cuts occur only on non-alternating edges of the tree.  Each
    removal merges the two arcs into one of the common type that passes
    both crossing runs, and drops one point.  A cut both of whose ends
    belong to one arc is left alone: removing it would close the arc into
    a circle with no binding point at all.  Idempotent.

    One pass over the points in circle order.  A point that is not
    removable never becomes so: the types at a cut do not change, and a
    merge can only make its two ends belong to one arc.  So the pass
    removes the same points, in the same order, as rescanning from the
    start after every merge.  The two arcs at a cut are taken oldest
    first, a merged arc counting as the newest.
    """
    arcs = {a.id: a for a in seq.arcs}
    age = itertools.count()
    rank = {aid: next(age) for aid in arcs}
    ends_at: dict[int, list[tuple[int, int]]] = {p.id: [] for p in seq.points}
    for a in seq.arcs:
        for k in (0, 1):
            ends_at[a.ends[k].point].append((a.id, k))
    removed = set()
    for p in seq.points:
        if p.kind != KIND_EDGE_CUT:
            continue
        (aid, i), (bid, j) = sorted(ends_at[p.id], key=lambda e: rank[e[0]])
        if aid == bid or arcs[aid].type != arcs[bid].type:
            continue
        a, b = arcs.pop(aid), arcs.pop(bid)
        a_darts, a_cross = a.darts, a.crossings
        a_far = a.ends[0]
        if i == 0:  # orient a so its cut end comes last
            a_darts, a_cross = a_darts[::-1], a_cross[::-1]
            a_far = a.ends[1]
        b_darts, b_cross = b.darts, b.crossings
        b_far = b.ends[1]
        if j == 1:  # orient b so its cut end comes first
            b_darts, b_cross = b_darts[::-1], b_cross[::-1]
            b_far = b.ends[0]
        merged = Arc(id=min(aid, bid), type=a.type, ends=(a_far, b_far),
                     crossings=a_cross + b_cross,
                     darts=a_darts + b_darts, edge=None)
        arcs[merged.id] = merged
        rank[merged.id] = next(age)
        # Point the two far ends at the merged arc; find both entries
        # first, since the far ends may share a point.
        at_a, at_b = ends_at[a_far.point], ends_at[b_far.point]
        ka, kb = at_a.index((aid, 1 - i)), at_b.index((bid, 1 - j))
        at_a[ka], at_b[kb] = (merged.id, 0), (merged.id, 1)
        removed.add(p.id)
    points = [q for q in seq.points if q.id not in removed]

    return BindingSequence(
        points=tuple(points),
        arcs=tuple(sorted(arcs.values(), key=lambda a: a.id)),
        n=seq.n, m=seq.m, repaired=True,
        tree_edges=seq.tree_edges, tree_faces=seq.tree_faces)


def verify_binding(seq: BindingSequence, d: PlaneDiagram) -> BindingReport:
    """Check the four binding-circle conditions; never raises.

    Condition 1 covers all structural bookkeeping: point/arc counts, cut
    multiplicities, cut anchoring, the dart partition and end locations.
    Condition 2 is crossing coverage, condition 3 type purity per arc,
    condition 4 distinct types at every binding point.
    """
    bad1: list[str] = []
    bad2: list[str] = []
    bad3: list[str] = []
    bad4: list[str] = []

    point_ids = [p.id for p in seq.points]
    by_id = {p.id: p for p in seq.points}
    if len(by_id) != len(point_ids):
        bad1.append("duplicate point ids")
    if len(seq.points) != len(seq.arcs):
        bad1.append(f"{len(seq.points)} points but {len(seq.arcs)} arcs")
    if len({a.id for a in seq.arcs}) != len(seq.arcs):
        bad1.append("duplicate arc ids")
    if not seq.repaired and len(seq.points) != 3 * seq.n + 1 - seq.m:
        bad1.append(f"unrepaired sequence has {len(seq.points)} points, "
                    f"expected {3 * seq.n + 1 - seq.m}")

    ends_at: dict[int, list[Arc]] = {pid: [] for pid in by_id}
    for a in seq.arcs:
        for k, end in enumerate(a.ends):
            if end.point in ends_at:
                ends_at[end.point].append(a)
            else:
                bad1.append(f"arc {a.id} end {k} at unknown point {end.point}")
    for pid in point_ids:
        if len(ends_at[pid]) != 2:
            bad1.append(f"point {pid} has {len(ends_at[pid])} arc ends")

    cut_edges: dict[int, int] = {}
    near_anchors: dict[int, list[int]] = {}
    for p in seq.points:
        if not (0 <= p.anchor_dart < 4 * d.n) or \
                d.edge_of(p.anchor_dart) != p.edge:
            bad1.append(f"point {p.id} anchored off its edge")
            continue
        if p.kind == KIND_EDGE_CUT:
            if p.edge not in seq.tree_edges:
                bad1.append(f"edge cut {p.id} on non-tree edge {p.edge}")
            cut_edges[p.edge] = cut_edges.get(p.edge, 0) + 1
        elif p.kind == KIND_NEAR:
            if p.edge in seq.tree_edges:
                bad1.append(f"near-vertex cut {p.id} on tree edge {p.edge}")
            near_anchors.setdefault(p.edge, []).append(p.anchor_dart)
        else:
            bad1.append(f"point {p.id} has unknown kind {p.kind!r}")
    for e in sorted(seq.tree_edges):
        k = cut_edges.get(e, 0)
        if k > 1 or (k == 0 and not seq.repaired):
            bad1.append(f"tree edge {e} carries {k} cuts")
    for e in range(d.edge_count):
        if e in seq.tree_edges:
            continue
        if sorted(near_anchors.get(e, [])) != sorted(d.edge_darts[e]):
            bad1.append(f"edge {e} near-vertex cuts misplaced")

    owner: dict[int, int] = {}
    for a in seq.arcs:
        for x in a.darts:
            if x in owner:
                bad1.append(f"dart {x} in arcs {owner[x]} and {a.id}")
            owner[x] = a.id
    missing = [x for x in d.darts() if x not in owner]
    if missing:
        bad1.append(f"darts covered by no arc: {missing}")

    for a in seq.arcs:
        if a.type == OUTSIDE:
            if a.crossings or a.darts:
                bad2.append(f"outside arc {a.id} passes {a.crossings}")
            if a.edge is None or a.edge in seq.tree_edges:
                bad1.append(f"outside arc {a.id} on edge {a.edge}")
            else:
                want = set(d.edge_darts[a.edge])
                for end in a.ends:
                    p = by_id.get(end.point)
                    if p is None:
                        continue
                    if p.kind != KIND_NEAR or p.edge != a.edge or \
                            p.anchor_dart not in want:
                        bad1.append(f"outside arc {a.id} end at point "
                                    f"{p.id} off edge {a.edge}")
        elif a.type in (INSIDE_UNDER, INSIDE_OVER):
            if a.edge is not None:
                bad1.append(f"inside arc {a.id} claims edge {a.edge}")
            if not a.crossings or len(a.darts) != 2 * len(a.crossings):
                bad1.append(f"inside arc {a.id} has a broken passage list")
                continue
            for k, c in enumerate(a.crossings):
                x0, x1 = a.darts[2 * k], a.darts[2 * k + 1]
                if crossing_of(x0) != c or _passage_partner(x0) != x1:
                    bad1.append(f"arc {a.id} passage {k} is not a strand "
                                f"of crossing {c}")
            for x in a.darts:
                if ("inside-" + d.strand_type(x)) != a.type:
                    bad3.append(f"arc {a.id} typed {a.type} passes "
                                f"dart {x} ({d.strand_type(x)})")
            for k, end in enumerate(a.ends):
                edge_dart = a.darts[0] if k == 0 else a.darts[-1]
                if end.dart != edge_dart:
                    bad1.append(f"arc {a.id} end {k} dart mismatch")
                p = by_id.get(end.point)
                if p is None:
                    continue
                if p.kind == KIND_NEAR:
                    if p.anchor_dart != edge_dart:
                        bad1.append(f"arc {a.id} ends at near cut {p.id} "
                                    f"anchored elsewhere")
                elif p.edge != d.edge_of(edge_dart):
                    bad1.append(f"arc {a.id} ends at cut {p.id} "
                                f"on a different edge")
        else:
            bad3.append(f"arc {a.id} has unknown type {a.type!r}")

    covered = set()
    for a in seq.arcs:
        if a.type != OUTSIDE:
            covered.update(a.crossings)
    lost = sorted(set(range(d.n)) - covered)
    if lost:
        bad2.append(f"crossings passed by no inside arc: {lost}")

    for pid in point_ids:
        if len(ends_at[pid]) != 2:
            continue
        a, b = ends_at[pid]
        if a.id == b.id or a.type == b.type:
            bad4.append(f"point {pid} joins arcs {a.id} and {b.id} "
                        f"of type {a.type}")

    offenders = tuple(itertools.chain(
        (f"structure: {s}" for s in bad1),
        (f"coverage: {s}" for s in bad2),
        (f"types: {s}" for s in bad3),
        (f"alternation: {s}" for s in bad4)))
    return BindingReport(
        ok=not (bad1 or bad2 or bad3 or bad4),
        c1_structure=not bad1,
        c2_coverage=not bad2,
        c3_types=not bad3,
        c4_alternation=not bad4,
        offenders=offenders)

