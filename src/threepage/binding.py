"""Binding circles as cyclic cut sequences around an extended spanning tree.

The boundary of a small neighborhood of a contractible subcomplex Y is a
circle.  Walked once around, it crosses the diagram at cut points: one on
each edge of Y (where the walk first passes it), two on every other edge
(near its two endpoints).  Between cuts the link falls apart into arcs of
three types: middles of non-Y edges (outside), and per-crossing strand
pieces (inside, all-under or all-over).  This module builds the cyclic
sequence by one loop over the darts, which for Y a lone crossing is the
circle round crossing 0, repairs it where a non-alternating edge joins
two arcs of the same type, and verifies the four defining conditions of a
binding circle.  Flattening the circle into a book, with its chord
geometry and page convention, is presentation.py's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cells import CellComplex
from .diagram import PlaneDiagram, _Forest
from .errors import DiagramError, InternalError
from .spanning import ExtendedSpanningTree, _face_forest

OUTSIDE = "outside"
INSIDE_UNDER = "inside-under"
INSIDE_OVER = "inside-over"
ARC_TYPES = (OUTSIDE, INSIDE_UNDER, INSIDE_OVER)

KIND_EDGE_CUT = "edge-cut"
KIND_NEAR = "near-vertex"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Arc:
    id: int
    type: str
    ends: tuple[int, int]       # the ids of the binding points it joins
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


def _require_valid(est: ExtendedSpanningTree, cx: CellComplex) -> None:
    """Raise DiagramError unless est is an extended spanning tree of cx.

    The faces replay through _Forest.add_face, the searches' rule, so
    each component of their closure has chi = 1.  Y = (all crossings,
    edges, faces) is then contractible iff every other tree edge joins
    two components and n - 1 + |F| edges leave one.
    """
    d = cx.diagram
    if est.edges and not 0 <= min(est.edges) <= max(est.edges) < d.edge_count:
        raise DiagramError("extended spanning tree has an unknown edge id")
    if est.faces and not 0 <= min(est.faces) <= max(est.faces) < cx.face_count:
        raise DiagramError("extended spanning tree has an unknown face id")
    forest = _face_forest(est.faces, cx)
    if not forest.used <= est.edges:
        raise DiagramError("face boundary leaves the tree edge set")
    rest = est.edges - forest.used
    merges = forest.join(map(d._edge_ends.__getitem__, rest))
    if len(merges) != len(rest) or len(est.edges) != d.n - 1 + len(est.faces):
        raise DiagramError("extended spanning tree is not contractible")


def boundary_sequence(est: ExtendedSpanningTree,
                      cx: CellComplex) -> BindingSequence:
    """Unrepaired cut sequence of the boundary walk around est, 3n+1-m points.

    One loop over the flat per-dart lists of the diagram.  At a tree dart
    the walk cuts its edge on the first pass and crosses to the opposite
    dart; at any other dart it cuts near the crossing.  Either way it
    rotates on, until it is back at start: the first tree dart outside
    Y's faces, or dart 0 when the tree is empty (n = 1, m = 0), so the
    walk circles crossing 0 with near-vertex cuts at darts 0-3.
    """
    _require_valid(est, cx)
    d = cx.diagram
    tree = est.edges
    edge_of, opposite = d._edge_of_dart, d._opposite
    points: list[BindingPoint] = []
    at = [-1] * len(edge_of)    # the binding point at each dart's cut
    in_tree = list(map(tree.__contains__, edge_of))
    # Darts of the faces of Y; the walk goes round all other tree darts.
    inner = set().union(*map(cx.faces.__getitem__, est.faces))
    start = next((x for x, t in enumerate(in_tree) if t and x not in inner),
                 0)
    orbit = []
    cuts = 0
    x = start
    while True:
        if in_tree[x]:
            orbit.append(x)
            if at[x] < 0:
                at[x] = at[opposite[x]] = k = len(points)
                points.append(BindingPoint(k, edge_of[x], KIND_EDGE_CUT, x))
                cuts += 1
            x = opposite[x]
        else:
            at[x] = k = len(points)
            points.append(BindingPoint(k, edge_of[x], KIND_NEAR, x))
        x = x + 1 if x & 3 != 3 else x - 3
        if x == start:
            break
    walked = 2 * len(tree) - len(inner)
    if len(orbit) > walked:
        raise InternalError("boundary walk does not close")
    if len(orbit) != walked or not inner.isdisjoint(orbit):
        raise InternalError("boundary walk missed tree darts")
    if cuts != len(tree):
        raise InternalError("some tree edge was never cut")
    if len(points) - cuts != 2 * (d.edge_count - len(tree)):
        raise InternalError("near-vertex cut count mismatch")

    arcs: list[Arc] = []
    for c in range(d.n):
        for x, typ in ((4 * c, INSIDE_UNDER), (4 * c + 1, INSIDE_OVER)):
            arcs.append(Arc(len(arcs), typ, (at[x], at[x + 2]),
                            (c,), (x, x + 2), None))
    for e, (d1, d2) in enumerate(d.edge_darts):
        if e not in tree:
            arcs.append(Arc(len(arcs), OUTSIDE, (at[d1], at[d2]), (), (), e))

    return BindingSequence(points=tuple(points), arcs=tuple(arcs),
                           n=d.n, m=len(est.faces), repaired=False,
                           tree_edges=frozenset(tree),
                           tree_faces=frozenset(est.faces))


def repair(seq: BindingSequence, d: PlaneDiagram) -> BindingSequence:
    """Remove edge cuts joining two inside arcs of the same type.

    Such cuts occur only on non-alternating edges of the tree.  Each
    removal merges the two arcs into one of the common type that passes
    both crossing runs, and drops one point.  A cut both of whose ends
    belong to one arc is left alone: removing it would close the arc into
    a circle with no binding point at all.  So is a cut without exactly
    two arc ends, which verify_binding reports.  Idempotent.

    Pass 1 joins arcs in a union-find, once over the edge cuts in circle
    order: a cut that is not removable never becomes so, so this removes
    the points a rescan after every merge would.  A merged arc keeps an
    age and its first and last free end (end k of arc i is 2i + k).  A
    merge runs from the older arc's far end to the newer one's and makes
    the newest arc.  Pass 2 walks each merged arc once from its first end
    and builds one Arc, with the least id of its pieces.  O(A log A + P).
    """
    arcs = seq.arcs
    at = [pid for a in arcs for pid in a.ends]    # end k of arc i: at[2i + k]
    # The two arc ends at each edge cut; other points are never removed.
    ends_at: dict[int, list[int]] = {
        p.id: [] for p in seq.points if p.kind == KIND_EDGE_CUT}
    for x, pid in enumerate(at):
        if pid in ends_at:
            ends_at[pid].append(x)
    forest = _Forest(len(arcs))
    free: dict[int, tuple[int, int, int]] = {}  # root: age, first, last
    across: dict[int, int] = {}    # the other end at each removed cut
    removed = set()
    for age, (pid, xy) in enumerate(ends_at.items(), len(arcs)):
        if len(xy) != 2 or arcs[xy[0] >> 1].type != arcs[xy[1] >> 1].type:
            continue
        x, y = xy
        ra, rb = forest.find(x >> 1), forest.find(y >> 1)
        if ra == rb:
            continue
        a = free.pop(ra, (ra, 2 * ra, 2 * ra + 1))
        b = free.pop(rb, (rb, 2 * rb, 2 * rb + 1))
        if a > b:    # by age
            a, b, x, y = b, a, y, x
        forest.union(ra, rb)
        free[forest.find(ra)] = (age, a[1] ^ a[2] ^ x, b[1] ^ b[2] ^ y)
        across[x], across[y] = y, x
        removed.add(pid)
    out = {a.id: a for a in arcs}
    for _, x, last in free.values():
        ends = (at[x], at[last])
        ids, crossings, darts = [], [], []
        while True:    # in at end x of arc x >> 1, out at end x ^ 1
            a = out.pop(arcs[x >> 1].id)
            ids.append(a.id)
            crossings += a.crossings[::-1] if x & 1 else a.crossings
            darts += a.darts[::-1] if x & 1 else a.darts
            if x ^ 1 == last:
                break
            x = across[x ^ 1]
        out[min(ids)] = Arc(min(ids), a.type, ends, tuple(crossings),
                            tuple(darts), None)
    return BindingSequence(
        points=tuple([q for q in seq.points if q.id not in removed]),
        arcs=tuple(map(out.__getitem__, sorted(out))),
        n=seq.n, m=seq.m, repaired=True,
        tree_edges=seq.tree_edges, tree_faces=seq.tree_faces)


def verify_binding(seq: BindingSequence, d: PlaneDiagram) -> BindingReport:
    """Check the four binding-circle conditions; never raises.

    Condition 1 covers all structural bookkeeping: point/arc counts, cut
    multiplicities, cut anchoring, the dart partition and end locations.
    Condition 2 is crossing coverage, condition 3 type purity per arc,
    condition 4 distinct types at every binding point.  A constant number
    of passes over the points, arcs, edges and darts: O(n) with the
    diagram's flat per-dart lists.
    """
    bad1: list[str] = []
    bad2: list[str] = []
    bad3: list[str] = []
    bad4: list[str] = []
    points, arcs, tree = seq.points, seq.arcs, seq.tree_edges
    edge_of, ndarts = d._edge_of_dart, 4 * d.n

    by_id = {p.id: p for p in points}
    if len(by_id) != len(points):
        bad1.append("duplicate point ids")
    if len(points) != len(arcs):
        bad1.append(f"{len(points)} points but {len(arcs)} arcs")
    if len({a.id for a in arcs}) != len(arcs):
        bad1.append("duplicate arc ids")
    if not seq.repaired and len(points) != 3 * seq.n + 1 - seq.m:
        bad1.append(f"unrepaired sequence has {len(points)} points, "
                    f"expected {3 * seq.n + 1 - seq.m}")

    ends_at: dict[int, list[Arc]] = {pid: [] for pid in by_id}
    for a in arcs:
        for k, pid in enumerate(a.ends):
            if pid in ends_at:
                ends_at[pid].append(a)
            else:
                bad1.append(f"arc {a.id} end {k} at unknown point {pid}")
    for p in points:
        here = ends_at[p.id]
        if len(here) != 2:
            bad1.append(f"point {p.id} has {len(here)} arc ends")
            continue
        a, b = here
        if a.id == b.id or a.type == b.type:
            bad4.append(f"point {p.id} joins arcs {a.id} and {b.id} "
                        f"of type {a.type}")

    cut_edges: dict[int, int] = {}
    near_at = [0] * ndarts    # near-vertex cuts anchored at each dart
    for p in points:
        x = p.anchor_dart
        if not 0 <= x < ndarts or edge_of[x] != p.edge:
            bad1.append(f"point {p.id} anchored off its edge")
            continue
        if p.kind == KIND_EDGE_CUT:
            if p.edge not in tree:
                bad1.append(f"edge cut {p.id} on non-tree edge {p.edge}")
            cut_edges[p.edge] = cut_edges.get(p.edge, 0) + 1
        elif p.kind == KIND_NEAR:
            if p.edge in tree:
                bad1.append(f"near-vertex cut {p.id} on tree edge {p.edge}")
            near_at[x] += 1
        else:
            bad1.append(f"point {p.id} has unknown kind {p.kind!r}")
    for e in sorted(tree):
        k = cut_edges.get(e, 0)
        if k > 1 or (k == 0 and not seq.repaired):
            bad1.append(f"tree edge {e} carries {k} cuts")
    # Each near cut sits at a dart of its own edge, so a non-tree edge's
    # cuts are placed right iff each of its two darts anchors one.
    for e, (d1, d2) in enumerate(d.edge_darts):
        if e not in tree and not near_at[d1] == near_at[d2] == 1:
            bad1.append(f"edge {e} near-vertex cuts misplaced")

    passed = [x for a in arcs for x in a.darts]
    owned = set(passed)
    if len(owned) != len(passed):
        owner: dict[int, int] = {}
        for a in arcs:
            for x in a.darts:
                if x in owner:
                    bad1.append(f"dart {x} in arcs {owner[x]} and {a.id}")
                owner[x] = a.id
    if len(owned) != ndarts or not owned.issuperset(range(ndarts)):
        missing = [x for x in range(ndarts) if x not in owned]
        if missing:
            bad1.append(f"darts covered by no arc: {missing}")
        stray = sorted(x for x in owned if not 0 <= x < ndarts)
        if stray:
            bad1.append(f"darts out of range: {stray}")

    covered = set()
    for a in arcs:
        typ = a.type
        if typ == OUTSIDE:
            if a.crossings or a.darts:
                bad2.append(f"outside arc {a.id} passes {a.crossings}")
            e = a.edge
            if e is None or e in tree or not 0 <= e < d.edge_count:
                bad1.append(f"outside arc {a.id} on edge {e}")
                continue
            want = d.edge_darts[e]
            for pid in a.ends:
                p = by_id.get(pid)
                if p is not None and (p.kind != KIND_NEAR or p.edge != e or
                                      p.anchor_dart not in want):
                    bad1.append(f"outside arc {a.id} end at point "
                                f"{p.id} off edge {e}")
            continue
        covered.update(a.crossings)
        if typ != INSIDE_UNDER and typ != INSIDE_OVER:
            bad3.append(f"arc {a.id} has unknown type {typ!r}")
            continue
        if a.edge is not None:
            bad1.append(f"inside arc {a.id} claims edge {a.edge}")
        cr, ds = a.crossings, a.darts
        if not cr or len(ds) != 2 * len(cr):
            bad1.append(f"inside arc {a.id} has a broken passage list")
            continue
        for k, c in enumerate(cr):
            x = ds[2 * k]
            if x >> 2 != c or x ^ 2 != ds[2 * k + 1]:
                bad1.append(f"arc {a.id} passage {k} is not a strand "
                            f"of crossing {c}")
        over = typ == INSIDE_OVER    # over-strand darts are odd
        for x in ds:
            if x & 1 != over:
                bad3.append(f"arc {a.id} typed {typ} passes "
                            f"dart {x} ({d.strand_type(x)})")
        for k, pid in enumerate(a.ends):
            edge_dart = ds[-k]    # ds[0] at end 0, ds[-1] at end 1
            p = by_id.get(pid)
            if p is None:
                continue
            if p.kind == KIND_NEAR:
                if p.anchor_dart != edge_dart:
                    bad1.append(f"arc {a.id} ends at near cut {p.id} "
                                f"anchored elsewhere")
            elif 0 <= edge_dart < ndarts and p.edge != edge_of[edge_dart]:
                bad1.append(f"arc {a.id} ends at cut {p.id} "
                            f"on a different edge")

    lost = sorted(set(range(d.n)) - covered)
    if lost:
        bad2.append(f"crossings passed by no inside arc: {lost}")

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
