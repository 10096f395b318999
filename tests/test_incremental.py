"""The near-linear tests of the default pipeline against their references.

Incremental face feasibility, the one-pass is_reduced, the sweep
chord-crossing scan, the one-pass repair and its union-find rewrite, the
two explicit-stack exact searches, the union-find component counts, the
heap-driven leafy NSIS growth, the edge-count feasibility test of
complete_to_est, the union-find split of a diagram into pieces, the
cut-vertex reach on SimpleGraph's index form as the NSIS connectivity
test, the bfs and dfs trees read off each crossing's darts, the
add_face replay and edge count of _require_valid, and the flat-list
parse, edge arrays, face trace, walk, verifiers and presentation each
replaced a slower version that is still in the code or spelled out
here; both must give the same answers on corpus diagrams and on
generated braid closures, switched crossings, kinks and split unions
included, and the verifiers the same offenders on broken inputs.
"""

import dataclasses
import itertools
import random
import re

import pytest

import threepage as tp
from threepage import binding, diagram, presentation, spanning
from threepage.binding import (INSIDE_OVER, INSIDE_UNDER, KIND_EDGE_CUT,
                               KIND_NEAR, OUTSIDE, Arc, BindingPoint,
                               BindingReport, BindingSequence)
from threepage.cells import (Subcomplex, complement_components,
                             subcomplex_components)
from threepage.diagram import (PlaneDiagram, _Forest, crossing_of,
                               cut_vertices, dart_id, rotate)
from threepage.errors import PDSyntaxError
from threepage.nsis import NsisResult
from threepage.presentation import (PAGE_BY_TYPE, Chord, PageReport,
                                    ThreePagePresentation, chords_cross,
                                    crossing_pairs)
from threepage.spanning import (ExtendedSpanningTree, SearchResult,
                                 complete_to_est, face_set_feasible)

from conftest import (CORPUS_TEXTS, GRID_GREEDY_GAP, HOPF, KINK, TREFOIL,
                      TWO_CLASPS, braid_closure_pd, disjoint_union, grid_pd,
                      pd_text, switch_crossing, switched_torus_pd, torus_pd,
                      tree_subcomplex)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

ORDERS = ("by-size", "by-dual-degree", "random")


def reference_greedy(cx, order, seed):
    chosen = set()
    for f in spanning._face_order(cx, order, seed):
        if face_set_feasible(chosen | {f}, cx):
            chosen.add(f)
    return frozenset(chosen)


def reference_witness(cx):
    d = cx.diagram
    incident = [[] for _ in range(d.n)]
    for e in range(d.edge_count):
        a, b = d.edge_endpoints(e)
        incident[a].append(e)
        incident[b].append(e)
    for c in range(d.n):
        for ea, eb in itertools.combinations(sorted(set(incident[c])), 2):
            if set(d.edge_endpoints(ea)) == set(d.edge_endpoints(eb)):
                continue
            for fa in cx.edge_sides(ea):
                for fb in cx.edge_sides(eb):
                    if fa != fb and face_set_feasible({fa, fb}, cx):
                        return tp.Witness(edge_a=ea, edge_b=eb,
                                          face_a=fa, face_b=fb)
    return None


def reference_spanning_tree(cx, strategy="bfs", seed=0):
    """spanning_tree as it was, on PlaneDiagram._incident as it was: the
    edges at each crossing in edge-id order, a loop edge once."""
    d = cx.diagram
    incident = [[] for _ in range(d.n)]
    for e in range(d.edge_count):
        a, b = d.edge_endpoints(e)
        incident[a].append(e)
        if b != a:
            incident[b].append(e)
    if strategy == "random":
        order = list(range(d.edge_count))
        random.Random(seed).shuffle(order)
        forest = _Forest(d.n)
        return frozenset(e for e in order
                         if forest.union(*d.edge_endpoints(e)))

    if strategy not in ("bfs", "dfs"):
        raise tp.DiagramError(f"unknown spanning tree strategy: {strategy}")
    seen = [False] * d.n
    seen[0] = True
    chosen = []
    frontier = [0]
    while frontier:
        v = frontier.pop(0 if strategy == "bfs" else -1)
        for e in incident[v]:
            a, b = d.edge_endpoints(e)
            w = b if a == v else a
            if not seen[w]:
                seen[w] = True
                chosen.append(e)
                frontier.append(w)
    if len(chosen) != d.n - 1:
        raise tp.InternalError("spanning tree construction missed vertices")
    return frozenset(chosen)


def reference_complete_to_est(faces, cx):
    """complete_to_est as it was: face_set_feasible, then bridging."""
    faces = frozenset(faces)
    if not face_set_feasible(faces, cx):
        raise tp.DiagramError("face set is not feasible")
    edges = set().union(*map(cx.face_edges, faces))
    d = cx.diagram
    forest = _Forest(cx.n)
    for e in edges:
        forest.union(*d.edge_endpoints(e))
    for e in range(d.edge_count):
        if e not in edges and forest.union(*d.edge_endpoints(e)):
            edges.add(e)
    if len({forest.find(v) for v in range(cx.n)}) != 1:
        raise tp.InternalError("could not bridge face components")
    est = ExtendedSpanningTree(edges=frozenset(edges), faces=faces)
    if len(est.edges) != cx.n + len(faces) - 1:
        raise tp.InternalError("extended spanning tree has wrong edge count")
    return est


def reference_component_sets(d):
    """PlaneDiagram._component_sets as it was: a graph search."""
    adj = [[] for _ in range(d.n)]
    for a, b in map(d.edge_endpoints, range(d.edge_count)):
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * d.n
    comps = []
    for start in range(d.n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_connected(verts, adj):
    """nsis._connected as it was: a graph search."""
    if not verts:
        return False
    seen = set()
    frontier = [min(verts)]
    seen.add(frontier[0])
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u in verts and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == verts


def reference_require_valid(est, cx):
    """binding._require_valid spelled out: the oracle face_set_feasible,
    then is_contractible on a Subcomplex."""
    d = cx.diagram
    if not all(0 <= e < d.edge_count for e in est.edges):
        raise tp.DiagramError("extended spanning tree has an unknown edge id")
    if not all(0 <= f < cx.face_count for f in est.faces):
        raise tp.DiagramError("extended spanning tree has an unknown face id")
    if not face_set_feasible(est.faces, cx):
        raise tp.DiagramError("face set is not feasible")
    if not set().union(*map(cx.face_edges, est.faces)) <= est.edges:
        raise tp.DiagramError("face boundary leaves the tree edge set")
    if not tp.is_contractible(tree_subcomplex(est, cx), cx):
        raise tp.DiagramError("extended spanning tree is not contractible")


def reference_is_reduced(d):
    """No loop edge and, for n >= 3, no crossing whose removal disconnects."""
    if d.loop_edges():
        return False
    if d.n <= 2:
        return True
    adj = [set() for _ in range(d.n)]
    for e in range(d.edge_count):
        a, b = d.edge_endpoints(e)
        adj[a].add(b)
        adj[b].add(a)
    for v in range(d.n):
        start = 1 if v == 0 else 0
        seen, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()] - seen - {v}:
                seen.add(w)
                stack.append(w)
        if len(seen) != d.n - 1:
            return False
    return True


def reference_crossing_pairs(spans):
    return [(i, j) for i, j in itertools.combinations(range(len(spans)), 2)
            if chords_cross(*spans[i], *spans[j])]


def reference_repair(seq, d):
    """repair as it was: rescan every point after each merge."""
    points = list(seq.points)
    arcs = {a.id: a for a in seq.arcs}

    while True:
        ends_at = {p.id: [] for p in points}
        for a in arcs.values():
            for k in (0, 1):
                ends_at[a.ends[k]].append((a.id, k))
        removable = None
        for p in points:
            if p.kind != binding.KIND_EDGE_CUT:
                continue
            (aid, i), (bid, j) = ends_at[p.id]
            if aid == bid:
                continue
            if arcs[aid].type == arcs[bid].type:
                removable = (p, aid, i, bid, j)
                break
        if removable is None:
            break
        p, aid, i, bid, j = removable
        a, b = arcs[aid], arcs[bid]
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
        merged = binding.Arc(id=min(aid, bid), type=a.type,
                             ends=(a_far, b_far),
                             crossings=a_cross + b_cross,
                             darts=a_darts + b_darts, edge=None)
        del arcs[aid], arcs[bid]
        arcs[merged.id] = merged
        points = [q for q in points if q.id != p.id]

    return binding.BindingSequence(
        points=tuple(points),
        arcs=tuple(sorted(arcs.values(), key=lambda a: a.id)),
        tree=seq.tree, repaired=True)


def reference_one_pass_repair(seq, d):
    """repair as it was before the union-find: one pass over the edge
    cuts, the two arcs at a cut ranked by age, tuples concatenated on
    every merge and the far ends patched in place."""
    arcs = {a.id: a for a in seq.arcs}
    rank = dict(zip(arcs, itertools.count()))
    age = len(rank)
    # The two arc ends at each edge cut; other points are never removed.
    ends_at: dict[int, list[tuple[int, int]]] = {
        p.id: [] for p in seq.points if p.kind == KIND_EDGE_CUT}
    for a in seq.arcs:
        p, q = a.ends
        if p in ends_at:
            ends_at[p].append((a.id, 0))
        if q in ends_at:
            ends_at[q].append((a.id, 1))
    removed = set()
    for pid, here in ends_at.items():
        (aid, i), (bid, j) = here
        if aid == bid or arcs[aid].type != arcs[bid].type:
            continue
        if rank[aid] > rank[bid]:
            (aid, i), (bid, j) = (bid, j), (aid, i)
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
        merged = Arc(min(aid, bid), a.type, (a_far, b_far),
                     a_cross + b_cross, a_darts + b_darts, None)
        arcs[merged.id] = merged
        rank[merged.id] = age
        age += 1
        # Point the two far ends at the merged arc (a far end that is no
        # edge cut gets a throwaway list); find both entries first, since
        # the far ends may share a point.
        at_a = ends_at.get(a_far, [(aid, 1 - i)])
        at_b = ends_at.get(b_far, [(bid, 1 - j)])
        ka, kb = at_a.index((aid, 1 - i)), at_b.index((bid, 1 - j))
        at_a[ka], at_b[kb] = (merged.id, 0), (merged.id, 1)
        removed.add(pid)
    return BindingSequence(
        points=tuple([q for q in seq.points if q.id not in removed]),
        arcs=tuple(map(arcs.__getitem__, sorted(arcs))),
        tree=seq.tree, repaired=True)


_REFERENCE_LABEL_RE = re.compile(r"0*[1-9][0-9]*")


def reference_parse_pd(text):
    """parse_pd as it was: a label regex and an int() per label."""
    stripped = text.strip()
    if not stripped:
        raise PDSyntaxError("empty input")
    m = diagram._PD_RE.fullmatch(stripped)
    if not m:
        raise PDSyntaxError(f"not a PD expression: {stripped[:40]!r}")
    body = m.group(1).strip()
    if not body:
        return PlaneDiagram([])
    rows = []
    consumed = []
    for entry in diagram._ENTRY_RE.finditer(body):
        parts = [p.strip() for p in entry.group(1).split(",")]
        if not all(_REFERENCE_LABEL_RE.fullmatch(p) for p in parts):
            raise PDSyntaxError(
                f"bad crossing entry: {entry.group(0)[:40]!r}")
        rows.append(tuple(int(p) for p in parts))
        consumed.append(entry.group(0))
    leftover = diagram._ENTRY_RE.sub("", body)
    if leftover.replace(",", "").strip() or not rows:
        leftover = re.sub(r"^[\s,]+|[\s,]+$", "", leftover)
        raise PDSyntaxError(f"unparsed content in PD expression: {leftover[:40]!r}")
    return PlaneDiagram(rows)


def reference_edge_arrays(crossings):
    """The PlaneDiagram constructor's edge arrays as they were: a dict of
    darts per label; opposite() as it was, from the edge's dart pair."""
    counts = {}
    for c, row in enumerate(crossings):
        for s, label in enumerate(row):
            counts.setdefault(label, []).append(dart_id(c, s))
    bad = {lab: len(ds) for lab, ds in counts.items() if len(ds) != 2}
    if bad:
        detail = ", ".join(f"{lab} appears {k} times"
                           for lab, k in sorted(bad.items()))
        raise PDSyntaxError(
            f"arc labels must appear exactly twice: {detail[:40]}")

    # Edge ids follow sorted label order so they are reproducible.
    edge_labels = tuple(sorted(counts))
    edge_darts = tuple(tuple(counts[lab]) for lab in edge_labels)
    edge_of_dart = [0] * (4 * len(crossings))
    for e, (d1, d2) in enumerate(edge_darts):
        edge_of_dart[d1] = e
        edge_of_dart[d2] = e
    edge_ends = tuple((crossing_of(d1), crossing_of(d2))
                      for d1, d2 in edge_darts)
    opposite = []
    for dart in range(4 * len(crossings)):
        d1, d2 = edge_darts[edge_of_dart[dart]]
        opposite.append(d2 if dart == d1 else d1)
    return edge_labels, edge_darts, edge_of_dart, edge_ends, opposite


def reference_face_trace(diagram):
    """The CellComplex face trace as it was: rotate(opposite(d)) per step;
    faces, face of each dart and face edges."""
    total = 4 * diagram.n
    face_of = [-1] * total
    faces = []
    for start in range(total):
        if face_of[start] >= 0:
            continue
        cycle = []
        d = start
        while face_of[d] < 0:
            face_of[d] = len(faces)
            cycle.append(d)
            d = rotate(diagram.opposite(d))
        if d != start:
            raise tp.DiagramError("face trace did not close; corrupt pairing")
        faces.append(tuple(cycle))
    face_edges = tuple(
        tuple(sorted({diagram.edge_of(d) for d in cycle}))
        for cycle in faces)
    return tuple(faces), face_of, face_edges


def reference_same_page_crossings(spans, pages):
    return [(i, j) for i, j in reference_crossing_pairs(spans)
            if pages[i] == pages[j]]


def reference_boundary_sequence(est, cx):
    """boundary_sequence as it was: the orbit first, then the cuts, each
    through an emit closure; end_for looks up every arc end."""
    reference_require_valid(est, cx)
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

    def end_for(x: int) -> int:
        e = d.edge_of(x)
        return cut_by_edge[e] if e in tree else near_by_dart[x]

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
                        ends=(near_by_dart[d1], near_by_dart[d2]),
                        crossings=(), darts=(), edge=e))

    seq = BindingSequence(points=tuple(points), arcs=tuple(arcs),
                          tree=est, repaired=False)
    if len(seq.points) != 3 * d.n + 1 - len(est.faces):
        raise InternalError(
            f"expected {3 * d.n + 1 - len(est.faces)} cuts, "
            f"emitted {len(seq.points)}")
    return seq


def reference_verify_binding(seq, d):
    """verify_binding as it was: dicts per point and a method call per
    dart."""
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
    expected = 3 * d.n + 1 - len(seq.tree.faces)
    if not seq.repaired and len(seq.points) != expected:
        bad1.append(f"unrepaired sequence has {len(seq.points)} points, "
                    f"expected {expected}")

    ends_at: dict[int, list[Arc]] = {pid: [] for pid in by_id}
    for a in seq.arcs:
        for k, pid in enumerate(a.ends):
            if pid in ends_at:
                ends_at[pid].append(a)
            else:
                bad1.append(f"arc {a.id} end {k} at unknown point {pid}")
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
            if p.edge not in seq.tree.edges:
                bad1.append(f"edge cut {p.id} on non-tree edge {p.edge}")
            cut_edges[p.edge] = cut_edges.get(p.edge, 0) + 1
        elif p.kind == KIND_NEAR:
            if p.edge in seq.tree.edges:
                bad1.append(f"near-vertex cut {p.id} on tree edge {p.edge}")
            near_anchors.setdefault(p.edge, []).append(p.anchor_dart)
        else:
            bad1.append(f"point {p.id} has unknown kind {p.kind!r}")
    for e in sorted(seq.tree.edges):
        k = cut_edges.get(e, 0)
        if k > 1 or (k == 0 and not seq.repaired):
            bad1.append(f"tree edge {e} carries {k} cuts")
    for e in range(d.edge_count):
        if e in seq.tree.edges:
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
            if a.edge is None or a.edge in seq.tree.edges:
                bad1.append(f"outside arc {a.id} on edge {a.edge}")
            else:
                want = set(d.edge_darts[a.edge])
                for pid in a.ends:
                    p = by_id.get(pid)
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
                if crossing_of(x0) != c or rotate(rotate(x0)) != x1:
                    bad1.append(f"arc {a.id} passage {k} is not a strand "
                                f"of crossing {c}")
            for x in a.darts:
                if ("inside-" + d.strand_type(x)) != a.type:
                    bad3.append(f"arc {a.id} typed {a.type} passes "
                                f"dart {x} ({d.strand_type(x)})")
            for k, pid in enumerate(a.ends):
                edge_dart = a.darts[0] if k == 0 else a.darts[-1]
                p = by_id.get(pid)
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


def reference_to_presentation(seq):
    """to_presentation as it was: keyword records from a generator."""
    chords = tuple(Chord(a=arc.ends[0], b=arc.ends[1],
                         page=PAGE_BY_TYPE[arc.type],
                         crossings=arc.crossings, arc=arc.id)
                   for arc in seq.arcs)
    return ThreePagePresentation(points=tuple(p.id for p in seq.points),
                                 chords=chords, bound=len(seq.points))


def reference_verify_pages(pres):
    """verify_pages as it was, with the pairwise crossing test."""
    bad_deg: list[str] = []
    bad_pages: list[str] = []
    bad_planar: list[str] = []

    known = set(pres.points)
    if len(known) != len(pres.points):
        bad_deg.append("duplicate point ids")
    at_point: dict[int, list[Chord]] = {pid: [] for pid in known}
    for ch in pres.chords:
        if ch.page not in (1, 2, 3):
            bad_pages.append(f"arc {ch.arc} on unknown page {ch.page}")
        for pid in (ch.a, ch.b):
            if pid in at_point:
                at_point[pid].append(ch)
            else:
                bad_deg.append(f"arc {ch.arc} ends at unknown point {pid}")
    for pid in pres.points:
        here = at_point[pid]
        if len(here) != 2:
            bad_deg.append(f"point {pid} has {len(here)} arc ends")
        elif here[0].page == here[1].page:
            bad_pages.append(
                f"point {pid} joins two page-{here[0].page} arcs "
                f"({here[0].arc}, {here[1].arc})")

    placed = [ch for ch in pres.chords if ch.a in known and ch.b in known]
    for i, j in reference_same_page_crossings([pres.span(ch) for ch in placed],
                                              [ch.page for ch in placed]):
        c1, c2 = placed[i], placed[j]
        bad_planar.append(f"page-{c1.page} arcs {c1.arc} and {c2.arc} "
                          f"interleave")

    offenders = tuple(bad_deg + bad_pages + bad_planar)
    return PageReport(ok=not offenders,
                      degree_ok=not bad_deg,
                      pages_distinct_ok=not bad_pages,
                      planar_ok=not bad_planar,
                      offenders=offenders)


def reference_exact_max_faces(cx, budget=10_000_000):
    """exact_max_faces as it was: recursive, face_set_feasible per node."""
    adj = cx.dual_graph().adjacency
    order = sorted(range(cx.face_count), key=lambda f: (len(adj[f]), f))
    face_edges = [frozenset(cx.face_edges(f)) for f in range(cx.face_count)]

    best: list = [0, frozenset()]
    nodes = 0
    exhausted = False

    def descend(chosen: frozenset[int], used_edges: frozenset[int],
                candidates: list[int]) -> None:
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if len(chosen) > best[0]:
            best[0], best[1] = len(chosen), chosen
        if not candidates or len(chosen) + len(candidates) <= best[0]:
            return
        f, rest = candidates[0], candidates[1:]
        if not (face_edges[f] & used_edges) and \
                face_set_feasible(chosen | {f}, cx):
            keep = [g for g in rest if not (face_edges[g] & face_edges[f])]
            descend(chosen | {f}, used_edges | face_edges[f], keep)
            if exhausted:
                return
        descend(chosen, used_edges, rest)

    descend(frozenset(), frozenset(), order)
    return SearchResult(m=best[0], est=complete_to_est(best[1], cx),
                        exact=not exhausted, nodes=nodes)


def reference_articulation_points(verts, adj):
    """articulation_points as it was: neighbors sorted, cut set only."""
    disc, low, parent, out = {}, {}, {}, set()
    counter = 0
    root = min(verts)
    stack = []
    parent[root] = None
    disc[root] = low[root] = counter
    counter += 1
    stack.append((root, iter(sorted(u for u in adj[root] if u in verts))))
    root_children = 0
    while stack:
        v, it = stack[-1]
        advanced = False
        for u in it:
            if u not in disc:
                parent[u] = v
                disc[u] = low[u] = counter
                counter += 1
                if v == root:
                    root_children += 1
                stack.append(
                    (u, iter(sorted(w for w in adj[u] if w in verts))))
                advanced = True
                break
            elif u != parent[v]:
                low[v] = min(low[v], disc[u])
        if not advanced:
            stack.pop()
            p = parent[v]
            if p is not None:
                low[p] = min(low[p], low[v])
                if p != root and low[v] >= disc[p]:
                    out.add(p)
    if root_children > 1:
        out.add(root)
    return out


def reference_nsis_exact(graph, budget=10_000_000):
    """nsis_exact as it was: recursive, a connectivity pass and then a
    sorted articulation-point pass per include node."""
    if not graph.is_connected():
        raise tp.DiagramError("nsis search requires a connected graph")
    order = sorted(graph.vertices, key=lambda v: (-graph.degree(v), v))
    verts = set(graph.vertices)
    adj = graph.adjacency

    best: list = [0, frozenset()]
    state = {"nodes": 0, "exhausted": False}

    def descend(chosen: frozenset[int], candidates: list[int]) -> None:
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exhausted"] = True
            return
        if len(chosen) > best[0]:
            best[0], best[1] = len(chosen), chosen
        if not candidates or len(chosen) + len(candidates) <= best[0]:
            return
        v, rest = candidates[0], candidates[1:]
        with_v = chosen | {v}
        residual = verts - with_v
        if residual and reference_connected(residual, adj):
            cut = reference_articulation_points(residual, adj)
            keep = [u for u in rest if u not in adj[v] and u not in cut]
            descend(with_v, keep)
            if state["exhausted"]:
                return
        descend(chosen, rest)

    start_cut = (reference_articulation_points(verts, adj)
                 if len(verts) > 1 else set())
    descend(frozenset(), [v for v in order if v not in start_cut])
    return NsisResult(size=best[0], vertices=best[1],
                      exact=not state["exhausted"], nodes=state["nodes"])


def reference_nsis_greedy_leafy(graph, seed=0):
    """nsis_greedy_leafy as it was: sort and scan the tree per step."""
    if not graph.is_connected():
        raise tp.DiagramError("nsis search requires a connected graph")
    if graph.classes is None:
        raise tp.DiagramError("leafy heuristic needs bipartition classes")
    rng = random.Random(seed)
    adj = graph.adjacency
    verts = set(graph.vertices)

    root = max(verts, key=lambda v: (graph.degree(v), -v))
    in_tree = {root}
    tree_deg = {root: 0}
    while in_tree != verts:
        gain, pick = -1, None
        for v in sorted(in_tree):
            new = len(adj[v] - in_tree)
            if new > gain:
                gain, pick = new, v
        if gain <= 0:
            raise tp.DiagramError("graph is not connected")
        for u in sorted(adj[pick] - in_tree):
            in_tree.add(u)
            tree_deg[u] = 1
            tree_deg[pick] = tree_deg.get(pick, 0) + 1

    leaves = {v for v, k in tree_deg.items() if k == 1}
    side_a, side_b = graph.classes
    in_a, in_b = leaves & side_a, leaves & side_b
    candidates = sorted(in_a if len(in_a) >= len(in_b) else in_b)
    rng.shuffle(candidates)

    kept = set()
    for v in candidates:
        if adj[v] & kept:
            continue
        rest = verts - kept - {v}
        if rest and reference_connected(rest, adj):
            kept.add(v)
    return frozenset(kept)


def relabel(graph, label):
    """The same graph with vertex v renamed label[v]."""
    classes = None if graph.classes is None else tuple(
        frozenset(label[v] for v in side) for side in graph.classes)
    return tp.SimpleGraph(
        vertices=tuple(label[v] for v in graph.vertices),
        adjacency={label[v]: frozenset(label[u] for u in nbrs)
                   for v, nbrs in graph.adjacency.items()},
        classes=classes)


def reference_subcomplex_components(sub, cx):
    """Pieces of a closed subcomplex by a graph search over its edges."""
    adj = {v: set() for v in sub.vertices}
    for e in sub.edges:
        a, b = cx.diagram.edge_endpoints(e)
        adj[a].add(b)
        adj[b].add(a)
    pieces, seen = [], set()
    for root in sorted(sub.vertices):
        if root in seen:
            continue
        seen.add(root)
        piece, queue = {root}, [root]
        while queue:
            for w in adj[queue.pop()] - seen:
                seen.add(w)
                piece.add(w)
                queue.append(w)
        edges = {e for e in sub.edges
                 if cx.diagram.edge_endpoints(e)[0] in piece}
        faces = {f for f in sub.faces if cx.face_edges(f)[0] in edges}
        pieces.append(Subcomplex(vertices=frozenset(piece),
                                 edges=frozenset(edges),
                                 faces=frozenset(faces)))
    return pieces


def reference_complement_components(sub, cx):
    """Faces outside sub, joined across omitted edges, counted by search."""
    outside = set(range(cx.face_count)) - sub.faces
    adj = {f: set() for f in outside}
    for e in range(cx.diagram.edge_count):
        a, b = cx.edge_sides(e)
        if e not in sub.edges and a in outside and b in outside:
            adj[a].add(b)
            adj[b].add(a)
    count, seen = 0, set()
    for root in outside:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        queue = [root]
        while queue:
            for g in adj[queue.pop()] - seen:
                seen.add(g)
                queue.append(g)
    return count


def components(text):
    return tp.parse_pd(text).connected_components()


@st.composite
def closures(draw, max_n=20):
    """Connected braid closures: random signs, some crossings switched."""
    strands = draw(st.integers(2, 5))
    gens = list(range(1, strands))
    extra = draw(st.lists(st.integers(1, strands - 1),
                          max_size=max_n - len(gens)))
    word = draw(st.permutations(gens + extra))
    signs = draw(st.lists(st.booleans(), min_size=len(word),
                          max_size=len(word)))
    text = braid_closure_pd([g if s else -g for g, s in zip(word, signs)],
                            strands)
    for k in draw(st.sets(st.integers(0, len(word) - 1))):
        text = switch_crossing(text, k)
    return text


@st.composite
def split_closures(draw):
    """Braid closures with switched crossings, sometimes a split union."""
    text = draw(closures(max_n=14))
    if draw(st.booleans()):
        text = disjoint_union(text, draw(closures(max_n=8)))
    return text


@st.composite
def grid_diagrams(draw):
    """Random grid diagrams with 5 to 10 columns, crossings guaranteed."""
    k = draw(st.integers(5, 10))
    xs = draw(st.permutations(range(k)))
    os = draw(st.permutations(range(k)))
    for c in range(k):      # no X and O in one cell: swap with the next
        if os[c] == xs[c]:
            os[c], os[(c + 1) % k] = os[(c + 1) % k], os[c]
    text = grid_pd(xs, os)
    hypothesis.assume(text is not None)
    return text


def add_kink(text, label):
    """text with a kink on the edge labelled label: a new crossing
    X(label, loop, loop, tail), whose loop edge is a monogon, and the
    edge's second end relabelled tail."""
    rows = [list(row) for row in tp.parse_pd(text).crossings]
    top = max(lab for row in rows for lab in row)
    loop, tail = top + 1, top + 2
    i, j = [(i, j) for i, row in enumerate(rows)
            for j, lab in enumerate(row) if lab == label][1]
    rows[i][j] = tail
    rows.append([label, loop, loop, tail])
    return pd_text(rows)


@st.composite
def kinked_closures(draw):
    """Connected braid closures with up to three kinks added."""
    text = draw(closures(max_n=14))
    for _ in range(draw(st.integers(0, 3))):
        labels = sorted(set(re.findall(r"[0-9]+", text)), key=int)
        text = add_kink(text, int(draw(st.sampled_from(labels))))
    return text


FIXED = sorted(CORPUS_TEXTS.values()) + [
    KINK, HOPF, TWO_CLASPS, torus_pd(9),
    braid_closure_pd([1, 1, 2, 2, -1, 3, -2, 3], 4),
    braid_closure_pd([1, -2, 1, -2, 1], 3),
    braid_closure_pd([1, 2, 3, 1, 2, 3, 1, 2, 3], 4),
    switch_crossing(braid_closure_pd([1, -2, 1, -2, 1, -2], 3), 2),
    disjoint_union(KINK, torus_pd(5)),
    add_kink(add_kink(TREFOIL, 1), 1),
    GRID_GREEDY_GAP,
]
FIXED_DIAGRAMS = [d for text in FIXED for d in components(text)]


def check_greedy(d, seed):
    cx = tp.CellComplex(d)
    for order in ORDERS:
        est = tp.greedy_max_faces(cx, order=order, seed=seed)
        assert est.faces == reference_greedy(cx, order, seed), order


def check_witness(d):
    if d.n < 3 or not d.is_reduced():
        return
    cx = tp.CellComplex(d)
    assert tp.witness_pair(cx) == reference_witness(cx)


def check_spanning_trees(d, seeds):
    cx = tp.CellComplex(d)
    for strategy in ("bfs", "dfs", "random"):
        for seed in seeds:
            assert tp.spanning_tree(cx, strategy, seed) == \
                reference_spanning_tree(cx, strategy, seed), (strategy, seed)


def test_spanning_trees_match_reference_on_fixed_cases():
    assert any(d.loop_edges() for d in FIXED_DIAGRAMS)
    for d in FIXED_DIAGRAMS:
        check_spanning_trees(d, range(3))


@settings(max_examples=100, deadline=None)
@given(kinked_closures(), st.lists(st.integers(0, 2**16), min_size=1,
                                   max_size=3))
def test_spanning_trees_match_reference(text, seeds):
    for d in components(text):
        check_spanning_trees(d, seeds)


@pytest.mark.parametrize("k", range(len(FIXED_DIAGRAMS)))
def test_fixed_cases_match_references(k):
    d = FIXED_DIAGRAMS[k]
    assert d.is_reduced() == reference_is_reduced(d)
    check_greedy(d, seed=k)
    check_witness(d)


def non_alternating(est, d):
    """a(Y): the tree edges whose two darts have the same parity, so that
    both ends are under-passages or both over-passages."""
    return sum((x ^ y) & 1 == 0
               for x, y in map(d.edge_darts.__getitem__, est.edges))


def check_repair(d, rescan=True):
    """Merges made on the walks of the greedy tree and of the bfs, dfs and
    random spanning trees.

    Each raw walk meets its own contract, binding conditions 1-3, which
    certify leaves to its one verify_binding on the repaired circle, and
    its repair is a binding circle.  repair equals the one-pass copy,
    and the rescan reference unless rescan is off, field for field; it
    is idempotent, and it removes one point per non-alternating tree
    edge, a(Y).
    """
    cx = tp.CellComplex(d)
    trees = [tp.greedy_max_faces(cx)] + [
        tp.ExtendedSpanningTree(edges=tp.spanning_tree(cx, strategy=s),
                                faces=frozenset())
        for s in ("bfs", "dfs", "random")]
    merges = 0
    for est in trees:
        raw = tp.boundary_sequence(est, cx)
        report = tp.verify_binding(raw, d)
        assert report.c1_structure and report.c2_coverage and \
            report.c3_types, report.offenders
        fixed = tp.repair(raw, d)
        assert fixed == reference_one_pass_repair(raw, d), est
        if rescan:
            assert fixed == reference_repair(raw, d), est
        assert tp.repair(fixed, d) == reference_one_pass_repair(fixed, d) \
            == fixed, est
        assert tp.verify_binding(fixed, d).ok, est
        assert len(raw.points) - len(fixed.points) == \
            non_alternating(est, d), est
        merges += len(raw.points) - len(fixed.points)
    return merges


def test_repair_matches_rescan_on_fixed_cases():
    assert sum(check_repair(d) for d in FIXED_DIAGRAMS) > 0


@settings(max_examples=150, deadline=None)
@given(closures())
def test_repair_matches_rescan(text):
    for d in components(text):
        check_repair(d)


@pytest.mark.parametrize("n", [2, 3, 50, 1001, 2000])
def test_repair_matches_one_pass_on_long_chains(n):
    """Switched T(2, n): at least n - 1 merges on each of the four trees,
    one fewer for odd n.  Only the one-pass copy is compared; the rescan
    is too slow here."""
    assert check_repair(tp.parse_pd(switched_torus_pd(n)), rescan=False) \
        >= 4 * (n - 1 - n % 2)


@settings(max_examples=100, deadline=None)
@given(split_closures())
def test_certified_bound_is_at_most_3n_minus_1(text):
    """The paper's bound alpha_3 <= 3c - 1, on every reduced component
    with at least three crossings."""
    for d in components(text):
        if d.n >= 3 and d.is_reduced():
            cert = tp.certify(d)
            assert cert.verified and len(cert.final.points) <= 3 * d.n - 1


@settings(max_examples=60, deadline=None)
@given(closures(), st.integers(0, 2**16))
def test_greedy_matches_reference(text, seed):
    for d in components(text):
        check_greedy(d, seed)


@settings(max_examples=60, deadline=None)
@given(closures())
def test_witness_matches_reference(text):
    for d in components(text):
        check_witness(d)


@settings(max_examples=150, deadline=None)
@given(closures(max_n=12))
def test_is_reduced_matches_cut_vertex_definition(text):
    for d in components(text):
        assert d.is_reduced() == reference_is_reduced(d)


def completion(faces, cx, complete):
    try:
        est = complete(faces, cx)
    except tp.DiagramError as exc:
        return str(exc)
    return est.edges, est.faces


def check_completion(d, rng, draws=30):
    """complete_to_est equals its reference on random face subsets: the
    same error, or the same edges and faces.  Returns how many subsets
    were feasible."""
    cx = tp.CellComplex(d)
    feasible = 0
    for _ in range(draws):
        k = rng.randint(0, min(cx.face_count, 5))
        faces = rng.sample(range(cx.face_count), k)
        got = completion(faces, cx, complete_to_est)
        assert got == completion(faces, cx, reference_complete_to_est), faces
        feasible += not isinstance(got, str)
    return feasible


def test_completion_matches_reference_on_fixed_cases():
    rng = random.Random(8)
    draws = len(FIXED_DIAGRAMS) * 30
    feasible = sum(check_completion(d, rng) for d in FIXED_DIAGRAMS)
    assert 0 < feasible < draws


@settings(max_examples=100, deadline=None)
@given(closures(), st.randoms(use_true_random=False))
def test_completion_matches_reference(text, rng):
    for d in components(text):
        check_completion(d, rng)


BUDGETS = (1, 3, 40, 250, 10_000_000)


def check_searches(d):
    """Both exact searches equal their references at every budget."""
    cx = tp.CellComplex(d)
    graph = tp.SimpleGraph.from_dual(cx.dual_graph())
    for budget in BUDGETS:
        got = tp.exact_max_faces(cx, budget=budget)
        want = reference_exact_max_faces(cx, budget=budget)
        assert got == want, budget    # m, est edges and faces, exact, nodes
        got = tp.nsis_exact(graph, budget=budget)
        assert got == reference_nsis_exact(graph, budget=budget), budget


def test_searches_match_references_on_fixed_cases():
    for d in FIXED_DIAGRAMS:
        check_searches(d)


@settings(max_examples=60, deadline=None)
@given(closures(max_n=16))
def test_searches_match_references(text):
    for d in components(text):
        check_searches(d)


@settings(max_examples=60, deadline=None)
@given(grid_diagrams())
def test_searches_match_references_on_grids(text):
    for d in components(text):
        check_searches(d)


@st.composite
def connected_graphs(draw, max_size=14):
    """Connected SimpleGraphs without classes: a random spanning tree,
    each vertex hung from an earlier one (from vertex 0 alone for a star),
    so paths and pendant vertices occur, plus random extra edges, with
    the ids shuffled through relabel."""
    size = draw(st.integers(1, max_size))
    star = draw(st.booleans())
    edges = {(0 if star else draw(st.integers(0, v - 1)), v)
             for v in range(1, size)}
    if size > 1:
        edges |= draw(st.sets(st.sampled_from(
            list(itertools.combinations(range(size), 2))), max_size=2 * size))
    adj = {v: set() for v in range(size)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    graph = tp.SimpleGraph(vertices=tuple(range(size)),
                           adjacency={v: frozenset(adj[v]) for v in adj})
    ids = draw(st.lists(st.integers(0, 5 * max_size), min_size=size,
                        max_size=size, unique=True))
    return relabel(graph, dict(enumerate(ids)))


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_nsis_matches_reference_on_arbitrary_graphs(graph):
    """The search's invariant (every candidate a non-cut vertex of the
    residual, next to no chosen one) holds on any connected graph, not
    only on planar duals."""
    for budget in (1, 2, 3, 7, 40, 10_000_000):
        got = tp.nsis_exact(graph, budget=budget)
        assert got == reference_nsis_exact(graph, budget=budget), budget


RELABEL_BUDGETS = (3, 40, 250)


def check_relabelled_nsis(d, rng):
    """nsis_exact on non-contiguous ids: an order-keeping relabelling maps
    back to the result on the dual itself, and a shuffled one equals the
    reference on the relabelled graph, nodes included."""
    graph = tp.SimpleGraph.from_dual(tp.CellComplex(d).dual_graph())
    spread = relabel(graph, {f: 10 * f + 3 for f in graph.vertices})
    ids = rng.sample(range(5 * len(graph.vertices)), len(graph.vertices))
    shuffled = relabel(graph, dict(zip(graph.vertices, ids)))
    for budget in RELABEL_BUDGETS:
        got = tp.nsis_exact(spread, budget=budget)
        assert got == reference_nsis_exact(spread, budget=budget), budget
        back = frozenset((v - 3) // 10 for v in got.vertices)
        assert NsisResult(size=got.size, vertices=back, exact=got.exact,
                          nodes=got.nodes) == \
            reference_nsis_exact(graph, budget=budget), budget
        got = tp.nsis_exact(shuffled, budget=budget)
        assert got == reference_nsis_exact(shuffled, budget=budget), budget


def test_relabelled_nsis_matches_reference_on_fixed_cases():
    rng = random.Random(11)
    for d in FIXED_DIAGRAMS:
        check_relabelled_nsis(d, rng)


@settings(max_examples=60, deadline=None)
@given(closures(max_n=16), st.randoms(use_true_random=False))
def test_relabelled_nsis_matches_reference(text, rng):
    for d in components(text):
        check_relabelled_nsis(d, rng)


def check_leafy(d, seeds, rng):
    graph = tp.SimpleGraph.from_dual(tp.CellComplex(d).dual_graph())
    ids = rng.sample(range(5 * len(graph.vertices)), len(graph.vertices))
    shuffled = relabel(graph, dict(zip(graph.vertices, ids)))
    for seed in seeds:
        for g in (graph, shuffled):
            assert tp.nsis_greedy_leafy(g, seed=seed) == \
                reference_nsis_greedy_leafy(g, seed=seed), seed


def test_leafy_matches_reference_on_fixed_cases():
    rng = random.Random(5)
    for d in FIXED_DIAGRAMS:
        check_leafy(d, range(4), rng)


@settings(max_examples=100, deadline=None)
@given(st.one_of(closures(), grid_diagrams()),
       st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_leafy_matches_reference(text, seeds, rng):
    for d in components(text):
        check_leafy(d, seeds, rng)


@settings(max_examples=150, deadline=None)
@given(closures(max_n=12), st.data())
def test_articulation_points_match_reference(text, data):
    """cut_vertices on SimpleGraph's index form, is_connected and is_nsis,
    on connected and disconnected induced subgraphs of the dual, its
    vertices renamed in shuffled order."""
    dual = tp.SimpleGraph.from_dual(
        tp.CellComplex(components(text)[0]).dual_graph())
    ids = data.draw(st.permutations(range(len(dual.vertices))))
    graph = relabel(dual, {v: 3 * ids[v] + 1 for v in dual.vertices})
    adj = graph.adjacency
    verts = data.draw(st.sets(st.sampled_from(sorted(adj)), min_size=1))
    alive = bytearray(len(adj))
    for v in verts:
        alive[graph._index[v]] = 1
    root = graph._index[min(verts)]
    cut, reached = cut_vertices(graph._nbrs, alive, root)
    assert (reached == len(verts)) == reference_connected(verts, adj)
    if reached == len(verts):
        assert {graph._ids[i] for i in cut} == \
            reference_articulation_points(verts, adj)
    assert graph.is_connected() == reference_connected(set(adj), adj)
    rest = set(adj) - verts
    independent = all(not adj[v] & verts for v in verts)
    assert tp.is_nsis(graph, verts) == \
        (independent and reference_connected(rest, adj))


@settings(max_examples=150, deadline=None)
@given(st.one_of(grid_diagrams(), kinked_closures()), st.data())
def test_articulation_points_on_multigraph_lists(text, data):
    """cut_vertices on the crossing graph's lists as is_reduced builds
    them, where parallel edges repeat a neighbor and a loop lists its own
    crossing, over random live subsets from random live roots: the reach
    is the root's component, and its cut set is that component's."""
    d = components(text)[0]
    far = [y >> 2 for y in d._opposite]
    nbrs = [far[x:x + 4] for x in range(0, len(far), 4)]
    adj = dict(enumerate(nbrs))
    live = data.draw(st.sets(st.sampled_from(range(d.n)), min_size=1))
    root = data.draw(st.sampled_from(sorted(live)))
    alive = bytearray(d.n)
    for v in live:
        alive[v] = 1
    cut, reached = cut_vertices(nbrs, alive, root)
    comp, frontier = {root}, [root]
    while frontier:
        for u in nbrs[frontier.pop()]:
            if u in live and u not in comp:
                comp.add(u)
                frontier.append(u)
    assert reached == len(comp)
    assert (reached == len(live)) == reference_connected(live, adj)
    assert cut == reference_articulation_points(comp, adj)


def test_connectivity_of_empty_and_split_graphs():
    empty = tp.SimpleGraph(vertices=(), adjacency={}, classes=None)
    assert not empty.is_connected() and not reference_connected(set(), {})
    split = tp.SimpleGraph(
        vertices=(0, 1, 2, 3),
        adjacency={0: frozenset({1}), 1: frozenset({0}),
                   2: frozenset({3}), 3: frozenset({2})},
        classes=(frozenset({0, 2}), frozenset({1, 3})))
    assert not split.is_connected()
    assert not tp.is_nsis(split, {0}) and not tp.is_nsis(split, {0, 1, 2, 3})
    for graph in (empty, split):
        for search in (tp.nsis_exact, tp.nsis_greedy_leafy):
            with pytest.raises(tp.DiagramError,
                               match="^nsis search requires a connected"):
                search(graph)


def check_component_sets(text):
    d = tp.parse_pd(text)
    assert d._component_sets == reference_component_sets(d)
    assert d.is_connected() == (len(reference_component_sets(d)) <= 1)


@pytest.mark.parametrize("text", FIXED + [
    disjoint_union(HOPF, KINK), disjoint_union(TWO_CLASPS, torus_pd(3)),
    disjoint_union(disjoint_union(KINK, HOPF), KINK), "PD[]"])
def test_component_sets_match_search_on_fixed_cases(text):
    check_component_sets(text)


@settings(max_examples=150, deadline=None)
@given(split_closures())
def test_component_sets_match_search(text):
    check_component_sets(text)


def tree_check(est, cx, check):
    try:
        check(est, cx)
    except tp.DiagramError as exc:
        return str(exc)
    return None


def random_candidate(cx, rng):
    """An extended spanning tree, or a near miss: the completion of random
    faces (or their bare boundary) with edges and faces added or dropped,
    now and then an unknown id."""
    d = cx.diagram
    faces = set(rng.sample(range(cx.face_count),
                           rng.randint(0, min(cx.face_count, 4))))
    try:
        edges = set(complete_to_est(faces, cx).edges)
    except tp.DiagramError:
        edges = set().union(*map(cx.face_edges, faces))
    for _ in range(rng.choice((0, 0, 1, 2))):
        kind = rng.random()
        if kind < 0.4 and edges:
            edges.discard(rng.choice(sorted(edges)))
        elif kind < 0.8:
            edges.add(rng.randrange(d.edge_count))
        else:
            faces ^= {rng.randrange(cx.face_count)}
    if rng.random() < 0.03:
        edges.add(d.edge_count)
    if rng.random() < 0.03:
        faces.add(cx.face_count)
    return ExtendedSpanningTree(edges=frozenset(edges), faces=frozenset(faces))


def check_require_valid(d, rng, draws=30):
    """_require_valid raises the reference's DiagramError text, or nothing,
    on random candidates; returns the texts seen (None for valid)."""
    cx = tp.CellComplex(d)
    seen = []
    for _ in range(draws):
        est = random_candidate(cx, rng)
        got = tree_check(est, cx, binding._require_valid)
        assert got == tree_check(est, cx, reference_require_valid), est
        seen.append(got)
    return seen


def test_require_valid_matches_reference_on_fixed_cases():
    rng = random.Random(9)
    seen = {text for d in FIXED_DIAGRAMS for text in check_require_valid(d, rng)}
    assert None in seen
    assert "extended spanning tree is not contractible" in seen
    assert "face boundary leaves the tree edge set" in seen
    assert "face set is not feasible" in seen


@settings(max_examples=150, deadline=None)
@given(split_closures(), st.randoms(use_true_random=False))
def test_require_valid_matches_reference(text, rng):
    for d in components(text):
        check_require_valid(d, rng)


def forest_state(forest):
    return list(forest.parent), list(forest.size), set(forest.used)


@settings(max_examples=150, deadline=None)
@given(closures(max_n=16), st.data())
def test_forest_undo_restores_state(text, data):
    """Any mix of add_face and undo: each undo gives back the exact state
    from before its face, a refused face changes nothing, and add_face
    agrees with face_set_feasible."""
    cx = tp.CellComplex(components(text)[0])
    forest = _Forest(cx.n)
    steps = data.draw(st.lists(
        st.one_of(st.none(), st.integers(0, cx.face_count - 1)), max_size=40))
    saved, chosen = [], []
    for f in steps:
        before = forest_state(forest)
        if f is None:
            if saved:
                forest.undo()
                chosen.pop()
                assert forest_state(forest) == saved.pop()
            continue
        want = f not in chosen and face_set_feasible({*chosen, f}, cx)
        assert forest.add_face(f, cx) == want
        if want:
            saved.append(before)
            chosen.append(f)
        else:
            assert forest_state(forest) == before
    while saved:
        forest.undo()
        assert forest_state(forest) == saved.pop()
    assert forest_state(forest) == (list(range(cx.n)), [1] * cx.n, set())


@settings(max_examples=150, deadline=None)
@given(closures(max_n=16), st.data())
def test_component_counts_match_search(text, data):
    """On random closed subcomplexes: the union-find pieces and complement
    count equal a graph search."""
    cx = tp.CellComplex(components(text)[0])
    d = cx.diagram
    faces = data.draw(st.sets(st.integers(0, cx.face_count - 1)))
    edges = data.draw(st.sets(st.integers(0, d.edge_count - 1)))
    edges |= {e for f in faces for e in cx.face_edges(f)}
    verts = data.draw(st.sets(st.integers(0, cx.n - 1)))
    verts |= {v for e in edges for v in d.edge_endpoints(e)}
    sub = Subcomplex(vertices=frozenset(verts), edges=frozenset(edges),
                     faces=frozenset(faces))
    assert subcomplex_components(sub, cx) == \
        reference_subcomplex_components(sub, cx)
    assert complement_components(sub, cx) == \
        reference_complement_components(sub, cx)


@pytest.mark.parametrize("text, reduced", [
    (KINK, False),                                    # n = 1, loop edges
    (braid_closure_pd([1, 2], 3), False),             # n = 2, loop edges
    (HOPF, True),                                     # n = 2, no loops
    (braid_closure_pd([1, 1], 2), True),
    (braid_closure_pd([1, 1, 2], 3), False),          # n = 3, one kink
    (braid_closure_pd([1, 1, 2, 3, 3], 4), False),    # cut crossing, no loop
    (TWO_CLASPS, True),                               # composite, 2-connected
])
def test_is_reduced_small_cases(text, reduced):
    d = tp.parse_pd(text)
    assert d.is_reduced() is reduced
    assert reference_is_reduced(d) is reduced


spans_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        lambda t: (min(t), max(t))), max_size=30)


@settings(max_examples=300, deadline=None)
@given(spans_strategy)
def test_crossing_pairs_matches_pairwise(spans):
    assert crossing_pairs(spans) == reference_crossing_pairs(spans)


def test_crossing_pairs_shared_endpoints():
    spans = [(0, 2), (1, 3), (2, 3), (0, 3), (1, 1), (0, 2), (1, 2), (2, 4)]
    assert crossing_pairs(spans) == reference_crossing_pairs(spans)
    assert crossing_pairs([(0, 2), (0, 2)]) == []
    assert crossing_pairs([(1, 3), (0, 2)]) == [(0, 1)]
    rng = random.Random(3)
    for _ in range(50):
        spans = [tuple(sorted((rng.randrange(40), rng.randrange(40))))
                 for _ in range(60)]
        assert crossing_pairs(spans) == reference_crossing_pairs(spans)


def counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_default_path_makes_no_quadratic_calls(monkeypatch):
    cx = tp.CellComplex(tp.parse_pd(torus_pd(41)))
    feasible = counting(monkeypatch, spanning, "face_set_feasible")
    est = tp.greedy_max_faces(cx)
    tp.witness_pair(cx)
    assert feasible == []

    crossed = counting(monkeypatch, presentation, "chords_cross")
    seq = tp.boundary_sequence(est, cx)
    pres = tp.to_presentation(tp.repair(seq, cx.diagram))
    assert tp.verify_pages(pres).ok
    assert crossed == []


def test_witness_pair_builds_one_forest(monkeypatch):
    """A failed face pair is undone on the same forest, not rebuilt."""
    built = counting(monkeypatch, spanning, "_Forest")
    calls = 0
    for d in FIXED_DIAGRAMS:
        if d.n >= 3 and d.is_reduced():
            # None when no pair is found: every pair was tried and undone
            tp.witness_pair(tp.CellComplex(d))
            calls += 1
    assert calls > 0 and len(built) == calls


def test_greedy_builds_one_forest(monkeypatch):
    """The forest greedy searched with is the one its tree is bridged on,
    and the tree is the one complete_to_est builds from its faces."""
    built = counting(monkeypatch, spanning, "_Forest")
    for d in FIXED_DIAGRAMS:
        cx = tp.CellComplex(d)
        for order in ORDERS:
            built.clear()
            est = tp.greedy_max_faces(cx, order=order)
            assert len(built) == 1, order
            assert est == tp.complete_to_est(est.faces, cx), order


def test_exact_searches_make_one_pass_per_node(monkeypatch):
    """No feasibility rebuild and no separate connectivity pass: the NSIS
    search's root cut-vertex pass is its connectivity check."""
    from threepage import nsis
    cx = tp.CellComplex(tp.parse_pd(braid_closure_pd([1, -2] * 6, 3)))
    feasible = counting(monkeypatch, spanning, "face_set_feasible")
    res = tp.exact_max_faces(cx)
    assert res.exact and res.nodes > 100
    assert feasible == []        # complete_to_est runs add_face
    graph = tp.SimpleGraph.from_dual(cx.dual_graph())
    assert not hasattr(nsis, "_connected")
    connected = counting(monkeypatch, nsis.SimpleGraph, "is_connected")
    passes = counting(monkeypatch, nsis, "cut_vertices")
    res = tp.nsis_exact(graph)
    assert res.exact and res.nodes > 100
    assert connected == []       # no is_connected() up front
    assert len(passes) < res.nodes
    # the start pass, one pass for each of the 59 expanded children and
    # the final is_nsis check; a child the bound prunes unread runs none
    assert res.nodes == 215 and len(passes) == 61


def test_nsis_exact_checks_its_result(monkeypatch):
    """The final is_nsis check stands in for the reach checks that pruned
    children skip: a result it refuses is an InternalError."""
    from threepage import nsis
    graph = tp.CellComplex(tp.parse_pd(TREFOIL)).dual_graph()
    assert tp.nsis_exact(graph).size > 0
    monkeypatch.setattr(nsis, "is_nsis", lambda graph, subset: False)
    with pytest.raises(tp.InternalError, match="not an NSIS"):
        tp.nsis_exact(graph)


def outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def sequence_mutants(seq, d, rng):
    """seq with one fault each: a dropped point, a duplicated id, swapped
    arc ends, a retyped arc, an anchor off its edge or out of range, a
    dart out of range, an end at another or an unknown point, an arc's
    edge moved or out of range, an unknown kind or type, the repaired flag
    flipped."""
    pts, arcs = list(seq.points), list(seq.arcs)
    k, j = rng.randrange(len(pts)), rng.randrange(len(pts))
    a = rng.randrange(len(arcs))
    p, arc = pts[k], arcs[a]

    def with_point(q):
        return dataclasses.replace(seq, points=tuple(pts[:k] + [q] + pts[k + 1:]))

    def with_arc(b):
        return dataclasses.replace(seq, arcs=tuple(arcs[:a] + [b] + arcs[a + 1:]))

    retype = {OUTSIDE: INSIDE_UNDER, INSIDE_UNDER: INSIDE_OVER,
              INSIDE_OVER: OUTSIDE}
    far = rng.choice((pts[j].id, max(q.id for q in pts) + 1))
    out = [
        dataclasses.replace(seq, points=tuple(pts[:k] + pts[k + 1:])),
        with_point(dataclasses.replace(p, id=pts[j].id)),
        with_arc(dataclasses.replace(arc, ends=arc.ends[::-1])),
        with_arc(dataclasses.replace(arc, type=retype[arc.type])),
        with_point(dataclasses.replace(p, anchor_dart=rng.choice(
            (-1, 4 * d.n, pts[j].anchor_dart)))),
        with_arc(dataclasses.replace(arc, ends=(far, arc.ends[1]))),
        with_arc(dataclasses.replace(arc, edge=rng.choice(
            (None, 0, rng.randrange(d.edge_count), -1, d.edge_count)))),
        with_point(dataclasses.replace(p, kind="sideways")),
        with_arc(dataclasses.replace(arc, type="sideways")),
        dataclasses.replace(seq, repaired=not seq.repaired),
    ]
    if arc.darts:
        darts = list(arc.darts)
        darts[rng.randrange(len(darts))] = rng.choice((-3, 4 * d.n + 1))
        out.append(with_arc(dataclasses.replace(arc, darts=tuple(darts))))
    return out


def presentation_mutants(pres, rng):
    """pres with one fault each: a swapped or unknown page, a moved chord
    end, a chord from a point to itself, an end at an unknown point, a
    dropped or duplicated point, and the points reordered, which makes
    same-page chords interleave."""
    chords, pts = list(pres.chords), list(pres.points)
    c, k = rng.randrange(len(chords)), rng.randrange(len(pts))
    ch = chords[c]

    def with_chord(x):
        return dataclasses.replace(
            pres, chords=tuple(chords[:c] + [x] + chords[c + 1:]))

    return [
        with_chord(dataclasses.replace(ch, page={1: 2, 2: 3, 3: 1}[ch.page])),
        with_chord(dataclasses.replace(ch, page=7)),
        with_chord(dataclasses.replace(ch, a=rng.choice(pts))),
        with_chord(dataclasses.replace(ch, a=ch.b)),
        with_chord(dataclasses.replace(ch, b=max(pts) + 1)),
        dataclasses.replace(pres, points=tuple(pts[:k] + pts[k + 1:])),
        dataclasses.replace(pres, points=tuple(
            pts[:k] + [pts[(k + 1) % len(pts)]] + pts[k + 1:])),
        dataclasses.replace(pres, points=tuple(rng.sample(pts, len(pts)))),
    ]


def out_of_range(seq, d):
    """Whether an arc of seq passes a dart, or an outside arc lies on an
    edge, that the diagram does not have."""
    return any(not 0 <= x < 4 * d.n for a in seq.arcs for x in a.darts) or \
        any(a.type == OUTSIDE and a.edge is not None and
            not 0 <= a.edge < d.edge_count for a in seq.arcs)


def check_binding_layer(d, rng):
    """The walk on the greedy, bfs, dfs and random trees, to_presentation
    of the walk and of its repair, and both verifiers on these and on
    their mutants equal their references, offender order included.

    The one exception: where the reference verify_binding raises, or
    indexes with an out-of-range dart or edge, verify_binding returns a
    failed report with a structure offender instead."""
    cx = tp.CellComplex(d)
    trees = [tp.greedy_max_faces(cx)] + [
        ExtendedSpanningTree(
            edges=tp.spanning_tree(cx, strategy=s, seed=rng.randrange(99)),
            faces=frozenset())
        for s in ("bfs", "dfs", "random")]
    for est in trees:
        raw = tp.boundary_sequence(est, cx)
        assert raw == reference_boundary_sequence(est, cx), est
        for seq in (raw, tp.repair(raw, d)):
            for mutant in [seq] + sequence_mutants(seq, d, rng):
                got = tp.verify_binding(mutant, d)
                want = outcome(reference_verify_binding, mutant, d)
                if isinstance(want, type) or out_of_range(mutant, d):
                    assert not got.ok and any(
                        o.startswith("structure: ") for o in got.offenders), \
                        mutant
                else:
                    assert got == want, mutant
            pres = tp.to_presentation(seq)
            assert pres == reference_to_presentation(seq)
            for mutant in [pres] + presentation_mutants(pres, rng):
                assert tp.verify_pages(mutant) == \
                    reference_verify_pages(mutant), mutant


def check_front_end(d):
    """The diagram's edge arrays and its complex's faces equal their
    references."""
    assert (d.edge_labels, d.edge_darts, d._edge_of_dart, d._edge_ends,
            d._opposite) == reference_edge_arrays(d.crossings)
    cx = tp.CellComplex(d)
    assert (cx.faces, cx._face_of_dart, cx._face_edges) == \
        reference_face_trace(d)


def test_binding_layer_matches_references_on_fixed_cases():
    rng = random.Random(12)
    for d in FIXED_DIAGRAMS:
        check_front_end(d)
        check_binding_layer(d, rng)


@settings(max_examples=100, deadline=None)
@given(split_closures(), st.randoms(use_true_random=False))
def test_binding_layer_matches_references(text, rng):
    for d in components(text):
        check_front_end(d)
        check_binding_layer(d, rng)


def parsed(parse, text):
    try:
        return parse(text).crossings
    except PDSyntaxError as exc:
        return str(exc)


def edge_arrays(rows):
    try:
        d = tp.PlaneDiagram(rows)
    except PDSyntaxError as exc:
        return str(exc)
    return d.edge_labels, d.edge_darts, d._edge_of_dart, d._edge_ends, \
        d._opposite


LABEL_EDITS = ("0", "00", "007", "١", "-1", "1.5", "", "a", " 3 ",
               " 3\x1c", "12345678901234567890")
INSERTS = (" ", ",", "\n", "\t", "foo", "X(1,1,2,2)", "X[2,3,3,2]", ")",
           "]", "X", "(", "PD[", ", ,")


@st.composite
def pd_texts(draw):
    """Braid closure PD codes, some with labels, brackets or separators
    edited, so that every parse_pd error shows up."""
    text = draw(split_closures())
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 3))):
        kind = rng.randrange(4)
        if kind == 0:
            m = rng.choice(list(re.finditer(r"[0-9]+", text)))
            text = text[:m.start()] + rng.choice(LABEL_EDITS) + text[m.end():]
        elif kind == 1:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(INSERTS) + text[k:]
        elif kind == 2:
            k = rng.randrange(len(text))
            text = text[:k] + text[k + 1:]
        else:
            text = text.replace("(", "[", 1).replace(")", "]", 1)
    return text


def test_parse_matches_reference_on_fixed_cases():
    texts = FIXED + ["PD[]", "PD[ ]", " PD[X(1,1,2,2)] ", "PD[X(1,2,3,4)]",
                     "PD[X(0,0,1,1)]", "PD[X(١,١,2,2)]",
                     "PD[X(1,1,2,2),]", "PD[,X(1,1,2,2)]", "PD[X(1,1,2,2)",
                     "PD[X(1,1,2)]", "PD[X(1,1,2,2,3,3)]", "PD[X(1, 1, 2, 2]]",
                     "PD[X(01,1,\x1c2,2 )]", "PD[X(1,1,2,2) junk]",
                     "PD[X(1,1,2,2)\nX(3,3,4,4)]", "X(1,1,2,2)", "",
                     "PD[X(1,2,3,4]", "PD[Y(1,3,2,4), X(3,1,4,2)]",
                     "PD[" + "X(" * 50_000 + "]X(]"]
    for text in texts:
        assert parsed(tp.parse_pd, text) == parsed(reference_parse_pd, text)


@settings(max_examples=300, deadline=None)
@given(pd_texts())
def test_parse_matches_reference(text):
    assert parsed(tp.parse_pd, text) == parsed(reference_parse_pd, text)


@settings(max_examples=150, deadline=None)
@given(closures(max_n=10), st.randoms(use_true_random=False))
def test_edge_arrays_match_reference(text, rng):
    """On valid rows and on rows with relabelled ends, which leave labels
    once, three times or in new orders."""
    rows = [list(row) for row in tp.parse_pd(text).crossings]
    top = max(map(max, rows))
    for _ in range(rng.randrange(3)):
        row = rng.choice(rows)
        row[rng.randrange(4)] = rng.randint(1, top + 1)
    try:
        want = reference_edge_arrays(rows)
    except PDSyntaxError as exc:
        want = str(exc)
    assert edge_arrays(rows) == want


def test_records_are_frozen_and_replaceable():
    cx = tp.CellComplex(tp.parse_pd(TREFOIL))
    seq = tp.boundary_sequence(tp.greedy_max_faces(cx), cx)
    pres = tp.to_presentation(seq)
    for record, field in ((seq.points[0], "edge"), (seq.arcs[0], "type"),
                          (pres.chords[0], "page")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 7)
        changed = dataclasses.replace(record, **{field: 7})
        assert getattr(changed, field) == 7 and changed != record
        assert dataclasses.replace(record) == record
        assert not hasattr(record, "__dict__")    # slotted
    ids = {p.id for p in seq.points}
    for a in seq.arcs:    # an arc's ends are the ids of two binding points
        assert type(a.ends) is tuple and len(a.ends) == 2
        assert all(type(pid) is int and pid in ids for pid in a.ends)
