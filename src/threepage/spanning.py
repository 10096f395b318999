"""Spanning trees and their extensions by pairwise edge-disjoint faces.

An extended spanning tree is a closed subcomplex that contains every
crossing, is connected and contractible, and whose 2-cells are pairwise
edge-disjoint.  Its edge count is forced: crossings - 1 + number of
faces.  Each included face removes one binding point from the circle
built later, so the searches below maximize the face count.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .cells import (CellComplex, Subcomplex, euler_characteristic,
                    subcomplex_components)
from .diagram import _Forest, _include_first_search
from .errors import DiagramError, InternalError


@dataclass(frozen=True)
class ExtendedSpanningTree:
    edges: frozenset[int]
    faces: frozenset[int]


@dataclass(frozen=True)
class SearchResult:
    m: int
    est: ExtendedSpanningTree
    exact: bool
    nodes: int


@dataclass(frozen=True)
class Witness:
    """Two tree edges at a shared crossing and a feasible face pair."""
    edge_a: int
    edge_b: int
    face_a: int
    face_b: int


def spanning_tree(cx: CellComplex, strategy: str = "bfs",
                  seed: int = 0) -> frozenset[int]:
    """Edge set of a spanning tree of the 1-skeleton.

    Deterministic for a given (strategy, seed).  bfs and dfs explore
    edges in id order from crossing 0 (a loop edge twice, harmlessly);
    random shuffles the edge order and runs a union-find sweep.
    """
    d = cx.diagram
    if strategy == "random":
        order = list(range(d.edge_count))
        random.Random(seed).shuffle(order)
        forest = _Forest(d.n)
        return frozenset(e for e in order
                         if forest.union(*d.edge_endpoints(e)))

    if strategy not in ("bfs", "dfs"):
        raise DiagramError(f"unknown spanning tree strategy: {strategy}")
    seen = [False] * d.n
    seen[0] = True
    chosen = []
    frontier = [0]
    while frontier:
        v = frontier.pop(0 if strategy == "bfs" else -1)
        for e in sorted(d._edge_of_dart[4 * v:4 * v + 4]):
            a, b = d.edge_endpoints(e)
            w = b if a == v else a
            if not seen[w]:
                seen[w] = True
                chosen.append(e)
                frontier.append(w)
    if len(chosen) != d.n - 1:
        raise InternalError("spanning tree construction missed vertices")
    return frozenset(chosen)


def _face_set_edges(faces, cx: CellComplex) -> frozenset[int] | None:
    """The edges of these distinct faces, or None if two share an edge.

    A face lists each of its edges once, so the faces are pairwise
    edge-disjoint exactly when the union is as long as the lists.
    """
    lists = [cx.face_edges(f) for f in faces]
    edges = frozenset().union(*lists)
    return edges if len(edges) == sum(map(len, lists)) else None


def face_set_feasible(faces, cx: CellComplex) -> bool:
    """Whether some extended spanning tree has exactly this face set.

    True iff _face_set_edges finds the faces pairwise edge-disjoint and
    every connected component of (all vertices, those edges, the faces)
    has Euler characteristic 1.  Components with a cycle can never be
    completed: bridging edges only merge components, they cannot kill
    homology.  The subcomplex-enumeration oracle, which reads the same
    edge rule, validates this criterion.  No search calls this function:
    it rebuilds every component in O(n), and it is the test oracle for
    add_face, which the searches and walk use.
    """
    faces = frozenset(faces)
    edges = _face_set_edges(faces, cx)
    if edges is None:
        return False
    closed = Subcomplex(vertices=frozenset(range(cx.n)), edges=edges,
                        faces=faces)
    return all(euler_characteristic(comp, cx) == 1
               for comp in subcomplex_components(closed, cx))


def _face_forest(faces, cx: CellComplex) -> _Forest:
    """A fresh _Forest with these faces put in by add_face, whose test
    is hereditary; DiagramError if it refuses one, in any order."""
    forest = _Forest(cx.n)
    if not all(forest.add_face(f, cx) for f in faces):
        raise DiagramError("face set is not feasible")
    return forest


def complete_to_est(faces, cx: CellComplex) -> ExtendedSpanningTree:
    """Bridge a face set's closure into one tree-like Y, or reject the set."""
    faces = frozenset(faces)
    return _bridge(_face_forest(faces, cx), faces, cx)


def _bridge(forest: _Forest, faces, cx: CellComplex) -> ExtendedSpanningTree:
    """Y from a forest that holds exactly these faces: their edges plus,
    in edge id order, each spare edge that joins two of its components.
    add_face merged each face's boundary crossings, as joining its edges
    would, so the bridges depend on the faces alone."""
    d = cx.diagram
    spare = [e for e in range(d.edge_count) if e not in forest.used]
    bridges = forest.join(map(d.edge_endpoints, spare))
    return ExtendedSpanningTree(
        edges=frozenset(forest.used).union([spare[k] for k in bridges]),
        faces=frozenset(faces))


def _face_order(cx: CellComplex, order: str, seed: int) -> list[int]:
    faces = list(range(cx.face_count))
    # The sorts are stable, so equal keys keep face id order.
    if order == "by-size":
        faces.sort(key=cx.face_size)
    elif order == "by-dual-degree":
        adj = cx.dual_graph().adjacency
        faces.sort(key=lambda f: len(adj[f]))
    elif order == "random":
        random.Random(seed).shuffle(faces)
    else:
        raise DiagramError(f"unknown greedy order: {order}")
    return faces


def greedy_max_faces(cx: CellComplex, order: str = "by-size",
                     seed: int = 0) -> ExtendedSpanningTree:
    """Grow a feasible face set greedily, then bridge it.

    Each candidate face is tested incrementally by _Forest.add_face in
    O(|f| log n), so with the face ordering the search is O(n log n);
    _bridge then completes the same forest in O(n log n).
    """
    forest = _Forest(cx.n)
    chosen = [f for f in _face_order(cx, order, seed)
              if forest.add_face(f, cx)]
    return _bridge(forest, chosen, cx)


def exact_max_faces(cx: CellComplex, budget: int = 10_000_000) -> SearchResult:
    """Branch and bound over independent face sets, feasibility-pruned.

    _include_first_search over the faces in by-dual-degree order.  A
    face joins when _Forest.add_face accepts it, O(|f| log n), and then
    rules out its dual neighbors (faces sharing an edge with it);
    undoing it costs O(|f|).  complete_to_est bridges the best set once.
    """
    adj = cx.dual_graph().adjacency
    forest = _Forest(cx.n)

    def include(f, rest, room):
        if not forest.add_face(f, cx):
            return None
        near = adj[f]
        return [u for u in rest if u not in near]

    best, nodes, exact = _include_first_search(
        _face_order(cx, "by-dual-degree", 0), budget, include,
        lambda f: forest.undo())
    return SearchResult(m=len(best), est=complete_to_est(best, cx),
                        exact=exact, nodes=nodes)


def oracle_max_faces(cx: CellComplex) -> int:
    """Maximum face count by direct enumeration of subcomplexes.

    Walks all face subsets and, for each, all edge supersets of the
    boundary with the size a contractible subcomplex must have
    (chi = 1 forces |edges| = n + |faces| - 1), testing connectivity
    directly; _face_set_edges skips the subsets whose faces share an
    edge.  Exponential; limited to n <= 6.
    """
    d = cx.diagram
    if d.n > 6:
        raise DiagramError("oracle enumeration is limited to n <= 6")
    all_edges = range(d.edge_count)

    def connects(edge_set) -> bool:
        return len(_Forest(d.n).join(map(d.edge_endpoints, edge_set))) == d.n - 1

    for m in range(cx.face_count, -1, -1):
        for faces in itertools.combinations(range(cx.face_count), m):
            required = _face_set_edges(faces, cx)
            if required is None:
                continue
            need = d.n + m - 1 - len(required)
            if need < 0:
                continue
            spare = [e for e in all_edges if e not in required]
            for extra in itertools.combinations(spare, need):
                if connects(required | frozenset(extra)):
                    return m
    raise InternalError("enumeration found no subcomplex at all")


def witness_pair(cx: CellComplex) -> Witness | None:
    """A feasible two-face certificate around a length-two tree path.

    In a reduced connected diagram with n >= 3, two edges sharing a
    crossing and one face incident to each, such that the two faces
    form a feasible face set; None if there are none, though a feasible
    pair may sit elsewhere.  The edges are part of a spanning tree by
    construction (two distinct non-loop, non-parallel adjacent edges
    always extend to one).

    Each (fa, fb) pair is tested with _Forest.add_face on one forest,
    which undo() empties again after a failed pair, in O((|fa| + |fb|)
    log n), not by an O(n) face_set_feasible rebuild; at most 24 pairs
    are tried per crossing, after an O(n) is_reduced check.
    """
    d = cx.diagram
    if d.n < 3:
        raise DiagramError("witness search requires n >= 3")
    if not d.is_reduced():
        raise DiagramError("witness search requires a reduced diagram")
    forest = _Forest(d.n)
    for c in range(d.n):
        edges = sorted(d._edge_of_dart[4 * c:4 * c + 4])    # no loops
        for ea, eb in itertools.combinations(edges, 2):
            if set(d.edge_endpoints(ea)) == set(d.edge_endpoints(eb)):
                continue  # parallel pair cannot both sit in a tree
            for fa in cx.edge_sides(ea):
                for fb in cx.edge_sides(eb):
                    if fa == fb or not forest.add_face(fa, cx):
                        continue
                    if forest.add_face(fb, cx):
                        return Witness(edge_a=ea, edge_b=eb,
                                       face_a=fa, face_b=fb)
                    forest.undo()
    return None
