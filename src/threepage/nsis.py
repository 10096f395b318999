"""Non-separating independent sets in the simple dual graph.

A face set usable in an extended spanning tree is independent in the
simple dual and leaves it connected after removal, so the maximum NSIS
size bounds the achievable m from above.  This module solves the graph
problem exactly by branch and bound, approximates it through many-leaf
spanning trees, and tabulates the observed size ratios.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .diagram import _include_first_search, cut_vertices
from .errors import DiagramError, InternalError

_DISCONNECTED = "nsis search requires a connected graph"


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph with deduplicated adjacency and no self-loops.

    The constructor checks the adjacency, and the classes when given: a
    tuple or list of two disjoint sets covering the vertices with no edge
    inside either, so same-class vertices are independent.  It keeps the
    index form, which every connectivity question runs cut_vertices on:
    vertex _ids[i] is i, in sorted id order, _index maps ids back, and
    _nbrs[i] lists the indices of i's neighbors.
    """

    vertices: tuple[int, ...]
    adjacency: Mapping[int, frozenset[int]]
    classes: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        ids = tuple(sorted(self.vertices))
        index = {v: i for i, v in enumerate(ids)}
        if len(index) != len(ids):
            raise DiagramError("duplicate vertices")
        for v, nbrs in self.adjacency.items():
            if v not in index:
                raise DiagramError(f"adjacency lists unknown vertex {v}")
            if v in nbrs:
                raise DiagramError(f"self-loop at {v}")
            for u in nbrs:
                if u not in index or v not in self.adjacency.get(u, ()):
                    raise DiagramError("adjacency is not symmetric")
        for v in ids:
            if v not in self.adjacency:
                raise DiagramError(f"vertex {v} missing from adjacency")
        sides = self.classes
        if sides is not None and not (
                isinstance(sides, (tuple, list)) and len(sides) == 2
                and all(isinstance(s, (set, frozenset)) for s in sides)
                and not sides[0] & sides[1]
                and sides[0] | sides[1] == index.keys()
                and not any(self.adjacency[v] & s for s in sides for v in s)):
            raise DiagramError("classes are not a 2-colouring of the graph")
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_nbrs", tuple(
            tuple(index[u] for u in self.adjacency[v]) for v in ids))

    @staticmethod
    def from_dual(dual: "SimpleGraph") -> "SimpleGraph":
        """CellComplex.dual_graph() is already a SimpleGraph: returned as is."""
        return dual

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def _spans(self, alive: bytearray, live: int) -> bool:
        """Whether the live vertices, alive[i] nonzero for live of them,
        induce a non-empty connected subgraph: one cut_vertices pass."""
        root = alive.find(1)
        return root >= 0 and cut_vertices(self._nbrs, alive, root)[1] == live

    def is_connected(self) -> bool:
        return self._spans(bytearray(b"\x01") * len(self._ids), len(self._ids))


@dataclass(frozen=True)
class NsisResult:
    size: int
    vertices: frozenset[int]
    exact: bool
    nodes: int


def is_nsis(graph: SimpleGraph, subset) -> bool:
    """Independent, and removal leaves a non-empty connected rest."""
    chosen = frozenset(subset)
    index = graph._index
    if not chosen <= index.keys():
        return False
    alive = bytearray(b"\x01") * len(index)
    for v in chosen:
        if graph.adjacency[v] & chosen:
            return False
        alive[index[v]] = 0
    return graph._spans(alive, len(index) - len(chosen))


def nsis_exact(graph: SimpleGraph, budget: int = 10_000_000) -> NsisResult:
    """Maximum NSIS by branch and bound.

    _include_first_search over the graph's index form, vertices tried by
    falling degree.  A vertex joins when the residual (the vertices not
    chosen) stays connected without it, which valid sets need all along the
    way; it then rules out its neighbors, which keeps the set independent,
    and the residual's cut vertices, which can never join.  So every
    candidate joins a non-empty residual, and only a child the bound does
    not prune needs the cut set: one cut_vertices pass over the residual,
    O(V + E) on neighbor tuples and a bytearray.  One more pass on the
    whole graph checks the input and gives the start cut; a final is_nsis
    check guards the result.  Putting a vertex back costs O(1).  Neither
    the cut set nor the connectivity answer depends on the numbering, so
    the nodes visited do not either.
    """
    ids, nbrs = graph._ids, graph._nbrs
    residual = bytearray(b"\x01") * len(ids)
    start_cut, reached = cut_vertices(nbrs, residual, 0) if ids else ((), 0)
    if not ids or reached != len(ids):
        raise DiagramError(_DISCONNECTED)

    def include(v, rest, room):
        residual[v] = 0
        root = residual.find(1)
        if root >= 0:
            near = nbrs[v]
            kept = [u for u in rest if u not in near]
            if len(kept) <= room:
                return kept
            cut, reached = cut_vertices(nbrs, residual, root)
            if reached == residual.count(1):
                return [u for u in kept if u not in cut]
        residual[v] = 1
        return None

    def undo(v):
        residual[v] = 1

    order = sorted(range(len(ids)), key=lambda i: (-len(nbrs[i]), i))
    best, nodes, exact = _include_first_search(
        [i for i in order if i not in start_cut], budget, include, undo)
    vertices = frozenset(ids[i] for i in best)
    if not is_nsis(graph, vertices):
        raise InternalError("nsis search returned a set that is not an NSIS")
    return NsisResult(len(best), vertices, exact, nodes)


def nsis_greedy_leafy(graph: SimpleGraph, seed: int = 0) -> frozenset[int]:
    """NSIS from the leaves of a greedily grown many-leaf spanning tree.

    Grows the tree by always expanding the vertex that adds the most new
    neighbors, lowest id on ties, and returns the leaves inside the larger
    bipartition class, which SimpleGraph has checked to be independent.
    Taking leaves off a spanning tree leaves the rest of it connected, and
    not empty: with V >= 3 the tree has an inner vertex, and with V = 2
    the two leaves are neighbors.  So the result always satisfies is_nsis;
    it may be empty.  A graph the tree cannot span is refused.  seed is
    ignored; it stays because bench/replay.py passes it.

    The expanding vertex comes off a heap of (-gain, id) entries.  Gains
    only fall as the tree grows, so the top entry is recounted and pushed
    back lower (dropped at 0) until its gain is current; it is then the
    most-gain, lowest-id vertex, found without sorting the tree per step.
    """
    import heapq  # here: its C module adds start-up time and memory

    adj = graph.adjacency
    verts = set(graph.vertices)
    if not verts:
        raise DiagramError(_DISCONNECTED)

    root = max(verts, key=lambda v: (graph.degree(v), -v))
    in_tree = {root}
    tree_deg = {root: 0}
    heap = [(-len(adj[root]), root)]
    while len(in_tree) < len(verts):
        if not heap:
            raise DiagramError(_DISCONNECTED)
        stored, pick = heap[0]
        gain = len(adj[pick] - in_tree)
        if gain != -stored:
            if gain:
                heapq.heapreplace(heap, (-gain, pick))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        new = sorted(adj[pick] - in_tree)
        in_tree.update(new)
        tree_deg[pick] += len(new)
        for u in new:
            tree_deg[u] = 1
            gain = len(adj[u] - in_tree)
            if gain:
                heapq.heappush(heap, (-gain, u))

    if graph.classes is None:
        raise DiagramError("leafy heuristic needs bipartition classes")
    leaves = {v for v, k in tree_deg.items() if k == 1}
    side_a, side_b = graph.classes
    in_a, in_b = leaves & side_a, leaves & side_b
    return frozenset(in_a if len(in_a) >= len(in_b) else in_b)


def nsis_ratio_report(records) -> dict:
    """Tabulate nsis_max/n and m_max/n over per-diagram records.

    Each record needs name, n, nsis_max and m_max.  Reports the table
    sorted by name plus the minima of both ratios; reporting only, no
    claim is attached to the numbers.
    """
    rows = []
    for rec in records:
        n = rec["n"]
        rows.append({
            "name": rec["name"],
            "n": n,
            "nsis_max": rec["nsis_max"],
            "m_max": rec["m_max"],
            "nsis_ratio": rec["nsis_max"] / n,
            "m_ratio": rec["m_max"] / n,
        })
    rows.sort(key=lambda r: r["name"])
    return {
        "rows": rows,
        "min_nsis_ratio": min((r["nsis_ratio"] for r in rows), default=None),
        "min_m_ratio": min((r["m_ratio"] for r in rows), default=None),
    }
