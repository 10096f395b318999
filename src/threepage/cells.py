"""The cell structure a connected diagram induces on the sphere.

Crossings are the 0-cells, edges the 1-cells, and complementary regions
the 2-cells.  Faces are traced from the rotation system: the dart after
``d`` along a face boundary is the rotation successor of the reversed
dart, ``rotate(opposite(d))``.  For a diagram with n crossings the trace
must produce n + 2 faces; anything else means the rotation system does
not describe a sphere embedding and the input is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .diagram import PlaneDiagram, _Forest
from .errors import DiagramError
from .nsis import SimpleGraph


class CellComplex:
    """Faces, incidences and the dual graph of a connected diagram.

    The dual graph is built on first use and then kept, read-only.  The
    whole complex is never built as a Subcomplex: is_contractible
    refuses it by its Euler characteristic.
    """

    def __init__(self, diagram: PlaneDiagram):
        if diagram.n == 0:
            raise DiagramError("cell complex requires at least one crossing")
        if not diagram.is_connected():
            raise DiagramError("cell complex requires a connected diagram")
        self.diagram = diagram

        # after[x] = rotate(opposite(x)), the next dart along x's face.
        after = [(y & ~3) | ((y + 1) & 3) for y in diagram._opposite]
        face_of = [-1] * len(after)
        faces = []
        for start in range(len(after)):
            if face_of[start] >= 0:
                continue
            k = len(faces)
            cycle = []
            d = start
            while face_of[d] < 0:
                face_of[d] = k
                cycle.append(d)
                d = after[d]
            if d != start:
                raise DiagramError("face trace did not close; corrupt pairing")
            faces.append(tuple(cycle))
        self.faces = tuple(faces)
        self._face_of_dart = face_of

        n, e, f = diagram.n, diagram.edge_count, len(self.faces)
        if n - e + f != 2:
            raise DiagramError(
                f"rotation system is not spherical: V-E+F = {n}-{e}+{f} != 2")

        edge_of = diagram._edge_of_dart.__getitem__
        self._face_edges = tuple(tuple(sorted(set(map(edge_of, cycle))))
                                 for cycle in self.faces)

    @property
    def n(self) -> int:
        return self.diagram.n

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def face_of(self, dart: int) -> int:
        return self._face_of_dart[dart]

    def face_edges(self, face: int) -> tuple[int, ...]:
        return self._face_edges[face]

    def face_size(self, face: int) -> int:
        """Boundary walk length in darts (counts repeated edges twice)."""
        return len(self.faces[face])

    def edge_sides(self, edge: int) -> tuple[int, int]:
        """The two face-sides of an edge, in dart order."""
        d1, d2 = self.diagram.edge_darts[edge]
        return self._face_of_dart[d1], self._face_of_dart[d2]

    def dual_graph(self) -> SimpleGraph:
        """Faces as vertices, adjacent when they share a primal edge.

        Its classes are the checkerboard colouring, face 0 in classes[0].
        It exists for every diagram of a link: the underlying graph is
        four-valent, hence Eulerian, hence its dual is bipartite.
        SimpleGraph refuses classes that are not a 2-colouring, so a
        colouring clash or a face the search never reached would raise.
        """
        return self._dual

    @cached_property
    def _dual(self) -> SimpleGraph:
        adj: dict[int, set[int]] = {f: set() for f in range(self.face_count)}
        for a, b in map(self.edge_sides, range(self.diagram.edge_count)):
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        colors = [-1] * self.face_count
        colors[0] = 0
        stack = [0]
        while stack:
            f = stack.pop()
            for g in adj[f]:
                if colors[g] < 0:
                    colors[g] = 1 - colors[f]
                    stack.append(g)
        return SimpleGraph(
            vertices=tuple(range(self.face_count)),
            adjacency=MappingProxyType(
                {f: frozenset(s) for f, s in adj.items()}),
            classes=tuple(frozenset(f for f, c in enumerate(colors) if c == k)
                          for k in (0, 1)),
        )


@dataclass(frozen=True)
class Subcomplex:
    """A set of cells of a CellComplex, one frozen set per dimension."""

    vertices: frozenset[int]
    edges: frozenset[int]
    faces: frozenset[int]


def is_closed(sub: Subcomplex, cx: CellComplex) -> bool:
    """Closure: boundaries of included cells are included too."""
    endpoints = cx.diagram.edge_endpoints
    return (all(sub.edges.issuperset(cx.face_edges(f)) for f in sub.faces)
            and all(sub.vertices.issuperset(endpoints(e))
                    for e in sub.edges))


def _require_closed(sub: Subcomplex, cx: CellComplex) -> None:
    if not is_closed(sub, cx):
        raise DiagramError("subcomplex is not closed")


def euler_characteristic(sub: Subcomplex, cx: CellComplex) -> int:
    _require_closed(sub, cx)
    return len(sub.vertices) - len(sub.edges) + len(sub.faces)


def subcomplex_components(sub: Subcomplex, cx: CellComplex) -> list[Subcomplex]:
    """Connected pieces of the underlying space, via cell incidence.

    Edges join their endpoints; a face adds no connectivity beyond its
    boundary cycle, so it joins the piece of its first edge.
    """
    _require_closed(sub, cx)
    endpoints = cx.diagram.edge_endpoints
    forest = _Forest(cx.n)
    forest.join(map(endpoints, sub.edges))
    groups: dict[int, tuple[list, list, list]] = {}

    def piece(v: int) -> tuple[list, list, list]:
        return groups.setdefault(forest.find(v), ([], [], []))

    for v in sub.vertices:
        piece(v)[0].append(v)
    for e in sub.edges:
        piece(endpoints(e)[0])[1].append(e)
    for f in sub.faces:
        piece(endpoints(cx.face_edges(f)[0])[0])[2].append(f)
    comps = [Subcomplex(vertices=frozenset(vs), edges=frozenset(es),
                        faces=frozenset(fs))
             for vs, es, fs in groups.values()]
    comps.sort(key=lambda s: min(s.vertices))
    return comps


def is_contractible(sub: Subcomplex, cx: CellComplex) -> bool:
    """Connected and Euler characteristic 1.

    For closed subcomplexes of the sphere complex this is equivalent to
    contractibility: a proper subcomplex carries no 2-cycles, so it is
    contractible exactly when it is connected with trivial first homology,
    and chi = 1 pins that down; the whole complex (chi = 2) and the empty
    one (chi = 0) fail it.  complement_components == 1 is an independent
    check of the same property.
    """
    return (euler_characteristic(sub, cx) == 1
            and len(subcomplex_components(sub, cx)) == 1)


def complement_components(sub: Subcomplex, cx: CellComplex) -> int:
    """Components of the complement, glued across omitted edges.

    Vertices of the counted graph are the faces outside ``sub``; an
    omitted primal edge joins its two face-sides whenever both are
    outside ``sub``.  The count is the outside faces less the merges
    _Forest.join makes over those edges.
    """
    _require_closed(sub, cx)
    outside = [f not in sub.faces for f in range(cx.face_count)]
    sides = (cx.edge_sides(e) for e in range(cx.diagram.edge_count)
             if e not in sub.edges)
    merges = _Forest(cx.face_count).join(
        (a, b) for a, b in sides if outside[a] and outside[b])
    return sum(outside) - len(merges)
