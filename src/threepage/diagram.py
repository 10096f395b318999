"""Link diagrams as PD codes over four-valent plane maps.

A diagram is a list of crossings.  Each crossing carries four arc labels,
listed counterclockwise starting at the incoming under-strand, so slots 0
and 2 are the under-strand ends and slots 1 and 3 are the over-strand
ends.  Every arc label appears exactly twice in the whole code; the two
occurrences are the two ends of one edge of the underlying plane graph.

Darts (half-edges) are encoded as ints: dart = 4 * crossing + slot.  The
counterclockwise rotation at a crossing is slot -> slot + 1 (mod 4).
"""

from __future__ import annotations

import re

from .errors import DiagramError, PDSyntaxError

UNDER = "under"
OVER = "over"

_ENTRY_RE = re.compile(r"X\s*[(\[]([^)\]]*)[)\]]")
_PD_RE = re.compile(r"PD\s*\[(.*)\]\s*$", re.DOTALL)


def dart_id(crossing: int, slot: int) -> int:
    return 4 * crossing + (slot & 3)


def crossing_of(dart: int) -> int:
    return dart >> 2


def slot_of(dart: int) -> int:
    return dart & 3


def rotate(dart: int) -> int:
    """Next dart counterclockwise around the same crossing."""
    return (dart & ~3) | ((dart + 1) & 3)


def strand_slot_type(slot: int) -> str:
    return UNDER if slot % 2 == 0 else OVER


class PlaneDiagram:
    """Immutable PD code with its derived edge structure."""

    def __init__(self, crossings):
        rows = []
        for row in crossings:
            entry = tuple(int(x) for x in row)
            if len(entry) != 4:
                raise PDSyntaxError(
                    f"crossing {row!r} has {len(entry)} labels, expected 4")
            rows.append(entry)
        self.crossings = tuple(rows)

        counts: dict[int, list[int]] = {}
        for c, row in enumerate(self.crossings):
            for s, label in enumerate(row):
                counts.setdefault(label, []).append(dart_id(c, s))
        bad = {lab: len(ds) for lab, ds in counts.items() if len(ds) != 2}
        if bad:
            detail = ", ".join(f"{lab} appears {k} times"
                               for lab, k in sorted(bad.items()))
            raise PDSyntaxError(f"arc labels must appear exactly twice: {detail}")

        # Edge ids follow sorted label order so they are reproducible.
        self.edge_labels = tuple(sorted(counts))
        self.edge_darts = tuple(tuple(counts[lab]) for lab in self.edge_labels)
        self._edge_of_dart = [0] * (4 * self.n)
        for e, (d1, d2) in enumerate(self.edge_darts):
            self._edge_of_dart[d1] = e
            self._edge_of_dart[d2] = e

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def edge_count(self) -> int:
        return len(self.edge_darts)

    def darts(self):
        return range(4 * self.n)

    def edge_of(self, dart: int) -> int:
        return self._edge_of_dart[dart]

    def opposite(self, dart: int) -> int:
        """The other dart of the same edge."""
        d1, d2 = self.edge_darts[self._edge_of_dart[dart]]
        return d2 if dart == d1 else d1

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        d1, d2 = self.edge_darts[edge]
        return crossing_of(d1), crossing_of(d2)

    def strand_type(self, dart: int) -> str:
        return strand_slot_type(slot_of(dart))

    def loop_edges(self) -> tuple[int, ...]:
        """Edges whose two ends sit at the same crossing."""
        return tuple(e for e in range(self.edge_count)
                     if len(set(self.edge_endpoints(e))) == 1)

    def is_alternating(self) -> bool:
        """True when every edge joins an under end to an over end."""
        return all(self.strand_type(d1) != self.strand_type(d2)
                   for d1, d2 in self.edge_darts)

    def _adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for d1, d2 in self.edge_darts:
            a, b = crossing_of(d1), crossing_of(d2)
            adj[a].append(b)
            if b != a:
                adj[b].append(a)
        return adj

    def _component_sets(self) -> list[list[int]]:
        adj = self._adjacency()
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
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
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self._component_sets()) == 1

    def connected_components(self) -> list["PlaneDiagram"]:
        """Split into diagrams, one per connected piece of the plane graph."""
        return [PlaneDiagram([self.crossings[c] for c in comp])
                for comp in self._component_sets()]

    def is_reduced(self) -> bool:
        """True iff no crossing is a cut point of the underlying graph.

        A crossing carrying a loop edge counts as a cut point: the loop is
        its own block, so the crossing separates it from the rest.  With
        that convention a reduced diagram has four pairwise distinct edges
        at every crossing and a 2-connected underlying graph.  O(n): one
        articulation-point pass over the underlying graph.
        """
        if not self.is_connected():
            raise DiagramError("is_reduced requires a connected diagram")
        if self.loop_edges():
            return False
        if self.n <= 2:
            return True
        return not articulation_points(set(range(self.n)),
                                       self._adjacency())[0]

    def __repr__(self):
        inner = ", ".join("X" + str(row) for row in self.crossings)
        return f"PlaneDiagram([{inner}])"

    def pd_text(self) -> str:
        inner = ", ".join("X({},{},{},{})".format(*row) for row in self.crossings)
        return f"PD[{inner}]"

    def __eq__(self, other):
        return isinstance(other, PlaneDiagram) and self.crossings == other.crossings

    def __hash__(self):
        return hash(self.crossings)


def articulation_points(verts: set[int], adj) -> tuple[set[int], int]:
    """Cut vertices of the induced subgraph on verts, and its reach.

    One iterative Hopcroft-Tarjan depth-first pass from min(verts),
    O(V + E).  The second value counts the vertices the pass reached, so
    verts induces a connected subgraph iff it equals len(verts); only
    then is the first value the cut set of the whole subgraph.  adj maps
    each vertex to an iterable of neighbors; repeated neighbors (parallel
    edges) are harmless, and the neighbor order does not change the cut
    set.
    """
    root = min(verts)
    disc = {root: 0}
    low = {root: 0}
    parent: dict[int, int | None] = {root: None}
    out: set[int] = set()
    stack = [(root, iter(adj[root]))]
    root_children = 0
    while stack:
        v, it = stack[-1]
        for u in it:
            if u not in verts:
                continue
            if u not in disc:
                parent[u] = v
                disc[u] = low[u] = len(disc)
                if v == root:
                    root_children += 1
                stack.append((u, iter(adj[u])))
                break
            if u != parent[v] and disc[u] < low[v]:
                low[v] = disc[u]
        else:
            stack.pop()
            p = parent[v]
            if p is not None:
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != root and low[v] >= disc[p]:
                    out.add(p)
    if root_children > 1:
        out.add(root)
    return out, len(disc)


def parse_pd(text: str) -> PlaneDiagram:
    """Read a PD expression such as ``PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]``.

    Both ``X(...)`` and ``X[...]`` entry brackets are accepted.  Labels are
    positive integers; each must occur exactly twice.  ``PD[]`` denotes the
    empty diagram.  Empty or non-PD input is a syntax error.
    """
    stripped = text.strip()
    if not stripped:
        raise PDSyntaxError("empty input")
    m = _PD_RE.fullmatch(stripped)
    if not m:
        raise PDSyntaxError(f"not a PD expression: {stripped[:40]!r}")
    body = m.group(1).strip()
    if not body:
        return PlaneDiagram([])
    rows = []
    consumed = []
    for entry in _ENTRY_RE.finditer(body):
        parts = [p.strip() for p in entry.group(1).split(",")]
        if not all(re.fullmatch(r"\d+", p) for p in parts):
            raise PDSyntaxError(f"bad crossing entry: {entry.group(0)!r}")
        rows.append(tuple(int(p) for p in parts))
        consumed.append(entry.group(0))
    leftover = _ENTRY_RE.sub("", body).replace(",", "").strip()
    if leftover or not rows:
        raise PDSyntaxError(f"unparsed content in PD expression: {leftover[:40]!r}")
    return PlaneDiagram(rows)


def _encode_from(d: PlaneDiagram, start: int) -> tuple:
    index = {crossing_of(start): 0}
    base = [start]
    k = 0
    while k < len(base):
        x = base[k]
        for _ in range(4):
            y = d.opposite(x)
            if crossing_of(y) not in index:
                index[crossing_of(y)] = len(base)
                base.append(y)
            x = rotate(x)
        k += 1
    rows = []
    for b in base:
        x = b
        row = []
        for _ in range(4):
            y = d.opposite(x)
            j = index[crossing_of(y)]
            row.append((j, (slot_of(y) - slot_of(base[j])) & 3))
            x = rotate(x)
        rows.append(tuple(row))
    parities = tuple(slot_of(b) & 1 for b in base)
    return (d.n, parities, tuple(rows))


def canonical_form(d: PlaneDiagram) -> tuple:
    """Canonical key deciding orientation-preserving map isomorphism.

    Breadth-first relabeling from every start dart, walking each
    crossing's darts counterclockwise from its entry dart; the key is the
    lexicographic minimum over all starts.  Slot parities are kept, so
    under/over structure is part of the identity, while rotating a
    crossing's labels by two slots (the same crossing written with the
    other under-entry first) does not change the key.  Mirror images are
    not identified.
    """
    if d.n == 0:
        return (0,)
    if not d.is_connected():
        raise DiagramError("canonical form requires a connected diagram")
    return min(_encode_from(d, start) for start in d.darts())
