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
from collections import Counter
from functools import cached_property

from .errors import DiagramError, PDSyntaxError

UNDER = "under"
OVER = "over"

_ENTRY_RE = re.compile(r"X\s*[(\[]([^)\]]*)[)\]]")
_PD_RE = re.compile(r"PD\s*\[(.*)\]\s*$", re.DOTALL)
_LABEL = r"\s*0*[1-9][0-9]*\s*"
_ROW_RE = re.compile(rf"{_LABEL}(?:,{_LABEL})*")
_DIGITS_RE = re.compile(r"[0-9]+")
_SEPARATORS_RE = re.compile(r"[\s,]*")
# A body of well-formed four-label entries only, read in one match.
_BODY_RE = re.compile(
    rf"(?:[\s,]*X\s*[(\[]{_LABEL},{_LABEL},{_LABEL},{_LABEL}[)\]])+[\s,]*")


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
    """Immutable PD code with its derived edge structure.

    Edge darts and endpoints are computed in the constructor, with two
    flat per-dart lists that the hot loops index: _edge_of_dart, and
    _opposite, the other dart of the same edge; every question about the
    crossing graph reads them.  The split into connected pieces and
    is_reduced are computed on first use and then kept: each is a fact of
    the code, which never changes, and the pieces are handed out as
    tuples, so no caller can alter what the next one reads.  The pieces
    are the _Forest roots of the edges, in order of first crossing.
    Labels are positive ints, as parse_pd reads them; anything else,
    bools included, is a PDSyntaxError.
    """

    def __init__(self, crossings):
        rows = []
        for row in crossings:
            entry = tuple(row)
            if len(entry) != 4:
                raise PDSyntaxError(
                    f"crossing {row!r} has {len(entry)} labels, expected 4")
            rows.append(entry)
        self.crossings = tuple(rows)

        # Darts sorted by label, stably: when every label occurs twice,
        # edge e is the e-th label and its darts sit at 2e and 2e + 1, in
        # increasing order.  Edge ids follow sorted label order so they
        # are reproducible.
        labels = [lab for row in rows for lab in row]
        for lab in labels:
            if type(lab) is not int or lab < 1:
                raise PDSyntaxError(
                    f"arc label {lab!r:.40} is not a positive int")
        darts = sorted(range(len(labels)), key=labels.__getitem__)
        ordered = [labels[x] for x in darts]
        self.edge_labels = tuple(ordered[0::2])
        if ordered[0::2] != ordered[1::2] or \
                len(set(self.edge_labels)) != len(self.edge_labels):
            detail = ", ".join(f"{lab} appears {k} times" for lab, k
                               in sorted(Counter(labels).items()) if k != 2)
            raise PDSyntaxError(f"arc labels must appear exactly twice: {detail}")
        self.edge_darts = tuple(zip(darts[0::2], darts[1::2]))
        self._edge_of_dart = [0] * len(labels)
        self._opposite = [0] * len(labels)
        for e, (d1, d2) in enumerate(self.edge_darts):
            self._edge_of_dart[d1] = self._edge_of_dart[d2] = e
            self._opposite[d1], self._opposite[d2] = d2, d1
        self._edge_ends = tuple((d1 >> 2, d2 >> 2) for d1, d2 in self.edge_darts)

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
        return self._opposite[dart]

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        return self._edge_ends[edge]

    def strand_type(self, dart: int) -> str:
        return strand_slot_type(slot_of(dart))

    def loop_edges(self) -> tuple[int, ...]:
        """Edges whose two ends sit at the same crossing."""
        return tuple(e for e, (a, b) in enumerate(self._edge_ends) if a == b)

    def is_alternating(self) -> bool:
        """True when every edge joins an under end to an over end.

        Under ends sit in even slots and over ends in odd ones, and a
        dart's parity is its slot's, so the two darts of each edge must
        differ in parity.
        """
        return all((d1 ^ d2) & 1 for d1, d2 in self.edge_darts)

    @cached_property
    def _component_sets(self) -> tuple[tuple[int, ...], ...]:
        forest = _Forest(self.n)
        forest.join(self._edge_ends)
        groups: dict[int, list[int]] = {}
        for c in range(self.n):
            groups.setdefault(forest.find(c), []).append(c)
        return tuple(map(tuple, groups.values()))

    def is_connected(self) -> bool:
        return len(self._component_sets) <= 1

    def connected_components(self) -> list["PlaneDiagram"]:
        """Split into diagrams, one per connected piece of the plane graph.

        A connected diagram is its own single piece: [self].
        """
        comps = self._component_sets
        if len(comps) == 1:
            return [self]
        return [PlaneDiagram([self.crossings[c] for c in comp])
                for comp in comps]

    def is_reduced(self) -> bool:
        """True iff no crossing is a cut point of the underlying graph.

        A crossing carrying a loop edge counts as a cut point: the loop is
        its own block, so the crossing separates it from the rest.  With
        that convention a reduced diagram has four pairwise distinct edges
        at every crossing and a 2-connected underlying graph.  O(n): one
        cut_vertices pass over the underlying graph, on the first call
        only.
        """
        return self._reduced

    @cached_property
    def _reduced(self) -> bool:
        if not self.is_connected():
            raise DiagramError("is_reduced requires a connected diagram")
        if self.loop_edges():
            return False
        if self.n <= 2:
            return True
        # The far crossings of darts 4c..4c+3 are the neighbors of c.
        far = [y >> 2 for y in self._opposite]
        nbrs = [far[x:x + 4] for x in range(0, len(far), 4)]
        return not cut_vertices(nbrs, bytearray(b"\x01") * self.n, 0)[0]

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


def cut_vertices(nbrs, alive, root: int) -> tuple[set[int], int]:
    """Cut vertices of the subgraph induced by alive, and the pass's reach.

    Vertices are 0..V-1: nbrs[v] lists the neighbors of v (repeated
    neighbors, i.e. parallel edges, are harmless, and their order does
    not change the cut set) and alive[v] is nonzero for the vertices of
    the subgraph.  One iterative Hopcroft-Tarjan depth-first pass from
    the live vertex root, O(V + E), on flat lists.  The second value
    counts the vertices the pass reached, so the subgraph is connected
    iff it equals the number of live vertices; only then is the first
    value the cut set of the whole subgraph.
    """
    disc = [-1] * len(nbrs)
    low = [0] * len(nbrs)
    disc[root] = 0
    reached = 1
    out: set[int] = set()
    root_children = 0
    # The stack is the tree path from root, so a vertex's tree parent is
    # the entry below it.  The edge back to the parent may lower low[v]
    # to disc[parent]; that leaves the cut test low[v] >= disc[parent]
    # unchanged, so parallel edges need no special case either.
    stack = [(root, iter(nbrs[root]))]
    while stack:
        v, it = stack[-1]
        for u in it:
            if alive[u]:
                du = disc[u]
                if du < 0:
                    disc[u] = low[u] = reached
                    reached += 1
                    stack.append((u, iter(nbrs[u])))
                    break
                if du < low[v]:
                    low[v] = du
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                lv = low[v]
                if lv < low[p]:
                    low[p] = lv
                if lv >= disc[p]:
                    if p == root:
                        root_children += 1
                    else:
                        out.add(p)
    if root_children > 1:
        out.add(root)
    return out, reached


class _Forest:
    """Union-find over 0..size-1, plus the edges of the faces added so far.

    The package's one union-find: join() splits diagrams into pieces
    and tests trees, add_face grows the searches' face sets.  Over
    crossings, starting from all crossings and no edges, every component
    has Euler characteristic 1; add_face keeps that invariant, which is
    exactly the feasibility criterion of face_set_feasible.  Union by
    size and no path compression, so every find is O(log size) and
    undo() only resets the roots one face merged: O(|f|).
    """

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size
        self.used: set[int] = set()
        self.log: list[tuple[tuple[int, ...], int, set[int]]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; False if they already agree."""
        return bool(self.join(((a, b),)))

    def join(self, pairs) -> list[int]:
        """Union each (a, b) pair; the indices of the pairs that merged."""
        parent, size = self.parent, self.size
        merged = []
        for k, (a, b) in enumerate(pairs):
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                merged.append(k)
        return merged

    def add_face(self, f: int, cx: "CellComplex") -> bool:
        """Add face f if the face set stays feasible; report whether it did.

        Its edges must be unused, and its crossings must lie in exactly
        |edges(f)| components: the merged component then has chi =
        k - |edges(f)| + 1 = 1, and every other component keeps chi = 1.
        An added face goes on the log that undo() pops.  O(|f| log n).
        """
        edges = cx.face_edges(f)
        used = self.used
        if not used.isdisjoint(edges):
            return False
        parent, size = self.parent, self.size
        roots = set()
        for x in cx.faces[f]:
            v = x >> 2
            while parent[v] != v:
                v = parent[v]
            roots.add(v)
        if len(roots) != len(edges):
            return False
        used.update(edges)
        top = max(roots, key=size.__getitem__)
        roots.discard(top)
        for r in roots:
            parent[r] = top
            size[top] += size[r]
        self.log.append((edges, top, roots))
        return True

    def undo(self) -> None:
        """Remove the face added last."""
        edges, top, roots = self.log.pop()
        parent, size = self.parent, self.size
        for r in roots:
            parent[r] = r
            size[top] -= size[r]
        self.used.difference_update(edges)


def _include_first_search(order, budget: int, include, undo):
    """Largest set of candidates that include() accepts one by one.

    The package's one exact-search loop, for both the face search and
    the NSIS search.  include(v) adds v to the current set and returns
    the later candidates that v rules out, or None, changing nothing,
    when v cannot join; undo(v) reverts the include of v, the last one
    still in place.  Joining must be hereditary (a set that cannot take
    v never can once it grows), so the bound "chosen + remaining
    candidates" prunes soundly.

    Depth-first with an explicit stack, including the next candidate
    before excluding it, so no input size can exhaust the recursion
    limit.  Every node counts before the budget check; past the budget
    the best set so far comes back with exact False.  An include drops
    the ruled-out candidates in O(candidates).  Returns (best set in
    include order, nodes, exact).
    """
    chosen: list = []
    best: tuple = ()
    nodes = 0
    # (candidates, start, pop): the node for candidates[start:], after
    # undoing the last include when pop is set.
    stack = [(order, 0, False)]
    while stack:
        candidates, start, pop = stack.pop()
        if pop:
            undo(chosen.pop())
        nodes += 1
        if nodes > budget:
            return best, nodes, False
        if len(chosen) > len(best):
            best = tuple(chosen)
        if len(chosen) + len(candidates) - start <= len(best):
            continue
        v = candidates[start]
        ruled_out = include(v)
        if ruled_out is None:
            stack.append((candidates, start + 1, False))
        else:
            chosen.append(v)
            stack.append((candidates, start + 1, True))
            stack.append(([u for u in candidates[start + 1:]
                           if u not in ruled_out], 0, False))
    return best, nodes, True


def parse_pd(text: str) -> PlaneDiagram:
    """Read a PD expression such as ``PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]``.

    Both ``X(...)`` and ``X[...]`` entry brackets are accepted.  Labels are
    positive integers in ASCII digits, no longer than int() reads; each
    must occur exactly twice.  ``PD[]`` denotes the empty diagram.  Empty
    or non-PD input is a syntax error.
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
    if _BODY_RE.fullmatch(body):    # its only digits are the labels
        labels = iter(_labels(body))
        return PlaneDiagram(zip(labels, labels, labels, labels))
    # No entry ends after the last closing bracket, and stopping the
    # entry scans there keeps them linear when an entry is never closed.
    cut = max(body.rfind(")"), body.rfind("]")) + 1
    head = body[:cut]
    rows = []
    for entry in _ENTRY_RE.finditer(head):
        if not _ROW_RE.fullmatch(entry.group(1)):
            raise PDSyntaxError(
                f"bad crossing entry: {entry.group(0)[:40]!r}")
        rows.append(tuple(_labels(entry.group(1))))
    leftover = _ENTRY_RE.sub("", head) + body[cut:]
    if leftover.replace(",", "").strip() or not rows:
        # Trim the end separators from each side by one forward match.
        start = _SEPARATORS_RE.match(leftover).end()
        end = len(leftover) - _SEPARATORS_RE.match(leftover[::-1]).end()
        raise PDSyntaxError(
            f"unparsed content in PD expression: {leftover[start:end][:40]!r}")
    return PlaneDiagram(rows)


def _labels(text: str) -> list[int]:
    """The labels in text, which int() reads up to its digit limit."""
    digits = _DIGITS_RE.findall(text)
    try:
        return list(map(int, digits))
    except ValueError:
        longest = max(map(len, digits))
        raise PDSyntaxError(f"label of {longest} digits is too long") from None


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
