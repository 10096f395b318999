"""Circular three-page presentations: chords on a circle, three pages.

A binding sequence flattens to a chord diagram: binding points around a
circle (clockwise), every arc a chord on one of three pages.  Page 1
carries under-passages, page 2 over-passages, page 3 the edge middles
outside the circle (PAGE_BY_TYPE).  This module owns the chord geometry
(chords_cross, crossing_pairs).  The chord count is the certified upper
bound this package exists to produce, so this module also carries the
independent checks: book-embedding verification, and reconstruction of
a diagram from nothing but the chord data for a round-trip comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .binding import INSIDE_OVER, INSIDE_UNDER, OUTSIDE, BindingSequence
from .diagram import PlaneDiagram

# Page convention: under-passages open the book, over-passages sit above
# them, edge middles go outside.
PAGE_BY_TYPE = {INSIDE_UNDER: 1, INSIDE_OVER: 2, OUTSIDE: 3}


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
    chords_cross, spans given as (a, b) with a <= b: two chords cross iff
    a_i < a_j < b_i < b_j.  One sweep keeps a stack of the open chords.
    An a == b chord crosses nothing and is never pushed.  At one position
    chords close before any opens, the later-opened first, and of chords
    opening together the longer is pushed first.  So when j closes, the
    chords above it are those with a_j < a_i < b_j < b_i: exactly the ones
    j crosses, and none that only shares an end with j.  They are popped,
    reported and pushed back.  O(P log P) for the sorts of P chords and
    O(P + K) for the sweep with K crossing pairs, so O(P) after the sorts
    on a planar page.
    """
    lefts = [a for a, _ in spans]
    rights = [b for _, b in spans]
    # Open order: by left end, longer first, then by index; closes by
    # right end, later-opened first.  The sorts are stable.
    live = [j for j in range(len(spans)) if lefts[j] < rights[j]]
    live.sort(key=rights.__getitem__, reverse=True)
    opened = sorted(live, key=lefts.__getitem__)
    stack: list[int] = []
    out = []
    k = 0
    for j in sorted(reversed(opened), key=rights.__getitem__):
        while k < len(opened) and lefts[opened[k]] < rights[j]:
            stack.append(opened[k])
            k += 1
        i = stack.pop()
        if i != j:
            above = []
            while i != j:
                above.append(i)
                i = stack.pop()
            out += [(i, j) if i < j else (j, i) for i in above]
            stack += reversed(above)
    out.sort()
    return out


@dataclass(frozen=True, slots=True)
class Chord:
    a: int  # binding point ids, not positions
    b: int
    page: int
    crossings: tuple[int, ...]
    arc: int


@dataclass(frozen=True)
class ThreePagePresentation:
    points: tuple[int, ...]  # binding point ids, clockwise
    chords: tuple[Chord, ...]
    bound: int

    @cached_property
    def _position(self) -> dict[int, int]:
        return {pid: i for i, pid in enumerate(self.points)}

    def position(self, point_id: int) -> int:
        return self._position[point_id]

    def span(self, chord: Chord) -> tuple[int, int]:
        """Chord endpoints as circle positions, low first."""
        x, y = self._position[chord.a], self._position[chord.b]
        return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class PageReport:
    ok: bool
    degree_ok: bool
    pages_distinct_ok: bool
    planar_ok: bool
    offenders: tuple[str, ...]


@dataclass(frozen=True)
class OverlayResult:
    supported: bool
    pd_text: str | None = None
    diagram: PlaneDiagram | None = None
    reason: str | None = None


def to_presentation(seq: BindingSequence) -> ThreePagePresentation:
    """Flatten a binding sequence to its chord diagram.

    The chord count equals the point count and is the certified bound
    once verify_binding has accepted seq and verify_pages the result;
    pipeline.certify runs both on every sequence it presents.
    """
    chords = tuple([Chord(*arc.ends, PAGE_BY_TYPE[arc.type], arc.crossings,
                          arc.id) for arc in seq.arcs])
    return ThreePagePresentation(points=tuple([p.id for p in seq.points]),
                                 chords=chords, bound=len(seq.points))


def verify_pages(pres: ThreePagePresentation) -> PageReport:
    """Book-embedding well-formedness; never raises.

    The bound must be the arc count.  Degrees and page labels in one
    pass over the P chords, then one crossing_pairs scan per page for
    planarity.  Its open-chord stack reports exactly the interleaving
    pairs, never two chords that only share an end nor a chord from a
    point to itself, in O(P log P) for the sorts and O(P) after them on
    a planar page.
    """
    bad_deg: list[str] = []
    bad_pages: list[str] = []
    bad_planar: list[str] = []

    position = pres._position
    if len(position) != len(pres.points):
        bad_deg.append("duplicate point ids")
    if pres.bound != len(pres.chords):
        bad_deg.append(f"bound {pres.bound!r:.40} is not the arc count "
                       f"{len(pres.chords)}")
    at_point: dict[int, list[Chord]] = {pid: [] for pid in position}
    placed: dict[int, list[int]] = {}    # page: indices of placed chords
    for k, ch in enumerate(pres.chords):
        if ch.page not in (1, 2, 3):
            bad_pages.append(f"arc {ch.arc} on unknown page {ch.page}")
        for pid in (ch.a, ch.b):
            if pid in at_point:
                at_point[pid].append(ch)
            else:
                bad_deg.append(f"arc {ch.arc} ends at unknown point {pid}")
        if ch.a in position and ch.b in position:
            placed.setdefault(ch.page, []).append(k)
    for pid in pres.points:
        here = at_point[pid]
        if len(here) != 2:
            bad_deg.append(f"point {pid} has {len(here)} arc ends")
        elif here[0].page == here[1].page:
            bad_pages.append(
                f"point {pid} joins two page-{here[0].page} arcs "
                f"({here[0].arc}, {here[1].arc})")

    pairs = []
    for idx in placed.values():
        spans = [pres.span(pres.chords[k]) for k in idx]
        pairs += [(idx[x], idx[y]) for x, y in crossing_pairs(spans)]
    for i, j in sorted(pairs):
        c1, c2 = pres.chords[i], pres.chords[j]
        bad_planar.append(f"page-{c1.page} arcs {c1.arc} and {c2.arc} "
                          f"interleave")

    offenders = tuple(bad_deg + bad_pages + bad_planar)
    return PageReport(ok=not offenders,
                      degree_ok=not bad_deg,
                      pages_distinct_ok=not bad_pages,
                      planar_ok=not bad_planar,
                      offenders=offenders)


def interleaving_pairs(
        pres: ThreePagePresentation) -> tuple[tuple[int, int], ...]:
    """Indices of (page-1, page-2) chord pairs that cross.

    For an unrepaired presentation of an n-crossing diagram there are
    exactly n such pairs, one per crossing.  Sorted by page-1 index, then
    page-2 index; one crossing_pairs scan over the chords of both pages.
    """
    inside = [i for i, c in enumerate(pres.chords) if c.page in (1, 2)]
    out = []
    for x, y in crossing_pairs([pres.span(pres.chords[i]) for i in inside]):
        i, j = inside[x], inside[y]
        if pres.chords[i].page != pres.chords[j].page:
            out.append((i, j) if pres.chords[i].page == 1 else (j, i))
    return tuple(sorted(out))


def overlay_reconstruct(pres: ThreePagePresentation) -> OverlayResult:
    """Rebuild a diagram from the chords alone.

    Each crossing of the rebuilt diagram is an interleaving page-1 x
    page-2 pair, with the page-2 strand on top; its rotation is the
    circle order of the four chord endpoints.  Edges follow the strand
    through binding points, crossing one outside chord at most.  Merged
    arcs (more than one passage) leave the overlay ambiguous, so such
    presentations are reported as unsupported rather than guessed at.
    Two same-page arcs meeting at a point are fine here: the rebuild
    uses chord geometry only, not the alternation property.
    """
    rep = verify_pages(pres)
    bad_page_value = any(ch.page not in (1, 2, 3) for ch in pres.chords)
    if not (rep.degree_ok and rep.planar_ok) or bad_page_value:
        return OverlayResult(supported=False,
                             reason="presentation failed page verification")
    for ch in pres.chords:
        if ch.page in (1, 2) and len(ch.crossings) != 1:
            return OverlayResult(
                supported=False,
                reason=f"arc {ch.arc} passes {len(ch.crossings)} crossings; "
                       f"overlay needs single-passage arcs")

    ones = [i for i, c in enumerate(pres.chords) if c.page == 1]
    twos = [i for i, c in enumerate(pres.chords) if c.page == 2]

    # Pair up the inside chords; the pairing must be a bijection.
    hits: dict[int, list[int]] = {i: [] for i in ones}
    for i, j in interleaving_pairs(pres):
        hits[i].append(j)
    partner: dict[int, int] = {}
    for i in ones:
        if len(hits[i]) != 1:
            return OverlayResult(
                supported=False,
                reason=f"page-1 arc {pres.chords[i].arc} interleaves "
                       f"{len(hits[i])} page-2 arcs, expected exactly 1")
        partner[i] = hits[i][0]
    if len(set(partner.values())) != len(twos) or len(ones) != len(twos):
        return OverlayResult(
            supported=False,
            reason="page-1/page-2 interleaving is not a perfect matching")

    crossings = sorted(partner.items())  # (under chord, over chord), stable

    at_point: dict[int, list[int]] = {pid: [] for pid in pres.points}
    for idx, ch in enumerate(pres.chords):
        at_point[ch.a].append(idx)
        at_point[ch.b].append(idx)

    def other_chord(pid: int, idx: int) -> int:
        pair = at_point[pid]
        return pair[1] if pair[0] == idx else pair[0]

    def other_end(idx: int, pid: int) -> int:
        ch = pres.chords[idx]
        return ch.b if ch.a == pid else ch.a

    def trace(idx: int, pid: int) -> tuple[int, int] | None:
        """Follow the strand leaving chord idx through point pid."""
        nxt = other_chord(pid, idx)
        if pres.chords[nxt].page in (1, 2):
            return (nxt, pid)
        far = other_end(nxt, pid)
        last = other_chord(far, nxt)
        if pres.chords[last].page == 3:
            return None
        return (last, far)

    # Rays: one per inside chord endpoint; slots from circle order with
    # slot 0 on the under chord's smaller position.  The two chords
    # interleave, so the rays lie on pages 1, 2, 1, 2.
    slot_rays: list[list[tuple[int, int]]] = []
    for under_idx, over_idx in crossings:
        u, o = pres.chords[under_idx], pres.chords[over_idx]
        quad = sorted((pres.position(pid), idx, pid)
                      for idx, pid in ((under_idx, u.a), (under_idx, u.b),
                                       (over_idx, o.a), (over_idx, o.b)))
        start = min(k for k in range(4) if quad[k][1] == under_idx)
        slot_rays.append([quad[(start + k) % 4][1:] for k in range(4)])

    label_of: dict[tuple[int, int], int] = {}
    next_label = 1
    for rays in slot_rays:
        for ray in rays:
            if ray in label_of:
                continue
            dest = trace(*ray)
            # The matching is perfect, so every page-1/2 chord end is a ray.
            if dest is None:
                return OverlayResult(
                    supported=False,
                    reason="strand leaves the inside chords and never "
                           "returns to a crossing")
            label_of[ray] = label_of[dest] = next_label
            next_label += 1

    rows = [tuple(label_of[ray] for ray in rays) for rays in slot_rays]
    # Every point has degree 2, so trace pairs the rays off: each label
    # appears exactly twice and the code is valid.
    diagram = PlaneDiagram(rows)
    return OverlayResult(supported=True, pd_text=diagram.pd_text(),
                         diagram=diagram)


_SVG_SIZE = 480
_SVG_STROKE = 2.0

_SVG_STYLE = """\
    circle.binding { fill: none; stroke: #333; }
    circle.pt { fill: #333; }
    .p1 { fill: none; stroke: #d62728; }
    .p2 { fill: none; stroke: #1f77b4; }
    .p3 { fill: none; stroke: #2ca02c; stroke-dasharray: 4 3; }
    text { font: 11px sans-serif; fill: #333; text-anchor: middle;
           dominant-baseline: middle; }
"""


def render_svg(pres: ThreePagePresentation) -> str:
    """Deterministic SVG picture of the presentation.

    Points sit equally spaced clockwise from the top.  Pages 1 and 2 are
    straight chords (page 2 painted after page 1, so it wins at the
    crossings); page 3 bulges outside the circle.  Equal input gives
    byte-identical output.
    """
    size = _SVG_SIZE
    center = size / 2.0
    radius = 0.30 * size
    count = len(pres.points)

    def xy(position: float, r: float) -> tuple[float, float]:
        ang = -math.pi / 2 + 2 * math.pi * position / max(count, 1)
        return (center + r * math.cos(ang), center + r * math.sin(ang))

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f"  <style>\n{_SVG_STYLE}  </style>",
        f'  <circle class="binding" cx="{fmt(center)}" cy="{fmt(center)}" '
        f'r="{fmt(radius)}" stroke-width="{fmt(_SVG_STROKE)}"/>',
    ]

    def line(ch: Chord) -> str:
        x1, y1 = xy(pres.position(ch.a), radius)
        x2, y2 = xy(pres.position(ch.b), radius)
        return (f'  <line class="p{ch.page}" x1="{fmt(x1)}" y1="{fmt(y1)}" '
                f'x2="{fmt(x2)}" y2="{fmt(y2)}" '
                f'stroke-width="{fmt(_SVG_STROKE)}"/>')

    def outer_path(ch: Chord) -> str:
        pa, pb = pres.position(ch.a), pres.position(ch.b)
        x1, y1 = xy(pa, radius)
        x2, y2 = xy(pb, radius)
        lo, hi = min(pa, pb), max(pa, pb)
        # Bulge through the shorter way around, radially outward.
        if count and (hi - lo) > count / 2:
            mid = ((hi + lo) / 2.0 + count / 2.0) % count
            span = count - (hi - lo)
        else:
            mid = (hi + lo) / 2.0
            span = hi - lo
        bulge = radius * (1.12 + 0.5 * (span / max(count, 1)))
        cxp, cyp = xy(mid, bulge)
        return (f'  <path class="p3" d="M {fmt(x1)} {fmt(y1)} '
                f'Q {fmt(cxp)} {fmt(cyp)} {fmt(x2)} {fmt(y2)}" '
                f'stroke-width="{fmt(_SVG_STROKE)}"/>')

    for page, draw in ((3, outer_path), (1, line), (2, line)):
        for ch in pres.chords:
            if ch.page == page:
                parts.append(draw(ch))

    for i, pid in enumerate(pres.points):
        x, y = xy(i, radius)
        parts.append(f'  <circle class="pt" cx="{fmt(x)}" cy="{fmt(y)}" '
                     f'r="{fmt(max(2.0, _SVG_STROKE * 1.4))}"/>')
        lx, ly = xy(i, radius + 0.055 * size)
        parts.append(f'  <text x="{fmt(lx)}" y="{fmt(ly)}">{pid}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
