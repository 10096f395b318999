import os
import sys

import pytest

import threepage as tp

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS_PATH = os.path.join(DATA_DIR, "corpus.txt")
DEGENERATE_PATH = os.path.join(DATA_DIR, "degenerate.txt")

# One braid-closure generator: the benchmark's.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from gen import closure_rows, pd_text, switch  # noqa: E402
from gen import disjoint_union as union_rows  # noqa: E402

HOPF = "PD[X(1,4,2,3), X(3,2,4,1)]"
TREFOIL = "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]"
TREFOIL_SWITCHED = "PD[X(4,2,5,1), X(3,6,4,1), X(5,2,6,3)]"
FIGURE_EIGHT = "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]"
KINK = "PD[X(1,1,2,2)]"
# Two clasps joined by two bridge edges; reduced but composite.  The only
# feasible edge-disjoint face pairs here sit on disjoint crossing sets.
TWO_CLASPS = "PD[X(8,2,1,7), X(2,8,3,1), X(4,6,5,3), X(6,4,7,5)]"
NON_SPHERE = "PD[X(1,2,1,2)]"
# A reduced grid diagram on which greedy finds 3 faces and the exact
# search 4: the smallest such case in a sample of random grids.
GRID_GREEDY_GAP = ("PD[X(14,5,1,6), X(1,12,2,13), X(7,2,8,3), X(3,11,4,10), "
                   "X(9,5,10,4), X(13,7,14,6), X(8,12,9,11)]")


def load_corpus_texts() -> dict:
    out = {}
    with open(CORPUS_PATH, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, body = line.partition(":")
            out[name.strip()] = body.strip()
    return out


CORPUS_TEXTS = load_corpus_texts()
CORPUS_NAMES = sorted(CORPUS_TEXTS)


def torus_pd(k: int) -> str:
    rows = []
    for i in range(k):
        left = lambda j: 2 * (j % k) + 1
        right = lambda j: 2 * (j % k) + 2
        rows.append((right(i - 1), right(i), left(i), left(i - 1)))
    return "PD[" + ", ".join("X(%d,%d,%d,%d)" % r for r in rows) + "]"


def braid_closure_pd(word, strands: int) -> str:
    """PD code of the closure of a braid word on `strands` strands.

    Entry +k is the generator s_k on strand positions k-1 and k, -k its
    inverse; bench/gen.py's closure_rows spells out the encoding.
    """
    return pd_text(closure_rows(word, strands))


def switched_torus_pd(n: int) -> str:
    """T(2, n) with every other crossing switched.  Every edge is
    non-alternating, but for odd n the one closing the cycle, so repair
    chains one arc through all n crossings, or n - 1 for odd n."""
    return pd_text(switch(closure_rows([1] * n, 2), range(0, n, 2)))


def switch_crossing(text: str, idx: int) -> str:
    return pd_text(switch(tp.parse_pd(text).crossings, [idx]))


def relabel_shift(pd_text: str, shift: int) -> str:
    d = tp.parse_pd(pd_text)
    top = max(lab for row in d.crossings for lab in row)
    rows = [tuple((lab + shift - 1) % top + 1 for lab in row)
            for row in d.crossings]
    return "PD[" + ", ".join("X(%d,%d,%d,%d)" % r for r in rows) + "]"


def grid_pd(xs, os) -> str | None:
    """PD code of the grid diagram with an X at (c, xs[c]) and an O at
    (c, os[c]) in each column c, or None if it has no crossings.

    xs and os are permutations of 0..k-1 with xs[c] != os[c].  Verticals
    run X -> O, horizontals O -> X, and verticals pass over (Cromwell's
    arc presentations).  Each entry lists its edges counterclockwise
    from the incoming horizontal; components without crossings drop out.
    """
    xcol = {r: c for c, r in enumerate(xs)}
    ocol = {r: c for c, r in enumerate(os)}

    def inside(a, b, t):
        return min(a, b) < t < max(a, b)

    def run(a, b):
        return range(a + 1, b) if a < b else range(a - 1, b, -1)

    visits = {}     # (crossing, vertical?): [label in, label out]
    seen = set()
    for start in range(len(xs)):
        path, c = [], start
        while c not in seen:
            seen.add(c)
            path += [((c, r), True) for r in run(xs[c], os[c])
                     if inside(ocol[r], xcol[r], c)]
            r = os[c]
            path += [((x, r), False) for x in run(ocol[r], xcol[r])
                     if inside(xs[x], os[x], r)]
            c = xcol[r]
        base = 1 + len(visits)
        for i, visit in enumerate(path):
            visits.setdefault(visit, [0, 0])[1] = base + i
            following = path[(i + 1) % len(path)]
            visits.setdefault(following, [0, 0])[0] = base + i
    if not visits:
        return None
    rows = []
    for c, r in sorted({point for point, _ in visits}):
        h_in, h_out = visits[(c, r), False]
        v_in, v_out = visits[(c, r), True]
        east = xcol[r] > ocol[r]
        north = os[c] > xs[c]
        # Counterclockwise from the incoming horizontal: W S E N or E N W S.
        rows.append((h_in, v_in, h_out, v_out) if east == north
                    else (h_in, v_out, h_out, v_in))
    return pd_text(rows)


def tree_subcomplex(est, cx):
    """The closed subcomplex Y of an extended spanning tree: every
    crossing, the tree edges and the tree faces."""
    return tp.Subcomplex(vertices=frozenset(range(cx.n)), edges=est.edges,
                         faces=est.faces)


def disjoint_union(pd_a: str, pd_b: str) -> str:
    return pd_text(union_rows(tp.parse_pd(pd_a).crossings,
                              tp.parse_pd(pd_b).crossings))


@pytest.fixture(scope="session")
def corpus():
    return {name: tp.parse_pd(text) for name, text in CORPUS_TEXTS.items()}


@pytest.fixture(params=CORPUS_NAMES)
def corpus_entry(request, corpus):
    return request.param, corpus[request.param]


@pytest.fixture(scope="session")
def corpus_complexes(corpus):
    return {name: tp.CellComplex(d) for name, d in corpus.items()}
