"""The near-linear tests of the default pipeline against their references.

Incremental face feasibility, the one-pass is_reduced, the sweep
chord-crossing scan, the one-pass repair, the two explicit-stack exact
searches, the union-find component counts, the heap-driven leafy NSIS
growth, the edge-count feasibility test of complete_to_est, the
union-find split of a diagram into pieces, the cut-vertex reach as the
NSIS connectivity test and the edge-count tree check of _require_valid
each replaced a slower version that is still in the code or spelled out
here; both must give the same answers on corpus diagrams and on
generated braid closures, switched crossings and split unions included.
"""

import itertools
import random

import pytest

import threepage as tp
from threepage import binding, presentation, spanning
from threepage.binding import chords_cross, crossing_pairs
from threepage.cells import (Subcomplex, complement_components,
                             subcomplex_components)
from threepage.diagram import _Forest, articulation_points
from threepage.nsis import NsisResult
from threepage.spanning import (ExtendedSpanningTree, SearchResult,
                                 _boundary_edges, complete_to_est,
                                 face_set_feasible)

from conftest import (CORPUS_TEXTS, HOPF, KINK, TWO_CLASPS, braid_closure_pd,
                      disjoint_union, switch_crossing, torus_pd)

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


def reference_complete_to_est(faces, cx):
    """complete_to_est as it was: face_set_feasible, then bridging."""
    faces = frozenset(faces)
    if not face_set_feasible(faces, cx):
        raise tp.DiagramError("face set is not feasible")
    edges = set(_boundary_edges(faces, cx))
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
    adj = d._adjacency
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
    """binding._require_valid as it was: is_contractible on a Subcomplex."""
    d = cx.diagram
    if not all(0 <= e < d.edge_count for e in est.edges):
        raise tp.DiagramError("extended spanning tree has an unknown edge id")
    if not all(0 <= f < cx.face_count for f in est.faces):
        raise tp.DiagramError("extended spanning tree has an unknown face id")
    taken = set()
    for f in sorted(est.faces):
        fe = set(cx.face_edges(f))
        if fe & taken:
            raise tp.DiagramError("extended spanning tree faces share an edge")
        if not fe <= est.edges:
            raise tp.DiagramError("face boundary leaves the tree edge set")
        taken |= fe
    if not tp.is_contractible(est.subcomplex(cx), cx):
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
                ends_at[a.ends[k].point].append((a.id, k))
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
        n=seq.n, m=seq.m, repaired=True,
        tree_edges=seq.tree_edges, tree_faces=seq.tree_faces)


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


FIXED = sorted(CORPUS_TEXTS.values()) + [
    KINK, HOPF, TWO_CLASPS, torus_pd(9),
    braid_closure_pd([1, 1, 2, 2, -1, 3, -2, 3], 4),
    braid_closure_pd([1, -2, 1, -2, 1], 3),
    braid_closure_pd([1, 2, 3, 1, 2, 3, 1, 2, 3], 4),
    switch_crossing(braid_closure_pd([1, -2, 1, -2, 1, -2], 3), 2),
    disjoint_union(KINK, torus_pd(5)),
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
    want = reference_witness(cx)
    if want is None:
        with pytest.raises(tp.InternalError):
            tp.witness_pair(cx)
    else:
        assert tp.witness_pair(cx) == want


@pytest.mark.parametrize("k", range(len(FIXED_DIAGRAMS)))
def test_fixed_cases_match_references(k):
    d = FIXED_DIAGRAMS[k]
    assert d.is_reduced() == reference_is_reduced(d)
    check_greedy(d, seed=k)
    check_witness(d)


def check_repair(d):
    """Merges made on the walks of the greedy tree and of the bfs, dfs and
    random spanning trees.

    Each raw walk meets its own contract, binding conditions 1-3, which
    certify leaves to its one verify_binding on the repaired circle, and
    its repair is a binding circle.
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
        assert fixed == reference_repair(raw, d), est
        assert tp.verify_binding(fixed, d).ok, est
        merges += len(raw.points) - len(fixed.points)
    return merges


def test_repair_matches_rescan_on_fixed_cases():
    assert sum(check_repair(d) for d in FIXED_DIAGRAMS) > 0


@settings(max_examples=150, deadline=None)
@given(closures())
def test_repair_matches_rescan(text):
    for d in components(text):
        check_repair(d)


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
@given(closures(), st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_leafy_matches_reference(text, seeds, rng):
    for d in components(text):
        check_leafy(d, seeds, rng)


@settings(max_examples=150, deadline=None)
@given(closures(max_n=12), st.data())
def test_articulation_points_match_reference(text, data):
    """On connected and disconnected induced subgraphs of the dual."""
    cx = tp.CellComplex(components(text)[0])
    adj = cx.dual_graph().adjacency
    verts = data.draw(st.sets(st.sampled_from(sorted(adj)), min_size=1))
    cut, reached = articulation_points(verts, adj)
    assert (reached == len(verts)) == reference_connected(verts, adj)
    if reached == len(verts):
        assert cut == reference_articulation_points(verts, adj)
    graph = tp.SimpleGraph.from_dual(cx.dual_graph())
    assert graph.is_connected() == reference_connected(set(adj), adj)
    rest = set(adj) - verts
    independent = all(not adj[v] & verts for v in verts)
    assert tp.is_nsis(graph, verts) == \
        (independent and reference_connected(rest, adj))


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
        edges = set(_boundary_edges(faces, cx))
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

    crossed = counting(monkeypatch, binding, "chords_cross")
    # also count calls through a name imported into presentation
    monkeypatch.setattr(presentation, "chords_cross", binding.chords_cross,
                        raising=False)
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
            try:
                tp.witness_pair(tp.CellComplex(d))
            except tp.InternalError:
                pass    # no pair found: every pair was tried and undone
            calls += 1
    assert calls > 0 and len(built) == calls


def test_exact_searches_make_one_pass_per_node(monkeypatch):
    """No feasibility rebuild and no separate connectivity pass: the NSIS
    search's root cut-vertex pass is its connectivity check."""
    from threepage import nsis
    cx = tp.CellComplex(tp.parse_pd(braid_closure_pd([1, -2] * 6, 3)))
    feasible = counting(monkeypatch, spanning, "face_set_feasible")
    res = tp.exact_max_faces(cx)
    assert res.exact and res.nodes > 100
    assert feasible == []        # complete_to_est counts tree edges
    graph = tp.SimpleGraph.from_dual(cx.dual_graph())
    assert not hasattr(nsis, "_connected")
    connected = counting(monkeypatch, nsis, "articulation_points")
    passes = counting(monkeypatch, nsis, "cut_vertices")
    res = tp.nsis_exact(graph)
    assert res.exact and res.nodes > 100
    assert connected == []       # no is_connected() up front
    assert len(passes) < res.nodes

