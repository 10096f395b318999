"""One certified run of the construction per connected component.

certify builds the cell complex, picks the extended spanning tree, walks
the binding circle, repairs it and runs each verifier once, keeping every
intermediate result and report in a Certificate.  The CLI formats
certificates; it runs no step of the construction itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binding import (BindingReport, BindingSequence, corner_walk, repair,
                      verify_binding)
from .cells import CellComplex
from .diagram import PlaneDiagram
from .errors import InternalError
from .presentation import (PageReport, ThreePagePresentation, to_presentation,
                           verify_pages)
from .spanning import (ExtendedSpanningTree, SearchResult, exact_max_faces,
                       greedy_max_faces, spanning_tree)


@dataclass
class RunConfig:
    mode: str = "analyze"
    exact: bool = False
    budget: int = 10_000_000
    seed: int = 0
    repair: bool = True
    extend: bool = True
    oracle: bool = False
    nsis: bool = False
    fmt: str = "text"
    svg_dir: str | None = None


@dataclass(frozen=True)
class Certificate:
    """Every step certify ran on one component.

    The bound is len(final.points); it is certified when verified holds.
    """

    complex: CellComplex
    tree: ExtendedSpanningTree
    m_mode: str  # greedy, exact, exact(budget-hit) or tree-only
    search: SearchResult | None  # the exact search, when one ran
    raw: BindingSequence         # the walk, 3n+1-m points
    final: BindingSequence       # raw after repair; raw itself under no-repair
    binding: BindingReport       # verify_binding(final)
    presentation: ThreePagePresentation  # to_presentation(final)
    pages: PageReport            # verify_pages(presentation)

    @property
    def verified(self) -> bool:
        return self.binding.ok and self.pages.ok


def _walk(est: ExtendedSpanningTree, cx: CellComplex) -> tuple:
    """(raw, its report, repaired, its report, presentation, page report).

    Per edge side: walk, verify_binding of the walk (conditions 1-3 are
    the walk's own contract, so a failure there is a bug), repair,
    verify_binding, to_presentation and verify_pages.  The first side
    whose repaired circle passes both verifiers is returned: edge cuts on
    tree edges with two walk sides go on the first-traversed side, and on
    the other one if that fails.
    """
    d = cx.diagram
    problems = []
    for side in (0, 1):
        raw = corner_walk(est, cx, side)
        raw_report = verify_binding(raw, d)
        if not (raw_report.c1_structure and raw_report.c2_coverage
                and raw_report.c3_types):
            raise InternalError(
                f"boundary walk broke its own contract: {raw_report.offenders}")
        fixed = repair(raw, d)
        report = verify_binding(fixed, d)
        pres = to_presentation(fixed)
        pages = verify_pages(pres)
        if report.ok and pages.ok:
            return raw, raw_report, fixed, report, pres, pages
        problems.append(f"side {side}: {report.offenders or pages.offenders}")
    raise InternalError(
        "binding circle invalid on both edge sides: " + "; ".join(problems))


def boundary_sequence(est: ExtendedSpanningTree,
                      cx: CellComplex) -> BindingSequence:
    """Unrepaired cut sequence, 3n+1-m points, on the edge side certify
    uses: the first whose repaired circle verifies, else InternalError."""
    return _walk(est, cx)[0]


def certify(comp: PlaneDiagram, config: RunConfig | None = None) -> Certificate:
    """Bound and reports for one connected diagram with at least one crossing.

    The tree comes from the greedy face search, the exact one under
    config.exact, or a plain spanning tree without faces when
    config.extend is off.  Under config.repair off, final is the raw
    walk and its binding report the one the edge-side choice computed.
    """
    config = config or RunConfig()
    cx = CellComplex(comp)
    search = None
    if not config.extend:
        est = ExtendedSpanningTree(edges=spanning_tree(cx), faces=frozenset())
        m_mode = "tree-only"
    elif config.exact:
        search = exact_max_faces(cx, budget=config.budget)
        est = search.est
        m_mode = "exact" if search.exact else "exact(budget-hit)"
    else:
        est = greedy_max_faces(cx)
        m_mode = "greedy"

    raw, raw_report, final, report, pres, pages = _walk(est, cx)
    if not config.repair:
        final, report = raw, raw_report
        pres = to_presentation(raw)
        pages = verify_pages(pres)
    return Certificate(complex=cx, tree=est, m_mode=m_mode, search=search,
                       raw=raw, final=final, binding=report,
                       presentation=pres, pages=pages)
