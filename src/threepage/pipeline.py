"""One certified run of the construction per connected component.

certify builds the cell complex, picks the extended spanning tree, walks
the binding circle, repairs it and runs each verifier once, on what it
presents.  Every result and report is kept in a Certificate.  The CLI
formats certificates; it runs no step of the construction itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binding import (BindingReport, BindingSequence, boundary_sequence,
                      repair, verify_binding)
from .cells import CellComplex
from .diagram import PlaneDiagram
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


def certify(comp: PlaneDiagram, config: RunConfig | None = None) -> Certificate:
    """Bound and reports for one connected diagram with at least one crossing.

    The tree comes from the greedy face search, the exact one under
    config.exact, or a plain spanning tree without faces when
    config.extend is off.  Under config.repair off, final is the raw
    walk and no repair runs.  verify_binding runs once, on final: repair
    only merges arcs of one type, so a walk breaking conditions 1-3 still
    breaks them there, and the walk checks its own point and cut counts.
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

    raw = boundary_sequence(est, cx)
    final = repair(raw, comp) if config.repair else raw
    report = verify_binding(final, comp)
    pres = to_presentation(final)
    pages = verify_pages(pres)
    return Certificate(complex=cx, tree=est, m_mode=m_mode, search=search,
                       raw=raw, final=final, binding=report,
                       presentation=pres, pages=pages)
