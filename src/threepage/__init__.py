"""Certified upper bounds on the three-page index of links.

Pipeline: parse a PD code, build the cell complex of the diagram, pick
an extended spanning tree (maximizing the face count m), walk the
boundary of its neighborhood into a binding circle with 3n+1-m points,
optionally repair mergeable cut points, and verify the resulting
circular three-page presentation independently.  `certify(component,
RunConfig(...))` runs these steps once each on a connected diagram and
returns them all in a `Certificate`; the CLI formats certificates.  The
dual-graph NSIS reformulation and brute-force oracles cross-check the
search layers.
"""

from .binding import (ARC_TYPES, Arc, BindingPoint, BindingReport,
                      BindingSequence, boundary_sequence, repair,
                      verify_binding)
from .cells import (CellComplex, Subcomplex, complement_components,
                    euler_characteristic, is_closed, is_contractible,
                    subcomplex_components)
from .diagram import (PlaneDiagram, canonical_form, crossing_of, dart_id,
                      parse_pd, rotate, slot_of)
from .errors import DiagramError, InternalError, PDSyntaxError
from .nsis import (NsisResult, SimpleGraph, is_nsis, nsis_exact,
                   nsis_greedy_leafy, nsis_ratio_report)
from .pipeline import Certificate, RunConfig, certify
from .presentation import (PAGE_BY_TYPE, Chord, OverlayResult, PageReport,
                           ThreePagePresentation, chords_cross,
                           interleaving_pairs, overlay_reconstruct,
                           render_svg, to_presentation, verify_pages)
from .spanning import (ExtendedSpanningTree, SearchResult, Witness,
                       complete_to_est, exact_max_faces, face_set_feasible,
                       greedy_max_faces, oracle_max_faces, spanning_tree,
                       witness_pair)

__version__ = "0.1.0"

__all__ = [
    "ARC_TYPES", "PAGE_BY_TYPE",
    "Arc", "BindingPoint", "BindingReport", "BindingSequence",
    "CellComplex", "Certificate", "Chord", "DiagramError",
    "ExtendedSpanningTree", "InternalError", "NsisResult", "OverlayResult",
    "PDSyntaxError", "PageReport", "PlaneDiagram", "RunConfig",
    "SearchResult", "SimpleGraph", "Subcomplex", "ThreePagePresentation",
    "Witness",
    "boundary_sequence", "canonical_form", "certify", "chords_cross",
    "complement_components", "complete_to_est", "crossing_of", "dart_id",
    "euler_characteristic", "exact_max_faces", "face_set_feasible",
    "greedy_max_faces", "interleaving_pairs", "is_closed", "is_contractible",
    "is_nsis", "nsis_exact", "nsis_greedy_leafy", "nsis_ratio_report",
    "oracle_max_faces", "overlay_reconstruct", "parse_pd", "render_svg",
    "repair", "rotate", "slot_of", "spanning_tree", "subcomplex_components",
    "to_presentation", "verify_binding", "verify_pages", "witness_pair",
]
