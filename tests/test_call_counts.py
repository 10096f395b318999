"""How often one CLI row runs each verifier and search; no timing.

Every module of the package that binds repair, verify_binding,
verify_pages or exact_max_faces gets a counting wrapper in its place,
then cli.analyze_entry runs one row.  Each step runs once per component:
one repair, one verify_binding on the repaired circle and one
verify_pages.  Under --no-repair no repair runs, and verify_binding
checks the raw walk.  A growth guard counts the arcs repair builds on a
long chain of merges.
"""

import sys

import pytest

import threepage as tp
from threepage import binding, cli

from conftest import (CORPUS_TEXTS, FIGURE_EIGHT, TREFOIL_SWITCHED,
                      disjoint_union, switched_torus_pd)

COUNTED = ("repair", "verify_binding", "verify_pages", "exact_max_faces")


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)
    package = sys.modules["threepage"]
    for name in COUNTED:
        inner = getattr(package, name)

        def wrapper(*args, _name=name, _inner=inner, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "threepage" and \
                    getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("text, parts", [
    (TREFOIL_SWITCHED, 1),
    (disjoint_union(TREFOIL_SWITCHED, FIGURE_EIGHT), 2),
])
def test_repaired_row_runs_each_step_once(calls, text, parts):
    row, severity = cli.analyze_entry("row", text, cli.RunConfig())
    assert severity == cli.OK and row["components"] == parts
    assert row["points_after"] < row["points_before"]
    assert calls == {"repair": parts, "verify_binding": parts,
                     "verify_pages": parts, "exact_max_faces": 0}


@pytest.mark.parametrize("text, parts", [
    (TREFOIL_SWITCHED, 1),
    (disjoint_union(TREFOIL_SWITCHED, FIGURE_EIGHT), 2),
])
def test_unrepaired_row_verifies_the_walk_once(calls, text, parts):
    row, _ = cli.analyze_entry("row", text, cli.RunConfig(repair=False))
    assert row["components"] == parts
    assert calls == {"repair": 0, "verify_binding": parts,
                     "verify_pages": parts, "exact_max_faces": 0}


def test_budget_hit_row_searches_once(calls):
    # budget 20 stops the exact search on granny before it finishes
    config = cli.RunConfig(exact=True, nsis=True, budget=20)
    row, severity = cli.analyze_entry("granny", CORPUS_TEXTS["granny"],
                                      config)
    assert severity == cli.OK and row["m_mode"] == "exact(budget-hit)"
    assert row["m_max"] == row["m"]
    assert calls["exact_max_faces"] == 1


def test_repair_builds_each_merged_arc_once(monkeypatch):
    """Switched T(2, 1000) makes some two thousand merges on the greedy
    tree; repair builds one Arc per merged arc, not one per merge."""
    d = tp.parse_pd(switched_torus_pd(1000))
    cx = tp.CellComplex(d)
    raw = tp.boundary_sequence(tp.greedy_max_faces(cx), cx)
    built, real = [], binding.Arc

    def arc(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(binding, "Arc", arc)
    fixed = tp.repair(raw, d)
    assert len(raw.points) - len(fixed.points) >= 999
    assert len(built) == sum(len(a.crossings) > 1 for a in fixed.arcs)
