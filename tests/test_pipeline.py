"""certify: one run of every step per component, each result kept."""

import dataclasses
from pathlib import Path

import pytest

import threepage as tp
from threepage import cli, pipeline
from threepage.binding import INSIDE_OVER, INSIDE_UNDER, KIND_NEAR

from conftest import CORPUS_NAMES, HOPF, KINK, TREFOIL_SWITCHED


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_certificate_holds_each_step(corpus, name):
    d = corpus[name]
    cert = tp.certify(d)
    cx = cert.complex
    assert cert.m_mode == "greedy" and cert.search is None
    assert cert.tree == tp.greedy_max_faces(cx)
    assert cert.raw == tp.boundary_sequence(cert.tree, cx)
    assert len(cert.raw.points) == 3 * d.n + 1 - len(cert.tree.faces)
    assert cert.final == tp.repair(cert.raw, d)
    assert cert.binding == tp.verify_binding(cert.final, d)
    assert cert.presentation == tp.to_presentation(cert.final)
    assert cert.pages == tp.verify_pages(cert.presentation)
    assert cert.verified
    assert cert.presentation.bound == len(cert.final.points)


def test_exact_and_tree_only_modes():
    d = tp.parse_pd(HOPF)
    cert = tp.certify(d, tp.RunConfig(exact=True))
    assert cert.m_mode == "exact" and cert.search.exact
    assert cert.tree == cert.search.est
    cert = tp.certify(d, tp.RunConfig(exact=True, budget=1))
    assert cert.m_mode == "exact(budget-hit)" and not cert.search.exact
    cert = tp.certify(d, tp.RunConfig(extend=False))
    assert cert.m_mode == "tree-only" and cert.search is None
    assert not cert.tree.faces
    assert len(cert.final.points) == 3 * d.n + 1


def test_readme_library_example(capsys):
    """README's Library block runs and prints what its comments say."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("# ", 1)[1] for line in block.splitlines()
            if line.startswith("print(")]
    exec(compile(block, str(readme), "exec"), {})
    assert want and capsys.readouterr().out.splitlines() == want


def test_no_repair_presents_the_raw_walk():
    d = tp.parse_pd(TREFOIL_SWITCHED)
    cert = tp.certify(d, tp.RunConfig(repair=False))
    assert cert.final is cert.raw and not cert.final.repaired
    assert cert.binding == tp.verify_binding(cert.raw, d)
    assert not cert.binding.c4_alternation and not cert.verified
    assert not cert.pages.pages_distinct_ok
    repaired = tp.certify(d)
    assert repaired.verified and repaired.raw == cert.raw
    assert len(repaired.final.points) < len(cert.raw.points)


def test_kink_certificate():
    cert = tp.certify(tp.parse_pd(KINK), tp.RunConfig(exact=True))
    assert cert.verified and cert.presentation.bound == 2


@pytest.mark.parametrize("text", [KINK, "PD[X(2,1,1,2)]",
                                  "PD[X(1,1,2,2), X(4,3,3,4)]"])
@pytest.mark.parametrize("config, m_mode", [
    (tp.RunConfig(extend=False), "tree-only"),
    (tp.RunConfig(exact=True, budget=1), "exact(budget-hit)")])
def test_treeless_walk_circles_crossing_0(text, config, m_mode):
    """A one-crossing component with no face has an empty tree, without
    extension or when the search stops before it takes a face.  Its
    circle cuts near darts 0-3 in turn, and repair leaves it alone."""
    for d in tp.parse_pd(text).connected_components():
        cert = tp.certify(d, config)
        assert cert.m_mode == m_mode and not cert.tree.edges
        assert [(p.kind, p.anchor_dart) for p in cert.raw.points] == \
            [(KIND_NEAR, x) for x in range(4)]
        assert cert.final.points == cert.raw.points
        assert cert.verified and cert.presentation.bound == 4


def test_failing_pages_give_an_unverified_row(monkeypatch):
    bad = tp.PageReport(ok=False, degree_ok=True, pages_distinct_ok=True,
                        planar_ok=False,
                        offenders=("page-1 arcs 0 and 2 interleave",))
    monkeypatch.setattr(pipeline, "verify_pages", lambda pres: bad)
    cert = tp.certify(tp.parse_pd(HOPF))
    assert not cert.verified and cert.binding.ok
    assert cert.pages.offenders == bad.offenders
    row, severity = cli.analyze_entry("hopf", HOPF, cli.RunConfig())
    assert severity == cli.VERIFICATION and row["bound"] is None
    assert row["failure"] == \
        "verification: pages: page-1 arcs 0 and 2 interleave"


@pytest.mark.parametrize("repair", [True, False])
def test_broken_walk_gives_an_unverified_row(monkeypatch, repair):
    """A walk that breaks its own contract is caught by the one
    verify_binding on the presented circle, repaired or not."""
    walk = pipeline.boundary_sequence

    def flipped(est, cx):
        raw = walk(est, cx)
        arc = raw.arcs[0]
        typ = INSIDE_OVER if arc.type == INSIDE_UNDER else INSIDE_UNDER
        return dataclasses.replace(raw, arcs=(
            dataclasses.replace(arc, type=typ),) + raw.arcs[1:])

    monkeypatch.setattr(pipeline, "boundary_sequence", flipped)
    config = tp.RunConfig(repair=repair)
    cert = tp.certify(tp.parse_pd(TREFOIL_SWITCHED), config)
    assert not cert.verified and not cert.binding.c3_types
    assert any(o.startswith("types: ") for o in cert.binding.offenders)
    row, severity = cli.analyze_entry("trefoil", TREFOIL_SWITCHED, config)
    assert severity == cli.VERIFICATION and row["bound"] is None
    assert "types: " in row["failure"]
