"""Traced run: spans around the public call into each module of threepage.

`replay_entry` repeats the steps of `threepage.cli._component_report` one
public call at a time, each inside a span recorded here, so the program
itself carries no instrumentation.  `traced_cli_run` times `cli.run`
in-process with spans around `read_entries` and every `analyze_entry`,
which isolates the CLI's own sorting and formatting cost and gives the
untraced total that the tracing overhead is measured against.

A span is ``[name, start_ns, end_ns, parent, row]``; `parent` is the
index of the enclosing span or None, `row` the row id of the entry.
"""

from __future__ import annotations

import io
import math
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

from threepage import (CellComplex, InternalError, SimpleGraph,
                       boundary_sequence, exact_max_faces, greedy_max_faces,
                       nsis_exact, nsis_greedy_leafy, parse_pd, repair,
                       to_presentation, verify_binding, verify_pages,
                       witness_pair)
from threepage import cli

TIMED = (
    "diagram.parse_pd", "diagram.connected_components", "diagram.is_reduced",
    "diagram.is_alternating", "cells.CellComplex", "cells.dual_graph",
    "spanning.greedy_max_faces", "spanning.exact_max_faces",
    "spanning.witness_pair", "binding.boundary_sequence", "binding.repair",
    "binding.verify_binding", "presentation.to_presentation",
    "presentation.verify_pages", "nsis.nsis_exact", "nsis.nsis_greedy_leafy",
)
# Per-component growth exponents; repair is fitted only where it merged.
EXPONENTS = (
    "spanning.greedy_max_faces", "binding.boundary_sequence", "binding.repair",
    "diagram.is_reduced", "spanning.witness_pair", "presentation.verify_pages",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.row = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter_ns(), None, parent, self.row])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter_ns()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def duration(self, idx: int) -> int:
        return self.spans[idx][2] - self.spans[idx][1]


def _replay_component(tr: Tracer, comp, config) -> dict:
    with tr.span("component") as idx:
        cx = tr.call("cells.CellComplex", CellComplex, comp)
        nodes, exact_res = 0, None
        if config.exact:
            exact_res = tr.call("spanning.exact_max_faces", exact_max_faces,
                                cx, budget=config.budget)
            nodes += exact_res.nodes
            est = exact_res.est
        else:
            est = tr.call("spanning.greedy_max_faces", greedy_max_faces,
                          cx, seed=config.seed)
        seq = tr.call("binding.boundary_sequence", boundary_sequence, est, cx)
        final = tr.call("binding.repair", repair, seq, comp) \
            if config.repair else seq
        report = tr.call("binding.verify_binding", verify_binding, final, comp)
        pres = tr.call("presentation.to_presentation", to_presentation, final)
        pages = tr.call("presentation.verify_pages", verify_pages, pres)
        reduced = tr.call("diagram.is_reduced", comp.is_reduced)
        tr.call("diagram.is_alternating", comp.is_alternating)
        if comp.n >= 3 and reduced:
            try:
                tr.call("spanning.witness_pair", witness_pair, cx)
            except InternalError:
                pass
        nsis_nodes = 0
        if config.nsis:
            graph = SimpleGraph.from_dual(tr.call("cells.dual_graph",
                                                  cx.dual_graph))
            nsis_nodes = tr.call("nsis.nsis_exact", nsis_exact, graph,
                                 budget=config.budget).nodes
            tr.call("nsis.nsis_greedy_leafy", nsis_greedy_leafy, graph,
                    seed=config.seed)
            if exact_res is None or not exact_res.exact:
                nodes += tr.call("spanning.exact_max_faces", exact_max_faces,
                                 cx, budget=config.budget).nodes
    return {"span": idx, "n": comp.n, "faces": cx.face_count,
            "m": len(est.faces), "merges": len(seq.points) - len(final.points),
            "bound": len(final.points), "verified": report.ok and pages.ok,
            "nodes": nodes, "nsis_nodes": nsis_nodes}


def replay_entry(tr: Tracer, row_id: int, body: str, config) -> list[dict]:
    """The per-component records of one row, replayed under spans."""
    tr.row = row_id
    with tr.span("row"):
        diagram = tr.call("diagram.parse_pd", parse_pd, body)
        comps = tr.call("diagram.connected_components",
                        diagram.connected_components)
        return [_replay_component(tr, c, config) for c in comps]


def traced_cli_run(tr: Tracer, path: str, config, row_ids: dict) -> tuple:
    """(CSV text, cli.run self seconds, summed analyze_entry seconds)."""
    read_orig, analyze_orig = cli.read_entries, cli.analyze_entry
    read_spans, analyze_spans = [], []

    def read_entries(p):
        with tr.span("cli.read_entries") as idx:
            read_spans.append(idx)
            return read_orig(p)

    def analyze_entry(name, body, cfg):
        tr.row = row_ids[name]
        with tr.span("cli.analyze_entry") as idx:
            analyze_spans.append(idx)
            return analyze_orig(name, body, cfg)

    out = io.StringIO()
    cli.read_entries, cli.analyze_entry = read_entries, analyze_entry
    try:
        tr.row = None
        with tr.span("cli.run") as run_idx:
            cli.run(path, config, out=out)
    finally:
        cli.read_entries, cli.analyze_entry = read_orig, analyze_orig
    analyzed = sum(tr.duration(i) for i in analyze_spans)
    self_ns = tr.duration(run_idx) - analyzed - \
        sum(tr.duration(i) for i in read_spans)
    return out.getvalue(), self_ns / 1e9, analyzed / 1e9


def _slope(points) -> float:
    """Least-squares slope of log t against log n; 0 with fewer than two n."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def pass_metrics(tr: Tracer, first_span: int, comps: list[dict]) -> dict:
    """Per-layer metrics of one replay pass, from spans[first_span:]."""
    total = dict.fromkeys(TIMED, 0)
    calls = dict.fromkeys(TIMED, 0)
    by_comp: dict[int, dict[str, int]] = {}
    for idx in range(first_span, len(tr.spans)):
        name, start, end, parent, _ = tr.spans[idx]
        if name in total:
            total[name] += end - start
            calls[name] += 1
            by_comp.setdefault(parent, {})[name] = end - start
    out = {}
    for name in TIMED:
        out[f"{name}.s"] = total[name] / 1e9
        out[f"{name}.calls"] = calls[name]
    faces = sum(c["faces"] for c in comps)
    out["spanning.faces_chosen_ratio"] = sum(c["m"] for c in comps) / faces
    for name, key in (("spanning.exact_max_faces", "nodes"),
                      ("nsis.nsis_exact", "nsis_nodes")):
        nodes = sum(c[key] for c in comps)
        out[f"{name}.nodes"] = nodes
        out[f"{name}.nodes_per_s"] = nodes / out[f"{name}.s"] if nodes else 0.0
    out["binding.repair.merges"] = sum(c["merges"] for c in comps)
    for name in EXPONENTS:
        points = [(c["n"], by_comp[c["span"]].get(name, 0) / 1e9)
                  for c in comps
                  if name != "binding.repair" or c["merges"] > 0]
        out[f"{name}.exponent"] = _slope(points)
    return out
