"""Command line front end.

Reads diagram files (one `name: PD[...]` entry per line, `#` comments),
runs the full pipeline per entry and emits text, CSV or JSON reports,
plus SVG figures on request.  Output bytes are a function of the input
file and the flags; nothing else leaks in.

Exit codes: 0 ok, 1 parse error, 2 validation error (or two rows that
map to one SVG file, or an SVG file that cannot be written), 3
verification failure or an internal error.  A bound is only ever
printed when its presentation passed every verifier; failing rows carry
the failure text instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

from .diagram import PlaneDiagram, parse_pd
from .errors import DiagramError, PDSyntaxError
from .nsis import nsis_exact, nsis_greedy_leafy, nsis_ratio_report
from .pipeline import RunConfig, certify
from .presentation import render_svg
from .spanning import exact_max_faces, oracle_max_faces, witness_pair

OK, PARSE, VALIDATION, VERIFICATION = 0, 1, 2, 3

CSV_COLUMNS = ["name", "n", "components", "reduced", "alternating", "faces",
               "m", "m_mode", "points_before", "points_after", "bound",
               "verified", "oracle_m", "nsis_max", "nsis_greedy", "m_max",
               "witness", "failure", "notes"]
# Row value = sum over components; None when any component has none.
SUMMED = ("n", "faces", "m", "points_before", "points_after", "bound",
          "oracle_m", "nsis_max", "nsis_greedy", "m_max")


def read_entries(path: str) -> list[tuple[str, str, str | None]]:
    """(name, pd-text, error) per non-comment line; errors stay in-band.

    Each line is decoded as UTF-8 on its own, so a line that is not
    becomes a parse error row and the other rows still run.  A byte-order
    mark at the start of the file is dropped.
    """
    entries = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
        except UnicodeDecodeError:
            entries.append((f"line-{lineno}", "",
                            f"parse: line {lineno} is not valid UTF-8"))
            continue
        if not line or line.startswith("#"):
            continue
        name, sep, body = line.partition(":")
        name, body = name.strip(), body.strip()
        if not sep or not name or not body:
            entries.append((f"line-{lineno}", "",
                            f"parse: line {lineno} is not 'name: PD[...]'"))
            continue
        entries.append((name, body, None))
    return entries


def _component_report(comp: PlaneDiagram, config: RunConfig) -> dict:
    cert = certify(comp, config)
    cx = cert.complex
    notes = []
    if comp.n <= 2:
        notes.append("n<=2: generic 3n+1-m count, no structural shortcuts")
    failures = list(cert.binding.offenders[:3])
    failures.extend("pages: " + off for off in cert.pages.offenders[:3])

    out = {
        "n": comp.n,
        "reduced": comp.is_reduced(),
        "alternating": comp.is_alternating(),
        "faces": cx.face_count,
        "m": len(cert.tree.faces),
        "m_mode": cert.m_mode,
        "points_before": len(cert.raw.points),
        "points_after": len(cert.final.points),
        "bound": cert.presentation.bound if cert.verified else None,
        "verified": cert.verified,
        "failures": failures,
        "notes": notes,
        "presentation": cert.presentation,
    }

    if config.oracle:
        if comp.n <= 6:
            out["oracle_m"] = oracle_max_faces(cx)
        else:
            out["oracle_m"] = None
            notes.append("oracle skipped: n>6")
    if comp.n >= 3 and out["reduced"]:
        w = witness_pair(cx)
        if w is None:
            out["witness"] = "none"
            notes.append("witness: no feasible face pair at a shared "
                         "crossing; bound unaffected")
        else:
            out["witness"] = f"e{w.edge_a}+e{w.edge_b}:f{w.face_a}+f{w.face_b}"
    else:
        out["witness"] = "skipped"
    if config.nsis:
        graph = cx.dual_graph()
        ex = nsis_exact(graph, budget=config.budget)
        out["nsis_max"] = ex.size
        out["nsis_greedy"] = len(nsis_greedy_leafy(graph))
        out["m_max"] = (cert.search
                        or exact_max_faces(cx, budget=config.budget)).m
    return out


def _blank_row(name: str, failure: str | None = None) -> dict:
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(name=name, failure=failure, notes=[], presentations=[])
    return row


def analyze_entry(name: str, body: str, config: RunConfig) -> tuple[dict, int]:
    """One report row plus its severity; never raises.

    An exception no step is documented to raise is a bug: its traceback
    goes to stderr and the row fails as ``internal: <Type>: <message>``
    with severity 3, so the other rows of a batch run are still reported
    and exit 1 keeps meaning a parse error.
    """
    row = _blank_row(name)
    try:
        components = parse_pd(body).connected_components()
        if not components:
            row.update(n=0, components=1, bound=1, verified=True,
                       notes=["no crossings: one arc embeds the circle"])
            return row, OK
        parts = [_component_report(c, config) for c in components]
    except PDSyntaxError as exc:
        row["failure"] = f"parse: {exc}"
        return row, PARSE
    except DiagramError as exc:
        row["failure"] = f"validation: {exc}"
        return row, VALIDATION
    except Exception as exc:  # a bug; keep the other rows going
        import traceback  # only on this path: it costs start-up time
        traceback.print_exc(file=sys.stderr)
        row["failure"] = f"internal: {type(exc).__name__}: {exc}"
        return row, VERIFICATION

    for key in SUMMED:
        vals = [p.get(key) for p in parts]
        row[key] = None if None in vals else sum(vals)
    row["components"] = len(parts)
    row["reduced"] = all(p["reduced"] for p in parts)
    row["alternating"] = all(p["alternating"] for p in parts)
    # One component that hit the budget makes the summed m a lower bound.
    modes = [p["m_mode"] for p in parts]
    row["m_mode"] = "exact(budget-hit)" if "exact(budget-hit)" in modes \
        else modes[0]
    for p in parts:
        row["notes"].extend(p["notes"])
    if len(parts) > 1:
        row["notes"].append(f"split: bound summed over {len(parts)} components")
    witnesses = [p["witness"] for p in parts if p["witness"] != "skipped"]
    row["witness"] = witnesses[0] if witnesses else "skipped"

    row["verified"] = all(p["verified"] for p in parts)
    if row["verified"]:
        row["presentations"] = [p["presentation"] for p in parts]
        return row, OK
    bad = [f for p in parts for f in p["failures"]]
    row["failure"] = "verification: " + "; ".join(bad[:4])
    return row, VERIFICATION


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _write_svgs(rows: list[dict], config: RunConfig) -> tuple[list[str], int]:
    """Sorted paths written, and VALIDATION if a row was skipped because
    an earlier row had written its file, or if the directory or a file
    could not be written; the rows are reported either way."""
    try:
        os.makedirs(config.svg_dir, exist_ok=True)
    except OSError as exc:
        print(f"validation: cannot write SVG: {exc}", file=sys.stderr)
        return [], VALIDATION
    writer: dict[str, str] = {}  # path -> name of the row that wrote it
    severity = OK
    for row in rows:
        pres_list = row.get("presentations") or []
        for i, pres in enumerate(pres_list):
            stem = _safe_name(row["name"])
            if len(pres_list) > 1:
                stem = f"{stem}.{i}"
            out_path = os.path.join(config.svg_dir, stem + ".svg")
            if out_path in writer:
                print(f"validation: rows {writer[out_path]!r} and "
                      f"{row['name']!r} both map to {out_path}; "
                      f"kept the first", file=sys.stderr)
                severity = VALIDATION
                continue
            try:
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write(render_svg(pres))
            except OSError as exc:
                print(f"validation: cannot write SVG: {exc}", file=sys.stderr)
                severity = VALIDATION
                continue
            writer[out_path] = row["name"]
    return sorted(writer), severity


def _row_public(row: dict) -> dict:
    public = {c: row.get(c) for c in CSV_COLUMNS}
    public["notes"] = "; ".join(row["notes"]) if row.get("notes") else ""
    return public


def _format_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        public = _row_public(row)
        for key, val in public.items():
            if val is None:
                public[key] = ""
            elif isinstance(val, bool):
                public[key] = "true" if val else "false"
        writer.writerow(public)
    return buf.getvalue()


def _nsis_report(rows: list[dict]) -> dict:
    """nsis_ratio_report over the rows with crossings and an NSIS size."""
    return nsis_ratio_report(
        [r for r in rows if r.get("nsis_max") is not None and r.get("n")])


def _format_json(rows: list[dict], severity: int, config: RunConfig) -> str:
    payload = {"rows": [_row_public(r) for r in rows], "exit": severity}
    if config.nsis:
        payload["nsis_report"] = _nsis_report(rows)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _format_text(rows: list[dict], config: RunConfig) -> str:
    lines = []
    for row in rows:
        if row.get("failure"):
            lines.append(f"{row['name']}: FAIL {row['failure']}")
        else:
            bits = [f"n={row['n']}", f"components={row['components']}"]
            for key in ("reduced", "alternating"):    # None on PD[]
                if row[key] is not None:
                    bits.append(f"{key}={'yes' if row[key] else 'no'}")
            if row.get("faces") is not None:
                bits += [f"F={row['faces']}", f"m={row['m']}({row['m_mode']})",
                         f"points={row['points_before']}/{row['points_after']}"]
            bits.append(f"bound={row['bound']}")
            if row.get("oracle_m") is not None:
                bits.append(f"oracle_m={row['oracle_m']}")
            if row.get("nsis_max") is not None:
                bits += [f"nsis_max={row['nsis_max']}",
                         f"nsis_greedy={row['nsis_greedy']}",
                         f"m_max={row['m_max']}"]
            if row.get("witness") and row["witness"] != "skipped":
                bits.append(f"witness={row['witness']}")
            lines.append(f"{row['name']}: " + " ".join(bits))
        for note in row.get("notes") or []:
            lines.append(f"  note: {note}")
    counts = {"ok": 0, "parse": 0, "validation": 0, "verification": 0}
    for row in rows:
        f = row.get("failure") or ""
        key = f.split(":", 1)[0] if f else "ok"
        counts[key if key in counts else "verification"] += 1
    lines.append("summary: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if config.nsis:
        rep = _nsis_report(rows)
        if rep["rows"]:
            lines.append(f"min nsis_max/n = {rep['min_nsis_ratio']:.4f}")
            lines.append(f"min m_max/n = {rep['min_m_ratio']:.4f}")
    return "\n".join(lines) + "\n"


def run(path: str, config: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        entries = read_entries(path)
    except OSError as exc:
        print(f"parse: cannot read {path}: {exc}", file=sys.stderr)
        return PARSE

    rows, severity = [], OK
    for name, body, err in entries:
        if err is not None:
            row, sev = _blank_row(name, err), PARSE
        else:
            row, sev = analyze_entry(name, body, config)
        rows.append(row)
        severity = max(severity, sev)
        if config.mode == "analyze" and sev != OK:
            break

    if config.mode in ("batch", "render"):
        rows.sort(key=lambda r: r["name"])

    if config.svg_dir is not None:
        written, svg_severity = _write_svgs(rows, config)
        severity = max(severity, svg_severity)
        if config.mode == "render":
            out.write("".join(p + "\n" for p in written))

    if config.mode != "render":
        if config.fmt == "csv":
            out.write(_format_csv(rows))
        elif config.fmt == "json":
            out.write(_format_json(rows, severity, config))
        else:
            out.write(_format_text(rows, config))
    return severity


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threepage",
        description="Certified upper bounds for three-page link presentations.")
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p):
        p.add_argument("path", help="diagram file, one 'name: PD[...]' per line")
        p.add_argument("--exact", action="store_true",
                       help="exhaustive face search instead of greedy")
        p.add_argument("--budget", type=_positive_int, default=10_000_000,
                       help="search node budget, at least 1")
        p.add_argument("--no-repair", action="store_true",
                       help="keep the raw boundary sequence")
        p.add_argument("--no-extend", action="store_true",
                       help="plain spanning tree, no faces (m=0)")
        p.add_argument("--oracle", action="store_true",
                       help="cross-check m by subcomplex enumeration (n<=6)")
        p.add_argument("--nsis", action="store_true",
                       help="add dual-graph NSIS columns and ratio minima")
        p.add_argument("--format", choices=["json", "csv", "text"], default=None)
        p.add_argument("--svg", metavar="DIR", default=None,
                       help="also write one SVG per diagram into DIR")

    p_analyze = sub.add_parser("analyze", help="full report, stops on error")
    add_common(p_analyze)
    p_batch = sub.add_parser("batch", help="corpus run, per-row failures")
    add_common(p_batch)
    p_render = sub.add_parser("render", help="write SVG figures")
    add_common(p_render)
    p_render.add_argument("outdir", nargs="?", default=None,
                          help="output directory (defaults to --svg or '.')")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fmt = args.format or ("csv" if args.mode == "batch" else "text")
    svg_dir = args.svg
    if args.mode == "render":
        svg_dir = getattr(args, "outdir", None) or args.svg or "."
    return RunConfig(mode=args.mode, exact=args.exact, budget=args.budget,
                     repair=not args.no_repair, extend=not args.no_extend,
                     oracle=args.oracle, nsis=args.nsis, fmt=fmt,
                     svg_dir=svg_dir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.path, config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
