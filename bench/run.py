"""threepage benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload knot-table --seed 0 --seconds 30 --trace 0

Run from the repository root.  The inputs are generated from --seed and
written under bench/out/; the program under test is the source tree in
src/, run as ``python -m threepage.cli batch FILE`` in a child process.

--trace 0 measures what a user sees, for --seconds: one `batch` child
(exit code, CSV and peak RSS, taken with os.wait4), then repeated
in-process passes of `analyze_entry` over every row, with the CLI's
start-up on an empty file timed between rows.  Timings are medians: a
row's median over the passes, the median start-up.  The batch CSV passes
the correctness gate in `check_rows`, every pass must reproduce its
bytes, and at the recorded default seed its sha256 must match
bench/expected.json.

--trace 1 replays each row one public call at a time under spans (see
replay.py), checks the replay's m and bound against the CLI's CSV, reports
the per-layer metrics and writes every span to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A missing source tree exits 2 without a result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD_TIMEOUT_S = 120
SETUP_RUNS = 9
SETUP_EVERY_S = 2.0


class ChildFailed(RuntimeError):
    """A CLI child process failed; the run ends without a result."""


def _workloads(gen) -> dict:
    """Workload name -> (generator, extra `batch` flags)."""
    return {
        "knot-table": (gen.knot_table, []),
        "braid-ladder": (gen.braid_ladder, []),
        "exact-search": (gen.exact_search,
                         ["--exact", "--nsis", "--budget", str(gen.EXACT_BUDGET)]),
    }


def rounds(seconds: float, minimum: int, start: float):
    """Count rounds while the run, at its average round length, ends
    nearest to `seconds` after `start`; never fewer than `minimum`."""
    first = time.perf_counter()
    done = 0
    while True:
        now = time.perf_counter()
        if done >= minimum and now + (now - first) / (2 * done) - start >= seconds:
            return
        yield done
        done += 1


def run_child(args: list[str]) -> tuple[float, int, int, bytes]:
    """(wall seconds, exit code, peak RSS in KiB, stdout) of one CLI run.

    os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would report
    the maximum over every child reaped so far.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(os.path.join(OUT, "child.out"), "w+b") as out, \
            open(os.path.join(OUT, "child.err"), "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "threepage.cli", *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        return wall, proc.returncode, usage.ru_maxrss, out.read()


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_rows(rows: list[dict], names: list[str], exact: bool) -> list[str]:
    """Problems with one batch CSV; empty when the gate passes."""
    if [r["name"] for r in rows] != sorted(names):
        return [f"CSV rows {len(rows)} do not match the {len(names)} inputs"]
    problems = []
    for r in rows:
        if r["verified"] != "true":
            problems.append(f"{r['name']}: not verified: {r['failure']}")
            continue
        n, comps, m = int(r["n"]), int(r["components"]), int(r["m"])
        before, after, bound = (int(r["points_before"]),
                                int(r["points_after"]), int(r["bound"]))
        if before != 3 * n + comps - m:
            problems.append(f"{r['name']}: points_before {before} != 3n+c-m")
        if not bound == after <= before:
            problems.append(f"{r['name']}: bound {bound}, points {before}/{after}")
        if exact:
            m_max, nsis_max = int(r["m_max"]), int(r["nsis_max"])
            if m > m_max:
                problems.append(f"{r['name']}: m {m} > m_max {m_max}")
            # Budget-hit searches give lower bounds, which need not compare.
            if r["m_mode"] == "exact" and m_max > nsis_max:
                problems.append(f"{r['name']}: m_max {m_max} > nsis_max {nsis_max}")
    return problems


def untraced(workload, entries, path, config, flags, seconds, seed,
             expected_sha, start):
    from threepage.cli import _format_csv, analyze_entry

    empty = os.path.join(OUT, "empty.txt")
    open(empty, "w").close()
    run_child(["batch", empty])  # compiles bytecode; users do not pay this per run
    setup = []

    def measure_setup():
        wall, code, _, text = run_child(["batch", empty])
        if code != 0 or not text.startswith(b"name,"):
            raise ChildFailed(f"CLI on an empty file exited {code}")
        setup.append(wall)

    # One `batch` child gives what a user runs: exit code, peak RSS and the
    # CSV bytes that every in-process pass must reproduce.
    batch_wall, code, maxrss, text = run_child(["batch", path, *flags])
    if code != 0:
        raise ChildFailed(f"batch exited {code}")

    # Each row is timed once per pass, and its time is the median of its
    # passes.  On a shared host the fastest sample of a run is a rare event
    # whose rate drifts from run to run; the median moves far less.  Every
    # pass visits the rows in its own seeded order, so that the samples of
    # one kind of row are spread over the pass and not taken in one burst.
    # Start-up is sampled between rows every SETUP_EVERY_S, so that its
    # samples span the run.
    row_s: dict[str, list[float]] = {name: [] for name, _ in entries}
    csvs = {text}
    next_setup = time.perf_counter()
    passes = 0
    for k in rounds(seconds, minimum=2, start=start):
        order = list(entries)
        random.Random(f"order:{seed}:{k}").shuffle(order)
        rows = []
        for name, body in order:
            if time.perf_counter() >= next_setup:
                measure_setup()
                next_setup = time.perf_counter() + SETUP_EVERY_S
            t0 = time.perf_counter()
            row, _ = analyze_entry(name, body, config)
            row_s[name].append(time.perf_counter() - t0)
            rows.append(row)
        csvs.add(_format_csv(sorted(rows, key=lambda r: r["name"])).encode())
        passes += 1
    while len(setup) < SETUP_RUNS:
        measure_setup()

    problems = []
    if len(csvs) != 1:
        problems.append("in-process passes and the batch child gave different CSV bytes")
    rows = parse_csv(text.decode())
    problems += check_rows(rows, [name for name, _ in entries],
                           exact=workload == "exact-search")
    digest = hashlib.sha256(text).hexdigest()
    if expected_sha is not None and expected_sha != digest:
        problems.append(f"CSV sha256 {digest} differs from bench/expected.json")

    verified = [r for r in rows if r["verified"] == "true"]
    crossings = sum(int(r["n"]) for r in rows)
    per_row = [statistics.median(v) for v in row_s.values()]
    deciles = statistics.quantiles(per_row, n=10)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "crossings_per_s": (crossings / sum(per_row), "1/s"),
        "row_p50_ms": (statistics.median(per_row) * 1e3, "ms"),
        "row_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (maxrss / 1024, "MiB"),
        "verified_share": (len(verified) / len(rows), "ratio"),
        "arcs_per_crossing": (sum(int(r["bound"]) for r in verified)
                              / sum(int(r["n"]) for r in verified), "ratio"),
        "exact_share": (sum(r["m_mode"] != "exact(budget-hit)" for r in rows)
                        / len(rows), "ratio"),
    }
    print(f"# {workload}: {passes} passes, {len(setup)} start-ups, "
          f"{len(per_row)} rows ({sum(t > deciles[8] for t in per_row)} "
          f"beyond p90), {crossings} crossings, batch child {batch_wall:.3f} s, "
          f"csv sha256 {digest}")
    result = {"attempted": len(entries) * (passes + 1),
              "failed": (len(entries) - len(verified)) * (passes + 1),
              "metrics": metrics}
    return result, problems


def traced(workload, entries, path, config, seconds, seed, start):
    import replay

    row_ids = {name: i for i, (name, _) in enumerate(entries)}
    tr = replay.Tracer()
    passes, problems = [], []
    for _ in rounds(seconds, minimum=1, start=start):
        text, self_s, untraced_s = replay.traced_cli_run(tr, path, config, row_ids)
        first = len(tr.spans)
        comps_by_row = [replay.replay_entry(tr, i, body, config)
                        for i, (_, body) in enumerate(entries)]
        traced_s = sum(tr.duration(i) for i in range(first, len(tr.spans))
                       if tr.spans[i][0] == "row") / 1e9
        comps = [c for cs in comps_by_row for c in cs]
        metrics = replay.pass_metrics(tr, first, comps)
        metrics["cli.run.self_s"] = self_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        passes.append(metrics)
        csv_rows = {r["name"]: r for r in parse_csv(text)}
        for (name, _), cs in zip(entries, comps_by_row):
            got = (str(sum(c["m"] for c in cs)), str(sum(c["bound"] for c in cs)))
            want = (csv_rows[name]["m"], csv_rows[name]["bound"])
            if got != want or not all(c["verified"] for c in cs):
                problems.append(f"{name}: replay m/bound {got} != CSV {want}")

    spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "row"],
                   "rows": [name for name, _ in entries], "spans": tr.spans}, fh)
    print(f"# {workload}: {len(passes)} traced passes, {len(tr.spans)} spans "
          f"written to {os.path.relpath(spans_path, ROOT)}")
    units = {"s": "s", "calls": "count", "nodes": "count", "merges": "count",
             "nodes_per_s": "1/s", "exponent": "exponent", "self_s": "s",
             "overhead_s": "s", "faces_chosen_ratio": "ratio"}
    metrics = {name: (statistics.median_low(p[name] for p in passes),
                      units[name.rsplit(".", 1)[1]])
               for name in passes[0]}
    result = {"attempted": len(entries) * len(passes),
              "failed": len(problems), "metrics": metrics}
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()  # the run's --seconds include making the inputs

    if not os.path.isfile(os.path.join(SRC, "threepage", "cli.py")):
        print(f"no threepage source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gen
    from threepage.cli import build_parser, config_from_args

    workloads = _workloads(gen)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    make, flags = workloads[args.workload]
    os.makedirs(OUT, exist_ok=True)
    entries = make(args.seed)
    path = os.path.join(OUT, f"{args.workload}-{args.seed}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}: {body}\n" for name, body in entries)
    config = config_from_args(build_parser().parse_args(["batch", path, *flags]))

    if args.trace:
        result, problems = traced(args.workload, entries, path, config,
                                  args.seconds, args.seed, start)
    else:
        with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        expected_sha = recorded["csv_sha256"][args.workload] \
            if args.seed == recorded["default_seed"] else None
        try:
            result, problems = untraced(args.workload, entries, path, config,
                                        flags, args.seconds, args.seed,
                                        expected_sha, start)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return 1

    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
