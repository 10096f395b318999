"""Golden output: CLI bytes on the regression corpus must not drift.

Every `batch` format under every flag set below, and every SVG that
`render` writes, is reduced to its sha256 and compared with
tests/data/golden.json, together with the exit code.  The SVGs matter:
a wrong orientation of a merged arc leaves CSV, JSON and text unchanged
but moves chord ends in the pictures.  tests/data/degenerate.txt gets
the same treatment against tests/data/degenerate.json: its kinks, split
kinks and empty code reach the walk around a tree with no edge, which
the reduced diagrams of the corpus never do.

After a deliberate change of output, rewrite both files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the bytes moved.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from threepage.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS_PATH = os.path.join(DATA_DIR, "corpus.txt")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden.json")
DEGENERATE_PATH = os.path.join(DATA_DIR, "degenerate.txt")
DEGENERATE_GOLDEN_PATH = os.path.join(DATA_DIR, "degenerate.json")
CORPORA = ((CORPUS_PATH, GOLDEN_PATH),
           (DEGENERATE_PATH, DEGENERATE_GOLDEN_PATH))

FORMATS = ("csv", "json", "text")
FLAG_SETS = (
    (),
    ("--exact",),
    ("--nsis",),
    ("--oracle",),
    ("--no-repair",),
    ("--no-extend",),
    ("--exact", "--no-repair"),
    ("--exact", "--nsis", "--budget", "40"),
    # budget 20 stops the search on some corpus rows and not on others
    ("--exact", "--nsis", "--budget", "20"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


def golden_digests(corpus_path: str) -> dict:
    """{key: "<exit code> <sha256>"} for every output checked."""
    out = {}
    for flags in FLAG_SETS:
        tag = " ".join(flags) or "default"
        for fmt in FORMATS:
            code, data = _main(["batch", corpus_path, "--format", fmt, *flags])
            out[f"batch {fmt} {tag}"] = f"{code} {_sha(data)}"
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = _main(["render", corpus_path, tmp, *flags])
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), "rb") as fh:
                    out[f"render {tag} {name}"] = f"{code} {_sha(fh.read())}"
    return out


def check_golden(corpus_path: str, golden_path: str) -> None:
    with open(golden_path, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden_digests(corpus_path)
    assert sorted(got) == sorted(want)
    changed = [key for key in sorted(want) if got[key] != want[key]]
    assert changed == []


def test_cli_output_matches_golden():
    check_golden(CORPUS_PATH, GOLDEN_PATH)


def test_degenerate_output_matches_golden():
    check_golden(DEGENERATE_PATH, DEGENERATE_GOLDEN_PATH)


if __name__ == "__main__":
    for corpus_path, golden_path in CORPORA:
        digests = golden_digests(corpus_path)
        with open(golden_path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {golden_path}",
              file=sys.stderr)
