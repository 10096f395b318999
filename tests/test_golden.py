"""Golden output: CLI bytes on the regression corpus must not drift.

Every `batch` format under every flag set below, and every SVG that
`render` writes, is reduced to its sha256 and compared with
tests/data/golden.json, together with the exit code.  The SVGs matter:
a wrong orientation of a merged arc leaves CSV, JSON and text unchanged
but moves chord ends in the pictures.

After a deliberate change of output, rewrite the file with

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

FORMATS = ("csv", "json", "text")
FLAG_SETS = (
    (),
    ("--exact",),
    ("--nsis",),
    ("--oracle",),
    ("--no-repair",),
    ("--no-extend",),
    ("--seed", "3"),
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


def golden_digests() -> dict:
    """{key: "<exit code> <sha256>"} for every output checked."""
    out = {}
    for flags in FLAG_SETS:
        tag = " ".join(flags) or "default"
        for fmt in FORMATS:
            code, data = _main(["batch", CORPUS_PATH, "--format", fmt, *flags])
            out[f"batch {fmt} {tag}"] = f"{code} {_sha(data)}"
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = _main(["render", CORPUS_PATH, tmp, *flags])
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), "rb") as fh:
                    out[f"render {tag} {name}"] = f"{code} {_sha(fh.read())}"
    return out


def test_cli_output_matches_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden_digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in sorted(want) if got[key] != want[key]]
    assert changed == []


if __name__ == "__main__":
    digests = golden_digests()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
