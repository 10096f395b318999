"""Seeded diagram generator for the benchmark workloads.

Every diagram is a braid closure.  Generator ``s_i`` (0-based strand
positions i and i+1, incoming labels a and b, fresh outgoing labels c and
d) becomes ``X(a,b,d,c)``, its inverse becomes ``X(b,d,c,a)``; closing the
braid renames each strand's final label to its initial one.  A word whose
generators carry the sign ``(-1)**i`` gives a reduced alternating diagram
when every generator occurs at least twice.  Switching a crossing rotates
its labels by one slot, which makes the diagram non-alternating.

Each workload is a pure function of its seed.  Any diagram that fails
``parse_pd`` or ``CellComplex`` is refused with ``ValueError``, so every
input the program sees is valid and a failing row is the program's fault.
"""

from __future__ import annotations

import random

from threepage import CellComplex, parse_pd

# Rungs of the braid ladder: log-spaced crossing counts and strand counts.
# Each rung holds WORDS_PER_RUNG alternating words and as many switched
# ones, so that a rung's time does not hang on one word.
LADDER = ((8, 3), (16, 3), (32, 4), (64, 4), (128, 5))
WORDS_PER_RUNG = 4


def braid_word(rng: random.Random, strands: int, n: int) -> list[int]:
    """n generators on `strands` strands, each of them at least twice.

    Entry +-(i+1) stands for s_i or its inverse; the sign is (-1)**i.
    """
    gens = list(range(strands - 1))
    if n < 2 * len(gens):
        raise ValueError(f"n={n} is too small for {strands} strands")
    word = gens + gens + [rng.choice(gens) for _ in range(n - 2 * len(gens))]
    rng.shuffle(word)
    return [(i + 1) * (-1) ** i for i in word]


def closure_rows(word: list[int], strands: int) -> list[tuple[int, ...]]:
    current = list(range(1, strands + 1))
    fresh = strands + 1
    rows = []
    for g in word:
        i = abs(g) - 1
        a, b = current[i], current[i + 1]
        c, d = fresh, fresh + 1
        fresh += 2
        rows.append((a, b, d, c) if g > 0 else (b, d, c, a))
        current[i], current[i + 1] = c, d
    rename = {final: start for start, final in enumerate(current, start=1)}
    return [tuple(rename.get(lab, lab) for lab in row) for row in rows]


def switch(rows: list[tuple[int, ...]], idx) -> list[tuple[int, ...]]:
    """Switch the crossings at `idx` (over and under strands swap)."""
    out = list(rows)
    for k in idx:
        a, b, c, d = out[k]
        out[k] = (b, c, d, a)
    return out


def disjoint_union(*parts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    rows, offset = [], 0
    for part in parts:
        rows += [tuple(lab + offset for lab in row) for row in part]
        offset = max(lab for row in rows for lab in row)
    return rows


def pd_text(rows) -> str:
    return "PD[" + ", ".join("X(%d,%d,%d,%d)" % tuple(r) for r in rows) + "]"


def checked(rows) -> str:
    """PD text of `rows`, refused unless it parses and every piece is spherical."""
    text = pd_text(rows)
    try:
        for comp in parse_pd(text).connected_components():
            CellComplex(comp)
    except ValueError as exc:
        raise ValueError(f"generator produced an invalid diagram: {exc}") from exc
    return text


def closure(rng: random.Random, strands: int, n: int, switched: int = 0):
    rows = closure_rows(braid_word(rng, strands, n), strands)
    return switch(rows, rng.sample(range(n), switched))


KNOT_TABLE_ROWS = 400


def knot_table(seed: int) -> list[tuple[str, str]]:
    """Many small closures: n 3..16, 2..4 strands, half of them switched,
    one in twenty a split union of two pieces."""
    rng = random.Random(f"knot-table:{seed}")

    def piece(n_max: int):
        strands = rng.choice((2, 3, 4))
        n = rng.randint(max(3, 2 * (strands - 1)), n_max)
        k = rng.randint(1, max(1, n // 3)) if rng.random() < 0.5 else 0
        return closure(rng, strands, n, k)

    entries = []
    for r in range(KNOT_TABLE_ROWS):
        if rng.random() < 0.05:
            pd_rows = disjoint_union(piece(8), piece(8))
        else:
            pd_rows = piece(16)
        entries.append((f"k{r:04d}", checked(pd_rows)))
    return entries


def braid_ladder(seed: int) -> list[tuple[str, str]]:
    """Alternating words, and words with a fifth of their crossings switched."""
    rng = random.Random(f"braid-ladder:{seed}")
    entries = []
    for n, strands in LADDER:
        for w in range(WORDS_PER_RUNG):
            entries.append((f"b{n:04d}a{w}", checked(closure(rng, strands, n))))
            entries.append((f"b{n:04d}s{w}",
                            checked(closure(rng, strands, n, n // 5))))
    return entries


# At this budget the mid-size rows finish (both searches needed at most
# 157 nodes over 900 sampled words of n 8..10) and the tail never does
# (n=30 on three strands needed at least 777 over 300), so the share of
# exact rows does not depend on the seed.  The tail takes about three
# quarters of the time, so its rows share one shape (three strands, none
# or a fifth of the crossings switched): their cost varies little from
# word to word, and crossings_per_s measures the program, not the seed.
# The tail is 24 of the 114 rows, so row_p90_ms falls inside the tail,
# with eleven rows beyond it, and not on the edge between the two groups.
EXACT_MID = tuple(range(8, 11)) * 30
EXACT_TAIL = (30,) * 24
EXACT_TAIL_STRANDS = 3
EXACT_BUDGET = 250


def exact_search(seed: int) -> list[tuple[str, str]]:
    """Mid-size closures the exact search finishes, plus a budget-bound tail."""
    rng = random.Random(f"exact-search:{seed}")
    entries = []
    for r, n in enumerate(EXACT_MID):
        strands = rng.choice((3, 4))
        k = rng.randint(1, n // 4) if r % 2 else 0
        entries.append((f"e{r:03d}", checked(closure(rng, strands, n, k))))
    for r, n in enumerate(EXACT_TAIL, start=len(EXACT_MID)):
        k = n // 5 if r % 2 else 0
        entries.append((f"e{r:03d}",
                        checked(closure(rng, EXACT_TAIL_STRANDS, n, k))))
    return entries
