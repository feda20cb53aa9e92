"""Seeded inputs for the `search` workload: `mforge iso` and `mforge has-minor`.

Every matroid here is built from its definition, not by the program under
test, and every expected answer comes from theory:

  positives  relabelled copies (permuted ground, scaled columns, changed
             coordinates) and planted minors (contract an independent set,
             delete, relabel);
  negatives  U(2,4) is not a minor of a binary matroid; U(2,q+2) is not a
             minor of a GF(q)-representable matroid; F7 is not a minor of a
             GF(3)-representable matroid; Spike(k) and Swirl(k) are not
             isomorphic for k >= 4 (k and C(k,2) four-element circuits).

The composition of the stream is fixed; the seed picks the relabellings,
the planted sets and the host restrictions.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

from check import Field, field, reduce_columns


@dataclass(frozen=True)
class Query:
    """One CLI call: `mforge <command> <files...>`, expected exit 0 or 1."""

    name: str
    command: str  # "iso" | "has-minor"
    files: tuple[str, ...]
    expect: bool


# -- matroids from their definitions ---------------------------------------------


def linear_doc(f: Field, columns) -> dict:
    return {"kind": "linear", "field": f.doc(), "columns": [list(c) for c in columns]}


def bases_doc(n: int, rank: int, bases) -> dict:
    return {"kind": "bases", "rank": rank, "n": n,
            "bases": sorted(sorted(b) for b in bases)}


def _vectors(q: int, r: int):
    return itertools.product(range(q), repeat=r)


def pg_columns(r: int, q: int) -> list[tuple[int, ...]]:
    """One column per projective point of GF(q)^r (first nonzero entry 1)."""
    return [v for v in _vectors(q, r) if any(v) and next(x for x in v if x) == 1]


def ag_columns(r: int, q: int) -> list[tuple[int, ...]]:
    return [(1,) + v for v in _vectors(q, r - 1)]


def nonfano_columns() -> list[tuple[int, ...]]:
    """F7^- over GF(3): in characteristic 3 the three points e_i + e_j are not collinear."""
    return [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def spike_bases(k: int):
    """Tipless free spike: legs {2i, 2i+1}; k-sets holding at most one whole leg."""
    for b in itertools.combinations(range(2 * k), k):
        legs = [e // 2 for e in b]
        if sum(1 for i in range(k) if legs.count(i) == 2) <= 1:
            yield b


def swirl_bases(k: int):
    """Free swirl: k-sets meeting every cyclic run of t < k legs in at most t+1 elements."""
    for b in itertools.combinations(range(2 * k), k):
        per_leg = [0] * k
        for e in b:
            per_leg[e // 2] += 1
        if all(sum(per_leg[(s + j) % k] for j in range(t)) <= t + 1
               for s in range(k) for t in range(2, k)):
            yield b


def uniform_bases(r: int, n: int):
    return itertools.combinations(range(n), r)


# -- relabelling and planting ------------------------------------------------------------


def _random_invertible(f: Field, r: int, rng: random.Random) -> list[list[int]]:
    while True:
        rows = [[rng.randrange(f.q) for _ in range(r)] for _ in range(r)]
        cols = [tuple(rows[i][j] for i in range(r)) for j in range(r)]
        if len(reduce_columns(f, cols, (1 << r) - 1)) == r:
            return rows


def relabel_linear(f: Field, columns, rng: random.Random) -> list[tuple[int, ...]]:
    """Permute the ground set, scale each column, and change coordinates."""
    r = len(columns[0])
    a = _random_invertible(f, r, rng)
    order = list(range(len(columns)))
    rng.shuffle(order)
    out = []
    for e in order:
        s = rng.randrange(1, f.q)
        v = [f.mul[s][x] for x in columns[e]]
        w = []
        for row in a:
            acc = 0
            for x, y in zip(row, v):
                acc = f.add[acc][f.mul[x][y]]
            w.append(acc)
        out.append(tuple(w))
    return out


def relabel_bases(n: int, bases, rng: random.Random) -> list[tuple[int, ...]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted(perm[e] for e in b)) for b in bases]


def plant_minor(f: Field, columns, contract: int, keep: int, rng: random.Random):
    """Columns of (M / C \\ D) in the quotient by span(C), relabelled.

    C is the first `contract` elements of a random independent order, and
    `keep` elements of the rest survive.
    """
    n = len(columns)
    order = list(range(n))
    rng.shuffle(order)
    cmask = 0
    for e in order:
        if cmask.bit_count() == contract:
            break
        if len(reduce_columns(f, columns, cmask | 1 << e)) > cmask.bit_count():
            cmask |= 1 << e
    pivots = reduce_columns(f, columns, cmask)
    rows = [i for i in range(len(columns[0])) if i not in {row for row, _ in pivots}]
    rest = [e for e in order if not cmask >> e & 1][:keep]
    quotient = []
    for e in rest:
        v = list(columns[e])
        for row, pv in pivots:
            if v[row]:
                v = f.sub_scaled(v, v[row], pv)
        quotient.append(tuple(v[i] for i in rows))
    return relabel_linear(f, quotient, rng)


def restrict_random(columns, size: int, rng: random.Random):
    return [columns[e] for e in sorted(rng.sample(range(len(columns)), size))]


# -- the stream -------------------------------------------------------------------------


def search_queries(seed: int, workdir: str) -> list[Query]:
    """Write the stream's JSON files under workdir; return the queries in order."""
    rng = random.Random(seed)
    gf2, gf3, gf4 = field(2), field(3), field(4)
    queries: list[Query] = []
    counter = itertools.count()

    def save(doc: dict) -> str:
        path = os.path.join(workdir, f"m{next(counter):03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def iso_linear(name, f, cols):
        a = save(linear_doc(f, relabel_linear(f, cols, rng)))
        b = save(linear_doc(f, relabel_linear(f, cols, rng)))
        queries.append(Query(name, "iso", (a, b), True))

    def iso_bases(name, n, r, bases):
        bases = list(bases)
        a = save(bases_doc(n, r, relabel_bases(n, bases, rng)))
        b = save(bases_doc(n, r, relabel_bases(n, bases, rng)))
        queries.append(Query(name, "iso", (a, b), True))

    def minor(name, host_doc, target_doc, expect):
        queries.append(Query(name, "has-minor", (save(host_doc), save(target_doc)), expect))

    pg32 = pg_columns(4, 2)
    pg23 = pg_columns(3, 3)
    iso_linear("iso:PG(2,2)", gf2, pg_columns(3, 2))
    iso_linear("iso:AG(3,2)", gf2, ag_columns(4, 2))
    iso_linear("iso:AG(2,3)", gf3, ag_columns(3, 3))
    iso_linear("iso:PG(2,3)", gf3, pg23)
    iso_linear("iso:AG(2,4)", gf4, ag_columns(3, 4))
    iso_bases("iso:Spike(5)", 10, 5, spike_bases(5))
    iso_bases("iso:Swirl(5)", 10, 5, swirl_bases(5))
    a = save(bases_doc(8, 4, relabel_bases(8, list(spike_bases(4)), rng)))
    b = save(bases_doc(8, 4, relabel_bases(8, list(swirl_bases(4)), rng)))
    queries.append(Query("iso:Spike(4)-vs-Swirl(4)", "iso", (a, b), False))
    a = save(linear_doc(gf2, relabel_linear(gf2, pg_columns(3, 2), rng)))
    b = save(linear_doc(gf3, relabel_linear(gf3, nonfano_columns(), rng)))
    queries.append(Query("iso:F7-vs-F7minus", "iso", (a, b), False))

    minor("minor:planted-PG(3,2)/1",
          linear_doc(gf2, relabel_linear(gf2, pg32, rng)),
          linear_doc(gf2, plant_minor(gf2, pg32, 1, 7, rng)), True)
    minor("minor:planted-PG(2,3)/0",
          linear_doc(gf3, relabel_linear(gf3, pg23, rng)),
          linear_doc(gf3, plant_minor(gf3, pg23, 0, 8, rng)), True)
    minor("minor:U(2,4)-in-PG(3,3)",
          linear_doc(gf3, relabel_linear(gf3, pg_columns(4, 3), rng)),
          bases_doc(4, 2, uniform_bases(2, 4)), True)
    minor("minor:F7-in-PG(3,2)",
          linear_doc(gf2, relabel_linear(gf2, pg32, rng)),
          linear_doc(gf2, relabel_linear(gf2, pg_columns(3, 2), rng)), True)
    minor("minor:U(2,4)-in-binary",
          linear_doc(gf2, relabel_linear(gf2, restrict_random(pg32, 11, rng), rng)),
          bases_doc(4, 2, uniform_bases(2, 4)), False)
    minor("minor:U(2,4)-in-PG(4,2)",
          linear_doc(gf2, relabel_linear(gf2, pg_columns(5, 2), rng)),
          bases_doc(4, 2, uniform_bases(2, 4)), False)
    minor("minor:U(2,5)-in-PG(2,3)",
          linear_doc(gf3, relabel_linear(gf3, pg23, rng)),
          bases_doc(5, 2, uniform_bases(2, 5)), False)
    minor("minor:F7-in-GF(3)",
          linear_doc(gf3, relabel_linear(gf3, restrict_random(pg23, 10, rng), rng)),
          linear_doc(gf2, relabel_linear(gf2, pg_columns(3, 2), rng)), False)
    return queries
