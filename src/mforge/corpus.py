"""Deterministic test corpus.

corpus_generate(seed) returns the same list of named matroids for the
same seed, every time: the fixed members are literal, and the sampled
members draw from random.Random(seed) (Mersenne Twister) in a fixed
order.  Suites iterate this list, so report stability depends on
nothing here ever being reordered casually.

Composition notes, mostly about avoiding accidental duplicates:

* free spikes of rank 3 coincide with U(3,6) and with the rank-3 free
  swirl, so the swirl list starts at rank 4 and U(3,6) stays out;
* a two-element theta graph is just U(3,4), which is also the smallest
  binary affine geometry, so thetas start at three spokes;
* si-contractions of projective geometries reproduce the geometry one
  rank down, so the sampled contractions only use bases large enough
  that the result has more than 9 elements (the pairwise isomorphism
  scan in the tests stops at 9);
* restrictions sampled from geometries keep at least 10 elements for
  the same reason.
"""

from __future__ import annotations

import random

from .constructions import (
    NamedMatroid,
    ag,
    density_witness,
    free_spike,
    free_swirl,
    pg,
    principal_geometry_extension,
    theta_graph,
    two_sum_chain,
    uniform,
)
from .matroid import BasesMatroid, LinearMatroid, ksubset_masks, mask_of, representatives
from .records import CorpusCaps  # defined apart so the CLI can build caps cheaply


def descriptor(nm: NamedMatroid) -> str:
    return f"{nm.name}|n={nm.matroid.n}|r={nm.matroid.full_rank}"


def _nonsimple_bases_member() -> NamedMatroid:
    # U(2,4) with element 4 parallel to 3 and element 5 a loop.
    bs = [m for m in ksubset_masks(5, 2) if m != mask_of([3, 4])]
    return NamedMatroid(BasesMatroid(6, bs, verify=True), name="U(2,4)+par+loop")


def _nonsimple_linear_member() -> NamedMatroid:
    base = pg(3, 2)
    assert isinstance(base.matroid, LinearMatroid)
    cols = list(base.matroid.columns) + [(0, 0, 0), base.matroid.columns[0]]
    return NamedMatroid(LinearMatroid(base.matroid.field, cols), name="PG(2,2)+par+loop")


def corpus_generate(seed: int = 0, caps: CorpusCaps | None = None) -> list[NamedMatroid]:
    caps = caps or CorpusCaps()
    out: list[NamedMatroid] = []

    def add(nm: NamedMatroid) -> None:
        if nm.matroid.n <= caps.max_ground and nm.matroid.full_rank <= caps.max_rank:
            out.append(nm)

    for r, n in [(1, 1), (1, 3), (2, 4), (2, 6), (3, 7), (4, 5), (4, 10)]:
        add(uniform(r, n))

    for n, q in [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (3, 4), (3, 5)]:
        add(pg(n, q))
    for n, q in [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (3, 4), (3, 5)]:
        add(ag(n, q))

    for k in (3, 4, 5):
        add(theta_graph(k))
    for k in (3, 4, 5, 6):
        add(free_spike(k))
    for k in (4, 5, 6):
        add(free_swirl(k))
    for k in (3, 4):
        add(two_sum_chain(k))

    for q, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        add(density_witness(q, "Lcirc", n))
    for q, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        add(density_witness(q, "Llambda", n))

    for n, q, k in [(3, 2, 2), (3, 2, 3), (4, 2, 2), (3, 3, 2)]:
        add(principal_geometry_extension(n, q, k))

    dual_sources = [pg(3, 2), uniform(2, 5)]
    for nm in dual_sources:
        add(NamedMatroid(nm.matroid.dual(), name=f"Dual({nm.name})"))

    add(_nonsimple_bases_member())
    add(_nonsimple_linear_member())

    rng = random.Random(seed)
    for i, nm in enumerate([pg(4, 2), pg(3, 3), pg(4, 3), pg(3, 4)]):
        m = nm.matroid
        assert isinstance(m, LinearMatroid)
        size = rng.randint(10, min(m.n - 1, 20))
        pick = sorted(rng.sample(range(m.n), size))
        add(NamedMatroid(m.restrict_columns(mask_of(pick)), name=f"Rst{i}({nm.name};s{seed})"))
    for i, nm in enumerate([pg(5, 2), pg(6, 2), pg(4, 3)]):
        m = nm.matroid
        assert isinstance(m, LinearMatroid)
        e = rng.randrange(m.n)
        quo = m.contract_columns(mask_of([e]))
        keep = representatives(quo.point_classes())
        add(NamedMatroid(quo.restrict_columns(keep), name=f"SiCon{i}({nm.name};s{seed})"))

    return out
