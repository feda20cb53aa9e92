"""Named matroid constructions.

Every constructor returns a NamedMatroid: the matroid itself plus a
structured display tag ("PG(2,3)", "Spike(4)", ...), a human-readable
recipe string, and a meta dict carrying the labels later code needs
(leg pairs of spikes and swirls, basepoints of 2-sum chains, the flat
and new-element id of principal extensions).

Projective points are normalized so the first nonzero coordinate is 1,
and columns are ordered lexicographically by coordinate tuple with
coordinate 0 most significant.  That ordering is a serialization
contract; tests freeze it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import SizeCapError
from .gf import GF
from .matroid import (
    BasesMatroid,
    LinearMatroid,
    Matroid,
    MinorView,
    ParallelConnectionView,
    bits,
    ksubset_masks,
    mask_of,
)

POINT_CAP = 4096


@dataclass(frozen=True)
class NamedMatroid:
    matroid: Matroid
    name: str
    provenance: str
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matroid.n

    def __repr__(self):
        return f"<NamedMatroid {self.name} n={self.matroid.n}>"


def projective_points(q: int, n: int) -> list[tuple[int, ...]]:
    """One vector per 1-dim subspace of GF(q)^n, first nonzero coordinate 1.

    Vectors come in ascending lexicographic order, coordinate 0 most
    significant.
    """
    return [
        (0,) * lead + (1,) + tail
        for lead in range(n - 1, -1, -1)
        for tail in product(range(q), repeat=n - 1 - lead)
    ]


def pg(n: int, q: int) -> NamedMatroid:
    """Rank-n projective geometry over GF(q): one column per projective point."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    gf = GF(q)
    count = (q**n - 1) // (q - 1)
    if count > POINT_CAP:
        raise SizeCapError(f"{count} points exceed cap {POINT_CAP}")
    m = LinearMatroid(gf, projective_points(q, n))
    return NamedMatroid(
        m,
        name=f"PG({n - 1},{q})",
        provenance=f"one column per 1-dim subspace of GF({q})^{n}, "
        "first nonzero coordinate 1, lexicographic order",
    )


def ag(n: int, q: int) -> NamedMatroid:
    """Rank-n affine geometry over GF(q): columns (1, v) for v in GF(q)^(n-1)."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    gf = GF(q)
    count = q ** (n - 1)
    if count > POINT_CAP:
        raise SizeCapError(f"{count} points exceed cap {POINT_CAP}")
    cols = [(1,) + tail for tail in product(range(q), repeat=n - 1)]
    m = LinearMatroid(gf, cols)
    return NamedMatroid(
        m,
        name=f"AG({n - 1},{q})",
        provenance=f"points of GF({q})^{n - 1} homogenized as (1, v)",
    )


def uniform(r: int, n: int) -> NamedMatroid:
    if not 0 <= r <= n <= 20:
        raise ValueError(f"need 0 <= r <= n <= 20, got r={r} n={n}")
    bases = list(ksubset_masks(n, r))
    m = BasesMatroid(n, bases, verify=len(bases) <= 200)
    return NamedMatroid(m, name=f"U({r},{n})", provenance=f"all {r}-subsets of {n} as bases")


def theta_graph(k: int, q: int = 2) -> NamedMatroid:
    """Cycle matroid of the graph with two hub vertices joined by k length-2 paths.

    Edges come in leg pairs: pair i is (edge hub1-mid_i, edge mid_i-hub2)
    with ids (2i, 2i+1).  Rank k+1.  Signed incidence columns make the
    same matroid over every field; q selects the representation field.
    """
    if k < 2:
        raise ValueError("need at least 2 paths")
    gf = GF(q)
    neg1 = gf.neg(1)
    rows = k + 2  # hub1, mid_1..mid_k, hub2
    cols = []
    for i in range(k):
        a = [0] * rows
        a[0], a[1 + i] = 1, neg1
        b = [0] * rows
        b[1 + i], b[-1] = 1, neg1
        cols.append(tuple(a))
        cols.append(tuple(b))
    m = LinearMatroid(gf, cols)
    pairs = [(2 * i, 2 * i + 1) for i in range(k)]
    return NamedMatroid(
        m,
        name=f"Theta({k})",
        provenance=f"signed incidence of the two-hub graph with {k} length-2 paths over GF({q})",
        meta={"pairs": pairs},
    )


def free_spike(k: int) -> NamedMatroid:
    """Rank-k tipless free spike: the theta-graph matroid truncated by one."""
    if k < 3:
        raise ValueError("spike rank must be at least 3")
    theta = theta_graph(k)
    m = theta.matroid.truncate(k)
    return NamedMatroid(
        m,
        name=f"Spike({k})",
        provenance=f"truncate({theta.name}, {k})",
        meta={"pairs": theta.meta["pairs"]},
    )


def parallel_connection(m1: Matroid, m2: Matroid, p1: int, p2: int) -> Matroid:
    return ParallelConnectionView(m1, m2, p1, p2)


def two_sum(m1: Matroid, m2: Matroid, p1: int, p2: int) -> Matroid:
    pc = ParallelConnectionView(m1, m2, p1, p2)
    return pc.delete({p1})


def two_sum_chain(k: int) -> NamedMatroid:
    """Chain of k four-point lines glued end to end by 2-sums.

    Line i carries legs (a_i, b_i) and two basepoints; consecutive lines
    share one basepoint, which the 2-sum removes.  The surviving ground:
    free end x1 = 0, legs a_i = 2i-1, b_i = 2i, free end xk = 2k+1.
    """
    if k < 1:
        raise ValueError("chain length must be at least 1")
    cur: Matroid = uniform(2, 4).matroid  # ids: 0 left, 1 a, 2 b, 3 right
    for i in range(1, k):
        cur = ParallelConnectionView(cur, uniform(2, 4).matroid, p1=3 * i, p2=0)
    internal = mask_of(3 * j for j in range(1, k))
    m = cur.delete(internal) if internal else cur
    pairs = [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    return NamedMatroid(
        m,
        name=f"TwoSumChain({k})",
        provenance=f"2-sum chain of {k} copies of U(2,4)",
        meta={"x1": 0, "xk": 2 * k + 1, "pairs": pairs},
    )


def free_swirl(k: int) -> NamedMatroid:
    """Rank-k free swirl.

    Take the 2-sum chain of k four-point lines, principally truncate the
    closure of the two free ends, and delete those ends.  Leg pairs
    P_i = {2i-2, 2i-1}; the union of two cyclically consecutive pairs is a
    circuit, the union of any other two pairs is independent.
    """
    if k < 3:
        raise ValueError("swirl rank must be at least 3")
    chain = two_sum_chain(k)
    nk = chain.matroid
    ends = mask_of((chain.meta["x1"], chain.meta["xk"]))
    line = nk.closure(ends)
    m = nk.principal_truncation(line).delete(ends)
    pairs = [(2 * i, 2 * i + 1) for i in range(k)]
    return NamedMatroid(
        m,
        name=f"Swirl({k})",
        provenance=f"delete free ends from principal truncation of their span in {chain.name}",
        meta={"pairs": pairs},
    )


def principal_geometry_extension(n: int, q: int, k: int) -> NamedMatroid:
    """PG(n-1,q) plus one element freely placed on a rank-k flat.

    The flat is the closure of the lexicographically first independent
    k-set of points; the new element gets the last id.
    """
    if not 1 <= k <= n:
        raise ValueError(f"flat rank {k} outside [1, {n}]")
    geom = pg(n, q)
    base = geom.matroid
    first_k = bits(base._greedy_basis((1 << base.n) - 1))[:k]
    flat = base.closure(mask_of(first_k))
    m = base.principal_extension(flat)
    return NamedMatroid(
        m,
        name=f"P({n - 1},{q},{k})",
        provenance=f"principal extension of {geom.name} on a rank-{k} flat",
        meta={"flat": flat, "new": base.n},
    )


def density_witness(q: int, cls: str, n: int) -> NamedMatroid:
    """Simple rank-n density record holder for one of the three line-bounded classes.

    L: the projective geometry itself.  Lcirc: the rank-(n+1) geometry
    truncated by one.  Llambda: the rank-(n+1) geometry principally
    truncated on a line, then simplified.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if cls == "L":
        geom = pg(n, q)
        return NamedMatroid(
            geom.matroid, name=f"L({q},{n})", provenance=geom.provenance, meta=geom.meta
        )
    if cls == "Lcirc":
        geom = pg(n + 1, q)
        m = geom.matroid.truncate(n)
        return NamedMatroid(
            m, name=f"Lcirc({q},{n})", provenance=f"truncate({geom.name}, {n})"
        )
    if cls == "Llambda":
        geom = pg(n + 1, q)
        base = geom.matroid
        line = base.closure(mask_of((0, 1)))
        pt = base.principal_truncation(line)
        sim, _ = pt.simplify()
        return NamedMatroid(
            sim,
            name=f"Llambda({q},{n})",
            provenance=f"simplify(principal truncation of {geom.name} on a line)",
        )
    raise ValueError(f"unknown class {cls!r}")
