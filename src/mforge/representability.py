"""Spike/swirl representability predicates, their brute-force oracles, and
the eventual-base case analysis for classes described by excluded minors.

Two independent routes to the same facts:

  * closed-form predicates (is q composite, how does the rank compare to q),
  * exhaustive searches for the group-theoretic witnesses behind them
    (a multiset of k-1 group elements none of whose sub-multisets
    aggregates to either of two chosen targets),

plus a tiny backtracking linear-representability oracle for cross-checks.
The verification suites assert the routes agree cell by cell.

Sub-multiset convention: the empty sub-multiset is always included, so its
aggregate (0 additively, 1 multiplicatively) is always attained and target
values implicitly avoid it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .constructions import projective_points
from .errors import SizeCapError
from .gf import GF, is_prime, prime_power
from .matroid import LinearMatroid, Matroid, bits, push_pivot

WITNESS_Q_CAP = 13
WITNESS_K_CAP = 10


# -- group-condition witnesses ----------------------------------------------------


@dataclass(frozen=True)
class SpikeWitness:
    """Group elements certifying representability of a rank-k spike or swirl.

    alphas has k-1 entries; no sub-multiset aggregate (sum for the additive
    group, product for the multiplicative group) equals beta1 or beta2.
    Elements are field element indices.
    """

    group: str  # "additive" | "multiplicative"
    q: int
    alphas: tuple[int, ...]
    beta1: int
    beta2: int


def witness_is_valid(w: SpikeWitness) -> bool:
    """Re-verify by enumerating every sub-multiset aggregate directly."""
    gf = GF(w.q)
    if w.beta1 == w.beta2:
        return False
    if w.group == "additive":
        if any(a == 0 for a in w.alphas):
            return False
        agg, unit = gf.add, 0
    elif w.group == "multiplicative":
        if any(a in (0, 1) for a in w.alphas):
            return False
        agg, unit = gf.mul, 1
    else:
        return False
    attained = [unit]
    for a in w.alphas:
        attained += [agg(a, x) for x in attained]
    return w.beta1 not in attained and w.beta2 not in attained


def _witness_search(k: int, q: int, values, agg, unit: int) -> SpikeWitness | None:
    if k < 3:
        raise ValueError("rank must be at least 3")
    if q > WITNESS_Q_CAP or k > WITNESS_K_CAP:
        raise SizeCapError(f"witness search capped at q <= {WITNESS_Q_CAP}, k <= {WITNESS_K_CAP}")
    domain = list(range(q)) if unit == 0 else list(range(1, q))
    for alphas in combinations_with_replacement(values, k - 1):
        attain = {unit}
        for a in alphas:
            attain |= {agg(a, x) for x in attain}
        if len(domain) - len(attain) >= 2:
            b1, b2 = sorted(set(domain) - attain)[:2]
            group = "additive" if unit == 0 else "multiplicative"
            return SpikeWitness(group, q, alphas, b1, b2)
    return None


def spike_witness_search(k: int, q: int) -> SpikeWitness | None:
    """Exhaustive additive-group search: multisets of k-1 nonzero elements."""
    gf = GF(q)
    return _witness_search(k, q, range(1, q), gf.add, 0)


def swirl_witness_search(k: int, q: int) -> SpikeWitness | None:
    """Exhaustive multiplicative-group search: multisets of k-1 non-identity units."""
    gf = GF(q)
    return _witness_search(k, q, range(2, q), gf.mul, 1)


# -- closed-form predicates ---------------------------------------------------------


def _check_pred_params(k: int, q: int):
    if k < 3:
        raise ValueError("rank must be at least 3")
    if q < 3:
        raise ValueError("field order must be at least 3")
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")


def spike_rep_predicate(k: int, q: int) -> bool:
    """Rank-k free spike representable over GF(q): q composite, or k <= q-2.

    Composite means a prime power that is not prime.
    """
    _check_pred_params(k, q)
    return not is_prime(q) or k <= q - 2


def swirl_rep_predicate(k: int, q: int) -> bool:
    """Rank-k free swirl representable over GF(q): q-1 composite, or k <= q-3."""
    _check_pred_params(k, q)
    return not is_prime(q - 1) or k <= q - 3


# -- tiny linear-representability oracle -----------------------------------------------


def brute_force_linear_rep(m: Matroid, q: int) -> LinearMatroid | None:
    """Search for a GF(q) representation by distinct projective points.

    Backtracking assignment with rank-agreement pruning on every subset of
    the assigned prefix; a found representation is re-verified on all 2^n
    subsets before being returned, and absence is definitive.  The input
    must be simple (distinct points cannot represent loops or parallel
    pairs).  Capped at rank 3, 8 elements, q <= 7.
    """
    r = m.full_rank
    if r > 3 or m.n > 8 or q > 7:
        raise SizeCapError("oracle capped at rank 3, 8 elements, q <= 7")
    if any(cls.bit_count() != 1 for cls in m.point_classes()) or m.loops():
        raise ValueError("needs a simple matroid")
    if m.n == 0:
        return LinearMatroid(GF(q), [])
    gf = GF(q)
    points = projective_points(q, r)
    cols: list[tuple[int, ...]] = []
    used = [False] * len(points)

    def lin_rank(mask: int) -> int:
        pivots: list = []
        return sum(push_pivot(gf, pivots, cols[e]) for e in bits(mask))

    def place(e: int) -> bool:
        if e == m.n:
            return True
        # the first element may go to the first unit point: projective maps
        # act transitively, so this loses no representations
        cand = [points.index((1,) + (0,) * (r - 1))] if e == 0 else range(len(points))
        for i in cand:
            if used[i]:
                continue
            cols.append(points[i])
            ok = all(
                m.rank(sub | (1 << e)) == lin_rank(sub | (1 << e))
                for sub in range(1 << e)
            )
            if ok:
                used[i] = True
                if place(e + 1):
                    return True
                used[i] = False
            cols.pop()
        return False

    if not place(0):
        return None
    rep = LinearMatroid(gf, cols)
    for mask in range(1 << m.n):
        if rep.rank(mask) != m.rank(mask):
            return None
    return rep


# -- class membership and eventual bases -------------------------------------------------


def membership_flags(kind: str, param: int, q: int) -> dict[str, bool]:
    """Whether the named matroid lies in the three line-bounded classes over GF(q).

    kind "line": param is the number of points m; in_L iff m <= q+1, in_Lcirc
    iff m <= q*q+q+1 (both exact), in_Llambda when m <= q*q+1 (containment
    guarantee only; False here never means proven absence).
    kind "spike"/"swirl": param is the rank k; spikes need k >= 3, swirls
    k >= 4, q >= 3.
    """
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if kind == "line":
        if param < 2:
            raise ValueError("a line needs at least 2 points")
        return {
            "in_L": param <= q + 1,
            "in_Lcirc": param <= q * q + q + 1,
            "in_Llambda": param <= q * q + 1,
        }
    if kind == "spike":
        return {
            "in_L": spike_rep_predicate(param, q),
            "in_Lcirc": True,
            "in_Llambda": True,
        }
    if kind == "swirl":
        if param < 4:
            raise ValueError("swirl membership rules need rank at least 4")
        in_l = swirl_rep_predicate(param, q)
        return {"in_L": in_l, "in_Lcirc": in_l, "in_Llambda": True}
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class ClassSpec:
    """Excluded-minor description: no (ell+2)-point line, no rank-k spikes or
    swirls for the listed ranks."""

    line_ell: int | None = None
    spike_ranks: frozenset = frozenset()
    swirl_ranks: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "spike_ranks", frozenset(self.spike_ranks))
        object.__setattr__(self, "swirl_ranks", frozenset(self.swirl_ranks))
        if self.line_ell is None and not self.spike_ranks and not self.swirl_ranks:
            raise ValueError("at least one exclusion is required")
        if self.line_ell is not None and not 2 <= self.line_ell <= 10**6:
            raise ValueError("line parameter outside [2, 10^6]")
        if any(k < 3 for k in self.spike_ranks | self.swirl_ranks):
            raise ValueError("spike/swirl ranks start at 3")

    def exclusions(self) -> list[tuple[str, int]]:
        out = []
        if self.line_ell is not None:
            out.append(("line", self.line_ell + 2))
        out += [("spike", k) for k in sorted(self.spike_ranks)]
        out += [("swirl", k) for k in sorted(self.swirl_ranks)]
        return out


@dataclass
class BaseReport:
    """Computed eventual base q* with certification data.

    blocking maps each structure that must contain an excluded minor to the
    minor found inside it ("L(q')" for prime powers above the base, plus
    "Lcirc(q*)" and "Llambda(q*)"); structures with no known blocker map to
    None and are repeated in gaps, making the report uncertified.
    """

    base: int | None
    certified: bool
    blocking: dict
    gaps: list


def _descr(kind: str, param: int) -> str:
    if kind == "line":
        return f"U(2,{param})"
    return f"{kind.capitalize()}({param})"


IN, OUT, UNKNOWN = "in", "out", "unknown"


def _member(kind: str, param: int, q: int, cls: str) -> str:
    """Three-valued membership; UNKNOWN is never treated as absence."""
    if kind == "line":
        if cls == "L":
            return IN if param <= q + 1 else OUT
        if cls == "Lcirc":
            return IN if param <= q * q + q + 1 else OUT
        return IN if param <= q * q + 1 else UNKNOWN
    if q == 2:
        # the two-element groups admit no pair of distinct unattained targets
        return OUT if cls == "L" else UNKNOWN
    if kind == "spike":
        return IN if cls != "L" or spike_rep_predicate(param, q) else OUT
    if cls == "Llambda":
        return IN if param >= 4 else UNKNOWN
    in_l = IN if swirl_rep_predicate(param, q) else OUT
    if cls == "Lcirc" and param < 4 and in_l == OUT:
        return UNKNOWN  # the iff transfer rule is only stated from rank 4 up
    return in_l


def prime_powers_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            pk = p
            while pk <= n:
                out.append(pk)
                pk *= p
    return sorted(out)


def eventual_base(spec: ClassSpec) -> BaseReport:
    """Largest prime power q* whose representable class avoids every exclusion,
    plus the case analysis certifying (or failing to certify) that every
    larger structure in the trichotomy contains an exclusion.

    Certification needs three things: every GF(q') class with q' > q* up to
    the guarantee bound contains an exclusion (larger q' are blocked by the
    threshold rules), and the two truncation-built classes at q* each
    contain one.  Membership is evaluated three-valued so that a
    lower-bound-only rule can never fake a blocker or an absence.
    """
    excl = spec.exclusions()
    elig_bound = []
    tail_bound = []
    for kind, param in excl:
        if kind == "line":
            elig_bound.append(param - 2)
            tail_bound.append(param - 1)
        elif kind == "spike":
            elig_bound.append(param + 1)
            tail_bound.append(param + 2)
        else:
            elig_bound.append(param + 2)
            tail_bound.append(param + 3)
    eligible = [
        q
        for q in prime_powers_upto(min(elig_bound))
        if all(_member(k, p, q, "L") == OUT for k, p in excl)
    ]
    if not eligible:
        return BaseReport(None, False, {}, ["no eligible prime power"])
    base = max(eligible)

    blocking: dict = {}
    gaps: list = []
    for qq in prime_powers_upto(max(tail_bound)):
        if qq <= base:
            continue
        hit = next((d for d in excl if _member(*d, qq, "L") == IN), None)
        key = f"L({qq})"
        blocking[key] = _descr(*hit) if hit else None
        if hit is None:
            gaps.append(key)
    for cls in ("Lcirc", "Llambda"):
        hit = next((d for d in excl if _member(*d, base, cls) == IN), None)
        key = f"{cls}({base})"
        blocking[key] = _descr(*hit) if hit else None
        if hit is None:
            gaps.append(key)
    return BaseReport(base, not gaps, blocking, gaps)
