"""Spike/swirl representability predicates, their brute-force oracles, and
the eventual-base case analysis for classes described by excluded minors.

Two independent routes to the same facts:

  * closed-form predicates (is q composite, how does the rank compare to q),
  * exhaustive searches for the group-theoretic witnesses behind them
    (a multiset of k-1 group elements none of whose sub-multisets
    aggregates to either of two chosen targets), run as one depth-first
    search over shared prefixes that cuts every prefix whose attained
    aggregates already leave fewer than two targets free,

plus a tiny backtracking linear-representability oracle for cross-checks.
The verification suites assert the routes agree cell by cell.

Sub-multiset convention: the empty sub-multiset is always included, so its
aggregate (0 additively, 1 multiplicatively) is always attained and target
values implicitly avoid it.
"""

from __future__ import annotations

from .errors import SizeCapError
from .gf import GF, is_prime, prime_power, prime_powers_upto, prime_sieve
from .records import Record

WITNESS_Q_CAP = 13
WITNESS_K_CAP = 10


# -- group-condition witnesses ----------------------------------------------------


class SpikeWitness(Record):
    """Group elements certifying representability of a rank-k spike or swirl.

    alphas has k-1 entries; no sub-multiset aggregate (sum for the additive
    group, product for the multiplicative group) equals beta1 or beta2.
    Elements are field element indices; group is "additive" or
    "multiplicative".
    """

    __slots__ = ("group", "q", "alphas", "beta1", "beta2")


def witness_is_valid(w: SpikeWitness) -> bool:
    """Re-verify by enumerating every sub-multiset aggregate directly.

    Alphas must be group elements other than the unit and betas group
    elements (additive: 0..q-1, multiplicative: 1..q-1); else False.
    """
    unit = {"additive": 0, "multiplicative": 1}.get(w.group)
    if unit is None or prime_power(w.q) is None or w.beta1 == w.beta2:
        return False
    alphas, betas = range(unit + 1, w.q), range(unit, w.q)
    if any(a not in alphas for a in w.alphas) or w.beta1 not in betas or w.beta2 not in betas:
        return False
    gf = GF(w.q)
    agg = gf.mul if unit else gf.add
    attained = [unit]
    for a in w.alphas:
        attained += [agg(a, x) for x in attained]
    return w.beta1 not in attained and w.beta2 not in attained


def _check_witness_caps(k: int, q: int) -> None:
    if q > WITNESS_Q_CAP or k > WITNESS_K_CAP:
        raise SizeCapError(f"witness search capped at q <= {WITNESS_Q_CAP}, k <= {WITNESS_K_CAP}")


def _witness_search(k: int, q: int, values, agg, unit: int) -> SpikeWitness | None:
    """First multiset of k-1 values (sorted, lexicographic order) leaving two
    domain elements unattained.  The attained bitmask only grows along a
    prefix, so a prefix leaving fewer than two free elements is cut."""
    if k < 3:
        raise ValueError("rank must be at least 3")
    _check_witness_caps(k, q)
    domain = (1 << q) - (1 << unit)  # bits unit..q-1
    image = [[1 << agg(a, x) for x in range(q)] for a in values]  # x -> bit of agg(a, x)
    alphas: list[int] = []

    def extend(start: int, attained: int) -> int | None:
        if (domain & ~attained).bit_count() < 2:
            return None
        if len(alphas) == k - 1:
            return attained
        for i in range(start, len(values)):
            row, grown, rest = image[i], attained, attained
            while rest:
                low = rest & -rest
                grown |= row[low.bit_length() - 1]
                rest ^= low
            alphas.append(values[i])
            found = extend(i, grown)
            if found is not None:
                return found
            alphas.pop()
        return None

    attained = extend(0, 1 << unit)
    if attained is None:
        return None
    b1, b2 = [x for x in range(q) if (domain & ~attained) >> x & 1][:2]
    group = "additive" if unit == 0 else "multiplicative"
    return SpikeWitness(group, q, tuple(alphas), b1, b2)


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
    return _group_rep(k, q, is_prime)


def swirl_rep_predicate(k: int, q: int) -> bool:
    """Rank-k free swirl representable over GF(q): q-1 composite, or k <= q-3."""
    _check_pred_params(k, q)
    return _group_rep(k, q - 1, is_prime)


def family_rep(family: str, k: int, q: int) -> tuple[bool, SpikeWitness | None]:
    """(closed-form predicate, witness search) for the rank-k free spike or
    swirl over GF(q), the predicate first: it checks the parameters.  The
    witness caps come before both, so no order past them is factored."""
    _check_witness_caps(k, q)
    if family == "spike":
        return spike_rep_predicate(k, q), spike_witness_search(k, q)
    if family == "swirl":
        return swirl_rep_predicate(k, q), swirl_witness_search(k, q)
    raise ValueError(f"unknown family {family!r}")


def _group_rep(k: int, order: int, prime) -> bool:
    """Closed form for a rank-k spike (order q) or swirl (order q - 1) on checked
    parameters: the group order is composite, or k <= order - 2; prime(x)
    tells whether x is prime."""
    return not prime(order) or k <= order - 2


# -- tiny linear-representability oracle -----------------------------------------------


def brute_force_linear_rep(m, q: int):
    """Search a Matroid for a GF(q) representation by distinct projective
    points: a LinearMatroid, or None when there is none.

    GL(r, q) carries any ordered basis onto the unit vectors, so some
    representation, if any exists, puts the greedy basis b_0 < ... < b_(r-1)
    of m on the unit points e_0, ..., e_(r-1) (the normal form of Oxley,
    Matroid Theory, section 6.4).  The basis is fixed there, and only the
    other elements are searched: backtracking over the columns of
    PG(r-1, q) in element order, with rank-agreement pruning on every
    subset of the placed prefix, ranked by the geometry's memoized oracle.
    A found representation is re-verified on all 2^n subsets before being
    returned, and absence is definitive.  The input must be simple
    (distinct points cannot represent loops or parallel pairs).  Capped at
    rank 3, 8 elements, q <= 7.
    """
    from .constructions import pg
    from .matroid import LinearMatroid, bits, rank_mismatch  # only this oracle needs matroid.py

    r = m.full_rank
    if r > 3 or m.n > 8 or q > 7:
        raise SizeCapError("oracle capped at rank 3, 8 elements, q <= 7")
    if any(cls.bit_count() != 1 for cls in m.point_classes()) or m.loops():
        raise ValueError("needs a simple matroid")
    if m.n == 0:
        return LinearMatroid(GF(q), [])
    geometry = pg(r, q).matroid  # one column per projective point, in order
    basis = bits(m._greedy_basis((1 << m.n) - 1))
    unit = {e: geometry.columns.index(tuple(int(i == j) for j in range(r)))
            for i, e in enumerate(basis)}
    on = [0]  # on[sub]: mask of the points placed for the elements in sub

    def place(e: int) -> bool:
        if e == m.n:
            return True
        for i in [unit[e]] if e in unit else range(geometry.n):
            bit = 1 << i
            if on[-1] & bit:
                continue
            if all(m.rank(sub | (1 << e)) == geometry.rank(on[sub] | bit) for sub in range(1 << e)):
                on.extend([x | bit for x in on])
                if place(e + 1):
                    return True
                del on[1 << e:]
        return False

    if not place(0):
        return None
    rep = LinearMatroid(geometry.field, [geometry.columns[on[1 << e].bit_length() - 1]
                                         for e in range(m.n)])
    return rep if rank_mismatch(rep, m) is None else None


# -- class membership and eventual bases -------------------------------------------------


class ClassSpec(Record):
    """Excluded-minor description: no (ell+2)-point line, no rank-k spikes or
    swirls for the listed ranks."""

    __slots__ = ("line_ell", "spike_ranks", "swirl_ranks")

    def __init__(self, line_ell: int | None = None, spike_ranks=frozenset(),
                 swirl_ranks=frozenset()):
        super().__init__(line_ell, frozenset(spike_ranks), frozenset(swirl_ranks))
        if self.line_ell is None and not self.spike_ranks and not self.swirl_ranks:
            raise ValueError("at least one exclusion is required")
        if self.line_ell is not None and not 2 <= self.line_ell <= 10**6:
            raise ValueError("line parameter outside [2, 10^6]")
        if any(not 3 <= k <= 10**6 for k in self.spike_ranks | self.swirl_ranks):
            raise ValueError("spike/swirl ranks outside [3, 10^6]")

    def exclusions(self) -> list[tuple[str, int]]:
        out = []
        if self.line_ell is not None:
            out.append(("line", self.line_ell + 2))
        out += [("spike", k) for k in sorted(self.spike_ranks)]
        out += [("swirl", k) for k in sorted(self.swirl_ranks)]
        return out


class BaseReport(Record):
    """Computed eventual base q* with certification data.

    blocking maps each structure that must contain an excluded minor to the
    minor found inside it ("L(q')" for prime powers above the base, plus
    "Lcirc(q*)" and "Llambda(q*)"); structures with no known blocker map to
    None and are repeated in gaps, making the report uncertified.
    """

    __slots__ = ("base", "certified", "blocking", "gaps")


def _descr(kind: str, param: int) -> str:
    if kind == "line":
        return f"U(2,{param})"
    return f"{kind.capitalize()}({param})"


IN, OUT, UNKNOWN = "in", "out", "unknown"

# the last q at which each structure may lie outside L(q), as an offset from
# its parameter: an m-point line at q = m - 2, a rank-k spike at k + 1, a
# rank-k swirl at k + 2 (from the next q on, every rule above puts it in L(q))
_LAST_OUT = {"line": -2, "spike": 1, "swirl": 2}


def _member(kind: str, param: int, q: int, cls: str, prime) -> str:
    """Three-valued membership; UNKNOWN is never treated as absence.

    q is a prime power, a spike or swirl rank is at least 3, and prime(x)
    tells whether x is prime.
    """
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
        return IN if cls != "L" or _group_rep(param, q, prime) else OUT
    if cls == "Llambda":
        return IN if param >= 4 else UNKNOWN
    in_l = IN if _group_rep(param, q - 1, prime) else OUT
    if cls == "Lcirc" and param < 4 and in_l == OUT:
        return UNKNOWN  # the iff transfer rule is only stated from rank 4 up
    return in_l


def membership_flags(kind: str, param: int, q: int) -> dict[str, bool]:
    """Whether the named matroid lies in the three line-bounded classes over GF(q).

    kind "line": param is the number of points m; in_L iff m <= q+1, in_Lcirc
    iff m <= q*q+q+1 (both exact), in_Llambda when m <= q*q+1 (containment
    guarantee only; False here never means proven absence).
    kind "spike"/"swirl": param is the rank k; spikes need k >= 3, swirls
    k >= 4, q >= 3.  A flag is True exactly when _member answers IN.
    """
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if kind == "line":
        if param < 2:
            raise ValueError("a line needs at least 2 points")
    elif kind == "swirl" and param < 4:
        raise ValueError("swirl membership rules need rank at least 4")
    elif kind in ("spike", "swirl"):
        _check_pred_params(param, q)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {f"in_{c}": _member(kind, param, q, c, is_prime) == IN
            for c in ("L", "Lcirc", "Llambda")}


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
    last_out = [param + _LAST_OUT[kind] for kind, param in excl]
    first, top = min(last_out), max(last_out) + 1
    powers = prime_powers_upto(top)
    prime = prime_sieve(top).__getitem__  # one sieve for every primality test below
    eligible = [
        q
        for q in powers
        if q <= first and all(_member(k, p, q, "L", prime) == OUT for k, p in excl)
    ]
    if not eligible:
        return BaseReport(None, False, {}, ["no eligible prime power"])
    base = max(eligible)

    cells = [("L", qq) for qq in powers if qq > base] + [("Lcirc", base), ("Llambda", base)]
    blocking: dict = {}
    for cls, qq in cells:
        hit = next((d for d in excl if _member(*d, qq, cls, prime) == IN), None)
        blocking[f"{cls}({qq})"] = _descr(*hit) if hit else None
    gaps = [key for key, hit in blocking.items() if hit is None]
    return BaseReport(base, not gaps, blocking, gaps)
