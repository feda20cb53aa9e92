"""Rank-oracle matroids on ground sets {0, ..., n-1}.

Subsets of the ground set are plain ints used as bitmasks (bit e set means
element e is in the subset).  Every matroid exposes the same query surface
through a memoized rank oracle; concrete backends are

  LinearMatroid   columns of a matrix over GF(q), each mapped once to its
                  projective point in the column span; rank by Gaussian
                  elimination on those points (bit operations over GF(2),
                  one int per point, and GF(3), two ints per point: the
                  positions holding 1 and those holding 2), point classes
                  and flats by point lookup
  BasesMatroid    an explicit list of bases, rank r(X) = |B & X| for B the
                  basis one exchange pass from the first basis reaches

and lazy views (minor, dual, truncation, principal extension, direct sum,
parallel connection) that compute rank through their parent's oracle.

Closure is a backend kernel like rank: Matroid.closure validates and
memoizes, then calls _closure_mask, whose base version tests each element
with a rank query; a bases list and a dual keep that definition.  A
LinearMatroid over any field answers with one elimination of X's points (the
pivots span_rank leaves), and the views below compose their parents'
closures, with Xi the trace of X on side i, p the basepoint of a parallel
connection or the new element of a principal extension on the flat F, and
X' = X - p:

  minor M/C\\D           cl(X) = cl_M(X + C) - C - D
  truncation to rank t  cl(X) = cl_M(X) if r(X) < t, else the ground set
  principal extension   cl(X) = cl_M(X') + p if F lies in cl_M(X');
                        else cl_M(X') if p is not in X;
                        else cl_M(X' + F) + p if r(X' + F) = r(X') + 1;
                        else cl_M(X') + p
  direct sum            cl(X) = cl_1(X1) + cl_2(X2)
  parallel connection   cl(X) = cl_1(X1) + cl_2(X2) if neither holds p,
                        else cl_1(X1 + p) + cl_2(X2 + p), as a set is a
                        flat when both its traces are

loops() is cl(empty set), and point_classes takes the class of each element
e not yet placed as cl(e) minus the loops.

Flats of a minor come from its parent's flats only when a LinearMatroid
answers those: the parent is a LinearMatroid, or a minor, principal
extension or truncation whose own parent qualifies (the _linear_flats flag
each view copies from its parent).  Any other minor searches its own
ground set, which is smaller than its parent's and one rank lower per
contracted element.

All matroids are immutable after construction.  The only mutable state is
the per-instance rank, closure and flats memos, which behave as pure caches.

Enumerative operations are capped: flats and cocircuits need ground sets of at
most ENUM_CAP elements (a bases list's hyperplanes excepted), circuits at most
CIRCUIT_CAP.  Rank queries alone are permitted up to GROUND_CAP elements.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .errors import SizeCapError
from .gf import GF

GROUND_CAP = 4096   # rank queries only
ENUM_CAP = 64       # flats / cocircuit enumeration
CIRCUIT_CAP = 20
BASES_VERIFY_CAP = 5000
SUBSPACE_ENUM_CAP = 150_000


def _log_fallback(msg: str, *args) -> None:
    """DEBUG record on the "mforge" logger; logging is imported by the first one."""
    import logging

    logging.getLogger("mforge").debug(msg, *args, stacklevel=2)


def bits(mask: int) -> list[int]:
    """Element ids present in a bitmask, ascending."""
    if mask < 0:  # clearing the lowest bit of a negative int never ends
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _iter_bits(mask: int):
    """bits(mask) lazily, for loops that may stop early."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def representatives(classes) -> int:
    """Mask of each class's least element; the classes are disjoint, so a sum is their union."""
    return sum(c & -c for c in classes)


def ksubset_masks(n: int, k: int):
    """All k-element submasks of {0..n-1} in ascending bitmask order (Gosper)."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    x = (1 << k) - 1
    top = 1 << n
    while x < top:
        yield x
        c = x & -x
        r = x + c
        x = (((x ^ r) >> 2) // c) | r


def pg_size(q: int, r: int) -> int:
    """(q^r - 1)/(q - 1): the number of points of PG(r - 1, q), 0 at r = 0."""
    if q < 2:
        raise ValueError("density threshold requires q >= 2")
    return (q**r - 1) // (q - 1)


def check_ground(n: int) -> None:
    if n < 0 or n > GROUND_CAP:
        raise SizeCapError(f"ground size {n} outside [0, {GROUND_CAP}]")


class Matroid:
    """Abstract rank oracle. Subclasses implement _rank_mask, and may
    implement _closure_mask."""

    n: int
    # whether flats_of_rank is answered by LinearMatroid's subspace lookup
    _linear_flats = False

    def __init__(self, n: int):
        check_ground(n)
        self.n = n
        self._memo: dict[int, int] = {}
        self._closures: dict[int, int] = {}
        self._flats: dict[int, tuple[int, ...]] = {}
        self._full_rank: int | None = None

    # -- rank ----------------------------------------------------------------

    def _rank_mask(self, mask: int) -> int:
        raise NotImplementedError

    def as_mask(self, X) -> int:
        if X is None:
            return (1 << self.n) - 1
        mask = X if isinstance(X, int) else mask_of(X)
        if mask < 0 or mask >> self.n:
            raise self._outside(mask)
        return mask

    def _outside(self, mask: int) -> ValueError:
        return ValueError(f"subset {bin(mask)} not within ground set of size {self.n}")

    def rank(self, X=None) -> int:
        # only validated masks are ever stored, so a hit needs no check
        mask = X if type(X) is int else self.as_mask(X)
        r = self._memo.get(mask)
        if r is None:
            if mask < 0 or mask >> self.n:
                raise self._outside(mask)
            r = self._memo[mask] = self._rank_mask(mask)
        return r

    @property
    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self.rank(None)
        return self._full_rank

    def independent(self, X) -> bool:
        mask = self.as_mask(X)
        return self.rank(mask) == mask.bit_count()

    # -- closure and flats -----------------------------------------------------

    def closure(self, X) -> int:
        # memoized like rank: only validated masks are ever stored
        mask = X if type(X) is int else self.as_mask(X)
        c = self._closures.get(mask)
        if c is None:
            if mask < 0 or mask >> self.n:
                raise self._outside(mask)
            c = self._closures[mask] = self._closure_mask(mask)
        return c

    def _closure_mask(self, mask: int) -> int:
        """cl(X) by definition: X and every e with r(X + e) = r(X)."""
        r = self.rank(mask)
        out = mask
        for e in range(self.n):
            b = 1 << e
            if not mask & b and self.rank(mask | b) == r:
                out |= b
        return out

    def is_flat(self, X) -> bool:
        mask = self.as_mask(X)
        return self.closure(mask) == mask

    def loops(self) -> int:
        return self.closure(0)

    def _greedy_basis(self, mask: int, start: int = 0) -> int:
        """A basis of mask that extends the independent set start, adding
        elements in ascending order; it stops at full rank."""
        basis = start
        r = start.bit_count()
        for e in bits(mask & ~start):
            if r == self.full_rank:
                break
            b = 1 << e
            if self.rank(basis | b) > r:
                basis |= b
                r += 1
        return basis

    def flats_of_rank(self, k: int) -> list[int]:
        """All flats of rank exactly k, ascending by bitmask, as a fresh list.

        Each k is enumerated once per instance; the memo keeps a tuple, so a
        caller may change the list it gets without changing the next answer.
        """
        if k < 0 or k > self.full_rank:
            raise ValueError(f"flat rank {k} outside [0, {self.full_rank}]")
        if k == 0:
            return [self.closure(0)]  # the one rank-0 flat, at any ground size
        flats = self._flats.get(k)
        if flats is None:
            flats = self._flats[k] = tuple(sorted(self._flats_impl(k)))
        return list(flats)

    def _flats_impl(self, k: int) -> list[int]:
        """Each rank-k flat once, walked up from cl(empty) along its greedy basis.

        A prefix of a flat's greedy basis is the greedy basis of its own
        closure, so a flat G of rank j + 1 has one parent on the walk: the
        closure F of its first j greedy-basis elements, with G = cl(F + e)
        for e the least element of G - F, above every greedy-basis element
        of F.  The walk takes each such e upward, skipping those in a cover
        of F it has already found, so no flat is reached twice.
        """
        if self.n > ENUM_CAP:
            raise SizeCapError(f"flat enumeration needs n <= {ENUM_CAP}, got {self.n}")
        full = (1 << self.n) - 1
        out: list[int] = []

        def walk(flat: int, above: int, rank: int):
            # above: the elements past the last greedy-basis element of flat
            if rank == k:
                out.append(flat)
                return
            rest = above & ~flat
            while rest:
                low = rest & -rest
                cover = self.closure(flat | low)
                rest &= ~cover
                if not cover & ~flat & ~above:  # low is the least of cover - flat
                    walk(cover, full & -(low << 1), rank + 1)

        walk(self.closure(0), full, 0)
        return out

    def hyperplanes(self) -> list[int]:
        return self.flats_of_rank(self.full_rank - 1) if self.full_rank else []

    def cocircuits(self) -> list[int]:
        """Complements of hyperplanes, ascending by bitmask."""
        full = (1 << self.n) - 1
        return sorted(full ^ h for h in self.hyperplanes())

    # -- circuits ---------------------------------------------------------------

    def circuits(self) -> list[int]:
        """All circuits, ascending by (size, bitmask)."""
        if self.n > CIRCUIT_CAP:
            raise SizeCapError(f"circuit enumeration needs n <= {CIRCUIT_CAP}, got {self.n}")
        found: list[int] = []
        for s in range(1, min(self.n, self.full_rank + 1) + 1):
            for m in ksubset_masks(self.n, s):
                if any(c & m == c for c in found):
                    continue
                if self.rank(m) < s:
                    found.append(m)
        return found

    def is_circuit(self, X) -> bool:
        mask = self.as_mask(X)
        s = mask.bit_count()
        if s == 0 or self.rank(mask) != s - 1:
            return False
        return all(self.rank(mask ^ (1 << e)) == s - 1 for e in bits(mask))

    # -- points and density -------------------------------------------------------

    def point_classes(self) -> list[int]:
        """Rank-1 flats restricted to non-loops: the parallel classes.

        Each class is cl(e) minus the loops, e the lowest element not yet
        placed.
        """
        loops = self.loops()
        classes = []
        seen = loops
        for e in range(self.n):
            b = 1 << e
            if seen & b:
                continue
            cls = self.closure(b) & ~loops
            classes.append(cls)
            seen |= cls
        return classes

    def epsilon(self) -> int:
        """Number of points (rank-1 flats)."""
        return len(self.point_classes())

    def simplify(self):
        """Restriction to one representative per point.

        Returns (matroid, mapping); mapping[e] is the point index of element
        e, or None when e is a loop.  A simple matroid returns itself.
        """
        classes = self.point_classes()
        mapping: list[int | None] = [None] * self.n
        for i, cls in enumerate(classes):
            for e in bits(cls):
                mapping[e] = i
        full = (1 << self.n) - 1
        return self.minor(0, full ^ representatives(classes)), mapping

    def is_q_dense(self, q: int) -> bool:
        """Whether the point count strictly exceeds pg_size(q, r)."""
        return pg_size(q, self.full_rank) < self.epsilon()

    # -- derived matroids -----------------------------------------------------------

    def minor(self, contract=0, delete=0) -> "Matroid":
        c = self.as_mask(contract) if contract else 0
        d = self.as_mask(delete) if delete else 0
        if c & d:
            raise ValueError("contract and delete sets overlap")
        if not c and not d:
            return self
        return MinorView(self, c, d)

    def contract(self, X) -> "Matroid":
        return self.minor(contract=X)

    def delete(self, X) -> "Matroid":
        return self.minor(delete=X)

    def restrict(self, keep) -> "Matroid":
        keep_mask = self.as_mask(keep)
        return self.minor(delete=((1 << self.n) - 1) ^ keep_mask)

    def dual(self) -> "Matroid":
        return DualView(self)

    def truncate(self, t: int) -> "Matroid":
        if t < 1 or t > self.full_rank:
            raise ValueError(f"truncation rank {t} outside [1, {self.full_rank}]")
        if t == self.full_rank:
            return self
        return TruncationView(self, t)

    def principal_extension(self, F) -> "Matroid":
        return PrincipalExtensionView(self, self.as_mask(F))

    def principal_truncation(self, F) -> "Matroid":
        """Contract a new element freely placed on the flat F (rank >= 2)."""
        fmask = self.as_mask(F)
        if self.rank(fmask) < 2:
            raise ValueError("principal truncation needs a flat of rank >= 2")
        ext = self.principal_extension(fmask)
        return ext.contract({self.n})

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} r={self.full_rank}>"


# -- linear backend ------------------------------------------------------------


def reduce_vector(gf: GF, pivots: list, v):
    """Clear v's entries at the pivot rows, pivot by pivot in list order.

    pivots holds (row, vector) pairs whose vector is 1 at row.  v itself is
    never modified.
    """
    for row, pv in pivots:
        f = v[row]
        if f:
            v = gf.sub_scaled(v, f, pv)
    return v


def push_pivot(gf: GF, pivots: list, v) -> bool:
    """Reduce v and, if it is nonzero, append (lowest position, _point key).

    Returns whether v was independent of the pivots already present.
    """
    v = reduce_vector(gf, pivots, v)
    nz = next((i for i, x in enumerate(v) if x), None)
    if nz is None:
        return False
    ix = gf.inv(v[nz])
    pivots.append((nz, tuple(gf.mul(ix, x) for x in v)))
    return True


class LinearMatroid(Matroid):
    """Column matroid of a matrix over GF(q).

    Columns are tuples of element indices of the field, one tuple per ground
    element, all of the same length d.  One table, built on construction,
    answers every rank question: points[e] is the _point key of column e
    projected onto the pivot rows of the column span, so it is a vector of
    length full_rank (a packed int over GF(2), a normalized (ones, twos)
    pair of ints over GF(3), a normalized tuple otherwise, falsy for a
    loop).  Rank eliminates those points; point classes are the columns on
    each point; flats collect the columns on the points of each echelon
    subspace, or come from the generic search when that visits fewer sets
    than the subspaces have points.
    """

    _linear_flats = True

    def __init__(self, field: GF, columns):
        cols = tuple(tuple(int(x) for x in c) for c in columns)
        super().__init__(len(cols))
        if cols:
            d = len(cols[0])
            if any(len(c) != d for c in cols):
                raise ValueError("columns must share one dimension")
            if any(x < 0 or x >= field.q for c in cols for x in c):
                raise ValueError("column entries must be field element indices")
        self.field = field
        self.columns = cols
        self.dim = len(cols[0]) if cols else 0
        pivots: list[tuple[int, tuple[int, ...]]] = []
        for c in cols:
            if len(pivots) == self.dim:
                break
            push_pivot(field, pivots, c)
        # Each pivot is 1 at its own row and 0 at the rows of earlier pivots,
        # so projecting onto the pivot rows is injective on the column span.
        rows = [row for row, _ in pivots]
        self.points = tuple(_point(field, [c[i] for i in rows]) for c in cols)
        self._full_rank = len(pivots)
        self._on_point: dict = {}  # point -> mask of its columns, by lowest column
        self._loops = 0
        for e, p in enumerate(self.points):
            if p:
                self._on_point[p] = self._on_point.get(p, 0) | (1 << e)
            else:
                self._loops |= 1 << e

    def _rank_mask(self, mask: int) -> int:
        points = map(self.points.__getitem__, _iter_bits(mask & ~self._loops))
        return span_rank(self.field, points, self._full_rank)

    def _closure_mask(self, mask: int) -> int:
        """cl(X) by one elimination of X's points, over every field.

        span_rank leaves r pivots of X's points, each (lowest position,
        point key).  The closure is X, the loops and the columns on the
        points of their span: looked up from the span's (q^r - 1)/(q - 1)
        points when that is no more than the r pivot steps per point of
        reducing every point of the matroid against the pivots, and
        otherwise found by that reduction, which keeps high-rank spans of
        few points polynomial.
        """
        gf = self.field
        pivots: list = []
        points = map(self.points.__getitem__, _iter_bits(mask & ~self._loops))
        r = span_rank(gf, points, self._full_rank, pivots)
        if r == self._full_rank:
            return (1 << self.n) - 1
        out = mask | self._loops
        on_point = self._on_point
        if (gf.q**r - 1) // (gf.q - 1) <= len(on_point) * r:
            # ascending lowest positions make every point of the span a key
            rows = [key for _, key in sorted(pivots)]
            for p in _subspace_points(gf, rows):
                out |= on_point.get(p, 0)
        else:
            for p, members in on_point.items():
                if span_rank(gf, (p,), r + 1, pivots) == r:
                    out |= members
                else:
                    pivots.pop()
        self._memo[mask] = r
        return out

    def point_classes(self) -> list[int]:
        return list(self._on_point.values())

    def restrict_columns(self, keep) -> "LinearMatroid":
        keep_mask = self.as_mask(keep)
        return LinearMatroid(self.field, [self.columns[e] for e in bits(keep_mask)])

    def contract_columns(self, contract) -> "LinearMatroid":
        """Materialized contraction: quotient coordinates on E - contract."""
        cmask = self.as_mask(contract)
        gf = self.field
        pivots: list[tuple[int, tuple[int, ...]]] = []
        for e in bits(cmask):
            push_pivot(gf, pivots, self.columns[e])
        pivot_rows = {row for row, _ in pivots}
        keep_rows = [i for i in range(self.dim) if i not in pivot_rows]
        cols = []
        for e in range(self.n):
            if not cmask & (1 << e):
                v = reduce_vector(gf, pivots, self.columns[e])
                cols.append(tuple(v[i] for i in keep_rows))
        return LinearMatroid(gf, cols)

    # -- subspace-indexed flat enumeration ---------------------------------------

    def _flats_impl(self, k: int) -> list[int]:
        r = self.full_rank
        gf = self.field
        count = _gaussian_binomial(r, k, gf.q)
        # The subspace walk visits every point of every rank-k subspace; the
        # generic search takes up to n closures at each flat of rank below k,
        # priced here as C(n, k) flats.
        walk = count * (gf.q**k - 1) // (gf.q - 1)
        if self.n <= ENUM_CAP and walk > math.comb(self.n, k) * self.n:
            return super()._flats_impl(k)
        if self.n > ENUM_CAP and count > SUBSPACE_ENUM_CAP:  # where the generic search refuses
            _log_fallback(
                "LinearMatroid flats fall back to the generic search: %d rank-%d subspaces "
                "of GF(%d)^%d exceed %d", count, k, gf.q, r, SUBSPACE_ENUM_CAP)
            return super()._flats_impl(k)
        return self._subspace_flats(k)

    def _subspace_flats(self, k: int) -> list[int]:
        """Rank-k flats from the columns on the points of each subspace."""
        gf = self.field
        on_point = self._on_point
        out = []
        for rows in _echelon_bases(self.full_rank, k, gf):
            hit = [p for p in _subspace_points(gf, rows) if p in on_point]
            # The matroid need not be a full geometry: keep only the
            # subspaces spanned by the columns on their points.
            if span_rank(gf, hit, k) == k:
                members = self._loops
                for p in hit:
                    members |= on_point[p]
                out.append(members)
        return out


def _point(gf: GF, v):
    """Key of the projective point of v, falsy for the zero vector.

    Over GF(2) the key is v packed into an int, bit i holding entry i.  Over
    GF(3) it is the pair of ints (ones, twos) whose bit i is set when entry i
    is 1, resp. 2, with the planes swapped (v negated) if need be so that the
    lowest nonzero entry is 1.  Otherwise it is v scaled so its first nonzero
    entry is 1, as a tuple.
    """
    if gf.q == 2:
        out = 0
        for x in reversed(v):
            out = out + out + x
        return out
    if gf.q == 3:
        ones = sum(1 << i for i, x in enumerate(v) if x == 1)
        twos = sum(1 << i for i, x in enumerate(v) if x == 2)
        nz = ones | twos
        if not nz:
            return None
        return (twos, ones) if twos & nz & -nz else (ones, twos)
    nz = next((i for i, x in enumerate(v) if x), None)
    if nz is None:
        return None
    ix = gf.inv(v[nz])
    return tuple(gf.mul(ix, x) for x in v)


def _add3(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """(a1, a2) + (b1, b2) over GF(3), each vector given as (ones, twos)."""
    return a2 ^ ((a1 ^ (a2 | b1)) & ~b2), a1 ^ ((a2 ^ (a1 | b2)) & ~b1)


def span_rank(gf: GF, vectors, limit: int, pivots: list | None = None) -> int:
    """Rank of the vectors, stopping once it reaches limit.

    Each vector is reduced against the pivots in list order, the pivot rule
    of reduce_vector, and a nonzero residue is appended as a new pivot.
    Given pivots, the reduction starts from them and they receive the new
    ones, so the result counts them too.  Every field keeps a pivot as
    (lowest position, key), key the _point key of a residue whose lowest
    nonzero entry is a 1 there; sorted, the keys are echelon rows.  Over
    GF(2) a vector (a key) is reduced by XOR; over GF(3) by adding (_add3)
    the negated pivot, its planes swapped, when it holds 1 at the pivot's
    lowest bit and the pivot when it holds 2.  Otherwise the vectors are
    sequences of field indices, reduced by push_pivot.
    """
    if pivots is None:
        pivots = []
    if gf.q == 2:
        for v in vectors:
            for low, row in pivots:
                if v & low:
                    v ^= row
            if v:
                pivots.append((v & -v, v))
                if len(pivots) == limit:
                    break
        return len(pivots)
    if gf.q == 3:
        for o, t in vectors:
            for low, (p1, p2) in pivots:
                if o & low:
                    o, t = _add3(o, t, p2, p1)
                elif t & low:
                    o, t = _add3(o, t, p1, p2)
            nz = o | t
            if nz:
                low = nz & -nz
                if t & low:
                    o, t = t, o
                pivots.append((low, (o, t)))
                if len(pivots) == limit:
                    break
        return len(pivots)
    for v in vectors:
        if push_pivot(gf, pivots, v) and len(pivots) == limit:
            break
    return len(pivots)


def _subspace_points(gf: GF, rows) -> list:
    """The (q^k - 1)/(q - 1) projective points of the span of echelon rows.

    Rows and points are _point keys; each row's lowest nonzero entry is 1,
    at a position below the lowest nonzero entry of every later row (RREF
    rows, or span_rank's pivot keys sorted by position).  Over GF(2) each
    point is one XOR away from a point listed before it.  Otherwise a point
    is the combination whose first nonzero coefficient is 1; the echelon
    form makes that combination already normalized.  Over GF(3) the span
    grows by those points and their negations, which are plane swaps.
    """
    points: list = []
    if gf.q == 2:
        for row in rows:
            points += [row] + [p ^ row for p in points]
        return points
    if gf.q == 3:
        span = [(0, 0)]  # span of the rows after row i
        for i in range(len(rows) - 1, -1, -1):
            b1, b2 = rows[i]
            led = [_add3(a1, a2, b1, b2) for a1, a2 in span]
            points += led
            if i:
                span += led + [(a2, a1) for a1, a2 in led]
        return points
    neg = [gf.neg(a) for a in gf.nonzero()]  # w - neg[a - 1]*row = w + a*row
    span = [(0,) * len(rows[0])] if rows else []  # span of the rows after row i
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        # w + row: the points whose first nonzero coefficient is on row i
        led = [tuple(gf.sub_scaled(w, neg[0], row)) for w in span]
        points += led
        if i:
            span += led + [tuple(gf.sub_scaled(w, f, row)) for f in neg[1:] for w in span]
    return points


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _echelon_bases(r: int, k: int, gf: GF):
    """Row-reduced echelon bases of all k-dim subspaces of GF(q)^r.

    Each basis is a tuple of rows given as _point keys; an RREF row is
    already normalized.
    """
    for pivots in combinations(range(r), k):
        choices = []
        for p in pivots:
            free = [j for j in range(p + 1, r) if j not in pivots]
            row = [0] * r
            row[p] = 1
            options = []
            for fill in product(range(gf.q), repeat=len(free)):
                for j, val in zip(free, fill):
                    row[j] = val
                options.append(_point(gf, row))
            choices.append(options)
        yield from product(*choices)


# -- bases backend -----------------------------------------------------------------


class BasesMatroid(Matroid):
    """Matroid given by an explicit list of bases (as bitmasks or id lists).

    verify=True checks the basis-exchange axiom; more than BASES_VERIFY_CAP
    bases raise SizeCapError rather than load unchecked.  verify=False means
    the caller vouches that the list is a matroid's bases; rank and closure
    are exact only then.  Documents loaded from outside are always verified.

    Rank reads the basis that _exchange_basis reaches from the first basis:
    at most r(n - r) lookups in the set of bases per query, whatever the
    length of the list.  Closure is the definition, one rank per element.
    """

    def __init__(self, n: int, bases, verify: bool = True):
        super().__init__(n)
        bs = sorted({b if isinstance(b, int) else mask_of(b) for b in bases})
        if not bs:
            raise ValueError("bases list must be nonempty")
        r = bs[0].bit_count()
        if any(b.bit_count() != r for b in bs):
            raise ValueError("bases must share one cardinality")
        if any(b >> n for b in bs):
            raise ValueError("basis outside ground set")
        self.bases = bs
        self._bases = frozenset(bs)
        union, common = 0, bs[0]
        for b in bs:
            union |= b
            common &= b
        # neither a loop (in no basis) nor a coloop (in every basis)
        self._movable = union ^ common
        self._full_rank = r
        if verify:
            if len(bs) > BASES_VERIFY_CAP:
                raise SizeCapError(
                    f"exchange check needs at most {BASES_VERIFY_CAP} bases, got {len(bs)}")
            self._verify_exchange()

    def _fundamental_cocircuits(self):
        """(B, C*(B, x)) for each basis B, in order, and x in B, ascending: the y making
        B - x + y a basis, the cocircuit meeting B in x alone (Oxley, Matroid Theory, ch. 2)."""
        full, bases = (1 << self.n) - 1, self._bases
        for b in self.bases:
            outside = [1 << y for y in bits(full ^ b)]
            for x in bits(b):
                base = b ^ (1 << x)
                yield b, sum(y for y in outside if base | y in bases) | 1 << x

    def _verify_exchange(self):
        """Basis b2 misses C*(b1, x) exactly when x is not in b2 and no y in b2 - b1
        completes b1 - x, so exchange holds iff every basis meets every C*.  Each
        distinct C* is scanned once for its first missing basis; the bases are sorted,
        so the least miss (b1, b2, x) is the first failure by b1, then b2, then x."""
        seen, misses = set(), []
        for b1, c in self._fundamental_cocircuits():
            if c not in seen:
                seen.add(c)
                b2 = next((b2 for b2 in self.bases if not b2 & c), None)
                if b2 is not None:
                    misses.append((b1, b2, (c & b1).bit_length() - 1))
        if misses:
            b1, b2, x = min(misses)
            raise ValueError(f"basis exchange fails for {bits(b1)} / {bits(b2)} at {x}")

    def _flats_impl(self, k: int) -> list[int]:
        """Hyperplanes are the complements cl(B - x) of the distinct C*(B, x)."""
        if k != self._full_rank - 1:
            return super()._flats_impl(k)
        full = (1 << self.n) - 1
        return list({full ^ c for _, c in self._fundamental_cocircuits()})

    def _exchange_basis(self, mask: int) -> int:
        """A basis B whose part B & X spans X, in one pass from the first basis.

        For each movable x in X - B, ascending, B becomes B - y + x for the first
        movable y in B - X that keeps it a basis.  Such a y exists exactly when
        the fundamental circuit of x in B leaves B & X (Oxley, Matroid Theory,
        ch. 1), so an x that finds none lies in cl(B & X).  B & X only grows,
        so after the pass every element of X - B lies in cl(B & X): a loop lies
        in every closure and a coloop in every basis, and no fundamental circuit
        holds a coloop, so only movable elements are swapped.
        """
        bases, b = self._bases, self.bases[0]
        todo, spare = mask & self._movable & ~b, b & self._movable & ~mask
        while todo and spare:
            x = todo & -todo
            todo ^= x
            rest = spare
            while rest:
                y = rest & -rest
                rest ^= y
                if b ^ y | x in bases:
                    b ^= y | x
                    spare ^= y
                    break
        return b

    def _rank_mask(self, mask: int) -> int:
        return (self._exchange_basis(mask) & mask).bit_count()


# -- views ---------------------------------------------------------------------------


class MinorView(Matroid):
    """M / contract \\ delete with ground relabeled to 0..m-1 in parent order.

    The kept parent elements fall into runs of consecutive ids; each run is
    stored once as (view start, parent start, width mask), so a mask moves
    between the view and the parent by one shift and one AND per run.

    Flats come from the parent's flats when a LinearMatroid answers those
    (parent._linear_flats); otherwise the generic search runs on the minor's
    own ground set, since asking a view for flats would search its larger
    ground set at a higher rank.
    """

    def __init__(self, parent: Matroid, contract_mask: int, delete_mask: int):
        self.parent = parent
        self._linear_flats = parent._linear_flats
        self.contract_mask = contract_mask
        self.delete_mask = delete_mask
        rest = ((1 << parent.n) - 1) & ~(contract_mask | delete_mask)
        super().__init__(rest.bit_count())
        self._runs = []
        start = 0
        while rest:
            ps = (rest & -rest).bit_length() - 1
            x = rest >> ps
            w = (x ^ (x + 1)) >> 1  # the trailing ones of x
            self._runs.append((start, ps, w))
            rest ^= w << ps
            start += w.bit_length()
        self._rc = parent.rank(contract_mask)

    def lift_mask(self, mask: int) -> int:
        out = 0
        for vs, ps, w in self._runs:
            out |= ((mask >> vs) & w) << ps
        return out

    def _drop_mask(self, pmask: int) -> int:
        """The view's mask of the kept parent elements in pmask."""
        out = 0
        for vs, ps, w in self._runs:
            out |= ((pmask >> ps) & w) << vs
        return out

    def _rank_mask(self, mask: int) -> int:
        return self.parent.rank(self.lift_mask(mask) | self.contract_mask) - self._rc

    def _closure_mask(self, mask: int) -> int:
        """cl_{M/C\\D}(X) = cl_M(X + C) - C - D."""
        return self._drop_mask(self.parent.closure(self.lift_mask(mask) | self.contract_mask))

    def _flats_impl(self, k: int) -> list[int]:
        if not self._linear_flats:
            return super()._flats_impl(k)
        pk = k + self._rc  # at most r(E - D), since k is at most this view's rank
        try:
            parent_flats = self.parent.flats_of_rank(pk)
        except SizeCapError as exc:
            _log_fallback("MinorView flats fall back to the generic search: %s", exc)
            return super()._flats_impl(k)
        # F - C - D is a flat of M/C\D when the flat F holds C, of rank
        # r_M(F - D) - r(C), which is k unless F meets D; each flat of the
        # minor is cl_M(Y + C) - C - D for some Y, so these are all of them.
        c, d = self.contract_mask, self.delete_mask
        out = set()
        for f in parent_flats:
            if f & c == c and (not f & d or self.parent.rank(f & ~d) == pk):
                out.add(self._drop_mask(f))
        return list(out)


class DualView(Matroid):
    def __init__(self, parent: Matroid):
        self.parent = parent
        super().__init__(parent.n)
        self._pfull = (1 << parent.n) - 1
        self._pr = parent.full_rank

    def _rank_mask(self, mask: int) -> int:
        return mask.bit_count() - self._pr + self.parent.rank(self._pfull ^ mask)


class TruncationView(Matroid):
    def __init__(self, parent: Matroid, t: int):
        self.parent = parent
        self._linear_flats = parent._linear_flats
        self.t = t
        super().__init__(parent.n)

    def _rank_mask(self, mask: int) -> int:
        return min(self.parent.rank(mask), self.t)

    def _closure_mask(self, mask: int) -> int:
        """The parent's cl(X) below rank t; at rank t, X spans everything."""
        if self.parent.rank(mask) < self.t:
            return self.parent.closure(mask)
        return (1 << self.n) - 1

    def point_classes(self) -> list[int]:
        if self.t >= 2:
            return self.parent.point_classes()
        return super().point_classes()

    def _flats_impl(self, k: int) -> list[int]:
        if k < self.t:
            return self.parent.flats_of_rank(k)
        return [(1 << self.n) - 1]  # k == t: the ground set is the one rank-t flat


class PrincipalExtensionView(Matroid):
    """Parent plus one new element (id = parent.n) freely placed on flat F."""

    def __init__(self, parent: Matroid, fmask: int):
        if not parent.is_flat(fmask):
            raise ValueError("principal extension requires a flat")
        self.parent = parent
        self._linear_flats = parent._linear_flats
        self.fmask = fmask
        super().__init__(parent.n + 1)

    def _rank_mask(self, mask: int) -> int:
        e_bit = 1 << self.parent.n
        if not mask & e_bit:
            return self.parent.rank(mask)
        rest = mask ^ e_bit
        return min(self.parent.rank(rest) + 1, self.parent.rank(rest | self.fmask))

    def _closure_mask(self, mask: int) -> int:
        """cl(X) from the parent's closures, with p the new element on F and
        X' = X - p: cl(X') + p if F lies in cl(X'); else cl(X') if p is not
        in X; else cl(X' + F) + p if r(X' + F) = r(X') + 1; else cl(X') + p.
        """
        parent = self.parent
        e_bit = 1 << parent.n
        rest = mask & ~e_bit
        cl = parent.closure(rest)
        if not self.fmask & ~cl:
            return cl | e_bit
        if not mask & e_bit:
            return cl
        if parent.rank(rest | self.fmask) == parent.rank(rest) + 1:
            return parent.closure(rest | self.fmask) | e_bit
        return cl | e_bit

    def _flats_impl(self, k: int) -> list[int]:
        # The parent refuses only past ENUM_CAP elements, where the generic
        # search would refuse too, so its SizeCapError passes through.  The
        # extension has the parent's rank, so 0 <= k <= r(parent).
        e_bit = 1 << self.parent.n
        fm = self.fmask
        out, through_f = [], []
        for f in self.parent.flats_of_rank(k):
            if fm & ~f:
                out.append(f)          # flat avoiding the new element
            else:
                out.append(f | e_bit)  # flat containing F absorbs it
                through_f.append(f)
        # The new element sits above a rank-(k-1) flat Y, nothing collapsing,
        # when r(Y + F) >= r(Y) + 2: when no rank-k flat holds both Y and F.
        for y in self.parent.flats_of_rank(k - 1) if k else ():
            if all(y & ~g for g in through_f):
                out.append(y | e_bit)
        return out


class DirectSumView(Matroid):
    def __init__(self, m1: Matroid, m2: Matroid):
        self.m1, self.m2 = m1, m2
        super().__init__(m1.n + m2.n)
        self._low = (1 << m1.n) - 1

    def _rank_mask(self, mask: int) -> int:
        return self.m1.rank(mask & self._low) + self.m2.rank(mask >> self.m1.n)

    def _closure_mask(self, mask: int) -> int:
        return self.m1.closure(mask & self._low) | (self.m2.closure(mask >> self.m1.n) << self.m1.n)


class ParallelConnectionView(Matroid):
    """Glue m1 and m2 across a shared basepoint.

    Elements of m1 keep their ids; the basepoint of the result is p1; the
    elements of m2 other than p2 follow in m2's order.  Rank of X is
      min( r1(X1 + p1) + r2(X2 + p2) - 1,  r1(X1) + r2(X2) )
    where Xi is the trace of X on Ei, the basepoint belonging to both sides.
    """

    def __init__(self, m1: Matroid, m2: Matroid, p1: int, p2: int):
        for (m, p) in ((m1, p1), (m2, p2)):
            if p < 0 or p >= m.n:
                raise ValueError("basepoint outside ground set")
            if m.rank(1 << p) == 0:
                raise ValueError("basepoint is a loop")
            if m.rank(((1 << m.n) - 1) ^ (1 << p)) < m.full_rank:
                raise ValueError("basepoint is a coloop")
        self.m1, self.m2, self.p1, self.p2 = m1, m2, p1, p2
        super().__init__(m1.n + m2.n - 1)

    def _traces(self, mask: int) -> tuple[int, int]:
        """(X1, X2) in m1's and m2's ids, each holding its basepoint when X does."""
        p2 = self.p2
        x1 = mask & ((1 << self.m1.n) - 1)
        y = mask >> self.m1.n
        x2 = (y & ((1 << p2) - 1)) | ((y >> p2) << (p2 + 1)) | ((x1 >> self.p1 & 1) << p2)
        return x1, x2

    def _rank_mask(self, mask: int) -> int:
        x1, x2 = self._traces(mask)
        b1, b2 = 1 << self.p1, 1 << self.p2
        joined = self.m1.rank(x1 | b1) + self.m2.rank(x2 | b2) - 1
        split = self.m1.rank(x1) + self.m2.rank(x2)
        return min(joined, split)

    def _closure_mask(self, mask: int) -> int:
        """cl_1(X1) + cl_2(X2), closed again with the basepoint on both
        sides when either holds it: a set is a flat when both its traces
        are (Oxley, Matroid Theory, Prop. 11.4.14)."""
        x1, x2 = self._traces(mask)
        b1, p2 = 1 << self.p1, self.p2
        c1, c2 = self.m1.closure(x1), self.m2.closure(x2)
        if c1 & b1 or c2 >> p2 & 1:
            c1, c2 = self.m1.closure(x1 | b1), self.m2.closure(x2 | 1 << p2)
        # side 2 in the view's ids: drop p2, move m2's later elements down one
        c2 = (c2 & ((1 << p2) - 1)) | ((c2 >> (p2 + 1)) << p2)
        return c1 | (c2 << self.m1.n)


# -- helpers ------------------------------------------------------------------------


def materialize_bases(m: Matroid) -> BasesMatroid:
    """Explicit-bases copy of any matroid, of at most BASES_VERIFY_CAP bases."""
    r = m.full_rank
    if math.comb(m.n, r) > 2_000_000:
        raise SizeCapError("too many candidate bases to enumerate")
    bases = []
    for mask in ksubset_masks(m.n, r):
        if m.rank(mask) == r:
            if len(bases) == BASES_VERIFY_CAP:
                raise SizeCapError(
                    f"at least {BASES_VERIFY_CAP + 1} bases exceed cap {BASES_VERIFY_CAP}")
            bases.append(mask)
    return BasesMatroid(m.n, bases, verify=False)


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    return DirectSumView(m1, m2)


def rank_mismatch(a: Matroid, b: Matroid, masks=None, mapping=None) -> int | None:
    """The first mask X in masks (every subset of a's ground, ascending, by
    default) with r_a(X) != r_b(f(X)), f mapping each element e to
    mapping[e] (the identity by default); None when the two agree on all."""
    for x in range(1 << a.n) if masks is None else masks:
        y = x if mapping is None else mask_of(mapping[e] for e in bits(x))
        if a.rank(x) != b.rank(y):
            return x
    return None


def rank_axioms_hold(m: Matroid) -> str | None:
    """Local rank-axiom check over all subsets; None if clean.

    Unit increase plus local submodularity
      r(X+e) + r(X+f) >= r(X+e+f) + r(X)
    over all X and e, f not in X is equivalent to the full axiom system.
    Each subset's rank is read from m.rank once, then swept from that list.
    """
    if m.n > 16:
        raise SizeCapError("axiom sweep needs n <= 16")
    ranks = [m.rank(x) for x in range(1 << m.n)]
    if ranks[0] != 0:
        return "rank of empty set is nonzero"
    for x, rx in enumerate(ranks):
        outside = [e for e in range(m.n) if not x & (1 << e)]
        for e in outside:
            if not rx <= ranks[x | (1 << e)] <= rx + 1:
                return f"unit increase fails at X={x} e={e}"
        for i, e in enumerate(outside):
            re = ranks[x | (1 << e)]
            for f in outside[i + 1:]:
                if re + ranks[x | (1 << f)] < ranks[x | (1 << e) | (1 << f)] + rx:
                    return f"submodularity fails at X={x} e={e} f={f}"
    return None
