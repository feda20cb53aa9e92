"""Rank-oracle matroids on ground sets {0, ..., n-1}.

Subsets of the ground set are plain ints used as bitmasks (bit e set means
element e is in the subset).  Every matroid exposes the same query surface
through a memoized rank oracle; concrete backends are

  LinearMatroid   columns of a matrix over GF(q), rank by Gaussian elimination
  BasesMatroid    an explicit list of bases, rank r(X) = max |X & B|

and lazy views (minor, dual, truncation, principal extension, direct sum,
parallel connection) that compute rank through their parent's oracle.

All matroids are immutable after construction.  The only mutable state is
the per-instance rank memo, which behaves as a pure cache: concurrent
duplicate computation is harmless, so instances may be shared across
worker threads without locking.

Enumerative operations (flats, circuits, cocircuits) are capped:
ground sets up to ENUM_CAP elements, circuits up to CIRCUIT_CAP.  Rank
queries alone are permitted on ground sets up to GROUND_CAP elements.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import SizeCapError
from .gf import GF

GROUND_CAP = 4096   # rank queries only
ENUM_CAP = 64       # flats / cocircuit enumeration
CIRCUIT_CAP = 20
BASES_VERIFY_CAP = 5000
SUBSPACE_ENUM_CAP = 150_000


def bits(mask: int) -> list[int]:
    """Element ids present in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


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


def submasks_of(n: int, positions: list[int], k: int):
    """k-subsets of the given bit positions, ascending by expanded mask."""
    for small in ksubset_masks(len(positions), k):
        m = 0
        for i in bits(small):
            m |= 1 << positions[i]
        yield m


class Matroid:
    """Abstract rank oracle. Subclasses implement _rank_mask."""

    n: int

    def __init__(self, n: int):
        if n < 0 or n > GROUND_CAP:
            raise SizeCapError(f"ground size {n} outside [0, {GROUND_CAP}]")
        self.n = n
        self._memo: dict[int, int] = {}
        self._full_rank: int | None = None

    # -- rank ----------------------------------------------------------------

    def _rank_mask(self, mask: int) -> int:
        raise NotImplementedError

    def as_mask(self, X) -> int:
        if X is None:
            return (1 << self.n) - 1
        mask = X if isinstance(X, int) else mask_of(X)
        if mask < 0 or mask >> self.n:
            raise ValueError(f"subset {bin(mask)} not within ground set of size {self.n}")
        return mask

    def rank(self, X=None) -> int:
        mask = self.as_mask(X)
        r = self._memo.get(mask)
        if r is None:
            r = self._rank_mask(mask)
            self._memo[mask] = r
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
        mask = self.as_mask(X)
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
        m = 0
        for e in range(self.n):
            if self.rank(1 << e) == 0:
                m |= 1 << e
        return m

    def _greedy_basis(self, flat_mask: int) -> int:
        basis = 0
        r = 0
        for e in bits(flat_mask):
            b = 1 << e
            if self.rank(basis | b) > r:
                basis |= b
                r += 1
        return basis

    def flats_of_rank(self, k: int) -> list[int]:
        """All flats of rank exactly k, ascending by bitmask.

        Generic algorithm: closures of independent k-sets, emitting each flat
        only from its lexicographically least generating independent set.
        """
        if k < 0 or k > self.full_rank:
            raise ValueError(f"flat rank {k} outside [0, {self.full_rank}]")
        out = self._flats_impl(k)
        out.sort()
        return out

    def _flats_impl(self, k: int) -> list[int]:
        if self.n > ENUM_CAP:
            raise SizeCapError(f"flat enumeration needs n <= {ENUM_CAP}, got {self.n}")
        found: list[int] = []

        def dfs(cur: int, size: int, start: int):
            if size == k:
                flat = self.closure(cur)
                if self._greedy_basis(flat) == cur:
                    found.append(flat)
                return
            for e in range(start, self.n):
                b = 1 << e
                if self.rank(cur | b) == size + 1:
                    dfs(cur | b, size + 1, e + 1)

        dfs(0, 0, 0)
        return found

    def hyperplanes(self) -> list[int]:
        if self.full_rank == 0:
            return []
        return self.flats_of_rank(self.full_rank - 1)

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
        """Rank-1 flats restricted to non-loops: the parallel classes."""
        loops = self.loops()
        classes = []
        seen = loops
        for e in range(self.n):
            b = 1 << e
            if seen & b:
                continue
            cls = b
            for f in range(e + 1, self.n):
                fb = 1 << f
                if not seen & fb and self.rank(b | fb) == 1:
                    cls |= fb
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
        keep = 0
        for i, cls in enumerate(classes):
            for e in bits(cls):
                mapping[e] = i
            keep |= cls & -cls  # least element represents the class
        full = (1 << self.n) - 1
        return self.minor(0, full ^ keep), mapping

    def is_q_dense(self, q: int) -> bool:
        """Whether the point count strictly exceeds (q^r - 1)/(q - 1)."""
        if q < 2:
            raise ValueError("density threshold requires q >= 2")
        r = self.full_rank
        return self.epsilon() * (q - 1) > q**r - 1

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


def reduce_vector(gf: GF, pivots: list, v, coords: list[int] | None = None):
    """Clear v's entries at the pivot rows, pivot by pivot in list order.

    pivots holds (row, vector) pairs whose vector is 1 at row.  When coords
    is given, coords[i] receives the multiplier used for pivot i.  v itself
    is never modified.
    """
    for i, (row, pv) in enumerate(pivots):
        f = v[row]
        if f:
            if coords is not None:
                coords[i] = f
            v = gf.sub_scaled(v, f, pv)
    return v


def push_pivot(gf: GF, pivots: list, v) -> bool:
    """Reduce v and, if it is nonzero, append it as a normalized pivot.

    Returns whether v was independent of the pivots already present.
    """
    v = reduce_vector(gf, pivots, v)
    nz = next((i for i, x in enumerate(v) if x), None)
    if nz is None:
        return False
    ix = gf.inv(v[nz])
    pivots.append((nz, [gf.mul(ix, x) for x in v]))
    return True


class LinearMatroid(Matroid):
    """Column matroid of a matrix over GF(q).

    Columns are tuples of element indices of the field, one tuple per ground
    element, all of the same length d.
    """

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

    def _rank_mask(self, mask: int) -> int:
        gf = self.field
        pivots: list[tuple[int, list[int]]] = []
        for e in bits(mask):
            if push_pivot(gf, pivots, self.columns[e]) and len(pivots) == self.dim:
                break  # remaining columns cannot raise the rank further
        return len(pivots)

    # Projectively normalized column: first nonzero entry scaled to 1.
    def _normalized(self, e: int) -> tuple[int, ...] | None:
        gf = self.field
        c = self.columns[e]
        nz = next((i for i, x in enumerate(c) if x), None)
        if nz is None:
            return None
        ix = gf.inv(c[nz])
        return tuple(gf.mul(ix, x) for x in c)

    def point_classes(self) -> list[int]:
        groups: dict[tuple[int, ...], int] = {}
        for e in range(self.n):
            key = self._normalized(e)
            if key is not None:
                groups[key] = groups.get(key, 0) | (1 << e)
        return sorted(groups.values(), key=lambda m: m & -m)

    def restrict_columns(self, keep) -> "LinearMatroid":
        keep_mask = self.as_mask(keep)
        return LinearMatroid(self.field, [self.columns[e] for e in bits(keep_mask)])

    def contract_columns(self, contract) -> "LinearMatroid":
        """Materialized contraction: quotient coordinates on E - contract."""
        cmask = self.as_mask(contract)
        gf = self.field
        pivots: list[tuple[int, list[int]]] = []
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

    def _span_coords(self) -> list[tuple[int, ...]]:
        """Coordinates of every column in a basis of the column span."""
        gf = self.field
        pivots: list[tuple[int, list[int]]] = []
        for c in self.columns:
            push_pivot(gf, pivots, c)
        coords = []
        for c in self.columns:
            cs = [0] * len(pivots)
            reduce_vector(gf, pivots, c, cs)
            coords.append(tuple(cs))
        return coords

    def _flats_impl(self, k: int) -> list[int]:
        r = self.full_rank
        count = _gaussian_binomial(r, k, self.field.q)
        if count > SUBSPACE_ENUM_CAP:
            return super()._flats_impl(k)
        coords = self._span_coords()
        gf = self.field
        out = []
        for rows in _echelon_bases(r, k, gf):
            subspace = [(next(i for i, x in enumerate(row) if x), row) for row in rows]
            members = 0
            span_rows: list[tuple[int, list[int]]] = []
            for e, c in enumerate(coords):
                if any(reduce_vector(gf, subspace, c)):
                    continue  # column outside the subspace
                members |= 1 << e
                if len(span_rows) < k:
                    push_pivot(gf, span_rows, c)
            if len(span_rows) == k:
                out.append(members)
        return out


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _echelon_bases(r: int, k: int, gf: GF):
    """Row-reduced echelon bases of all k-dim subspaces of GF(q)^r."""
    from itertools import combinations, product

    if k == 0:
        yield []
        return
    for pivots in combinations(range(r), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, r)
            if j not in pivots
        ]
        for fill in product(gf.elements(), repeat=len(free)):
            rows = [[0] * r for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(free, fill):
                rows[i][j] = val
            yield rows


# -- bases backend -----------------------------------------------------------------


class BasesMatroid(Matroid):
    """Matroid given by an explicit list of bases (as bitmasks or id lists)."""

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
        self.bases_set = set(bs)
        self.r = r
        if verify and len(bs) <= BASES_VERIFY_CAP:
            self._verify_exchange()

    def _verify_exchange(self):
        for b1 in self.bases:
            for b2 in self.bases:
                if b1 == b2:
                    continue
                only1 = b1 & ~b2
                cand = bits(b2 & ~b1)
                for x in bits(only1):
                    base = b1 ^ (1 << x)
                    if not any(base | (1 << y) in self.bases_set for y in cand):
                        raise ValueError(
                            f"basis exchange fails for {bits(b1)} / {bits(b2)} at {x}"
                        )

    def _rank_mask(self, mask: int) -> int:
        target = min(mask.bit_count(), self.r)
        best = 0
        for b in self.bases:
            c = (b & mask).bit_count()
            if c > best:
                best = c
                if best == target:
                    break
        return best


# -- views ---------------------------------------------------------------------------


class MinorView(Matroid):
    """M / contract \\ delete with ground relabeled to 0..m-1 in parent order."""

    def __init__(self, parent: Matroid, contract_mask: int, delete_mask: int):
        self.parent = parent
        self.contract_mask = contract_mask
        self.delete_mask = delete_mask
        gone = contract_mask | delete_mask
        self.ground_map = tuple(e for e in range(parent.n) if not gone & (1 << e))
        super().__init__(len(self.ground_map))
        self._lift = tuple(1 << e for e in self.ground_map)
        self._rc = parent.rank(contract_mask)

    def lift_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self._lift[i]
        return out

    def _rank_mask(self, mask: int) -> int:
        return self.parent.rank(self.lift_mask(mask) | self.contract_mask) - self._rc

    def _flats_impl(self, k: int) -> list[int]:
        # Flats of M/C\D of rank k are (F - C) & keep for parent flats F of
        # rank k + r(C), filtered back to rank k and deduped.
        pk = k + self._rc
        if pk > self.parent.full_rank:
            return []
        try:
            parent_flats = self.parent.flats_of_rank(pk)
        except SizeCapError:
            return super()._flats_impl(k)
        pos = {e: i for i, e in enumerate(self.ground_map)}
        out = set()
        for f in parent_flats:
            m = 0
            for e in bits(f):
                i = pos.get(e)
                if i is not None:
                    m |= 1 << i
            if m not in out and self.rank(m) == k and self.closure(m) == m:
                out.add(m)
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
        self.t = t
        super().__init__(parent.n)

    def _rank_mask(self, mask: int) -> int:
        return min(self.parent.rank(mask), self.t)

    def point_classes(self) -> list[int]:
        if self.t >= 2:
            return self.parent.point_classes()
        return super().point_classes()

    def _flats_impl(self, k: int) -> list[int]:
        if k < self.t:
            return self.parent.flats_of_rank(k)
        if k == self.t:
            return [(1 << self.n) - 1]
        return []


class PrincipalExtensionView(Matroid):
    """Parent plus one new element (id = parent.n) freely placed on flat F."""

    def __init__(self, parent: Matroid, fmask: int):
        if not parent.is_flat(fmask):
            raise ValueError("principal extension requires a flat")
        self.parent = parent
        self.fmask = fmask
        super().__init__(parent.n + 1)

    def _rank_mask(self, mask: int) -> int:
        e_bit = 1 << self.parent.n
        if not mask & e_bit:
            return self.parent.rank(mask)
        rest = mask ^ e_bit
        return min(self.parent.rank(rest) + 1, self.parent.rank(rest | self.fmask))

    def _flats_impl(self, k: int) -> list[int]:
        try:
            flats_k = self.parent.flats_of_rank(k) if k <= self.parent.full_rank else []
            flats_k1 = (
                self.parent.flats_of_rank(k - 1)
                if 1 <= k <= self.parent.full_rank + 1
                else []
            )
        except SizeCapError:
            return super()._flats_impl(k)
        e_bit = 1 << self.parent.n
        fm = self.fmask
        out = []
        for f in flats_k:
            if fm & ~f:
                out.append(f)          # flat avoiding the new element
            else:
                out.append(f | e_bit)  # flat containing F absorbs it
        for y in flats_k1:
            if self.parent.rank(y | fm) >= self.parent.rank(y) + 2:
                out.append(y | e_bit)  # new element sits above y, nothing collapses
        return out


class DirectSumView(Matroid):
    def __init__(self, m1: Matroid, m2: Matroid):
        self.m1, self.m2 = m1, m2
        super().__init__(m1.n + m2.n)
        self._low = (1 << m1.n) - 1

    def _rank_mask(self, mask: int) -> int:
        return self.m1.rank(mask & self._low) + self.m2.rank(mask >> self.m1.n)


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
        self._m2_ids = tuple(e for e in range(m2.n) if e != p2)

    def _rank_mask(self, mask: int) -> int:
        x1 = mask & ((1 << self.m1.n) - 1)
        x2 = 0
        for i in bits(mask >> self.m1.n):
            x2 |= 1 << self._m2_ids[i]
        if mask & (1 << self.p1):
            x2 |= 1 << self.p2
        b1, b2 = 1 << self.p1, 1 << self.p2
        joined = self.m1.rank(x1 | b1) + self.m2.rank(x2 | b2) - 1
        split = self.m1.rank(x1) + self.m2.rank(x2)
        return min(joined, split)


# -- helpers ------------------------------------------------------------------------


def materialize_bases(m: Matroid, max_bases: int = BASES_VERIFY_CAP, verify: bool = False) -> BasesMatroid:
    """Explicit-bases copy of any matroid (for cross-checking views)."""
    r = m.full_rank
    if math.comb(m.n, r) > 2_000_000:
        raise SizeCapError("too many candidate bases to enumerate")
    bases = [mask for mask in ksubset_masks(m.n, r) if m.rank(mask) == r]
    if len(bases) > max_bases:
        raise SizeCapError(f"{len(bases)} bases exceed cap {max_bases}")
    return BasesMatroid(m.n, bases, verify=verify)


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    return DirectSumView(m1, m2)


def rank_axioms_hold(m: Matroid) -> str | None:
    """Local rank-axiom check over all subsets; None if clean.

    Unit increase plus local submodularity
      r(X+e) + r(X+f) >= r(X+e+f) + r(X)
    over all X and e, f not in X is equivalent to the full axiom system.
    """
    if m.n > 16:
        raise SizeCapError("axiom sweep needs n <= 16")
    if m.rank(0) != 0:
        return "rank of empty set is nonzero"
    for x in range(1 << m.n):
        rx = m.rank(x)
        outside = [e for e in range(m.n) if not x & (1 << e)]
        step = {}
        for e in outside:
            re = m.rank(x | (1 << e))
            if not rx <= re <= rx + 1:
                return f"unit increase fails at X={x} e={e}"
            step[e] = re
        for i, e in enumerate(outside):
            for f in outside[i + 1:]:
                ref = m.rank(x | (1 << e) | (1 << f))
                if step[e] + step[f] < ref + rx:
                    return f"submodularity fails at X={x} e={e} f={f}"
    return None
