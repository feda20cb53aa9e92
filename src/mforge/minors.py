"""Isomorphism testing, minor detection, and dense-restriction procedures.

Witness discipline: every search that claims success returns a certificate
(an element bijection, or contract/delete sets plus a bijection) that can be
re-verified from scratch with nothing but rank queries (iso_is_valid,
minor_is_valid).  Searches enumerate candidates in a fixed canonical order
(subsets ascending by bitmask, sizes ascending) so results are reproducible
run to run.

Isomorphism is a backtracking search over per-element fingerprints (parallel
class size and line profile).  Spikes and swirls have fingerprints that do
not tell elements apart, so the first time the search backtracks it
escalates to pair colours: the colour of (e, x) is the number of hyperplanes
containing both, an isomorphism invariant (the individualize-and-refine
pruning of McKay and Piperno, reduced to one invariant).  Colours only drop
candidates that have no completion, so the first map found, and with it
every certificate, is the one the fingerprint search alone would find.

The golden-ratio-weighted comparisons used by dense_restriction are exact:
values live in Z[phi] as integer pairs a + b*phi with phi^2 = phi + 1, and
signs are decided by integer arithmetic alone, never floats.
"""

from __future__ import annotations

from .errors import (
    LemmaViolationError,
    NotAnExtensionError,
    RepresentableInputError,
    SizeCapError,
)
from .matroid import Matroid, bits, ksubset_masks, mask_of
from .records import FrozenRecord, Record

ISO_CAP = 20
MINOR_CAP = 24


# -- certificates ----------------------------------------------------------------


class IsoCertificate(FrozenRecord):
    """Element bijection: mapping[e] is the image of e."""

    __slots__ = ("mapping",)


class MinorWitness(FrozenRecord):
    """M / contract \\ delete is isomorphic to the target via iso.

    contract is independent in M; iso maps the relabeled minor ground
    (parent-order relabeling) onto the target's ground.
    """

    __slots__ = ("contract", "delete", "iso")


class DenseRestrictionReport(Record):
    """Outcome of the cocircuit-splitting descent.

    trace holds (cocircuit-mask-in-parent-ids, kept-side) pairs; restriction
    is the final kept subset of the parent ground.  hypothesis_holds records
    whether the rank-vs-line-length growth condition was satisfied on entry;
    the rank and density guarantees on the result are only promised under
    that hypothesis, so callers get the measured values either way.
    """

    __slots__ = ("restriction", "trace", "final", "final_rank", "final_dense",
                 "hypothesis_holds")
    _defaults = {"trace": list, "final": None, "final_rank": 0, "final_dense": False,
                 "hypothesis_holds": False}


def iso_is_valid(m: Matroid, n: Matroid, mapping) -> bool:
    """Re-verify a claimed isomorphism by independent rank queries.

    Exact: the full ranks agree and every r-subset keeps its rank, so the
    map carries the bases of m onto the bases of n, and bases determine a
    matroid.
    """
    if m.n != n.n or sorted(mapping) != list(range(m.n)):
        return False
    r = m.full_rank
    if n.full_rank != r:
        return False
    for x in ksubset_masks(m.n, r):
        y = 0
        for e in bits(x):
            y |= 1 << mapping[e]
        if m.rank(x) != n.rank(y):
            return False
    return True


def minor_is_valid(m: Matroid, n: Matroid, wit: MinorWitness) -> bool:
    """Re-verify a claimed minor witness by independent rank queries.

    C = wit.contract is independent with |C| = r(M) - r(N), C and
    D = wit.delete are disjoint sets of M's elements, and wit.iso is an
    isomorphism of M / C \\ D onto N (iso_is_valid).
    """
    c, d = wit.contract, wit.delete
    if c < 0 or d < 0 or (c | d) >> m.n or c & d:
        return False
    size = c.bit_count()
    if size != m.full_rank - n.full_rank or m.rank(c) != size:
        return False
    return iso_is_valid(m.minor(c, d), n, wit.iso.mapping)


# -- isomorphism -------------------------------------------------------------------


def _fingerprints(m: Matroid):
    """Per-element invariant: loops, parallel class size, line profile.

    The line profile of a point is the sorted multiset of point-counts of
    the rank-2 closures through it (one entry per other parallel class).
    """
    classes = m.point_classes()
    cls_of = {}
    for i, cls in enumerate(classes):
        for e in bits(cls):
            cls_of[e] = i
    reps = [cls & -cls for cls in classes]
    line_pts: dict[tuple[int, int], int] = {}
    fps = []
    for e in range(m.n):
        if e not in cls_of:
            fps.append((0, ()))  # class size 0 marks a loop; real classes are nonempty
            continue
        i = cls_of[e]
        profile = []
        for j in range(len(classes)):
            if j == i:
                continue
            key = (min(i, j), max(i, j))
            cnt = line_pts.get(key)
            if cnt is None:
                line = m.closure(reps[i] | reps[j])
                cnt = sum(1 for cls in classes if cls & line)
                line_pts[key] = cnt
            profile.append(cnt)
        profile.sort()
        fps.append((classes[i].bit_count(), tuple(profile)))
    return fps


def _pair_colours(m: Matroid) -> list[list[int]]:
    """colour[e][x]: the number of hyperplanes of m that contain both e and x.

    An isomorphism carries hyperplanes onto hyperplanes, so it keeps every
    pair colour, and with them each element's sorted row.
    """
    colour = [[0] * m.n for _ in range(m.n)]
    for h in m.hyperplanes():
        members = bits(h)
        for e in members:
            row = colour[e]
            for x in members:
                row[x] += 1
    return colour


def are_isomorphic(m: Matroid, n: Matroid, *, _n_memo=None) -> IsoCertificate | None:
    """Rank-preserving bijection, or None when provably absent.

    Backtracking over fingerprint-compatible images.  At each extension
    step, the new element joined with every subset of the mapped prefix of
    at most r - 1 elements (r the full rank) is checked for rank agreement.
    That loses nothing: a set whose ranks disagree has a maximal independent
    subset, on the side of larger rank, whose ranks disagree too, and it has
    at most r elements.  Every pruning decision is the one a check of all
    prefix subsets would make, and a completed map agrees on all subsets.

    Escalation: the first time the search backtracks, it computes the pair
    colours (_pair_colours) of both sides and starts again.  Sides whose
    sorted colour rows differ as multisets are not isomorphic; otherwise each
    candidate f of e needs e's row, and from then on an image f of e needs
    colour_m[e][x] == colour_n[f][image[x]] for every mapped x before any
    rank is checked.  Searches that never backtrack never pay for colours.

    Output rule: the element order and the candidate order are the
    fingerprint search's, and the colours only drop candidates that have no
    completion, so the first map found is the same with or without them.

    _n_memo, when given, is a dict that keeps n's fingerprints and colours
    across calls: has_minor passes one for all of its candidates.
    """
    if m.n != n.n or m.full_rank != n.full_rank:
        return None
    if m.n > ISO_CAP:
        raise SizeCapError(f"isomorphism search needs n <= {ISO_CAP}, got {m.n}")
    if m.n == 0:
        return IsoCertificate(())
    n_memo = {} if _n_memo is None else _n_memo
    if "prints" not in n_memo:
        n_memo["prints"] = _fingerprints(n)
    fm, fn = _fingerprints(m), n_memo["prints"]
    if sorted(fm) != sorted(fn):
        return None
    cands = [[f for f in range(n.n) if fn[f] == fm[e]] for e in range(m.n)]
    # most-constrained-first element order keeps the search shallow
    order = sorted(range(m.n), key=lambda e: len(cands[e]))
    image = [-1] * m.n
    used = [False] * n.n
    r = m.full_rank
    # mapped prefix subsets of at most max(r - 1, 0) elements, with images
    pairs: list[tuple[int, int]] = [(0, 0)]
    colours = None  # (colour_m, colour_n) once the search has backtracked

    def extend(depth: int) -> bool | None:
        """True once the map is complete, False when this branch is
        exhausted, None at the first backtrack while there are no colours."""
        if depth == m.n:
            return True
        e = order[depth]
        be = 1 << e
        for f in cands[e]:
            if used[f]:
                continue
            if colours is not None:
                ce, cf = colours[0][e], colours[1][f]
                if any(ce[x] != cf[image[x]] for x in order[:depth]):
                    continue
            bf = 1 << f
            base = len(pairs)
            ok = True
            for i in range(base):
                mm, nn = pairs[i]
                if m.rank(mm | be) != n.rank(nn | bf):
                    ok = False
                    break
                if mm.bit_count() < r - 1:
                    pairs.append((mm | be, nn | bf))
            if ok:
                image[e] = f
                used[f] = True
                found = extend(depth + 1)
                if found is not False:
                    return found
                if colours is None:
                    return None  # the first backtrack
                used[f] = False
                image[e] = -1
            del pairs[base:]
        return False

    found = extend(0)
    if found is None:
        if "colours" not in n_memo:
            n_memo["colours"] = _pair_colours(n)
        colours = _pair_colours(m), n_memo["colours"]
        rows_m, rows_n = ([sorted(row) for row in c] for c in colours)
        if sorted(rows_m) != sorted(rows_n):
            return None
        cands = [[f for f in cands[e] if rows_n[f] == rows_m[e]] for e in range(m.n)]
        image[:] = [-1] * m.n
        used[:] = [False] * n.n
        del pairs[1:]
        found = extend(0)
    if found:
        return IsoCertificate(tuple(image))
    return None


# -- minor detection -----------------------------------------------------------------


def _is_uniform_line(n: Matroid) -> int | None:
    """If N is a simple rank-2 uniform matroid, its size; else None."""
    if n.full_rank == 2 and not n.loops() and n.epsilon() == n.n:
        return n.n
    return None


def has_minor(m: Matroid, n: Matroid) -> MinorWitness | None:
    """First minor witness in canonical order, or None when N is not a minor.

    Contract-sets range over independent sets of size r(M)-r(N) only; every
    minor is reachable in that form, so absence is definitive.  A U(2,k)
    target is refused at once when M has no k-point-line minor: every rank-2
    minor is M/C\\D with cl(C) a coline, so longest_line_minor is exact.  That
    shortcut only prunes negatives, and it runs before the size cap; positives
    come from the canonical search, or from _line_minor_witness above MINOR_CAP.
    """
    line = _is_uniform_line(n)
    if line is not None:
        if longest_line_minor(m) < line:
            return None
        if m.n > MINOR_CAP:
            return _line_minor_witness(m, line)
    csize = m.full_rank - n.full_rank
    if n.n > m.n or csize < 0:
        return None
    if m.n > MINOR_CAP:
        raise SizeCapError(f"minor search needs |E| <= {MINOR_CAP}, got {m.n}")
    n_loops = n.loops().bit_count()
    n_eps = n.epsilon()
    n_memo: dict = {}  # the target's fingerprints and colours, once a candidate needs them
    full = (1 << m.n) - 1
    for cmask in ksubset_masks(m.n, csize):
        if m.rank(cmask) != csize:
            continue
        mc = m.contract(cmask)
        for keep in ksubset_masks(mc.n, n.n):
            cand = mc.restrict(keep)
            if cand.full_rank != n.full_rank:
                continue
            if cand.loops().bit_count() != n_loops or cand.epsilon() != n_eps:
                continue
            cert = are_isomorphic(cand, n, _n_memo=n_memo)
            if cert is not None:
                kept_m = keep if mc is m else mc.lift_mask(keep)
                dmask = full ^ cmask ^ kept_m
                return MinorWitness(cmask, dmask, cert)
    return None


def _line_minor_witness(m: Matroid, size: int) -> MinorWitness | None:
    """Witness for a k-point-line minor of a large matroid.

    Contract a basis of a coline with enough hyperplanes through it, keep one
    representative per point of the contraction, and certify directly: the
    result is a simple rank-2 matroid on `size` elements, which pins the
    target up to any bijection.
    """
    r = m.full_rank
    if r < 2:
        return None
    full = (1 << m.n) - 1
    for co in m.flats_of_rank(r - 2):
        basis = m._greedy_basis(co)
        mc = m.contract(basis)
        classes = mc.point_classes()
        if len(classes) < size:
            continue
        keep = 0
        for cls in classes[:size]:
            keep |= cls & -cls
        kept_m = keep if mc is m else mc.lift_mask(keep)
        dmask = full ^ basis ^ kept_m
        if _is_uniform_line(m.minor(basis, dmask)) == size:
            return MinorWitness(basis, dmask, IsoCertificate(tuple(range(size))))
    return None


def longest_line_minor(m: Matroid) -> int:
    """Largest k such that a k-point-line minor exists (0 when rank < 2).

    Equals the maximum, over rank-(r-2) flats, of the number of hyperplanes
    containing the flat: contracting a basis of the flat turns those
    hyperplanes into the points of a rank-2 minor.
    """
    r = m.full_rank
    if r < 2:
        return 0
    if r == 2:
        return m.epsilon()
    colines = m.flats_of_rank(r - 2)
    hyps = m.flats_of_rank(r - 1)
    best = 0
    for co in colines:
        deg = sum(1 for h in hyps if h | co == h)
        if deg > best:
            best = deg
    return best


# -- density dichotomy ------------------------------------------------------------------


class LonglineStep(FrozenRecord):
    """Outcome of the one-element density dichotomy.

    kind is "dense-contraction" (M/e stays q-dense) or "line-restriction"
    (a line through e carries at least q+2 points; `line` is its mask).
    """

    __slots__ = ("kind", "line")
    _defaults = {"line": None}


def longline_step(m: Matroid, q: int, e: int) -> LonglineStep:
    """For q-dense M and a non-loop e: contract keeps density, or a long line through e exists."""
    if not m.is_q_dense(q):
        raise ValueError("input must be q-dense")
    if m.rank(1 << e) == 0:
        raise ValueError(f"element {e} is a loop")
    if m.contract({e}).is_q_dense(q):
        return LonglineStep("dense-contraction")
    classes = m.point_classes()
    eb = 1 << e
    seen = set()
    for cls in classes:
        if cls & eb:
            continue
        line = m.closure(eb | (cls & -cls))
        if line in seen:
            continue
        seen.add(line)
        pts = sum(1 for c in classes if c & line)
        if pts >= q + 2:
            return LonglineStep("line-restriction", line)
    raise LemmaViolationError(
        f"neither branch holds at element {e}: contraction not {q}-dense "
        "and no line through it has enough points"
    )


# -- exact Z[phi] and Z[sqrt5] comparisons -------------------------------------------------


def _sign_sqrt5(u: int, v: int) -> int:
    """Sign of u + v*sqrt(5)."""
    if u >= 0 and v >= 0:
        return 1 if (u or v) else 0
    if u <= 0 and v <= 0:
        return -1
    lhs, rhs = u * u, 5 * v * v
    if u > 0:  # v < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if rhs > lhs else (-1 if rhs < lhs else 0)


def golden_positive(a: int, b: int) -> bool:
    """Whether a + b*phi > 0, phi the golden ratio."""
    return _sign_sqrt5(2 * a + b, b) > 0


def _phi_pow(d: int) -> tuple[int, int]:
    """phi^d as (a, b) with phi^d = a + b*phi, d >= 0."""
    a, b = 1, 0
    for _ in range(d):
        a, b = b, a + b  # (a + b*phi)*phi = b + (a+b)*phi
    return a, b


def weighted_density_exceeds(eps: int, d: int, threshold: int) -> bool:
    """Exact test of eps * phi^d > threshold for integers eps, threshold, d >= 0."""
    a, b = _phi_pow(d)
    return golden_positive(eps * a - threshold, eps * b)


def growth_hypothesis_holds(r: int, ell: int, t: int) -> bool:
    """Exact test of (sqrt(5) - 1)^(r-1) >= ell^(t-1)."""
    u, v = 1, 0  # u + v*sqrt5
    for _ in range(r - 1):
        u, v = -u + 5 * v, u - v  # multiply by (-1 + sqrt5)
    return _sign_sqrt5(u - ell ** (t - 1), v) >= 0


# -- dense restriction descent ---------------------------------------------------------------


def dense_restriction(
    m: Matroid, q: int, t: int, ell: int | None = None
) -> DenseRestrictionReport:
    """Shrink a q-dense matroid to a restriction whose cocircuits all have
    rank at least r-1, keeping a golden-ratio-weighted density invariant.

    While the current restriction has a cocircuit of rank <= r-2, split on
    it: keep whichever side N (the cocircuit or its complementary
    hyperplane) still satisfies eps(N) * phi^(r(M)-r(N)) > (q^r(M)-1)/(q-1),
    preferring the cocircuit side.  The counting argument guarantees a side
    exists; if neither qualifies the run aborts, since that would mean the
    counting argument itself is wrong.

    Only q-density of the input is enforced.  The growth hypothesis
    (sqrt5-1)^(r-1) >= ell^(t-1) is evaluated and recorded; when it holds,
    the result is guaranteed q-dense with rank >= t, and that is asserted.
    """
    if not m.is_q_dense(q):
        raise ValueError("input must be q-dense")
    r = m.full_rank
    threshold = (q**r - 1) // (q - 1)
    if ell is None:
        ell = max(longest_line_minor(m) - 1, 2)
    report = DenseRestrictionReport(
        restriction=(1 << m.n) - 1,
        hypothesis_holds=growth_hypothesis_holds(r, ell, t),
    )
    cur_mask = report.restriction
    while True:
        cur = m.restrict(cur_mask)
        lift = (lambda x: x) if cur is m else cur.lift_mask
        r0 = cur.full_rank
        if r0 < 2:
            break
        full_local = (1 << cur.n) - 1
        cocircs = sorted(full_local ^ h for h in cur.flats_of_rank(r0 - 1))
        split = next((c for c in cocircs if cur.rank(c) <= r0 - 2), None)
        if split is None:
            break
        classes = cur.point_classes()
        eps_co = sum(1 for cls in classes if cls & split)
        eps_hyp = len(classes) - eps_co
        # points split cleanly: the hyperplane is a flat, so no class straddles
        if any((cls & split) and (cls & ~split & full_local) for cls in classes):
            raise LemmaViolationError("parallel class straddles a cocircuit split")
        r_co = cur.rank(split)
        r_hyp = r0 - 1
        if weighted_density_exceeds(eps_co, r - r_co, threshold):
            keep_local, kept = split, "cocircuit"
        elif weighted_density_exceeds(eps_hyp, r - r_hyp, threshold):
            keep_local, kept = full_local ^ split, "hyperplane"
        else:
            raise LemmaViolationError(
                f"both sides of cocircuit split fail the weighted density bound "
                f"(eps {eps_co}/{eps_hyp}, ranks {r_co}/{r_hyp}, threshold {threshold})"
            )
        report.trace.append((lift(split), kept))
        cur_mask = lift(keep_local)
    final = m.restrict(cur_mask)
    report.restriction = cur_mask
    report.final = final
    report.final_rank = final.full_rank
    report.final_dense = final.is_q_dense(q)
    if report.hypothesis_holds and not (report.final_dense and report.final_rank >= t):
        raise LemmaViolationError(
            "descent finished below the guaranteed density or rank floor"
        )
    return report


# -- unavoidable minors of geometry extensions ----------------------------------------------


def unavoidable_minor_of_extension(
    m: Matroid, target_rank: int, q: int, e: int | None = None
) -> tuple[str, MinorWitness]:
    """Extract the rank-m principal-extension minor from a one-element
    extension of a rank-2m projective geometry.

    The element e (default: last id) must add a genuinely new point.  The
    minimal flat F of the geometry whose closure catches e is recovered as
    the intersection of all geometry hyperplanes that do; modularity of
    projective flats makes that intersection itself catch e.  If r(F) >= m,
    contract basis elements to leave a free point on a full flat (tag
    P(m-1,q,m)); otherwise leave a free point on a line (tag P(m-1,q,2)).
    The returned witness is isomorphism-verified against the constructed
    target; failure to verify raises, since the recipe admits no exceptions.
    """
    from .constructions import principal_geometry_extension

    mm = target_rank
    if e is None:
        e = m.n - 1
    n_pts = (q ** (2 * mm) - 1) // (q - 1)
    if m.full_rank != 2 * mm or m.n != n_pts + 1:
        raise NotAnExtensionError(
            f"need rank {2 * mm} on {n_pts + 1} elements, got rank {m.full_rank} on {m.n}"
        )
    eb = 1 << e
    geom = m.delete({e})
    geom_classes = geom.point_classes()
    if len(geom_classes) != n_pts or any(c.bit_count() != 1 for c in geom_classes):
        raise NotAnExtensionError("deleting e does not leave a simple full geometry")
    if m.epsilon() != n_pts + 1:
        raise RepresentableInputError("the added element is a loop or a parallel copy")

    lift = geom.lift_mask
    flat = ((1 << m.n) - 1) ^ eb
    for h in geom.flats_of_rank(2 * mm - 1):
        h_m = lift(h)
        if m.rank(h_m | eb) == m.rank(h_m):
            flat &= h_m
    r_flat = m.rank(flat)
    if m.rank(flat | eb) != r_flat or r_flat < 2:
        raise LemmaViolationError("hyperplane intersection fails to catch the new element")

    basis_flat = m._greedy_basis(flat)
    basis = basis_flat
    rk = r_flat
    for g in range(m.n):
        if rk == 2 * mm:
            break
        gb = 1 << g
        if g != e and not basis & gb and m.rank(basis | gb) == rk + 1:
            basis |= gb
            rk += 1
    if r_flat >= mm:
        keep_ind = mask_of(bits(basis_flat)[:mm])
        contract = basis ^ keep_ind
        tag_k = mm
    else:
        j1 = mask_of(bits(basis_flat)[: r_flat - 2])
        j2 = mask_of(bits(basis & ~basis_flat)[: mm - (r_flat - 2)])
        contract = j1 | j2
        tag_k = 2
    tag = f"P({mm - 1},{q},{tag_k})"

    quotient = m.contract(contract)
    classes = quotient.point_classes()
    if len(classes) != (q**mm - 1) // (q - 1) + 1:
        raise LemmaViolationError(f"contraction has {len(classes)} points, not the {tag} count")
    keep = 0
    for cls in classes:
        keep |= cls & -cls
    dmask = ((1 << m.n) - 1) ^ contract ^ quotient.lift_mask(keep)
    minor = m.minor(contract, dmask)
    target = principal_geometry_extension(mm, q, tag_k)
    cert = are_isomorphic(minor, target.matroid)
    if cert is None:
        raise LemmaViolationError(f"contraction recipe did not produce {tag}")
    return tag, MinorWitness(contract, dmask, cert)
