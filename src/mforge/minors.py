"""Isomorphism testing, minor detection, and dense-restriction procedures.

Witness discipline: every search that claims success returns a certificate
(an element bijection, or contract/delete sets plus a bijection) that can be
re-verified from scratch with nothing but rank queries (iso_is_valid,
minor_is_valid).  Searches enumerate candidates in a fixed canonical order
(subsets ascending by bitmask, sizes ascending) so results are reproducible
run to run.

Lines come from two places, and neither closes a pair: the fingerprints read
the matroid's rank-2 flats (flats_of_rank(2), memoized per matroid), and
longline_step reads the lines through e off the points of M/e.

Isomorphism is a backtracking search over per-element fingerprints (parallel
class size and line profile), pruned by one rule: the hyperplanes' traces on
the mapped prefix must agree as multisets on both sides (individualization
and refinement, as in McKay and Piperno, on element-hyperplane incidence).
It asks no rank: an isomorphism carries hyperplanes onto hyperplanes, and the
hyperplanes determine the matroid, so the traces both prune and decide the
leaf.  Pruning drops only maps with no completion, so the first map found,
and with it every certificate, is the first isomorphism in the search order.

The golden-ratio-weighted comparisons used by dense_restriction are exact:
values live in Z[sqrt5] as integer pairs u + v*sqrt5, with phi^d read as
(1 + sqrt5)^d / 2^d, and signs are decided by integer arithmetic alone, never
floats.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

from .errors import (
    LemmaViolationError,
    NotAnExtensionError,
    RepresentableInputError,
    SizeCapError,
)
from .matroid import (Matroid, bits, ksubset_masks, mask_of, pg_size, rank_mismatch,
                      representatives)
from .records import Record

ISO_CAP = 20
MINOR_CAP = 24


# -- certificates ----------------------------------------------------------------


class IsoCertificate(Record):
    """Element bijection: mapping[e] is the image of e."""

    __slots__ = ("mapping",)


class MinorWitness(Record):
    """M / contract \\ delete is isomorphic to the target via iso.

    contract is independent in M; iso maps the relabeled minor ground
    (parent-order relabeling) onto the target's ground.
    """

    __slots__ = ("contract", "delete", "iso")


class DenseRestrictionReport(Record):
    """Outcome of the cocircuit-splitting descent.

    trace holds (cocircuit-mask-in-parent-ids, kept-side) pairs; restriction
    is the final kept subset of the parent ground, final that restriction,
    and final_rank and final_dense its rank and q-density.  Like every
    record it is built once, when the descent ends.  hypothesis_holds records
    whether the rank-vs-line-length growth condition was satisfied on entry;
    the rank and density guarantees on the result are only promised under
    that hypothesis, so callers get the measured values either way.
    """

    __slots__ = ("restriction", "trace", "final", "final_rank", "final_dense",
                 "hypothesis_holds")


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
    return rank_mismatch(m, n, ksubset_masks(m.n, r), mapping) is None


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

    The line profile of a point is the sorted multiset of the point counts
    of the lines through it, one entry per other point on each line: a line
    of p points adds p - 1 entries p to each of its points.  Two points lie
    on exactly one line (rank-2 flat), so that is one entry per other point.
    Below rank 2 there is no line and every profile is empty.
    """
    classes = m.point_classes()
    profiles: list[list[int]] = [[] for _ in classes]
    for line in m.flats_of_rank(2) if m.full_rank >= 2 else ():
        on = [i for i, cls in enumerate(classes) if cls & line]
        for i in on:
            profiles[i] += [len(on)] * (len(on) - 1)
    fps = [(0, ())] * m.n  # class size 0 marks a loop; real classes are nonempty
    for cls, profile in zip(classes, profiles):
        fp = (cls.bit_count(), tuple(sorted(profile)))
        for e in bits(cls):
            fps[e] = fp
    return fps


def are_isomorphic(m: Matroid, n: Matroid, *, _n_prints=None) -> IsoCertificate | None:
    """Rank-preserving bijection, or None when provably absent.

    Depth-first search over fingerprint-compatible images, most constrained
    element first, pruned by hyperplane traces: each hyperplane's key lists
    which elements of the mapped prefix it holds, in prefix order, and
    mapping e to f extends the keys by "H holds e" on m and "H holds f" on n.
    An image survives only while the two sides' keys agree as multisets.

    Sound: an isomorphism carries hyperplanes onto hyperplanes, so a map
    that extends to one keeps the keys.  Exact: at a full map the keys are
    the hyperplanes themselves, so equal multisets mean the map carries the
    hyperplanes of m onto those of n, and the hyperplanes determine a
    matroid.  Same first map: the search runs in a fixed order, prunes only
    maps with no completion and accepts exactly the isomorphisms, so it
    returns the first isomorphism in that order, as any such search does.

    _n_prints, when given, is _fingerprints(n), which has_minor computes once
    for all of its candidates; n's hyperplanes come from its own flats memo.
    """
    if m.n != n.n or m.full_rank != n.full_rank:
        return None
    if m.n > ISO_CAP:
        raise SizeCapError(f"isomorphism search needs n <= {ISO_CAP}, got {m.n}")
    fm, fn = _fingerprints(m), _fingerprints(n) if _n_prints is None else _n_prints
    if sorted(fm) != sorted(fn):
        return None
    hm, hn = m.hyperplanes(), n.hyperplanes()
    cands = [[f for f in range(n.n) if fn[f] == fm[e]] for e in range(m.n)]
    # most-constrained-first element order keeps the search shallow
    order = sorted(range(m.n), key=lambda e: len(cands[e]))
    image = [-1] * m.n
    used = [False] * n.n

    def extend(depth: int, keys_m: list[int], keys_n: list[int]) -> bool:
        # keys_m[i] has bit d set when hm[i] holds order[d]; keys_n likewise
        # with the images
        if depth == m.n:
            return True
        e = order[depth]
        keys_m = [k | (h >> e & 1) << depth for k, h in zip(keys_m, hm)]
        want = Counter(keys_m)
        for f in cands[e]:
            if used[f]:
                continue
            grown = [k | (h >> f & 1) << depth for k, h in zip(keys_n, hn)]
            if Counter(grown) != want:
                continue
            image[e] = f
            used[f] = True
            if extend(depth + 1, keys_m, grown):
                return True
            used[f] = False
        return False

    if extend(0, [0] * len(hm), [0] * len(hn)):
        return IsoCertificate(tuple(image))
    return None


# -- minor detection -----------------------------------------------------------------


def _in_host(m: Matroid, minor: Matroid, mask: int) -> int:
    """The ids in m of a mask of its minor.  minor(0, 0) returns m itself, whose
    masks are m's already: it has no lift_mask, or (a MinorView) one into its parent."""
    return mask if minor is m else minor.lift_mask(mask)


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
    shortcut only prunes negatives; positives come from the canonical search.
    A candidate K stays a mask until it passes three necessary tests read
    off M/C: its loops, the points of M/C it meets and its rank must number
    N's; a C with eps(M/C) < eps(N) is skipped whole, since no restriction
    of M/C has more points.
    Above MINOR_CAP a U(2,k) target is answered by _line_minor_witness alone,
    which returns None exactly when longest_line_minor(M) < k.
    """
    line = _is_uniform_line(n)
    if line is not None:
        if m.n > MINOR_CAP:
            return _line_minor_witness(m, line)
        if longest_line_minor(m) < line:
            return None
    csize = m.full_rank - n.full_rank
    if n.n > m.n or csize < 0:
        return None
    if m.n > MINOR_CAP:
        raise SizeCapError(f"minor search needs |E| <= {MINOR_CAP}, got {m.n}")
    n_loops = n.loops().bit_count()
    n_eps = n.epsilon()
    n_prints = _fingerprints(n)  # once for every candidate
    full = (1 << m.n) - 1
    for cmask in ksubset_masks(m.n, csize):
        if m.rank(cmask) != csize:
            continue
        mc = m.contract(cmask)
        loops, classes = mc.loops(), mc.point_classes()
        if len(classes) < n_eps:
            continue
        for keep in ksubset_masks(mc.n, n.n):
            # the loops, points and rank of M/C|K, read off M/C before K is built
            if ((keep & loops).bit_count() != n_loops
                    or sum(1 for cls in classes if cls & keep) != n_eps
                    or mc.rank(keep) != n.full_rank):
                continue
            cert = are_isomorphic(mc.restrict(keep), n, _n_prints=n_prints)
            if cert is not None:
                return MinorWitness(cmask, full ^ cmask ^ _in_host(m, mc, keep), cert)
    return None


def _line_minor_witness(m: Matroid, size: int) -> MinorWitness | None:
    """Witness for a k-point-line minor of a large matroid.

    Contract a basis of the least coline on at least `size` hyperplanes (the
    least rank-(r-2) hyperplane meet of size(size-1)/2 pairs or more), keep
    one representative per point of the contraction, and certify directly:
    the result is a simple rank-2 matroid on `size` elements, or the recipe
    is wrong and LemmaViolationError is raised.
    """
    r = m.full_rank
    if r < 2:
        return None
    need = size * (size - 1) // 2
    co = min((meet for meet, count in _hyperplane_meets(m).items()
              if count >= need and m.rank(meet) == r - 2), default=None)
    if co is None:
        return None
    basis = m._greedy_basis(co)
    mc = m.contract(basis)
    keep = representatives(mc.point_classes()[:size])
    dmask = ((1 << m.n) - 1) ^ basis ^ _in_host(m, mc, keep)
    if _is_uniform_line(m.minor(basis, dmask)) != size:
        raise LemmaViolationError(f"the contracted coline did not leave a {size}-point line")
    return MinorWitness(basis, dmask, IsoCertificate(tuple(range(size))))


def _hyperplane_meets(m: Matroid) -> Counter:
    """How many pairs of hyperplanes of m (rank r >= 2) meet in each set.

    Two hyperplanes through a coline (a rank-(r-2) flat) meet in exactly it,
    and every coline lies on two or more, so the rank-(r-2) keys are the
    colines, one on d hyperplanes counting d(d-1)/2 pairs.  At rank 2 the one
    coline cl(empty) lies on all eps(m) points, and no pair is listed.
    """
    if m.full_rank == 2:
        eps = m.epsilon()
        return Counter({m.loops(): eps * (eps - 1) // 2})
    return Counter(h & g for h, g in combinations(m.hyperplanes(), 2))


def longest_line_minor(m: Matroid) -> int:
    """Largest k such that a k-point-line minor exists (0 when rank < 2).

    Equals the most hyperplanes d on one coline: contracting a basis of the
    coline turns them into the points of a rank-2 minor.  The hyperplane
    meets are tried most pairs first, and the first of rank r-2 gives d.
    """
    r = m.full_rank
    if r < 2:
        return 0
    pairs = next(count for meet, count in _hyperplane_meets(m).most_common()
                 if m.rank(meet) == r - 2)
    return (1 + math.isqrt(1 + 8 * pairs)) // 2


# -- density dichotomy ------------------------------------------------------------------


class LonglineStep(Record):
    """Outcome of the one-element density dichotomy.

    kind is "dense-contraction" (M/e stays q-dense) or "line-restriction"
    (a line through e carries at least q+2 points; `line` is its mask).
    """

    __slots__ = ("kind", "line")
    _defaults = {"line": None}


def longline_step(m: Matroid, q: int, e: int) -> LonglineStep:
    """For q-dense M and a non-loop e: contract keeps density, or a long line through e exists.

    The lines through e are read off M/e: the point of M/e holding x is
    cl_M(x + e) - cl_M(e), so each point lifted back and joined with cl_M(e)
    is one line through e, and each line comes once, in the order of its
    least element outside cl_M(e).  The first with q + 2 points is returned.
    """
    if not m.is_q_dense(q):
        raise ValueError("input must be q-dense")
    if m.rank(1 << e) == 0:
        raise ValueError(f"element {e} is a loop")
    contraction = m.contract({e})
    if contraction.is_q_dense(q):
        return LonglineStep("dense-contraction")
    classes = m.point_classes()
    through_e = m.closure(1 << e)
    for point in contraction.point_classes():
        line = contraction.lift_mask(point) | through_e
        pts = sum(1 for c in classes if c & line)
        if pts >= q + 2:
            return LonglineStep("line-restriction", line)
    raise LemmaViolationError(
        f"neither branch holds at element {e}: contraction not {q}-dense "
        "and no line through it has enough points"
    )


# -- exact Z[sqrt5] comparisons ----------------------------------------------------------


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


def _sqrt5_pow(a: int, d: int) -> tuple[int, int]:
    """(a + sqrt5)^d as (u, v) with (a + sqrt5)^d = u + v*sqrt5, for d >= 0."""
    u, v = 1, 0
    for _ in range(d):
        u, v = a * u + 5 * v, u + a * v
    return u, v


def weighted_density_exceeds(eps: int, d: int, threshold: int) -> bool:
    """Exact test of eps * phi^d > threshold for integers eps, threshold, d >= 0,
    as eps * (1 + sqrt5)^d > threshold * 2^d, since 2*phi = 1 + sqrt5."""
    if d < 0:
        raise ValueError(f"phi exponent must be at least 0, got {d}")
    u, v = _sqrt5_pow(1, d)
    return _sign_sqrt5(eps * u - (threshold << d), eps * v) > 0


def growth_hypothesis_holds(r: int, ell: int, t: int) -> bool:
    """Exact test of (sqrt(5) - 1)^(r-1) >= ell^(t-1); r < 1 or t < 1 raises
    ValueError, since a negative power is not an integer pair."""
    if r < 1 or t < 1:
        raise ValueError(f"growth hypothesis needs r >= 1 and t >= 1, got r={r}, t={t}")
    u, v = _sqrt5_pow(-1, r - 1)
    return _sign_sqrt5(u - ell ** (t - 1), v) >= 0


# -- dense restriction descent ---------------------------------------------------------------


def dense_restriction(m: Matroid, q: int, t: int) -> DenseRestrictionReport:
    """Shrink a q-dense matroid to a restriction whose cocircuits all have
    rank at least r-1, keeping a golden-ratio-weighted density invariant.

    While the current restriction has a cocircuit of rank <= r-2, split on
    it: keep whichever side N (the cocircuit or its complementary
    hyperplane) still satisfies eps(N) * phi^(r(M)-r(N)) > (q^r(M)-1)/(q-1),
    preferring the cocircuit side.  The counting argument guarantees a side
    exists; if neither qualifies the run aborts, since that would mean the
    counting argument itself is wrong.

    Only q-density of the input is enforced.  The growth hypothesis
    (sqrt5-1)^(r-1) >= ell^(t-1), ell = max(longest line minor - 1, 2), is
    evaluated and recorded; when it holds, the result is guaranteed q-dense
    with rank >= t, and that is asserted.
    """
    if not m.is_q_dense(q):
        raise ValueError("input must be q-dense")
    r = m.full_rank
    threshold = pg_size(q, r)
    ell = max(longest_line_minor(m) - 1, 2)
    hypothesis_holds = growth_hypothesis_holds(r, ell, t)
    trace = []
    cur_mask = (1 << m.n) - 1
    while True:
        cur = m.restrict(cur_mask)
        r0 = cur.full_rank
        full_local = (1 << cur.n) - 1
        split = next((c for c in cur.cocircuits() if cur.rank(c) <= r0 - 2), None)
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
        trace.append((_in_host(m, cur, split), kept))
        cur_mask = _in_host(m, cur, keep_local)
    final = m.restrict(cur_mask)
    final_dense = final.is_q_dense(q)
    if hypothesis_holds and not (final_dense and final.full_rank >= t):
        raise LemmaViolationError(
            "descent finished below the guaranteed density or rank floor"
        )
    return DenseRestrictionReport(cur_mask, trace, final, final.full_rank, final_dense,
                                  hypothesis_holds)


# -- unavoidable minors of geometry extensions ----------------------------------------------


def unavoidable_minor_of_extension(
    m: Matroid, target_rank: int, q: int
) -> tuple[str, MinorWitness]:
    """Extract the rank-m principal-extension minor from a one-element
    extension of a rank-2m projective geometry.

    The last element e must add a genuinely new point.  The minimal flat F
    of the geometry whose closure catches e is the meet of the H - e for the
    hyperplanes H of M through e with r(H - e) = r(M) - 1: these are the
    hyperplanes of M \\ e that catch e, as the flats of M \\ e are the G - e
    for flats G of M.  Modularity of projective flats makes F catch e.  If
    r(F) >= m, contract basis elements to leave a free point on a full flat
    (tag P(m-1,q,m)); otherwise leave a free point on a line (tag
    P(m-1,q,2)).  The witness is isomorphism-verified against the built
    target; failure to verify raises, since the recipe admits no exceptions.
    """
    from .constructions import principal_geometry_extension

    mm = target_rank
    e = m.n - 1
    n_pts = pg_size(q, 2 * mm)
    if m.full_rank != 2 * mm or m.n != n_pts + 1:
        raise NotAnExtensionError(
            f"need rank {2 * mm} on {n_pts + 1} elements, got rank {m.full_rank} on {m.n}"
        )
    eb = 1 << e
    points = m.point_classes()
    # each class but {e}, minus e, is a point of M \ e; n_pts on n_pts elements are singletons
    if sum(c != eb for c in points) != n_pts:
        raise NotAnExtensionError("deleting e does not leave a simple full geometry")
    if len(points) != n_pts + 1:
        raise RepresentableInputError("the added element is a loop or a parallel copy")

    flat = ((1 << m.n) - 1) ^ eb
    for h in m.hyperplanes():
        if h & eb and m.rank(h ^ eb) == 2 * mm - 1:
            flat &= h ^ eb
    r_flat = m.rank(flat)
    if m.rank(flat | eb) != r_flat or r_flat < 2:
        raise LemmaViolationError("hyperplane intersection fails to catch the new element")

    basis_flat = m._greedy_basis(flat)
    basis = m._greedy_basis(((1 << m.n) - 1) ^ eb, basis_flat)
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
    if len(classes) != pg_size(q, mm) + 1:
        raise LemmaViolationError(f"contraction has {len(classes)} points, not the {tag} count")
    dmask = ((1 << m.n) - 1) ^ contract ^ _in_host(m, quotient, representatives(classes))
    minor = m.minor(contract, dmask)
    target = principal_geometry_extension(mm, q, tag_k)
    cert = are_isomorphic(minor, target.matroid)
    if cert is None:
        raise LemmaViolationError(f"contraction recipe did not produce {tag}")
    return tag, MinorWitness(contract, dmask, cert)
