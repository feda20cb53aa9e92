import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge import (
    BasesMatroid,
    LemmaViolationError,
    LinearMatroid,
    NotAnExtensionError,
    RepresentableInputError,
    are_isomorphic,
    dense_restriction,
    direct_sum,
    field_new,
    free_spike,
    free_swirl,
    growth_hypothesis_holds,
    has_minor,
    iso_is_valid,
    longest_line_minor,
    longline_step,
    mask_of,
    materialize_bases,
    pg,
    theta_graph,
    unavoidable_minor_of_extension,
    uniform,
    weighted_density_exceeds,
)
from mforge import minors
from mforge.matroid import bits, ksubset_masks
from mforge.minors import _fingerprints

FANO = pg(3, 2).matroid


def naive_has_minor(m, n) -> bool:
    """Exhaustive reference: try every contraction set, every kept set,
    every bijection.  Only the rank oracle of each side is used."""
    full = (1 << m.n) - 1
    tr = n.full_rank
    target_ranks = {x: n.rank(x) for x in range(1 << n.n)}
    profile = sorted(target_ranks.values())
    for c in range(1 << m.n):
        rc = m.rank(c)
        if m.full_rank - rc < tr:
            continue
        rest = [e for e in range(m.n) if not c >> e & 1]
        for keep in itertools.combinations(rest, n.n):
            if m.rank(c | mask_of(keep)) - rc != tr:
                continue
            # a bijection carries every subset rank across, so the sorted
            # subset ranks must agree before any bijection is worth trying
            if sorted(m.rank(c | mask_of(keep[i] for i in range(n.n) if x >> i & 1)) - rc
                      for x in range(1 << n.n)) != profile:
                continue
            for perm in itertools.permutations(range(n.n)):
                if all(
                    m.rank(c | mask_of(keep[i] for i in range(n.n) if x >> perm[i] & 1)) - rc
                    == target_ranks[x]
                    for x in range(1 << n.n)
                ):
                    return True
    return False


@pytest.mark.parametrize(
    "host,target,expect",
    [
        (uniform(3, 6).matroid, uniform(2, 4).matroid, True),
        (FANO, uniform(2, 4).matroid, False),  # binary, so no 4-point line
        (FANO, uniform(2, 3).matroid, True),
        (theta_graph(3).matroid, uniform(2, 4).matroid, False),  # regular
        (uniform(2, 6).matroid, uniform(2, 5).matroid, True),
        (uniform(4, 5).matroid, uniform(2, 3).matroid, True),
        (uniform(3, 6).matroid, uniform(3, 5).matroid, True),
    ],
)
def test_has_minor_matches_naive_reference(host, target, expect):
    assert naive_has_minor(host, target) == expect
    wit = has_minor(host, target)
    assert (wit is not None) == expect
    if wit is not None:
        sub = host.minor(wit.contract, wit.delete)
        assert iso_is_valid(sub, target, wit.iso.mapping)


def test_has_minor_line_shortcut_on_big_host():
    host = pg(4, 3).matroid  # 40 elements, beyond the generic subset cap
    wit = has_minor(host, uniform(2, 4).matroid)
    assert wit is not None
    sub = host.minor(wit.contract, wit.delete)
    assert iso_is_valid(sub, uniform(2, 4).matroid, wit.iso.mapping)
    # no 14-point line minor exists in rank 4 over GF(3)
    assert has_minor(host, uniform(2, 14).matroid) is None


def test_line_witness_on_a_big_rank_two_host():
    # PG(1,25) has 26 > MINOR_CAP points and no coline to contract
    host = pg(2, 25).matroid
    assert host.full_rank == 2 and host.n > minors.MINOR_CAP
    wit = has_minor(host, uniform(2, 4).matroid)
    assert wit is not None and wit.contract == 0
    assert iso_is_valid(host.minor(0, wit.delete), uniform(2, 4).matroid, wit.iso.mapping)


def test_line_witness_on_a_rank_two_host_above_the_flat_cap():
    # 70 > ENUM_CAP elements: the only rank-0 flat is cl(empty), so no
    # enumeration cap applies, on the bases backend and on a view of it
    host = BasesMatroid(70, list(ksubset_masks(70, 2)), verify=False)  # U(2,70)
    assert host.flats_of_rank(0) == [0]
    assert host.delete(1).flats_of_rank(0) == [0]
    wit = has_minor(host, uniform(2, 4).matroid)
    assert wit is not None and wit.contract == 0
    assert iso_is_valid(host.minor(0, wit.delete), uniform(2, 4).matroid, wit.iso.mapping)


def test_size_and_rank_negatives_come_before_the_caps():
    # both pairs differ in rank, so each answer is a definitive negative,
    # though the ground sets are above ISO_CAP and MINOR_CAP
    plane, big = pg(3, 4).matroid, pg(5, 2).matroid
    assert plane.n > minors.ISO_CAP and big.n > minors.MINOR_CAP
    assert are_isomorphic(plane, big.restrict_columns((1 << plane.n) - 1)) is None
    assert has_minor(big, uniform(6, 6).matroid) is None


def _loop_and_parallel_host():
    gf3 = field_new(3)
    cols = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 2, 0), (1, 2, 0), (1, 0, 1)]
    return LinearMatroid(gf3, cols)  # element 0 a loop, 4 and 5 parallel


def _binary_11():
    cols = pg(4, 2).matroid.columns
    return LinearMatroid(field_new(2), [c for i, c in enumerate(cols) if i not in (0, 5, 9, 14)])


@pytest.mark.parametrize(
    "host,longest",
    [
        (pg(3, 3).matroid, 4),
        (_binary_11(), 3),
        (uniform(3, 6).matroid, 5),
        (_loop_and_parallel_host(), 4),
        (free_swirl(4).matroid, 6),  # a lazy view, not a LinearMatroid
    ],
)
def test_has_minor_line_precheck(host, longest, monkeypatch):
    assert longest_line_minor(host) == longest
    wit = has_minor(host, uniform(2, longest).matroid)
    assert wit is not None and naive_has_minor(host, uniform(2, longest).matroid)
    assert has_minor(host, uniform(2, longest + 1).matroid) is None
    assert not naive_has_minor(host, uniform(2, longest + 1).matroid)
    # the pre-check never answers a positive: with it disabled (no line is
    # longer than the ground set), the generic search finds the same witness
    monkeypatch.setattr(minors, "longest_line_minor", lambda m: m.n)
    assert has_minor(host, uniform(2, longest).matroid) == wit


def test_are_isomorphic_negative_same_profile():
    # same size and rank, different structure
    assert are_isomorphic(FANO, uniform(3, 7).matroid) is None
    assert are_isomorphic(free_spike(4).matroid, theta_graph(3).matroid) is None


def test_are_isomorphic_relabel():
    cols = [(1, 0), (0, 1), (1, 1), (1, 2)]
    import mforge

    gf = mforge.field_new(3)
    a = mforge.LinearMatroid(gf, cols)
    b = mforge.LinearMatroid(gf, cols[::-1])
    cert = are_isomorphic(a, b)
    assert cert is not None
    assert iso_is_valid(a, b, cert.mapping)


def test_iso_is_valid_rejects_wrong_map():
    from mforge import bits

    assert iso_is_valid(FANO, FANO, tuple(range(7)))
    assert not iso_is_valid(FANO, FANO, (0, 0, 1, 2, 3, 4, 5))  # not a bijection
    # send some line onto a non-collinear triple and fill in the rest
    lines = set(FANO.flats_of_rank(2))
    src = sorted(bits(FANO.flats_of_rank(2)[0]))
    dst = next(
        t for t in itertools.combinations(range(7), 3) if mask_of(t) not in lines
    )
    img = dict(zip(src, dst))
    leftover = (x for x in range(7) if x not in set(dst))
    mapping = [img[e] if e in img else next(leftover) for e in range(7)]
    assert not iso_is_valid(FANO, FANO, mapping)


def test_iso_is_valid_checks_every_basis_past_twelve():
    # U(3,14) against itself less one basis: the identity is wrong only on it
    u = uniform(3, 14).matroid
    less = BasesMatroid(14, [b for b in u.bases if b != 0b111])
    assert iso_is_valid(u, u, tuple(range(14)))
    assert not iso_is_valid(u, less, tuple(range(14)))
    assert not iso_is_valid(less, u, tuple(range(14)))


def _all_subsets_iso(m, n):
    """are_isomorphic's search checking every prefix subset at every step."""
    if m.n != n.n or m.full_rank != n.full_rank:
        return None
    fm, fn = _fingerprints(m), _fingerprints(n)
    if sorted(fm) != sorted(fn):
        return None
    cands = [[f for f in range(n.n) if fn[f] == fm[e]] for e in range(m.n)]
    order = sorted(range(m.n), key=lambda e: len(cands[e]))
    image = [-1] * m.n

    def extend(depth, pairs):
        if depth == m.n:
            return True
        e = order[depth]
        for f in cands[e]:
            if f in image:
                continue
            grown = [(a | 1 << e, b | 1 << f) for a, b in pairs]
            if all(m.rank(a) == n.rank(b) for a, b in grown):
                image[e] = f
                if extend(depth + 1, pairs + grown):
                    return True
                image[e] = -1
        return False

    return tuple(image) if extend(0, [(0, 0)]) else None


def _relabel(m, perm):
    """Copy of m in which element e is called perm[e]."""
    if isinstance(m, LinearMatroid):
        cols = [None] * m.n
        for e, c in enumerate(m.columns):
            cols[perm[e]] = c
        return LinearMatroid(m.field, cols)
    r = m.full_rank
    bases = [mask_of(perm[e] for e in bits(b)) for b in ksubset_masks(m.n, r) if m.rank(b) == r]
    return BasesMatroid(m.n, bases)


def test_are_isomorphic_matches_all_subsets_search():
    # checking only prefix subsets below full rank prunes exactly as checking
    # all of them, so the search returns the same map
    rng = random.Random(7)
    hosts = [
        BasesMatroid(3, [0]),                     # r = 0: three loops
        BasesMatroid(4, [0b0001, 0b0010, 0b1000]),  # r = 1 with a loop
        FANO,
        theta_graph(4).matroid,
        LinearMatroid(FANO.field, [(1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 0), (1, 0, 1)]),
        materialize_bases(free_swirl(4).matroid),
        uniform(3, 7).matroid,
    ]
    for m in hosts:
        for _ in range(3):
            perm = list(range(m.n))
            rng.shuffle(perm)
            other = _relabel(m, perm)
            cert = are_isomorphic(m, other)
            assert cert is not None
            assert cert.mapping == _all_subsets_iso(m, other)
            assert iso_is_valid(m, other, cert.mapping)
    spike, swirl = free_spike(4).matroid, free_swirl(4).matroid
    assert are_isomorphic(spike, swirl) is None
    assert _all_subsets_iso(spike, swirl) is None


def _fingerprint_search(m, n):
    """are_isomorphic's search without pair colours: the reference for the
    maps it returns, since colours may only drop candidates that have no
    completion."""
    if m.n != n.n or m.full_rank != n.full_rank:
        return None
    fm, fn = _fingerprints(m), _fingerprints(n)
    if sorted(fm) != sorted(fn):
        return None
    cands = [[f for f in range(n.n) if fn[f] == fm[e]] for e in range(m.n)]
    order = sorted(range(m.n), key=lambda e: len(cands[e]))
    image = [-1] * m.n
    used = [False] * n.n
    r = m.full_rank
    pairs = [(0, 0)]

    def extend(depth):
        if depth == m.n:
            return True
        e = order[depth]
        for f in cands[e]:
            if used[f]:
                continue
            base = len(pairs)
            ok = True
            for i in range(base):
                mm, nn = pairs[i]
                if m.rank(mm | 1 << e) != n.rank(nn | 1 << f):
                    ok = False
                    break
                if mm.bit_count() < r - 1:
                    pairs.append((mm | 1 << e, nn | 1 << f))
            if ok:
                image[e], used[f] = f, True
                if extend(depth + 1):
                    return True
                image[e], used[f] = -1, False
            del pairs[base:]
        return False

    return tuple(image) if extend(0) else None


def _relabelled_copies(m, rng, count):
    """count pairs of bases copies of m, each with its ground shuffled by rng."""
    bases = materialize_bases(m).bases
    out = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            perm = list(range(m.n))
            rng.shuffle(perm)
            pair.append(BasesMatroid(m.n, [mask_of(perm[e] for e in bits(b)) for b in bases],
                                     verify=False))
        out.append(pair)
    return out


@pytest.mark.parametrize("family", [free_spike, free_swirl])
@pytest.mark.parametrize("k,count,checked", [(4, 3, 3), (5, 3, 3), (6, 2, 1)])
def test_spike_and_swirl_relabellings(family, k, count, checked):
    # swirl and spike fingerprints do not tell elements apart, so these
    # searches backtrack and prune by pair colours; the reference search
    # takes up to seconds per relabelling at k = 6, so it checks one there
    pairs = _relabelled_copies(family(k).matroid, random.Random(k), count)
    for i, (a, b) in enumerate(pairs):
        cert = are_isomorphic(a, b)
        assert cert is not None and iso_is_valid(a, b, cert.mapping)
        if i < checked:
            assert cert.mapping == _fingerprint_search(a, b)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_spike_is_not_a_swirl(k):
    # Spike(k) has C(k,2) four-element circuits, Swirl(k) only k
    spike, swirl = free_spike(k).matroid, free_swirl(k).matroid
    assert are_isomorphic(spike, swirl) is None
    (a, _), = _relabelled_copies(spike, random.Random(k), 1)
    assert are_isomorphic(a, swirl) is None
    assert are_isomorphic(swirl, a) is None


@st.composite
def _relabelled_pair(draw):
    """Two relabellings of one random GF(q) matroid of at most 9 elements,
    both as LinearMatroid or both as BasesMatroid."""
    gf = field_new(draw(st.sampled_from((2, 3, 4, 5))))
    dim = draw(st.integers(1, 4))
    column = st.tuples(*[st.integers(0, gf.q - 1)] * dim)
    m = LinearMatroid(gf, draw(st.lists(column, max_size=9)))
    if draw(st.booleans()):
        m = materialize_bases(m)
    perms = [draw(st.permutations(range(m.n))) for _ in range(2)]
    return tuple(_relabel(m, perm) for perm in perms)


@settings(max_examples=120)
@given(_relabelled_pair())
def test_are_isomorphic_random_relabellings(pair):
    a, b = pair
    cert = are_isomorphic(a, b)
    assert cert is not None and iso_is_valid(a, b, cert.mapping)
    assert cert.mapping == _fingerprint_search(a, b)


def test_are_isomorphic_with_loops():
    from mforge import BasesMatroid

    with_loop = BasesMatroid(3, [0b001, 0b010])  # element 2 in no basis
    without = uniform(1, 3).matroid
    assert are_isomorphic(with_loop, without) is None
    relabeled = BasesMatroid(3, [0b010, 0b100])  # loop moved to element 0
    cert = are_isomorphic(with_loop, relabeled)
    assert cert is not None
    assert iso_is_valid(with_loop, relabeled, cert.mapping)


def test_longest_line_minor_values():
    assert longest_line_minor(uniform(2, 6).matroid) == 6
    assert longest_line_minor(FANO) == 3
    assert longest_line_minor(pg(3, 3).matroid) == 4
    assert longest_line_minor(uniform(4, 10).matroid) == 8
    assert longest_line_minor(uniform(1, 3).matroid) == 0


def test_longline_step_outcomes():
    line6 = uniform(2, 6).matroid
    step = longline_step(line6, 2, 0)
    assert step.kind == "line-restriction"
    assert step.line == (1 << 6) - 1

    big = pg(3, 5).matroid  # 31 points rank 3; contractions stay dense
    step = longline_step(big, 2, 0)
    assert step.kind == "dense-contraction"

    with pytest.raises(ValueError):
        longline_step(FANO, 2, 0)  # Fano is exactly at the threshold, not dense


def test_golden_ratio_comparisons_exact():
    # values from the worked descent: threshold 15 at rank 4, q=2
    assert weighted_density_exceeds(13, 1, 15)  # 13*phi > 15
    assert not weighted_density_exceeds(3, 2, 15)  # 3*phi^2 < 15
    assert weighted_density_exceeds(16, 2, 15)  # 16*phi^2 > 15
    # boundary exactness: 4*phi^2 = 4phi+4 vs 10: 4*1.618.. + 4 = 10.47 > 10
    assert weighted_density_exceeds(4, 2, 10)
    # and equality must fail the strict test: phi^2 * 5 = 5 + 5phi vs 13.09..
    assert not weighted_density_exceeds(5, 0, 5)


def test_growth_hypothesis_exact():
    assert growth_hypothesis_holds(1, 5, 1)  # 1 >= 1
    assert growth_hypothesis_holds(21, 2, 3)
    assert not growth_hypothesis_holds(4, 13, 3)
    assert not growth_hypothesis_holds(2, 2, 2)  # sqrt5-1 = 1.236 < 2


def test_dense_restriction_worked_example():
    m = direct_sum(uniform(3, 13).matroid, uniform(2, 3).matroid).truncate(4)
    rep = dense_restriction(m, 2, 3)
    assert len(rep.trace) == 1
    split, kept = rep.trace[0]
    assert split == mask_of([13, 14, 15])
    assert kept == "hyperplane"
    assert rep.restriction == mask_of(range(13))
    assert rep.final_rank == 3
    assert rep.final_dense
    assert not rep.hypothesis_holds
    # the survivor is the 13-point rank-3 uniform component
    assert rep.final.epsilon() == 13


def test_dense_restriction_validates_input():
    with pytest.raises(ValueError):
        dense_restriction(FANO, 2, 2)  # not 2-dense


def test_dense_restriction_trivial_when_clean():
    m = pg(3, 5).matroid
    rep = dense_restriction(m, 2, 2)
    assert rep.trace == []
    assert rep.restriction == (1 << m.n) - 1
    assert rep.hypothesis_holds is False  # lines are long: ell = 5


def test_unavoidable_minor_tags():
    geom = pg(4, 2).matroid
    line = geom.flats_of_rank(2)[0]
    ext = geom.principal_extension(line)
    tag, wit = unavoidable_minor_of_extension(ext, 2, 2)
    assert tag == "P(1,2,2)"
    sub = ext.minor(wit.contract, wit.delete)
    from mforge import principal_geometry_extension

    assert iso_is_valid(sub, principal_geometry_extension(2, 2, 2).matroid, wit.iso.mapping)


def test_unavoidable_minor_error_taxonomy():
    geom = pg(4, 2).matroid
    with pytest.raises(NotAnExtensionError):
        unavoidable_minor_of_extension(geom, 2, 2)  # no added element at all
    point = geom.flats_of_rank(1)[0]
    par = geom.principal_extension(point)  # parallel copy, not a new point
    with pytest.raises(RepresentableInputError):
        unavoidable_minor_of_extension(par, 2, 2)


def test_line_precheck_runs_before_the_size_cap(monkeypatch):
    # PG(4,2) has 31 > MINOR_CAP elements; its longest line minor has 3 points
    host = pg(5, 2).matroid
    assert host.n == 31 and host.n > minors.MINOR_CAP
    witness = has_minor(host, uniform(2, 3).matroid)
    assert witness == minors.MinorWitness(
        contract=mask_of([0, 1, 3]),
        delete=mask_of([2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22,
                        24, 25, 26, 27, 28, 29, 30]),
        iso=minors.IsoCertificate((0, 1, 2)),
    )

    def _refuse(m, size):
        raise AssertionError("the line pre-check should refuse U(2,4) first")

    monkeypatch.setattr(minors, "_line_minor_witness", _refuse)
    assert has_minor(host, uniform(2, 4).matroid) is None
