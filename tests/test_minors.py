import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mforge import (
    BasesMatroid,
    GF,
    LemmaViolationError,
    LinearMatroid,
    Matroid,
    MinorWitness,
    NotAnExtensionError,
    RepresentableInputError,
    SizeCapError,
    ag,
    are_isomorphic,
    corpus_generate,
    dense_restriction,
    direct_sum,
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
    principal_geometry_extension,
    theta_graph,
    unavoidable_minor_of_extension,
    uniform,
    weighted_density_exceeds,
)
from mforge import minors
from mforge.cli import main
from mforge.matroid import MinorView, bits, ksubset_masks, pg_size, representatives
from mforge.minors import _fingerprints
from mforge.serialize import save_path
from test_matroid import _view_stacks

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


def _coline_loop_witness(m, size):
    """The line witness read coline by coline from flats_of_rank(r - 2):
    the reference for the one read from the hyperplane meets."""
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
        if minors._is_uniform_line(m.minor(basis, dmask)) == size:
            return minors.MinorWitness(basis, dmask, minors.IsoCertificate(tuple(range(size))))
    return None


def test_line_witness_reads_the_hyperplane_meets(monkeypatch):
    # every size up to one past the longest line, on the corpora at seeds 0
    # and 23 and on random linear matroids; the host is never asked for its
    # colines as flats
    from mforge import corpus_generate

    rng = random.Random(7)
    hosts = [nm.matroid for seed in (0, 23) for nm in corpus_generate(seed)]
    hosts += [_seeded_host(rng, q) for q in (2, 3, 4, 5) for _ in range(10)]
    checked = 0
    for host in hosts:
        r = host.full_rank
        if r < 2:
            continue
        sizes = range(2, longest_line_minor(host) + 2)
        want = [_coline_loop_witness(host, size) for size in sizes]
        flats = host.flats_of_rank

        def refuse(k, flats=flats, r=r):
            assert k != r - 2, "colines listed as flats"
            return flats(k)

        monkeypatch.setattr(host, "flats_of_rank", refuse)
        assert [minors._line_minor_witness(host, size) for size in sizes] == want
        assert want[-1] is None and all(w is not None for w in want[:-1])
        checked += len(want)
    assert checked >= 700, checked  # measured: 742 (host, size) pairs


def test_line_witness_on_a_long_rank_two_line():
    # PG(1,2003): its one coline lies on all 2004 points, counted without
    # listing the two million pairs of them
    host = pg(2, 2003).matroid
    t0 = time.perf_counter()
    wit = minors._line_minor_witness(host, 2004)
    assert time.perf_counter() - t0 < 1.0
    assert wit is not None and wit.contract == 0 and wit.delete == 0
    assert minors._line_minor_witness(host, 2005) is None


def test_size_and_rank_negatives_come_before_the_caps():
    # both pairs differ in rank, so each answer is a definitive negative,
    # though the ground sets are above ISO_CAP and MINOR_CAP
    plane, big = pg(3, 4).matroid, pg(5, 2).matroid
    assert plane.n > minors.ISO_CAP and big.n > minors.MINOR_CAP
    assert are_isomorphic(plane, big.restrict_columns((1 << plane.n) - 1)) is None
    assert has_minor(big, uniform(6, 6).matroid) is None


def _loop_and_parallel_host():
    gf3 = GF(3)
    cols = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 2, 0), (1, 2, 0), (1, 0, 1)]
    return LinearMatroid(gf3, cols)  # element 0 a loop, 4 and 5 parallel


def _binary_11():
    cols = pg(4, 2).matroid.columns
    return LinearMatroid(GF(2), [c for i, c in enumerate(cols) if i not in (0, 5, 9, 14)])


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


def test_minor_search_builds_views_only_for_passing_candidates(monkeypatch):
    # M(K6) from its incidence columns e_i + e_j: contracting two edges
    # leaves K4 with parallel edges, 6 points against F7's 7, so the search
    # skips every contraction set and builds no restriction
    k6 = LinearMatroid(GF(2), [tuple(int(v in edge) for v in range(6))
                               for edge in itertools.combinations(range(6), 2)])
    built, calls = [], []
    init = MinorView.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(MinorView, "__init__", counting_init)
    monkeypatch.setattr(minors, "are_isomorphic", lambda *args, **kw: calls.append(args))
    assert has_minor(k6, FANO) is None
    assert len(built) <= 105 and calls == []


def test_are_isomorphic_negative_same_profile():
    # same size and rank, different structure
    assert are_isomorphic(FANO, uniform(3, 7).matroid) is None
    assert are_isomorphic(free_spike(4).matroid, theta_graph(3).matroid) is None


def test_are_isomorphic_relabel():
    cols = [(1, 0), (0, 1), (1, 1), (1, 2)]
    import mforge

    gf = mforge.GF(3)
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


def test_iso_is_valid_rejects_equal_size_and_different_rank():
    assert not iso_is_valid(uniform(2, 4).matroid, uniform(3, 4).matroid, (0, 1, 2, 3))


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
    """are_isomorphic's element and candidate order, pruned by rank checks
    on the mapped prefix: the reference for the maps it returns, since both
    searches return the first isomorphism in that order."""
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
    # searches lean on the hyperplane traces; the reference search
    # takes up to seconds per relabelling at k = 6, so it checks one there
    pairs = _relabelled_copies(family(k).matroid, random.Random(k), count)
    for i, (a, b) in enumerate(pairs):
        cert = are_isomorphic(a, b)
        assert cert is not None and iso_is_valid(a, b, cert.mapping)
        if i < checked:
            assert cert.mapping == _fingerprint_search(a, b)


def test_iso_search_asks_no_rank(monkeypatch):
    # the search prunes and decides by hyperplane traces alone, so once a
    # first call has filled the fingerprint and hyperplane memos, a second
    # asks no rank and no closure
    (a, b), = _relabelled_copies(free_spike(5).matroid, random.Random(5), 1)
    affine = ag(3, 4).matroid
    perm = list(range(affine.n))
    random.Random(4).shuffle(perm)
    pairs = [(a, b), (affine, _relabel(affine, perm))]
    certs = [are_isomorphic(m, n) for m, n in pairs]
    assert None not in certs
    calls = []

    def counting(name, method):
        def wrapped(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapped

    monkeypatch.setattr(Matroid, "rank", counting("rank", Matroid.rank))
    for cls in (BasesMatroid, LinearMatroid):
        for name in ("_rank_mask", "_closure_mask"):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    assert [are_isomorphic(m, n) for m, n in pairs] == certs
    assert calls == []


@pytest.mark.parametrize("k", [4, 5, 6])
def test_spike_is_not_a_swirl(k):
    # Spike(k) has C(k,2) four-element circuits, Swirl(k) only k
    spike, swirl = free_spike(k).matroid, free_swirl(k).matroid
    assert are_isomorphic(spike, swirl) is None
    (a, _), = _relabelled_copies(spike, random.Random(k), 1)
    assert are_isomorphic(a, swirl) is None
    assert are_isomorphic(swirl, a) is None


def test_traces_prune_by_counts():
    # an image must lie on as many hyperplanes of each trace as its preimage;
    # key sets in place of multisets keep the leaf exact but prune so little
    # that these searches take over a minute, against a fraction of a second
    spike, swirl = free_spike(7).matroid, free_swirl(7).matroid
    (a, _), = _relabelled_copies(spike, random.Random(7), 1)
    (b, c), = _relabelled_copies(swirl, random.Random(7), 1)
    t0 = time.perf_counter()
    assert are_isomorphic(a, swirl) is None
    cert = are_isomorphic(b, c)
    assert time.perf_counter() - t0 < 2.0
    assert cert is not None and iso_is_valid(b, c, cert.mapping)


@st.composite
def _relabelled_pair(draw):
    """Two relabellings of one random GF(q) matroid of at most 9 elements,
    both as LinearMatroid or both as BasesMatroid."""
    gf = GF(draw(st.sampled_from((2, 3, 4, 5))))
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


def _pairwise_fingerprints(m):
    """Reference fingerprints: each point's line profile from the closure of
    its representative with every other point's, one entry per other point."""
    classes = m.point_classes()
    reps = [cls & -cls for cls in classes]
    fps = []
    for e in range(m.n):
        i = next((i for i, cls in enumerate(classes) if cls >> e & 1), None)
        if i is None:
            fps.append((0, ()))
            continue
        profile = []
        for j in range(len(classes)):
            if j != i:
                line = m.closure(reps[i] | reps[j])
                profile.append(sum(1 for cls in classes if cls & line))
        fps.append((classes[i].bit_count(), tuple(sorted(profile))))
    return fps


def _corpus_members(seeds=(0, 23)):
    return [nm for seed in seeds for nm in corpus_generate(seed)]


def test_fingerprints_match_pairwise_closures():
    # the rank-2 flats give each point the same profile as closing it with
    # every other point; the second copy of each matroid keeps the memos apart
    pairs = [(BasesMatroid(3, [0]), BasesMatroid(3, [0]))]  # rank 0: three loops
    # rank 1: element 2 a loop, 0, 1 and 3 parallel
    pairs.append(tuple(BasesMatroid(4, [0b0001, 0b0010, 0b1000]) for _ in range(2)))
    pairs.append((uniform(2, 6).matroid, uniform(2, 6).matroid))
    pairs += [(nm.matroid, again.matroid) for nm, again in zip(_corpus_members(), _corpus_members())
              if nm.n <= minors.ISO_CAP]
    assert len(pairs) > 3
    for m, ref in pairs:
        assert _fingerprints(m) == _pairwise_fingerprints(ref), m


@settings(max_examples=80)
@given(_view_stacks())
def test_fingerprints_on_view_stacks(pair):
    m, ref = pair
    assert _fingerprints(m) == _pairwise_fingerprints(ref)


@settings(max_examples=60)
@given(_view_stacks(), st.data())
def test_are_isomorphic_on_view_stacks(pair, data):
    # a view's own hyperplanes decide its isomorphism with a relabelled
    # bases copy of the second build; the rank-checking search is the
    # reference for the map
    m, ref = pair
    other = _relabel(materialize_bases(ref), data.draw(st.permutations(range(m.n))))
    cert = are_isomorphic(m, other)
    assert cert is not None and cert.mapping == _fingerprint_search(m, other)


def _closure_loop_step(m, q, e):
    """Reference long-line step: close e with each other point, in order."""
    if m.contract({e}).is_q_dense(q):
        return "dense-contraction", None
    classes = m.point_classes()
    seen = set()
    for cls in classes:
        if not cls >> e & 1:
            line = m.closure(1 << e | cls & -cls)
            if line not in seen:
                seen.add(line)
                if sum(1 for c in classes if c & line) >= q + 2:
                    return "line-restriction", line
    return "violation", None


def test_longline_step_matches_closure_loop():
    # every q-dense corpus member at q = 2, 3 and each non-loop e; the first
    # long line found is the same, since lines come by least element outside
    # e's point on both sides
    triples = 0
    for nm, again in zip(_corpus_members(), _corpus_members()):
        m, ref = nm.matroid, again.matroid
        for q in (2, 3):
            if not m.is_q_dense(q):
                continue
            for e in range(m.n):
                if m.rank(1 << e) == 0:
                    continue
                try:
                    step = longline_step(m, q, e)
                    got = step.kind, step.line
                except LemmaViolationError:
                    got = "violation", None
                assert got == _closure_loop_step(ref, q, e), (nm.name, q, e)
                triples += 1
    assert triples == 1499


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


# Reference in Z[phi]: phi^d = a + b*phi, and the sign of a + b*phi read off
# the sign of b and the norm a^2 + ab - b^2 (phi is the root > 1 of x^2 - x - 1)


def _phi_pow(d):
    a, b = 1, 0
    for _ in range(d):
        a, b = b, a + b  # (a + b*phi)*phi = b + (a+b)*phi
    return a, b


def _golden_positive(a, b):
    norm = a * a + a * b - b * b
    if b > 0:
        return a >= 0 or norm < 0  # -a/b < phi
    if b < 0:
        return a > 0 and norm > 0  # a/|b| > phi
    return a > 0


def test_weighted_density_matches_the_golden_ratio_reference():
    # thresholds from 0 up and on both sides of eps*phi^d, where the answer flips
    seen = set()
    for eps in range(40):
        for d in range(20):
            a, b = _phi_pow(d)
            flip = int(eps * (a + b * (1 + 5 ** 0.5) / 2))
            for threshold in {*range(0, 60, 3), *range(flip - 3, flip + 4)}:
                want = _golden_positive(eps * a - threshold, eps * b)
                assert weighted_density_exceeds(eps, d, threshold) == want, (eps, d, threshold)
                seen.add(want)
    assert seen == {True, False}


def test_growth_hypothesis_matches_the_golden_ratio_reference():
    # sqrt5 - 1 = 2/phi, so the test is 2^(r-1) >= ell^(t-1) * phi^(r-1)
    seen = set()
    for r in range(1, 41):
        a, b = _phi_pow(r - 1)
        for ell in range(2, 13):
            for t in range(1, 11):
                power = ell ** (t - 1)
                want = not _golden_positive(power * a - (1 << (r - 1)), power * b)
                assert growth_hypothesis_holds(r, ell, t) == want, (r, ell, t)
                seen.add(want)
    assert seen == {True, False}


def test_weighted_density_refuses_a_negative_power():
    # 3*phi^-2 = 1.15 < 2, but a negative power read as phi^0 would answer True
    with pytest.raises(ValueError, match="phi exponent"):
        weighted_density_exceeds(3, -2, 2)


def test_growth_hypothesis_refuses_negative_powers():
    # 2^-1 and (sqrt5-1)^-1 = (sqrt5+1)/4 have no integer form u + v*sqrt5
    for r, t in ((3, 0), (0, 1), (1, -1)):
        with pytest.raises(ValueError, match="r >= 1 and t >= 1"):
            growth_hypothesis_holds(r, 2, t)


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


def _unavoidable_minor_through_deletion(m, target_rank, q):
    """The earlier lemma-6 procedure, kept as a reference: the hyperplanes
    through e are those of a deletion view M \\ e, lifted back to M, that
    catch e by two rank queries each."""
    mm = target_rank
    e = m.n - 1
    n_pts = pg_size(q, 2 * mm)
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
    flat = ((1 << m.n) - 1) ^ eb
    for h in geom.flats_of_rank(2 * mm - 1):
        h_m = geom.lift_mask(h)
        if m.rank(h_m | eb) == m.rank(h_m):
            flat &= h_m
    r_flat = m.rank(flat)
    if m.rank(flat | eb) != r_flat or r_flat < 2:
        raise LemmaViolationError("hyperplane intersection fails to catch the new element")
    basis_flat = m._greedy_basis(flat)
    basis = m._greedy_basis(((1 << m.n) - 1) ^ eb, basis_flat)
    if r_flat >= mm:
        contract = basis ^ mask_of(bits(basis_flat)[:mm])
        tag_k = mm
    else:
        contract = (mask_of(bits(basis_flat)[: r_flat - 2])
                    | mask_of(bits(basis & ~basis_flat)[: mm - (r_flat - 2)]))
        tag_k = 2
    tag = f"P({mm - 1},{q},{tag_k})"
    quotient = m.contract(contract)
    classes = quotient.point_classes()
    if len(classes) != pg_size(q, mm) + 1:
        raise LemmaViolationError(f"contraction has {len(classes)} points, not the {tag} count")
    dmask = (((1 << m.n) - 1) ^ contract
             ^ minors._in_host(m, quotient, representatives(classes)))
    cert = are_isomorphic(m.minor(contract, dmask),
                          principal_geometry_extension(mm, q, tag_k).matroid)
    if cert is None:
        raise LemmaViolationError(f"contraction recipe did not produce {tag}")
    return tag, MinorWitness(contract, dmask, cert)


def _extension_inputs():
    """(name, matroid, target rank, q): PG(3,2) extended on each of its 66
    flats of rank >= 1, lemma6's three PG(5,2) extensions, PG(3,3) extended
    on its first five lines, its first five planes and the full flat, and six
    malformed inputs."""
    out = []
    small = pg(4, 2).matroid
    for k in range(1, 5):
        for flat in small.flats_of_rank(k):
            out.append((f"PG(3,2)+e on {flat:#x}", small.principal_extension(flat), 2, 2))
    big = pg(6, 2).matroid
    first = bits(big._greedy_basis((1 << big.n) - 1))
    for k in (2, 3, 6):
        flat = big.closure(mask_of(first[:k]))
        out.append((f"PG(5,2)+e on rank {k}", big.principal_extension(flat), 3, 2))
    ternary = pg(4, 3).matroid
    flats = (ternary.flats_of_rank(2)[:5] + ternary.flats_of_rank(3)[:5]
             + [(1 << ternary.n) - 1])
    for flat in flats:
        out.append((f"PG(3,3)+e on {flat:#x}", ternary.principal_extension(flat), 2, 3))
    gf2 = GF(2)
    cols = [tuple(small.columns[e]) for e in range(small.n)]
    out += [
        ("bare PG(3,2)", small, 2, 2),
        ("PG(3,2) + loop", LinearMatroid(gf2, cols + [(0, 0, 0, 0)]), 2, 2),
        ("PG(3,2) + parallel", LinearMatroid(gf2, cols + [cols[3]]), 2, 2),
        ("PG(3,2) + coloop", LinearMatroid(gf2, [c + (0,) for c in cols] + [(0,) * 4 + (1,)]),
         2, 2),
        ("14 points, a copy, the 15th", LinearMatroid(gf2, cols[1:] + [cols[1], cols[0]]), 2, 2),
        ("PG(3,2)\\0 + U(1,2)", direct_sum(small.delete({0}), uniform(1, 2).matroid), 2, 2),
    ]
    assert len(out) == 86
    return out


def _outcome(find, m, target_rank, q):
    try:
        tag, wit = find(m, target_rank, q)
    except Exception as exc:  # the reference and the procedure must fail alike
        return type(exc), str(exc)
    return tag, wit.contract, wit.delete, wit.iso.mapping


def test_unavoidable_minor_matches_the_deletion_view_reference():
    # reading the hyperplanes through e off M itself changes no answer and
    # no error: same tag and witness, or the same exception and message
    outcomes = Counter()
    for name, m, target_rank, q in _extension_inputs():
        got = _outcome(unavoidable_minor_of_extension, m, target_rank, q)
        assert got == _outcome(_unavoidable_minor_through_deletion, m, target_rank, q), name
        outcomes[got[0] if isinstance(got[0], str) else got[0].__name__] += 1
    # the 15 points and the loop and parallel columns are not new points;
    # the other four malformed inputs are no extension of PG(3,2) at all
    assert outcomes == {"P(1,2,2)": 51, "P(2,2,2)": 1, "P(2,2,3)": 2, "P(1,3,2)": 11,
                        "RepresentableInputError": 17, "NotAnExtensionError": 4}


def test_unavoidable_minor_builds_no_deletion_view(monkeypatch):
    # one call builds two minor views: the quotient M / C and the witness
    # minor M / C \ D; the hyperplanes through e come from M itself
    geom = pg(4, 2).matroid
    ext = geom.principal_extension(geom.flats_of_rank(2)[0])
    built = []
    init = MinorView.__init__

    def counting_init(self, parent, contract, delete):
        built.append((contract, delete))
        init(self, parent, contract, delete)

    monkeypatch.setattr(MinorView, "__init__", counting_init)
    _, wit = unavoidable_minor_of_extension(ext, 2, 2)
    assert built == [(wit.contract, 0), (wit.contract, wit.delete)]


def _seeded_host(rng, q):
    """A GF(q) matroid on 6 to 8 distinct nonzero columns of length 3 or 4."""
    dim = rng.randint(3, 4)
    codes = rng.sample(range(1, q**dim), min(rng.randint(6, 8), q**dim - 1))
    return LinearMatroid(GF(q), [tuple(x // q**i % q for i in range(dim))
                                        for x in codes])


@pytest.mark.parametrize("q,line", [(2, 4), (3, 5)])
@pytest.mark.parametrize("seed", range(8))
def test_has_minor_finds_planted_minors(q, line, seed):
    # N = M / C \ D planted with the column operations and relabelled: the
    # search finds it and agrees with the exhaustive reference; the
    # (q + 2)-point line is a minor of no GF(q) matroid
    rng = random.Random(seed)
    host = _seeded_host(rng, q)
    c = mask_of(rng.sample(range(host.n), rng.randint(0, host.full_rank - 2)))
    contracted = host.contract_columns(c)
    keep = rng.sample(range(contracted.n), rng.randint(4, min(6, contracted.n)))
    target = contracted.restrict_columns(keep)
    perm = list(range(target.n))
    rng.shuffle(perm)
    target = _relabel(target, perm)
    wit = has_minor(host, target)
    assert wit is not None and minors.minor_is_valid(host, target, wit)
    assert naive_has_minor(host, target)
    assert has_minor(host, uniform(2, line).matroid) is None
    assert not naive_has_minor(host, uniform(2, line).matroid)


def test_line_precheck_runs_before_the_size_cap(monkeypatch):
    # PG(4,2) has 31 > MINOR_CAP elements; its longest line minor has 3 points.
    # Above the cap the line witness answers alone, with one count of the
    # hyperplane meets per call; running longest_line_minor first made two.
    host = pg(5, 2).matroid
    assert host.n == 31 and host.n > minors.MINOR_CAP
    calls = []
    meets = minors._hyperplane_meets
    monkeypatch.setattr(minors, "_hyperplane_meets", lambda m: calls.append(m) or meets(m))
    witness = has_minor(host, uniform(2, 3).matroid)
    assert witness == minors.MinorWitness(
        contract=mask_of([0, 1, 3]),
        delete=mask_of([2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22,
                        24, 25, 26, 27, 28, 29, 30]),
        iso=minors.IsoCertificate((0, 1, 2)),
    )
    assert len(calls) == 1
    assert has_minor(host, uniform(2, 4).matroid) is None
    assert len(calls) == 2


def test_a_failed_line_recheck_raises(monkeypatch, tmp_path, capsys):
    # PG(1,29) has 30 > MINOR_CAP points, so U(2,3) is answered by
    # _line_minor_witness alone.  When its own re-check of the minor it built
    # fails, the recipe is wrong: that is an error (exit 2), never the clean
    # negative {"found": false} and exit 1.
    host = pg(2, 29).matroid
    assert host.n == 30 and host.n > minors.MINOR_CAP
    line = minors._is_uniform_line
    monkeypatch.setattr(minors, "_is_uniform_line",
                        lambda n: None if isinstance(n, MinorView) else line(n))
    with pytest.raises(LemmaViolationError, match="did not leave a 3-point line"):
        has_minor(host, uniform(2, 3).matroid)
    save_path(host, str(tmp_path / "host.json"))
    save_path(uniform(2, 3).matroid, str(tmp_path / "line.json"))
    assert main(["has-minor", str(tmp_path / "host.json"), str(tmp_path / "line.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "3-point line" in err


def test_minor_search_refuses_hosts_above_the_cap():
    with pytest.raises(SizeCapError, match=r"^minor search needs \|E\| <= 24, got 31$"):
        has_minor(pg(5, 2).matroid, pg(3, 2).matroid)
