import functools
import itertools
import logging
import random
import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mforge import (
    BasesMatroid,
    GF,
    LinearMatroid,
    Matroid,
    SizeCapError,
    bits,
    corpus_generate,
    density_witness,
    direct_sum,
    free_spike,
    free_swirl,
    ksubset_masks,
    longest_line_minor,
    mask_of,
    materialize_bases,
    parallel_connection,
    pg,
    rank_axioms_hold,
    theta_graph,
    uniform,
)
from mforge.matroid import (
    BASES_VERIFY_CAP,
    SUBSPACE_ENUM_CAP,
    DirectSumView,
    DualView,
    MinorView,
    ParallelConnectionView,
    PrincipalExtensionView,
    TruncationView,
    _gaussian_binomial,
    _iter_bits,
    _point,
    pg_size,
    push_pivot,
    rank_mismatch,
    span_rank,
)

FANO = pg(3, 2).matroid
U24 = uniform(2, 4).matroid


def test_bit_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert bits(0b100101) == [0, 2, 5]
    assert sorted(ksubset_masks(4, 2)) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert list(ksubset_masks(3, 0)) == [0]


def test_bits_refuses_a_negative_mask():
    # clearing the lowest bit of a negative int never reaches 0
    with pytest.raises(ValueError, match="negative mask -1"):
        bits(-1)


def test_iter_bits_refuses_a_negative_mask():
    with pytest.raises(ValueError, match="negative mask -6"):
        next(_iter_bits(-6))


def test_subset_validation():
    with pytest.raises(ValueError):
        U24.rank({7})
    with pytest.raises(ValueError):
        U24.rank(-1)
    with pytest.raises(ValueError):
        U24.rank(1 << 4)
    # a warm memo answers valid masks before validation; it holds no others
    for x in range(1 << 4):
        U24.rank(x)
    for bad in (-1, 1 << 4):
        with pytest.raises(ValueError):
            U24.rank(bad)


def test_uniform_ranks():
    for x in range(1 << 4):
        assert U24.rank(x) == min(2, x.bit_count())
    assert U24.full_rank == 2
    assert U24.independent(0b0011)
    assert not U24.independent(0b0111)


def test_pg_size_is_the_point_count_of_pg():
    assert [pg_size(2, r) for r in range(5)] == [0, 1, 3, 7, 15]
    assert pg_size(3, 3) == 13 == pg(3, 3).matroid.epsilon()
    for q in (1, 0, -2):
        with pytest.raises(ValueError, match="density threshold requires q >= 2"):
            pg_size(q, 3)
        with pytest.raises(ValueError, match="density threshold requires q >= 2"):
            FANO.is_q_dense(q)
    assert not FANO.is_q_dense(2)  # 7 points, not more than 7
    assert uniform(3, 8).matroid.is_q_dense(2)  # 8 points > 7


def test_fano_geometry():
    assert FANO.full_rank == 3
    assert FANO.epsilon() == 7
    lines = FANO.flats_of_rank(2)
    assert len(lines) == 7
    assert all(line.bit_count() == 3 for line in lines)
    points = FANO.flats_of_rank(1)
    assert len(points) == 7
    assert FANO.flats_of_rank(0) == [0]
    assert FANO.flats_of_rank(3) == [(1 << 7) - 1]


def test_fano_circuits_and_cocircuits():
    circ = FANO.circuits()
    sizes = sorted(c.bit_count() for c in circ)
    assert sizes == [3] * 7 + [4] * 7
    lines = set(FANO.flats_of_rank(2))
    assert {c for c in circ if c.bit_count() == 3} == lines
    cocircs = FANO.cocircuits()
    assert len(cocircs) == 7
    full = (1 << 7) - 1
    assert {full ^ c for c in cocircs} == lines


def test_closure_and_flats():
    line = FANO.closure(0b0000011)
    assert line.bit_count() == 3
    assert FANO.is_flat(line)
    assert not FANO.is_flat(0b0000011)
    # closure is idempotent and monotone
    assert FANO.closure(line) == line


def test_generic_vs_echelon_flat_enumeration():
    # the linear backend enumerates subspaces by echelon form; the generic
    # DFS must produce the same flats
    lin = pg(3, 3).matroid
    assert isinstance(lin, LinearMatroid)
    bm = materialize_bases(lin)
    for k in range(4):
        assert sorted(lin.flats_of_rank(k)) == sorted(bm.flats_of_rank(k))


def _random_linear(rng, q, dim, n):
    """Columns with many zero entries, so loops and parallel pairs turn up."""
    gf = GF(q)
    cols = [
        tuple(rng.randrange(1, q) if rng.random() < 0.6 else 0 for _ in range(dim))
        for _ in range(n)
    ]
    return LinearMatroid(gf, cols)


def _random_sparse(rng, q, dim, n):
    """Sparse columns over a prime field GF(q), of rank below dim, with a
    loop and a parallel pair: a nonzero column and its negation."""
    zero_row = rng.randrange(dim)
    cols = [
        tuple(rng.randrange(1, q) if i != zero_row and rng.random() < 0.35 else 0
              for i in range(dim))
        for _ in range(n - 2)
    ]
    cols += [(0,) * dim, tuple((q - x) % q for x in max(cols))]  # max(cols) is nonzero
    rng.shuffle(cols)
    return LinearMatroid(GF(q), cols)


def _reference_rank(m, x):
    pivots = []
    for e in bits(x):
        push_pivot(m.field, pivots, m.columns[e])
    return len(pivots)


def _assert_ternary_keys(m):
    # (ones, twos): disjoint planes below 2^full_rank, lowest nonzero entry 1
    for col, p in zip(m.columns, m.points):
        if not any(col):
            assert p is None
            continue
        ones, twos = p
        assert type(ones) is int and type(twos) is int
        assert ones & twos == 0 and (ones | twos) >> m.full_rank == 0
        nz = ones | twos
        assert ones & nz & -nz


def _check_point_table(m, max_walk=None):
    # rank, point classes and flats read the one point table; each must
    # match its definition through the generic methods, the subspace walk
    # also where the flats of rank k come from the search, unless the walk
    # visits more than max_walk points
    assert m.point_classes() == Matroid.point_classes(m)
    q = m.field.q
    if q == 3:
        _assert_ternary_keys(m)
    for k in range(m.full_rank + 1):
        flats = sorted(Matroid._flats_impl(m, k))
        assert sorted(m._flats_impl(k)) == flats
        count = _gaussian_binomial(m.full_rank, k, q)
        walk = count * (q**k - 1) // (q - 1)
        if count <= SUBSPACE_ENUM_CAP and (max_walk is None or walk <= max_walk):
            assert sorted(m._subspace_flats(k)) == flats
    if m.n > 10:
        return  # the subset sweeps are exponential in n
    for x in range(1 << m.n):
        assert m.rank(x) == _reference_rank(m, x)


def _check_linear_kernel(m):
    _check_point_table(m)
    if m.n > 10:
        return
    assert rank_axioms_hold(m) is None
    if m.n > 8:
        return
    for sub in range(1 << m.n):
        quotient = m.contract_columns(sub)
        minor = m.minor(contract=sub)
        assert quotient.n == minor.n
        for x in range(1 << minor.n):
            assert quotient.rank(x) == minor.rank(x) == _reference_rank(quotient, x)
        restricted = m.restrict_columns(sub)
        for x in range(1 << restricted.n):
            assert restricted.rank(x) == _reference_rank(restricted, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_linear_kernel_differential(q):
    # subspace flats, materialized contraction and rank axioms on random
    # matrices, against the generic flat DFS and the lazy minor view
    rng = random.Random(q)
    for _ in range(6):
        _check_linear_kernel(_random_linear(rng, q, rng.randint(2, 3), rng.randint(3, 8)))


def test_linear_kernel_differential_without_tables():
    rng = random.Random(257)
    m = _random_linear(rng, 257, 2, 6)
    assert m.field._add is None  # q > 256 takes the arithmetic fallback
    assert m.full_rank == 2
    _check_linear_kernel(m)


@pytest.mark.parametrize("dim", [5, 6, 7])
def test_packed_binary_kernel_differential(dim):
    # packed GF(2) rank and point-lookup flats on sparse columns with loops,
    # parallel pairs and rank below dim, then on a theta graph, whose
    # subspaces far outnumber its flats
    rng = random.Random(dim)
    for _ in range(3):
        m = _random_sparse(rng, 2, dim, rng.randint(6, 9))
        assert all(type(p) is int and p >> m.full_rank == 0 for p in m.points)
        assert m.loops() and any(c & (c - 1) for c in m.point_classes())
        assert m.full_rank < dim
        _check_linear_kernel(m)
    theta = theta_graph(dim - 2).matroid
    assert theta.dim == dim
    _check_linear_kernel(theta)


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
def test_ternary_kernel_differential(dim):
    # two-plane GF(3) rank and point-lookup flats on sparse columns with a
    # loop, a parallel pair and rank below dim, against push_pivot, the
    # generic point classes and the generic flat search
    rng = random.Random(300 + dim)
    for _ in range(3):
        m = _random_sparse(rng, 3, dim, rng.randint(6, 9))
        assert m.loops() and any(c & (c - 1) for c in m.point_classes())
        assert m.full_rank < dim
        _check_linear_kernel(m)


def test_ternary_span_rank_differential():
    # span_rank on raw _point keys of dense random vectors, every limit,
    # against push_pivot on the field-index lists
    gf = GF(3)
    rng = random.Random(3)
    for _ in range(400):
        dim = rng.randint(1, 8)
        vecs = [[rng.randrange(3) for _ in range(dim)] for _ in range(rng.randint(1, 10))]
        vecs += [[(2 * x) % 3 for x in rng.choice(vecs)]]  # a negated copy
        keys = [_point(gf, v) for v in vecs if any(v)]
        pivots = []
        for v in vecs:
            push_pivot(gf, pivots, v)
        assert span_rank(gf, keys, dim) == len(pivots)
        for limit in range(1, len(pivots) + 1):
            assert span_rank(gf, keys, limit) == limit


@st.composite
def _linear_matroids(draw, fields=(2, 3, 4, 5, 7, 8, 9), min_n=0, max_n=8):
    """GF(q) columns, min_n <= n <= max_n, of a drawn rank r <= dim: r
    columns independent by construction (1 at a drawn pivot row, 0 at the
    pivot rows after it), then combinations of them, loops and parallel
    copies, in a drawn order."""
    gf = GF(draw(st.sampled_from(fields)))
    r = draw(st.sampled_from([r for r in (2, 3, 1, 4) if r <= max_n]))
    dim = draw(st.integers(r, 4))
    n = max_n - draw(st.integers(0, max_n - max(r, min_n)))
    entry = st.integers(0, gf.q - 1)
    rows = draw(st.permutations(range(dim)))[:r]
    basis = [tuple(1 if i == row else 0 if i in rows[j + 1:] else draw(entry)
                   for i in range(dim)) for j, row in enumerate(rows)]
    cols = list(basis)
    while len(cols) < n:
        # the first column past the basis is fresh, so that n > r gives two bases
        kind = draw(st.sampled_from(["fresh", "loop", "parallel"])) if len(cols) > r else "fresh"
        if kind == "loop":
            cols.append((0,) * dim)
        elif kind == "parallel":
            scale = draw(st.integers(1, gf.q - 1))
            cols.append(tuple(gf.mul(scale, x) for x in draw(st.sampled_from(cols))))
        else:
            coefs = [draw(entry) for _ in basis]
            coefs[draw(st.integers(0, r - 1))] = draw(st.integers(1, gf.q - 1))  # not a loop
            col = (0,) * dim
            for c, v in zip(coefs, basis):
                col = tuple(gf.add(a, gf.mul(c, x)) for a, x in zip(col, v))
            cols.append(col)
    order = draw(st.permutations(range(n)))
    return LinearMatroid(gf, [cols[e] for e in order])


# shapes the strategy leaves to examples: no elements, rank 0, and a single
# basis with loops beside its coloops
_DEGENERATE = [[], [(0, 0), (0, 0)], [(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)]]
# the derandomized draw of test_point_table_property has rank 4 over GF(8)
# and GF(9) but not over GF(7)
_RANK_4_GF7 = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 3, 4), (0, 0, 1, 0), (0, 0, 0, 1),
               (6, 5, 4, 3), (0, 0, 0, 0)]


# one fixed seed: the census below counts these draws, and the
# derandomized profile would otherwise seed them from this function's source
@seed(0)
@settings(max_examples=150)
@given(m=_linear_matroids())
@example(m=LinearMatroid(GF(3), [(1, 2, 0), (0, 0, 0), (2, 1, 0), (1, 1, 0), (0, 2, 0)]))
@example(m=LinearMatroid(GF(2), _DEGENERATE[0]))
@example(m=LinearMatroid(GF(3), _DEGENERATE[1]))
@example(m=LinearMatroid(GF(2), _DEGENERATE[2]))
@example(m=LinearMatroid(GF(7), _RANK_4_GF7))
def _point_table_property(shapes, m):
    # 5000 points keeps every walk of rank 4 over GF(5) and below; rank 4
    # over GF(7), GF(8) and GF(9) walks its points and its whole space, and
    # checks its lines and planes through _flats_impl's own choice
    shapes.append((m.n, len(materialize_bases(m).bases)))
    _check_point_table(m, max_walk=5000)


@functools.cache
def _point_table_draws():
    """Run the property once and hand both tests below its draws' shapes."""
    shapes = []
    _point_table_property(shapes)
    return tuple(shapes)


def test_point_table_property():
    # 150 generated draws and the 5 explicit examples
    assert len(_point_table_draws()) == 155


def test_linear_matroid_draws_are_spread():
    # the property's own draws are spread: most have two or more bases and
    # five or more elements, so a kernel that only goes wrong once two
    # bases differ meets them
    shapes = _point_table_draws()
    # measured: 110 of the 155 draws have two or more bases, 92 have n >= 5
    assert len(shapes) == 155
    assert sum(b >= 2 for _, b in shapes) >= 99
    assert sum(n >= 5 for n, _ in shapes) >= 83


@st.composite
def _leaves(draw, min_n=0, max_n=8, basepoint=False):
    """A builder of fresh copies of one leaf: a LinearMatroid over GF(2),
    GF(3), GF(4), GF(5) or GF(9), or its materialize_bases copy; with
    basepoint, one with an element that is neither a loop nor a coloop."""
    lins = _linear_matroids(fields=(2, 3, 4, 5, 9), min_n=min_n, max_n=max_n)
    lin = draw(lins.filter(_basepoints) if basepoint else lins)
    if draw(st.booleans()):
        return lambda: LinearMatroid(lin.field, lin.columns)
    return lambda: materialize_bases(LinearMatroid(lin.field, lin.columns))


def _basepoints(m):
    """The elements of m that are neither loops nor coloops."""
    full = (1 << m.n) - 1
    return [p for p in range(m.n)
            if m.rank(1 << p) == 1 and m.rank(full ^ (1 << p)) == m.full_rank]


@st.composite
def _view_stacks(draw):
    """Two separately built copies of one matroid of at most 10 elements: a
    leaf under one to three minor, truncation, principal extension (on a
    random flat), dual, direct sum or parallel connection views, each of the
    last two with a second leaf."""
    # parallel connections and minors are listed twice, since a parallel
    # connection is skipped where the stack has no basepoint
    kinds = draw(st.lists(st.sampled_from(
        ["parallel", "minor", "sum", "dual", "truncation", "extension", "parallel", "minor"]),
        min_size=1, max_size=3))
    make = draw(_leaves(min_n=3, basepoint=True) if kinds[:1] == ["parallel"] else _leaves())
    steps = []
    m = make()
    for kind in kinds:
        if kind == "minor" and m.n:
            roles = draw(st.lists(st.sampled_from("kcd"), min_size=m.n, max_size=m.n))
            # one element leaves, so the minor is a view and not m itself
            roles[draw(st.integers(0, m.n - 1))] = draw(st.sampled_from("cd"))
            contract = mask_of(e for e, role in enumerate(roles) if role == "c")
            delete = mask_of(e for e, role in enumerate(roles) if role == "d")
            steps.append(lambda v, c=contract, d=delete: v.minor(c, d))
        elif kind == "truncation" and m.full_rank >= 2:
            t = draw(st.integers(1, m.full_rank - 1))
            steps.append(lambda v, t=t: v.truncate(t))
        elif kind == "extension" and m.n < 10:
            flat = Matroid._closure_mask(m, draw(st.integers(0, (1 << m.n) - 1)))
            steps.append(lambda v, f=flat: v.principal_extension(f))
        elif kind == "dual":
            steps.append(lambda v: v.dual())
        elif kind == "sum" and m.n < 9:
            other = draw(_leaves(max_n=min(8, 9 - m.n)))  # room for an extension
            steps.append(lambda v, o=other: direct_sum(v, o()))
        elif kind == "parallel" and m.n <= 8 and _basepoints(m):
            other = draw(_leaves(min_n=3, max_n=min(8, 11 - m.n), basepoint=True))
            p1 = draw(st.sampled_from(_basepoints(m)))
            p2 = draw(st.sampled_from(_basepoints(other())))
            steps.append(lambda v, o=other, p1=p1, p2=p2: parallel_connection(v, o(), p1, p2))
        else:
            continue
        m = steps[-1](m)
    ref = make()
    for step in steps:
        ref = step(ref)
    return m, ref


def _stack(m):
    """m and every matroid below it: parents and summands."""
    yield m
    for below in ("parent", "m1", "m2"):
        if hasattr(m, below):
            yield from _stack(getattr(m, below))


def _forget(m):
    """Clear every rank and closure memo down the view stack."""
    for v in _stack(m):
        v._memo.clear()
        v._closures.clear()


def _pair_scan_classes(m):
    seen = mask_of(e for e in range(m.n) if m.rank(1 << e) == 0)
    classes = []
    for e in range(m.n):
        if not seen >> e & 1:
            cls = (1 << e) | mask_of(
                f for f in range(e + 1, m.n)
                if not seen >> f & 1 and m.rank((1 << e) | (1 << f)) == 1)
            classes.append(cls)
            seen |= cls
    return classes


def _twins(q, columns):
    return LinearMatroid(GF(q), columns), LinearMatroid(GF(q), columns)


@settings(max_examples=120)
@given(_view_stacks())
# a swirl: minors of a principal extension of nested parallel connections
# of bases leaves
@example(tuple(free_swirl(4).matroid for _ in range(2)))
# density_witness's Llambda: a minor of a minor of a principal extension
@example(tuple(density_witness(2, "Llambda", 2).matroid for _ in range(2)))
# a span looked up from pivots found in descending order of lowest bit
@example(_twins(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 0, 2)]))
# the same over GF(4): cl({2, 3}) holds 4 and 5, whose points are keys only
# when the pivots (lowest position 2, then 0) are sorted before the lookup
@example(_twins(4, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 0, 2), (1, 0, 3)]))
# a span too large to look up (63 points against 8 points of rank 6), with a
# point outside it listed before one inside it
@example(_twins(2, [tuple(int(i == j) for i in range(7)) for j in range(7)]
                + [(1, 1, 0, 0, 0, 0, 0)]))
@example(_twins(2, _DEGENERATE[0]))
@example(_twins(3, _DEGENERATE[1]))
@example(_twins(2, _DEGENERATE[2]))
def test_closure_kernel_differential(pair):
    # closure, loops and point classes through the kernel and the views
    # against their definitions (the rank scan, r(e) = 0 and the pair scan)
    # on a second copy whose memos are cleared, so that no closure answer
    # reaches the reference ranks; the ranks left behind must still be right
    m, ref = pair
    _forget(ref)
    assert m.loops() == mask_of(e for e in range(m.n) if ref.rank(1 << e) == 0)
    assert m.point_classes() == _pair_scan_classes(ref)
    for x in range(1 << m.n):
        assert m.closure(x) == Matroid._closure_mask(ref, x)
    for x in range(1 << m.n):
        assert m.rank(x) == ref.rank(x)
    for leaf in _stack(m):
        if isinstance(leaf, LinearMatroid):
            assert all(r == _reference_rank(leaf, x) for x, r in leaf._memo.items())
    for bad in (-1, 1 << m.n):
        with pytest.raises(ValueError):
            m.closure(bad)


def _definition_circuits(ranks, n):
    """The minimal dependent sets, ascending by (size, bitmask): a dependent
    set is minimal when removing any one element leaves it independent."""
    return sorted((x for x in range(1 << n) if ranks[x] < x.bit_count()
                   and all(ranks[x ^ (1 << e)] == x.bit_count() - 1 for e in bits(x))),
                  key=lambda x: (x.bit_count(), x))


def _definition_cocircuits(ranks, n):
    """Complements of the hyperplanes, ascending: a hyperplane has rank
    r - 1, and adding any element outside it reaches rank r."""
    full, r = (1 << n) - 1, ranks[-1]
    return sorted(full ^ x for x in range(1 << n) if ranks[x] == r - 1
                  and all(ranks[x | (1 << e)] == r for e in bits(full ^ x)))


# one fixed seed, as for _point_table_property: the census counts these draws
@seed(0)
@settings(max_examples=120)
@given(pair=_view_stacks())
def _stacks_against_definitions(seen, pair):
    # rank axioms, bases, circuits and cocircuits through the views, against
    # the definitions read off the ranks of a second copy
    m, ref = pair
    seen.append({type(v).__name__ for v in _stack(m)})
    ranks = [ref.rank(x) for x in range(1 << m.n)]
    assert rank_axioms_hold(m) is None, "rank axioms"
    bm = materialize_bases(m)
    assert [bm.rank(x) for x in range(1 << m.n)] == ranks, "materialized bases"
    assert m.circuits() == _definition_circuits(ranks, m.n), "circuits"
    assert m.cocircuits() == _definition_cocircuits(ranks, m.n), "cocircuits"


def test_view_stacks_against_definitions():
    seen = []
    _stacks_against_definitions(seen)
    # the census counts this property's own draws; measured: 52 of the 120
    # stacks hold a minor, 38 a parallel connection, 34 a truncation, 29 a
    # principal extension, 18 a dual and 13 a direct sum
    assert len(seen) == 120
    floors = {"MinorView": 47, "ParallelConnectionView": 34, "TruncationView": 31,
              "PrincipalExtensionView": 26, "DualView": 16, "DirectSumView": 12}
    census = {name: sum(name in kinds for kinds in seen) for name in floors}
    assert all(census[name] >= floor for name, floor in floors.items()), census


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 37])
def test_closure_by_elimination_over_every_field(q, monkeypatch):
    # closure, loops and is_flat of a LinearMatroid never reach the rank
    # scan; its answers, taken first on separate copies, are the reference.
    # Six columns in GF(37)^3 close rank-2 sets by reducing every point: a
    # rank-2 span's 38 points outnumber 2 pivot steps for each of at most 6.
    rng = random.Random(q)
    shapes = [(3, 6)] if q == 37 else [(2, 6), (3, 8), (4, 8)]
    cases = []
    for dim, n in shapes:
        m = _random_linear(rng, q, dim, n)
        cases.append((m.columns, [Matroid._closure_mask(m, x) for x in range(1 << n)]))
    monkeypatch.setattr(Matroid, "_closure_mask", _refuse)
    for columns, want in cases:
        m = LinearMatroid(GF(q), columns)
        assert m.loops() == want[0]
        assert [m.closure(x) for x in range(1 << m.n)] == want
        assert [m.is_flat(x) for x in range(1 << m.n)] == [c == x for x, c in enumerate(want)]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_lookup_flats_on_planes(q):
    # pg(3, q) is the rank-3 geometry: every subspace of its span is full
    _check_linear_kernel(pg(3, q).matroid)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_point_lookup_flats_dim4(q):
    rng = random.Random(100 + q)
    for _ in range(2):
        _check_linear_kernel(_random_linear(rng, q, 4, rng.randint(5, 6)))


@pytest.mark.parametrize("q", [9, 37])
def test_few_columns_over_large_field_choose_the_search(q, caplog, monkeypatch):
    # 6 columns in GF(q)^4: the subspaces of rank >= 1 have far more points
    # than the generic search visits sets, so it answers them; a chosen path
    # logs no fallback
    m = _random_linear(random.Random(q), q, 4, 6)
    assert m.full_rank == 4
    expected = [sorted(Matroid._flats_impl(m, k)) for k in range(5)]
    assert m.flats_of_rank(0) == expected[0]
    monkeypatch.setattr("mforge.matroid._echelon_bases", _refuse)
    with caplog.at_level(logging.DEBUG, logger="mforge"):
        for k in range(1, 5):
            assert m.flats_of_rank(k) == expected[k]
    assert caplog.records == []


def test_subspaces_past_their_cap_below_enum_cap_take_the_walk(caplog, monkeypatch):
    # with SUBSPACE_ENUM_CAP at 1, PG(3,2)'s 35 lines exceed it; on at most
    # ENUM_CAP elements the cost model alone picks the path, here the
    # subspace walk, and no fallback is logged
    m = pg(4, 2).matroid
    expected = [sorted(Matroid._flats_impl(m, k)) for k in range(5)]
    monkeypatch.setattr("mforge.matroid.SUBSPACE_ENUM_CAP", 1)
    monkeypatch.setattr(Matroid, "_flats_impl", _refuse)
    with caplog.at_level(logging.DEBUG, logger="mforge"):
        assert [m.flats_of_rank(k) for k in range(5)] == expected
    assert caplog.records == []


def test_flat_fallbacks_are_logged(caplog):
    # a minor of a linear matroid reads its flats off the parent's; rank-2
    # subspaces of GF(37)^4 exceed SUBSPACE_ENUM_CAP, and past ENUM_CAP the
    # parent refuses, so the minor searches its own ground set; only the
    # minor's fallback is logged, naming the parent's two caps
    big = _random_linear(random.Random(70), 37, 4, 70)
    assert big.full_rank == 4
    small = big.delete((1 << 64) - 1)
    with caplog.at_level(logging.DEBUG, logger="mforge"):
        lines = small.flats_of_rank(2)
    assert lines == sorted(Matroid._flats_impl(small, 2))
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1
    assert messages[0].startswith("MinorView flats fall back")
    assert messages[0].endswith("flat enumeration needs n <= 64, got 70, or at most 150000 "
                                "rank-2 subspaces of GF(37)^4, got 1927590")


def test_large_minor_of_a_refusing_parent_refuses_unlogged(caplog):
    # the parent refuses as above, and a minor of 69 > ENUM_CAP elements is
    # past the generic search too: it refuses without announcing a fallback
    big = _random_linear(random.Random(70), 37, 4, 70)
    with caplog.at_level(logging.DEBUG, logger="mforge"):
        with pytest.raises(SizeCapError, match="^flat enumeration needs n <= 64, got 69$"):
            big.delete(1).flats_of_rank(2)
    assert caplog.records == []


def test_extension_of_a_large_geometry_refuses_flats_unlogged(caplog):
    # PG(8,2) has 511 > ENUM_CAP points and too many rank-3 subspaces to
    # walk, so it refuses; the extension has 512 elements, so its own
    # generic search would refuse too, and it announces none
    ext = pg(9, 2).matroid.principal_extension(0)
    with caplog.at_level(logging.DEBUG, logger="mforge"):
        with pytest.raises(SizeCapError, match="needs n <= 64"):
            ext.flats_of_rank(3)
    assert not any(r.getMessage().startswith("PrincipalExtensionView") for r in caplog.records)


def _parent_delegated_flats(view, k):
    """Rank-k flats of a minor read off its parent's flats of rank k + r(C)."""
    pk = k + view._rc
    if pk > view.parent.full_rank:
        return []
    kept = ((1 << view.parent.n) - 1) ^ view.contract_mask ^ view.delete_mask
    pos = {e: i for i, e in enumerate(bits(kept))}
    out = set()
    for f in view.parent.flats_of_rank(pk):
        m = mask_of(pos[e] for e in bits(f) if e in pos)
        if view.rank(m) == k and view.closure(m) == m:
            out.add(m)
    return sorted(out)


def _check_view_flats(m):
    for k in range(m.full_rank + 1):
        flats = m.flats_of_rank(k)
        assert flats == sorted(Matroid._flats_impl(m, k))
        if isinstance(m, MinorView):
            assert flats == _parent_delegated_flats(m, k)


def _refuse(*args):
    raise AssertionError("a search or scan that should not run")


@pytest.mark.parametrize("k", [4, 5, 6])
def test_view_flats_differential(k, monkeypatch):
    # the swirl is a minor over a stack of views ending in BasesMatroid, so
    # it searches its own ground set; the spike truncates a linear matroid
    swirl = free_swirl(k).matroid
    assert isinstance(swirl, MinorView) and not swirl._linear_flats
    with monkeypatch.context() as patch:
        patch.setattr(swirl.parent, "flats_of_rank", _refuse)
        for r in range(k + 1):
            swirl.flats_of_rank(r)
    _check_view_flats(swirl)
    spike = free_spike(k).matroid
    assert spike._linear_flats
    _check_view_flats(spike)


def test_minor_flats_over_non_linear_views():
    over_sum = direct_sum(FANO, uniform(2, 5).matroid).minor(contract=1 << 0, delete=1 << 8)
    _check_view_flats(over_sum)
    fano_bases = materialize_bases(FANO)
    ext = fano_bases.principal_extension(FANO.flats_of_rank(2)[0])
    over_ext = ext.minor(contract=1 << 6, delete=1 << 5)
    assert not over_ext._linear_flats
    _check_view_flats(over_ext)


def test_linear_rooted_minor_flats_delegate(monkeypatch):
    # lemma6's shape: a minor of a principal extension of a projective
    # geometry keeps reading its flats off the subspace lookup
    geom = pg(4, 2).matroid
    ext = geom.principal_extension(geom.flats_of_rank(2)[0])
    view = ext.minor(contract=1 << 14, delete=1 << 3)
    assert view._linear_flats
    generic = [sorted(Matroid._flats_impl(view, k)) for k in range(view.full_rank + 1)]
    monkeypatch.setattr(Matroid, "_flats_impl", _refuse)
    for k, want in enumerate(generic):
        assert view.flats_of_rank(k) == want == _parent_delegated_flats(view, k)


def _independent_set_flats(m, k):
    """Rank-k flats as the distinct closures of the independent k-sets, each
    closure by its rank-scan definition: the reference for the flat walk."""
    found = set()

    def dfs(cur, size, start):
        if size == k:
            found.add(Matroid._closure_mask(m, cur))
            return
        for e in range(start, m.n):
            b = 1 << e
            if m.rank(cur | b) == size + 1:
                dfs(cur | b, size + 1, e + 1)

    dfs(0, 0, 0)
    return sorted(found)


def _check_flat_walk(m, ref):
    for k in range(m.full_rank + 1):
        walked = Matroid._flats_impl(m, k)
        assert len(set(walked)) == len(walked), "a flat reached twice"
        assert sorted(walked) == _independent_set_flats(ref, k)


@settings(max_examples=80)
@given(_view_stacks())
def test_flat_walk_matches_independent_set_search(pair):
    # the generic search reaches each flat once, along its greedy basis, on
    # every backend and view; the reference runs on a second copy
    _check_flat_walk(*pair)


def test_flat_walk_on_bases_lists():
    # loops, coloops and parallel classes among the exchange families
    checked = 0
    for n, bases in _exchange_families(random.Random(12)):
        bases = sorted(set(bases))
        if _reference_exchange(n, bases) is None:
            _check_flat_walk(BasesMatroid(n, bases), BasesMatroid(n, bases))
            checked += 1
    assert checked >= 40, checked


def _coline_count_line(m):
    """The most hyperplanes through one coline, counted coline by coline."""
    r = m.full_rank
    if r < 2:
        return 0
    if r == 2:
        return m.epsilon()
    hyps = m.flats_of_rank(r - 1)
    return max(sum(1 for h in hyps if h | co == h) for co in m.flats_of_rank(r - 2))


def test_longest_line_from_hyperplane_meets():
    # U(3, n) and the rank-3 truncation of PG(3,3), whose hyperplanes are
    # the 130 lines: most line pairs are skew, meeting in the empty set, so
    # the meet met by the most pairs is not a coline
    plane_lines = pg(4, 3).matroid.truncate(3)
    assert longest_line_minor(plane_lines) == 13  # the lines through a point
    cases = [uniform(3, n).matroid for n in (3, 4, 6, 9)] + [plane_lines]
    for seed in (0, 23):
        cases += [nm.matroid for nm in corpus_generate(seed)]
    for m in cases:
        assert longest_line_minor(m) == _coline_count_line(m), m


@settings(max_examples=60)
@given(_view_stacks())
def test_longest_line_on_view_stacks(pair):
    m, ref = pair
    assert longest_line_minor(m) == _coline_count_line(ref)


@pytest.mark.parametrize("seed", range(3))
def test_extension_flats_match_generic_search(seed):
    # a principal extension on a flat F of every rank, from a point to the
    # ground set, of random linear parents (loops and parallel pairs) and
    # their bases copies
    rng = random.Random(seed)
    for q, dim, n in ((2, 4, 7), (3, 3, 6), (5, 4, 7)):
        lin = _random_linear(rng, q, dim, n)
        for parent in (lin, materialize_bases(lin)):
            for rank in range(1, parent.full_rank + 1):
                f = rng.choice(parent.flats_of_rank(rank))
                ext = parent.principal_extension(f)
                fresh = parent.principal_extension(f)
                for k in range(ext.full_rank + 1):
                    assert ext.flats_of_rank(k) == sorted(Matroid._flats_impl(fresh, k))


def test_linear_rooted_minor_skips_parent_flats_missing_the_contraction():
    # the parent's flats of rank k + r(C) that miss C give no flat of the
    # minor: random minors of sparse matroids (each with a loop and a
    # parallel pair), and lemma6's shape, the new element of a principal
    # extension deleted
    rng = random.Random(5)
    views = []
    for q in (2, 3, 5):
        m = _random_sparse(rng, q, 4, 8)
        for _ in range(3):
            roles = [rng.choice("kkcd") for _ in range(m.n)]
            c = mask_of(e for e, role in enumerate(roles) if role == "c")
            d = mask_of(e for e, role in enumerate(roles) if role == "d")
            views.append(m.minor(c, d))
    geom = pg(4, 2).matroid
    ext = geom.principal_extension(geom.flats_of_rank(2)[3])
    views += [ext.delete(1 << 15), ext.minor(contract=0b11, delete=1 << 15)]
    missed = 0
    for view in views:
        if not isinstance(view, MinorView):
            continue
        assert view._linear_flats
        _check_view_flats(view)
        c = view.contract_mask
        for k in range(view.full_rank + 1):
            missed += sum(1 for f in view.parent.flats_of_rank(k + view._rc) if f & c != c)
    assert missed > 0


def test_loops_and_simplify():
    gf = GF(2)
    m = LinearMatroid(gf, [(1, 0), (1, 0), (0, 1), (0, 0)])
    assert m.loops() == 0b1000
    assert m.epsilon() == 2
    si, mapping = m.simplify()
    assert si.n == 2
    assert si.full_rank == 2
    assert mapping[3] is None  # the loop goes nowhere
    assert mapping[0] == mapping[1]  # parallel pair lands on one point


def test_point_classes_partition_nonloops():
    gf = GF(3)
    m = LinearMatroid(gf, [(1, 0), (2, 0), (0, 1), (1, 1), (0, 0)])
    classes = m.point_classes()
    assert sorted(classes) == sorted([0b00011, 0b00100, 0b01000])
    assert m.epsilon() == 3


def test_minor_rank_formula():
    c, d = 0b0000011, 0b0010100
    minor = FANO.minor(c, d)
    rc = FANO.rank(c)
    for x in range(1 << minor.n):
        lifted = minor.lift_mask(x)
        assert minor.rank(x) == FANO.rank(lifted | c) - rc


def test_minor_overlap_rejected():
    with pytest.raises(ValueError):
        FANO.minor(0b11, 0b10)


def test_empty_minor_returns_self():
    assert FANO.minor(0, 0) is FANO
    assert FANO.contract(0) is FANO
    assert FANO.delete(0) is FANO


def test_restrict_keeps_order():
    sub = FANO.restrict(0b1010101)
    assert sub.n == 4
    assert sub.lift_mask(0b1111) == 0b1010101


def test_dual_ranks():
    d = U24.dual()
    # U(2,4) is self-dual
    for x in range(1 << 4):
        assert d.rank(x) == U24.rank(x)
    dd = FANO.dual()
    assert dd.full_rank == 4
    for x in range(1 << 7):
        assert dd.rank(x) == x.bit_count() + FANO.rank(((1 << 7) - 1) ^ x) - 3


def test_truncation():
    t = FANO.truncate(2)
    assert t.full_rank == 2
    assert t.epsilon() == 7
    assert t.flats_of_rank(1) == FANO.flats_of_rank(1)
    assert FANO.truncate(3) is FANO
    with pytest.raises(ValueError):
        FANO.truncate(0)
    with pytest.raises(ValueError):
        FANO.truncate(4)


def test_principal_extension_free_point():
    line = FANO.flats_of_rank(2)[0]
    ext = FANO.principal_extension(line)
    assert ext.n == 8
    assert ext.full_rank == 3
    assert ext.rank(1 << 7) == 1
    assert ext.closure(line) == line | (1 << 7)
    assert ext.epsilon() == 8
    with pytest.raises(ValueError):
        FANO.principal_extension(0b0000011)  # not a flat


def test_principal_truncation_drops_rank():
    line = FANO.flats_of_rank(2)[0]
    pt = FANO.principal_truncation(line)
    assert pt.n == 7
    assert pt.full_rank == 2
    # elements of the chosen line become one point
    reps = [cls for cls in pt.point_classes() if cls & line]
    assert len(reps) == 1
    with pytest.raises(ValueError):
        FANO.principal_truncation(FANO.flats_of_rank(1)[0])  # rank-1 flat


def test_parallel_connection_triangles():
    t1 = uniform(2, 3).matroid
    t2 = uniform(2, 3).matroid
    pc = parallel_connection(t1, t2, 0, 0)
    assert pc.n == 5
    assert pc.full_rank == 3
    # both triangles survive as circuits through the shared point
    assert pc.rank(0b00111) == 2
    assert pc.rank(0b11001) == 2
    assert pc.rank(0b11110) == 3
    with pytest.raises(ValueError):
        parallel_connection(t1, BasesMatroid(2, [0b01]), 0, 1)  # basepoint loop


def test_direct_sum_rank_additive():
    s = direct_sum(U24, uniform(1, 2).matroid)
    assert s.n == 6
    assert s.full_rank == 3
    for x in range(1 << 6):
        assert s.rank(x) == U24.rank(x & 0b1111) + uniform(1, 2).matroid.rank(x >> 4)


def test_bases_backend_verification():
    # the first failing (b1, b2, x) in bases order names the failure
    with pytest.raises(ValueError, match=re.escape("fails for [0, 1] / [2, 3] at 0")):
        BasesMatroid(4, [0b0011, 0b1100], verify=True)
    with pytest.raises(ValueError, match=re.escape("fails for [0, 3] / [1, 2] at 3")):
        BasesMatroid(4, [0b1001, 0b0110, 0b1010, 0b1100], verify=True)
    assert BasesMatroid(3, [0b011, 0b101], verify=True).full_rank == 2  # coloop 0
    m = BasesMatroid(4, [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100], verify=True)
    assert m.full_rank == 2
    assert m.epsilon() == 4


def _reference_exchange(n, bases):
    """The basis-exchange check as first written: the message of the first
    failure in order of b1, then b2, then x, or None."""
    full = (1 << n) - 1
    bases_set = set(bases)
    for b1 in bases:
        swaps = {}
        outside = bits(full ^ b1)
        for x in bits(b1):
            base = b1 ^ (1 << x)
            swaps[x] = mask_of(y for y in outside if base | (1 << y) in bases_set)
        for b2 in bases:
            if b1 == b2:
                continue
            gain = b2 & ~b1
            for x in bits(b1 & ~b2):
                if not swaps[x] & gain:
                    return f"basis exchange fails for {bits(b1)} / {bits(b2)} at {x}"
    return None


def _exchange_families(rng):
    """Bases of matroids with loops and coloops, the same with one basis
    dropped or one k-set added, and random families of k-sets."""
    for _ in range(40):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        ksets = list(ksubset_masks(n, k))
        if k == 0:
            yield n, ksets
            continue
        # a random linear matroid on columns 0..k-1 of the identity and random
        # vectors, then a loop (a zero column) and a coloop (a new coordinate)
        q = rng.choice((2, 3))
        cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        cols += [tuple(rng.randrange(q) for _ in range(k)) for _ in range(n - k)]
        rng.shuffle(cols)
        extra = [(0,) * (k + 1), (0,) * k + (1,)]
        m = LinearMatroid(GF(q), [c + (0,) for c in cols] + extra)
        bases = materialize_bases(m).bases
        yield m.n, bases
        if len(bases) > 1:
            drop = rng.choice(bases)
            yield m.n, [b for b in bases if b != drop]
        others = [s for s in ksubset_masks(m.n, m.full_rank) if s not in set(bases)]
        if others:
            yield m.n, sorted(bases + [rng.choice(others)])
        yield n, sorted(rng.sample(ksets, rng.randint(1, len(ksets))))


def test_exchange_check_matches_reference():
    rng = random.Random(12)
    outcomes = {True: 0, False: 0}
    for n, bases in _exchange_families(rng):
        bases = sorted(set(bases))
        want = _reference_exchange(n, bases)
        if want is None:
            BasesMatroid(n, bases, verify=True)
        else:
            with pytest.raises(ValueError) as exc:
                BasesMatroid(n, bases, verify=True)
            assert str(exc.value) == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_bases_hyperplanes_match_generic_search():
    # every matroid among the exchange families, loops and coloops included:
    # the complements of the fundamental cocircuits are the generic search's
    # rank-(r-1) flats
    checked = 0
    for n, bases in _exchange_families(random.Random(12)):
        bases = sorted(set(bases))
        if _reference_exchange(n, bases) is not None:
            continue
        m = BasesMatroid(n, bases, verify=True)
        r = m.full_rank
        if r == 0:
            assert m.hyperplanes() == []
            continue
        want = sorted(Matroid._flats_impl(m, r - 1))
        assert sorted(m._flats_impl(r - 1)) == want
        assert m.hyperplanes() == want
        checked += 1
    assert checked >= 40, checked
    # above ENUM_CAP the generic search refuses, the bases list does not
    line = BasesMatroid(70, list(ksubset_masks(70, 2)), verify=True)
    assert line.hyperplanes() == [1 << e for e in range(70)]
    with pytest.raises(SizeCapError, match="flat enumeration"):
        Matroid._flats_impl(line, 1)


def test_isomorphism_of_bases_documents_skips_the_generic_search(monkeypatch):
    # the isomorphism search reads the hyperplanes of two loaded bases
    # documents off their bases lists, with no flat search at that rank
    from mforge import are_isomorphic, iso_is_valid
    from mforge.serialize import matroid_from_json, matroid_to_json

    spike = materialize_bases(free_spike(5).matroid)
    perm = list(range(spike.n))
    random.Random(5).shuffle(perm)
    relabelled = BasesMatroid(spike.n, [mask_of(perm[e] for e in bits(b)) for b in spike.bases])
    a, b = (matroid_from_json(matroid_to_json(m)) for m in (spike, relabelled))
    assert isinstance(a, BasesMatroid) and isinstance(b, BasesMatroid)
    flats_impl = Matroid._flats_impl

    def refuse_hyperplanes(self, k):
        if k == self.full_rank - 1:
            raise AssertionError(f"generic flat search on {self!r} at rank {k}")
        return flats_impl(self, k)  # the fingerprints' lines

    monkeypatch.setattr(Matroid, "_flats_impl", refuse_hyperplanes)
    cert = are_isomorphic(a, b)
    assert cert is not None and iso_is_valid(a, b, cert.mapping)


def test_bases_verification_above_cap_refuses():
    # not a matroid: the 7-sets containing 0 plus {1..7}, 5006 sets
    bad = [mask_of(b) | 1 for b in itertools.combinations(range(1, 16), 6)] + [0b11111110]
    assert len(bad) > BASES_VERIFY_CAP
    with pytest.raises(SizeCapError, match="exchange check"):
        BasesMatroid(16, bad, verify=True)
    assert BasesMatroid(16, bad, verify=False).full_rank == 7
    # the same shape under the cap is checked and rejected
    small = [mask_of(b) | 1 for b in itertools.combinations(range(1, 8), 3)] + [0b11110]
    with pytest.raises(ValueError, match="basis exchange fails"):
        BasesMatroid(8, small, verify=True)


def test_rank_axioms_hold_detects_bad_function():
    good = rank_axioms_hold(FANO)
    assert good is None

    class MaxMeet(Matroid):
        # max |B & X| over {0011, 1100}, which is not a matroid's bases list
        def _rank_mask(self, mask):
            return max((b & mask).bit_count() for b in (0b0011, 0b1100))

    assert rank_axioms_hold(MaxMeet(4)) is not None


def test_rank_mismatch_finds_the_first_disagreement():
    u24, u34 = uniform(2, 4).matroid, uniform(3, 4).matroid
    # every subset, ascending, by default: the first 3-set {0, 1, 2} = 7
    assert rank_mismatch(u24, u24) is None
    assert rank_mismatch(u24, u34) == 7
    # explicit masks, in the order given
    assert rank_mismatch(u24, u34, [1, 3, 15, 7]) == 15
    assert rank_mismatch(u24, u34, iter([1, 3, 12])) is None
    # a map compares r_a(X) with r_b of the image of X
    loop_first = LinearMatroid(GF(3), [(0, 0), (1, 0), (0, 1), (1, 1)])
    loop_last = LinearMatroid(GF(3), [(1, 0), (0, 1), (1, 1), (0, 0)])
    assert rank_mismatch(loop_first, loop_last) == 1
    assert rank_mismatch(loop_first, loop_last, mapping=(0, 1, 2, 3)) == 1
    assert rank_mismatch(loop_first, loop_last, mapping=(3, 0, 1, 2)) is None
    # swapping the loop 0 with 1 breaks {3} and {0}, but not {1, 2} or {1}
    assert rank_mismatch(loop_first, loop_last, [6, 8, 1], mapping=(1, 0, 2, 3)) == 8
    assert rank_mismatch(loop_first, loop_last, [6, 2], mapping=(1, 0, 2, 3)) is None


def test_materialize_bases_roundtrip():
    spike = free_spike(4).matroid
    bm = materialize_bases(spike)
    for x in range(1 << spike.n):
        assert bm.rank(x) == spike.rank(x)
    # U(7,16) has C(16,7) = 11,440 bases, above BASES_VERIFY_CAP
    with pytest.raises(SizeCapError, match="exceed cap"):
        materialize_bases(uniform(7, 16).matroid)


def test_circuits_cap():
    with pytest.raises(SizeCapError):
        pg(5, 2).matroid.circuits()


def test_swirl_view_stack_consistency():
    sw = free_swirl(4).matroid
    bm = materialize_bases(sw)
    for x in range(1 << sw.n):
        assert bm.rank(x) == sw.rank(x)


def test_rank_memo_is_pure_cache():
    m = uniform(3, 6).matroid
    r1 = [m.rank(x) for x in range(1 << 6)]
    r2 = [m.rank(x) for x in range(1 << 6)]
    assert r1 == r2


# -- the flats memo ---------------------------------------------------------------------


def test_flats_memo_hands_out_fresh_lists():
    # a caller may build on its list (lemma6 concatenates two of them, a
    # truncation hands back its parent's) without changing the next answer
    m = pg(3, 3).matroid
    trunc = m.truncate(2)
    for k in range(m.full_rank + 1):
        want = sorted(Matroid._flats_impl(m, k))
        got = m.flats_of_rank(k)
        got.append(-1)
        got.reverse()
        assert m.flats_of_rank(k) == want
        assert m.flats_of_rank(k) is not m.flats_of_rank(k)
    lines = trunc.flats_of_rank(1)
    lines.clear()
    assert trunc.flats_of_rank(1) == m.flats_of_rank(1) == sorted(Matroid._flats_impl(m, 1))


@pytest.mark.parametrize("index", range(8))
def test_flats_impl_runs_once_per_rank(index, monkeypatch):
    m = _one_of_each_class()[index]
    cls = type(m)
    calls = {}
    kernel = cls._flats_impl

    def counted(self, k):
        if self is m:
            calls[k] = calls.get(k, 0) + 1
        return kernel(self, k)

    monkeypatch.setattr(cls, "_flats_impl", counted)
    want = [m.flats_of_rank(k) for k in range(m.full_rank + 1)]
    for _ in range(3):
        assert [m.flats_of_rank(k) for k in reversed(range(m.full_rank + 1))] == want[::-1]
        assert m.hyperplanes() == want[-2]
    assert calls == {k: 1 for k in range(1, m.full_rank + 1)}  # rank 0 is cl(empty)


def test_flats_memo_matches_fresh_copies_on_the_corpus():
    members = [nm.matroid for nm in corpus_generate(0)]
    fresh = [nm.matroid for nm in corpus_generate(0)]
    for m, f in zip(members, fresh):
        ranks = range(1, m.full_rank + 1)  # rank 0 is cl(empty), never stored
        first = [m.flats_of_rank(k) for k in ranks]
        again = [m.flats_of_rank(k) for k in reversed(ranks)][::-1]
        # the fresh copy answers through its own kernel, past any memo of its own
        assert first == again == [sorted(f._flats_impl(k)) for k in ranks], m


def test_flats_memo_stores_no_refusal():
    m = pg(4, 2).matroid
    for k in (-1, m.full_rank + 1, -1):
        with pytest.raises(ValueError, match="outside"):
            m.flats_of_rank(k)
    assert m._flats == {}
    # rank-2 subspaces of GF(37)^4 exceed SUBSPACE_ENUM_CAP and 70 > ENUM_CAP
    # elements are past the generic search: each call refuses again
    big = _random_linear(random.Random(70), 37, 4, 70)
    for _ in range(2):
        with pytest.raises(SizeCapError, match="needs n <= 64"):
            big.flats_of_rank(2)
    assert big._flats == {}


# -- basis exchange for a bases list ---------------------------------------------------


def _scan_rank(m, mask):
    """BasesMatroid rank as a scan of its bases list: the largest |B & X|."""
    target = min(mask.bit_count(), m.full_rank)
    best = 0
    for b in m.bases:
        best = max(best, (b & mask).bit_count())
        if best == target:
            break
    return best


def _scan_closure(m, mask):
    """E minus B - X over the bases B with |B & X| = r(X), by a scan."""
    r = _scan_rank(m, mask)
    reach = 0
    for b in m.bases:
        if (b & mask).bit_count() == r:
            reach |= b
    return ((1 << m.n) - 1) ^ (reach & ~mask)


@st.composite
def _bases_lists(draw):
    """Bases of a GF(2) or GF(3) matroid of at most 7 elements (loops,
    parallel pairs and rank 0 among them), with a loop or a coloop added,
    relabelled so that any basis may come first."""
    lin = draw(_linear_matroids(fields=(2, 3), max_n=7))
    n, bases = lin.n, materialize_bases(lin).bases
    if draw(st.booleans()):
        n += 1  # a loop: no basis holds it
    if draw(st.booleans()):
        bases = [b | 1 << n for b in bases]  # a coloop: every basis holds it
        n += 1
    perm = draw(st.permutations(range(n)))
    return n, [mask_of(perm[e] for e in bits(b)) for b in bases]


def _check_exchange(n, bases):
    """Rank, independence, closure and hyperplanes on every subset, against
    the scans and the definitions."""
    full = (1 << n) - 1
    ranks = [max((x & b).bit_count() for b in bases) for x in range(1 << n)]
    indep = {x for x in range(1 << n) if any(x & b == x for b in bases)}
    m = BasesMatroid(n, bases, verify=True)
    r = m.full_rank
    hyperplanes = sorted(x for x in range(1 << n) if ranks[x] == r - 1
                         and all(ranks[x | 1 << e] == r for e in bits(full ^ x)))
    for x in range(1 << n):
        assert m.rank(x) == _scan_rank(m, x) == ranks[x]
        assert m.independent(x) == (x in indep)
        want = x | mask_of(e for e in range(n) if ranks[x | 1 << e] == ranks[x])
        assert m.closure(x) == _scan_closure(m, x) == want
        # B & X spans X, for B the basis the exchange pass reaches
        basis = m._exchange_basis(x)
        assert basis in m._bases and (basis & x).bit_count() == ranks[x]
    assert m.hyperplanes() == hyperplanes


@settings(max_examples=120)
@given(_bases_lists())
@example((0, [0]))
@example((3, [0]))
@example((4, [0b1111]))
@example((4, [0b0101]))
def test_basis_exchange_matches_definitions(case):
    _check_exchange(*case)


@pytest.mark.parametrize("name", ["spike4", "swirl4", "U(3,7)", "fano", "gf3"])
def test_basis_exchange_on_relabelled_lists(name):
    # random relabellings of small matroids with many bases, so the first
    # basis, the order of X - B and the loops and coloops all vary
    rng = random.Random(name)
    if name == "gf3":  # a loop, a parallel pair and a coloop over GF(3)
        m = LinearMatroid(GF(3), [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0),
                                         (1, 1, 0), (1, 2, 0), (0, 0, 1)])
    else:
        m = {"spike4": free_spike(4), "swirl4": free_swirl(4), "U(3,7)": uniform(3, 7),
             "fano": pg(3, 2)}[name].matroid
    bases = materialize_bases(m).bases
    for _ in range(6):
        perm = list(range(m.n))
        rng.shuffle(perm)
        _check_exchange(m.n, [mask_of(perm[e] for e in bits(b)) for b in bases])


def _coloops_and_line(c, k):
    """c coloops 0..c-1 and U(1,k) on c..c+k-1: bases with one element of the line each."""
    return c + k, [((1 << c) - 1) | 1 << (c + i) for i in range(k)]


def _scan_epsilon(m):
    """The number of parallel classes of non-loops, by scans."""
    points = [e for e in range(m.n) if _scan_rank(m, 1 << e)]
    return sum(1 for i, e in enumerate(points)
               if all(_scan_rank(m, 1 << f | 1 << e) == 2 for f in points[:i]))


@pytest.mark.parametrize("n, bases", [
    (3, list(ksubset_masks(3, 0))),
    (3, list(ksubset_masks(3, 2))),
    (4, list(ksubset_masks(4, 2))),
    (4, list(ksubset_masks(4, 4))),
    (16, list(ksubset_masks(16, 16))),
    (13, list(ksubset_masks(13, 12))),
    (22, list(ksubset_masks(22, 20))),
    (31, list(ksubset_masks(31, 30))),
    (16, list(ksubset_masks(16, 8))),
    _coloops_and_line(19, 21),
    _coloops_and_line(30, 10),
], ids=["U(0,3)", "U(2,3)", "U(2,4)", "U(4,4)", "U(16,16)", "U(12,13)", "U(20,22)",
        "U(30,31)", "U(8,16)", "19coloops+U(1,21)", "30coloops+U(1,10)"])
def test_basis_exchange_on_fixed_lists(n, bases):
    m = BasesMatroid(n, bases, verify=False)
    full = (1 << n) - 1
    rng = random.Random(n * len(bases))
    xs = [0, 1, full, full ^ 1, full ^ 0b11, full >> 1, (1 << n // 2) - 1, 0b1010101010 & full]
    xs += [rng.getrandbits(n) for _ in range(150)]
    if n <= 4:
        xs = range(1 << n)
    for x in xs:
        assert m.rank(x) == _scan_rank(m, x)
        assert m.closure(x) == _scan_closure(m, x)
        assert m.independent(x) == (_scan_rank(m, x) == x.bit_count())
    # closure by definition, on a few masks: X and every e with r(X + e) = r(X)
    for x in xs[:20]:
        r = _scan_rank(m, x)
        assert m.closure(x) == x | mask_of(e for e in range(n) if _scan_rank(m, x | 1 << e) == r)
    assert m.epsilon() == _scan_epsilon(m)


@pytest.mark.parametrize("r, n", [(0, 3), (2, 4), (2, 3), (4, 4), (12, 13), (16, 16)])
def test_table_needs_two_to_the_rank_bases(r, n):
    # uniform lists with fewer and with more than 2^r bases answer alike
    m = BasesMatroid(n, list(ksubset_masks(n, r)), verify=False)
    xs = range(1 << n) if n <= 4 else [0, 1, 0b111, (1 << n) - 1, (1 << n) - 2]
    for x in xs:
        assert m.rank(x) == min(x.bit_count(), r)
        assert m.closure(x) == (x if x.bit_count() < r else (1 << n) - 1)


@pytest.mark.parametrize("r, n", [(20, 22), (30, 31)])
def test_bases_lists_past_the_table_cap_scan(r, n):
    # lists whose independent sets number far past 2^16
    full = (1 << n) - 1
    xs = [0, 1, full, full ^ 1, full ^ 0b11, (full >> 1) ^ 0b100, 0b1010101010]
    m = BasesMatroid(n, list(ksubset_masks(n, r)), verify=False)
    for x in xs:
        assert m.rank(x) == min(x.bit_count(), r)
        assert m.closure(x) == (full if x.bit_count() >= r else x)
    assert m.independent(full ^ 0b11) == (n - 2 <= r)
    assert m.epsilon() == n


# -- one memo lookup per query ---------------------------------------------------------


def _one_of_each_class():
    lin = pg(3, 2).matroid
    bases = materialize_bases(uniform(2, 4).matroid)
    return [
        lin,
        bases,
        MinorView(lin, 0b1, 0b10),
        DualView(bases),
        TruncationView(lin, 2),
        PrincipalExtensionView(lin, 0b111),
        DirectSumView(bases, uniform(1, 2).matroid),
        ParallelConnectionView(lin, pg(3, 2).matroid, 0, 0),
    ]


@pytest.mark.parametrize("index", range(8))
def test_rank_zero_flats_from_each_kernel(index):
    # every backend and view answers k = 0 with cl(empty), as flats_of_rank does
    m = _one_of_each_class()[index]
    assert sorted(m._flats_impl(0)) == [m.closure(0)]


@pytest.mark.parametrize("index", range(8))
def test_rank_and_closure_refuse_before_they_store(index):
    m = _one_of_each_class()[index]
    memo, closures = dict(m._memo), dict(m._closures)
    for bad in (1 << m.n, {m.n}, [0, m.n + 3], -1):
        for query in (m.rank, m.closure):
            with pytest.raises(ValueError, match="not within ground set of size"):
                query(bad)
    with pytest.raises(ValueError, match=re.escape(f"subset {bin(1 << m.n)} not within ")):
        m.closure(1 << m.n)
    with pytest.raises(ValueError, match=re.escape("subset -0b1 not within ")):
        m.rank(-1)
    assert m._memo == memo and m._closures == closures


@pytest.mark.parametrize("index", range(8))
def test_memo_hits_skip_the_kernels(index, monkeypatch):
    m = _one_of_each_class()[index]
    cls = type(m)
    calls = {"rank": 0, "closure": 0}

    def counting(kind, kernel):
        def wrapped(self, mask):
            if self is m:
                calls[kind] += 1
            return kernel(self, mask)
        return wrapped

    monkeypatch.setattr(cls, "_rank_mask", counting("rank", cls._rank_mask))
    monkeypatch.setattr(cls, "_closure_mask", counting("closure", cls._closure_mask))
    x = next(x for x in range(1, 1 << m.n) if x not in m._memo and x not in m._closures)
    want = (m.rank(x), m.closure(x))
    before = dict(calls)
    assert before["closure"] == 1 and before["rank"] >= 1  # a dual's closure asks ranks
    for _ in range(3):
        assert (m.rank(x), m.closure(x)) == want
        assert (m.rank(bits(x)), m.closure(bits(x))) == want
    assert calls == before


# -- minor masks by runs ------------------------------------------------------------


def _bitwise_lift(ground_map, mask):
    out = 0
    for i in bits(mask):
        out |= 1 << ground_map[i]
    return out


def _bitwise_drop(kept, pmask):
    out = 0
    for e in bits(pmask & kept):
        out |= 1 << (kept & ((1 << e) - 1)).bit_count()
    return out


def _gone_masks(rng):
    """(contract, delete) pairs on 1 <= n <= 20: gaps at bit 0, at the top bit
    and on alternating bits, one run of width n - 1, and random pairs."""
    for n in range(1, 21):
        full = (1 << n) - 1
        alternating = full & 0x55555
        for gone in (1, 1 << (n - 1), alternating, full ^ alternating, full, 0,
                     1 | 1 << (n - 1)):
            split = rng.randrange(1 << n) & gone
            yield n, split, gone ^ split
        for _ in range(20):
            gone = rng.randrange(1 << n)
            split = rng.randrange(1 << n) & gone
            yield n, split, gone ^ split


def test_minor_run_masks_match_the_bit_loop():
    rng = random.Random(19)
    widths = set()
    for n, contract, delete in _gone_masks(rng):
        free = LinearMatroid(GF(2), [tuple(int(i == j) for i in range(n)) for j in range(n)])
        view = MinorView(free, contract, delete)
        kept = ((1 << n) - 1) ^ contract ^ delete
        assert view.n == kept.bit_count()
        widths.update(w.bit_length() for _, _, w in view._runs)
        for x in [0, (1 << view.n) - 1] + [rng.randrange(1 << view.n) for _ in range(30)]:
            lifted = view.lift_mask(x)
            assert lifted == _bitwise_lift(bits(kept), x)
            assert view._drop_mask(lifted) == x
        for p in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(30)]:
            assert view._drop_mask(p) == _bitwise_drop(kept, p)
    assert 19 in widths and 1 in widths


def test_materialize_bases_refuses_too_many_candidates():
    # C(63, 6) candidate 6-sets of PG(5,2), past the 2,000,000 guard
    with pytest.raises(SizeCapError, match="^too many candidate bases to enumerate$"):
        materialize_bases(pg(6, 2).matroid)


def test_rank_axiom_sweep_refuses_more_than_16_elements():
    with pytest.raises(SizeCapError, match="^axiom sweep needs n <= 16$"):
        rank_axioms_hold(uniform(2, 17).matroid)
