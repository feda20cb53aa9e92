import itertools
import random

import pytest

from mforge import (
    BasesMatroid,
    LinearMatroid,
    Matroid,
    SizeCapError,
    bits,
    direct_sum,
    field_new,
    free_spike,
    free_swirl,
    ksubset_masks,
    mask_of,
    materialize_bases,
    parallel_connection,
    pg,
    rank_axioms_hold,
    uniform,
)

FANO = pg(3, 2).matroid
U24 = uniform(2, 4).matroid


def test_bit_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert bits(0b100101) == [0, 2, 5]
    assert sorted(ksubset_masks(4, 2)) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert list(ksubset_masks(3, 0)) == [0]


def test_subset_validation():
    with pytest.raises(ValueError):
        U24.rank({7})
    with pytest.raises(ValueError):
        U24.rank(-1)
    with pytest.raises(ValueError):
        U24.rank(1 << 4)


def test_uniform_ranks():
    for x in range(1 << 4):
        assert U24.rank(x) == min(2, x.bit_count())
    assert U24.full_rank == 2
    assert U24.independent(0b0011)
    assert not U24.independent(0b0111)


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
    bm = materialize_bases(lin, max_bases=5000)
    for k in range(4):
        assert sorted(lin.flats_of_rank(k)) == sorted(bm.flats_of_rank(k))


def _random_linear(rng, q, dim, n):
    """Columns with many zero entries, so loops and parallel pairs turn up."""
    gf = field_new(q)
    cols = [
        tuple(rng.randrange(1, q) if rng.random() < 0.6 else 0 for _ in range(dim))
        for _ in range(n)
    ]
    return LinearMatroid(gf, cols)


def _check_linear_kernel(m):
    assert rank_axioms_hold(m) is None
    for k in range(m.full_rank + 1):
        assert sorted(m._flats_impl(k)) == sorted(Matroid._flats_impl(m, k))
    for contract in range(1 << m.n):
        quotient = m.contract_columns(contract)
        minor = m.minor(contract=contract)
        assert quotient.n == minor.n
        for x in range(1 << minor.n):
            assert quotient.rank(x) == minor.rank(x)


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


def test_loops_and_simplify():
    gf = field_new(2)
    m = LinearMatroid(gf, [(1, 0), (1, 0), (0, 1), (0, 0)])
    assert m.loops() == 0b1000
    assert m.epsilon() == 2
    si, mapping = m.simplify()
    assert si.n == 2
    assert si.full_rank == 2
    assert mapping[3] is None  # the loop goes nowhere
    assert mapping[0] == mapping[1]  # parallel pair lands on one point


def test_point_classes_partition_nonloops():
    gf = field_new(3)
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
    with pytest.raises(ValueError):
        BasesMatroid(4, [0b0011, 0b1100], verify=True)  # fails exchange
    m = BasesMatroid(4, [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100], verify=True)
    assert m.full_rank == 2
    assert m.epsilon() == 4


def test_rank_axioms_hold_detects_bad_function():
    good = rank_axioms_hold(FANO)
    assert good is None
    bad = BasesMatroid(4, [0b0011, 0b1100], verify=False)
    assert rank_axioms_hold(bad) is not None


def test_materialize_bases_roundtrip():
    spike = free_spike(4).matroid
    bm = materialize_bases(spike)
    for x in range(1 << spike.n):
        assert bm.rank(x) == spike.rank(x)
    with pytest.raises(SizeCapError):
        materialize_bases(uniform(16, 20).matroid, max_bases=10)


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
