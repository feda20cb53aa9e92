import itertools

import pytest

from mforge import (
    GF,
    LinearMatroid,
    SizeCapError,
    ag,
    are_isomorphic,
    density_witness,
    free_spike,
    free_swirl,
    mask_of,
    pg,
    principal_geometry_extension,
    theta_graph,
    two_sum,
    two_sum_chain,
    uniform,
)


def test_projective_counts_small():
    assert pg(2, 2).matroid.epsilon() == 3
    assert pg(3, 2).matroid.epsilon() == 7
    assert pg(3, 3).matroid.epsilon() == 13
    assert pg(4, 2).matroid.epsilon() == 15
    assert pg(3, 4).matroid.epsilon() == 21
    assert pg(3, 2).name == "PG(2,2)"


def test_affine_counts_small():
    assert ag(3, 2).matroid.epsilon() == 4
    assert ag(3, 3).matroid.epsilon() == 9
    assert ag(4, 2).matroid.epsilon() == 8
    assert ag(3, 2).name == "AG(2,2)"
    # affine geometries are simple restrictions of the projective ones
    assert ag(3, 3).matroid.full_rank == 3


def test_geometry_caps():
    with pytest.raises(SizeCapError):
        pg(13, 2)  # 8191 points
    with pytest.raises(ValueError):
        pg(0, 2)


def test_uniform_validation():
    with pytest.raises(ValueError):
        uniform(3, 2)
    with pytest.raises(ValueError):
        uniform(2, 21)
    u = uniform(0, 3).matroid
    assert u.full_rank == 0
    assert u.loops() == 0b111


def test_theta_structure():
    th = theta_graph(3)
    m = th.matroid
    assert m.n == 6 and m.full_rank == 4
    # each spoke pair with any other spoke pair forms a 4-element circuit
    pairs = [tuple(p) for p in th.meta["pairs"]]
    assert pairs == [(0, 1), (2, 3), (4, 5)]
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        assert m.is_circuit(mask_of([a, b, c, d]))
    # two-spoke theta degenerates to the 4-point rank-3 uniform
    t2 = theta_graph(2).matroid
    assert t2.full_rank == 3
    assert are_isomorphic(t2, uniform(3, 4).matroid) is not None


def test_theta_rank_field_independent():
    over2 = theta_graph(4, q=2).matroid
    over3 = theta_graph(4, q=3).matroid
    for x in range(1 << 8):
        assert over2.rank(x) == over3.rank(x)


def test_spike_is_theta_truncation():
    sp = free_spike(4)
    m = sp.matroid
    assert m.n == 8 and m.full_rank == 4 and m.epsilon() == 8
    pairs = [tuple(p) for p in sp.meta["pairs"]]
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        assert m.is_circuit(mask_of([a, b, c, d]))
    with pytest.raises(ValueError):
        free_spike(2)


def test_rank3_spike_swirl_uniform_coincide():
    u36 = uniform(3, 6).matroid
    assert are_isomorphic(free_spike(3).matroid, u36) is not None
    assert are_isomorphic(free_swirl(3).matroid, u36) is not None


def test_swirl_circuit_pattern():
    sw = free_swirl(5)
    m = sw.matroid
    assert m.n == 10 and m.full_rank == 5 and m.epsilon() == 10
    pairs = [tuple(p) for p in sw.meta["pairs"]]
    k = len(pairs)
    for i, j in itertools.combinations(range(k), 2):
        u = mask_of(pairs[i] + pairs[j])
        if (j - i == 1) or (i == 0 and j == k - 1):
            assert m.is_circuit(u)
        else:
            assert m.rank(u) == 4


def _chain_linear(k: int) -> LinearMatroid:
    # independent model: each glued four-point line spans consecutive
    # coordinate axes; shared basepoints are the axis vectors, removed
    gf = GF(3)
    dim = k + 1

    def axis(i):
        v = [0] * dim
        v[i] = 1
        return tuple(v)

    def mix(i, c):
        v = [0] * dim
        v[i - 1] = 1
        v[i] = c
        return tuple(v)

    cols = [axis(0)]
    for i in range(1, k + 1):
        cols.append(mix(i, 1))
        cols.append(mix(i, 2))
    cols.append(axis(k))
    return LinearMatroid(gf, cols)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_two_sum_chain_matches_linear_model(k):
    m = two_sum_chain(k).matroid
    lin = _chain_linear(k)
    assert m.n == lin.n == 2 * k + 2
    for x in range(1 << m.n):
        assert m.rank(x) == lin.rank(x)


def test_two_sum_chain_meta():
    nm = two_sum_chain(3)
    assert nm.meta["x1"] == 0
    assert nm.meta["xk"] == 7
    assert [tuple(p) for p in nm.meta["pairs"]] == [(1, 2), (3, 4), (5, 6)]
    m = nm.matroid
    # each leg plus its surviving end forms a line
    assert m.rank(mask_of([0, 1, 2])) == 2
    assert m.rank(mask_of([5, 6, 7])) == 2


def test_two_sum_of_triangles_is_four_cycle():
    a = uniform(2, 3).matroid
    b = uniform(2, 3).matroid
    s = two_sum(a, b, 0, 0)
    assert s.n == 4
    assert s.full_rank == 3
    assert s.is_circuit(0b1111)  # the glued cycle
    assert are_isomorphic(s, uniform(3, 4).matroid) is not None


def test_principal_geometry_extension():
    nm = principal_geometry_extension(3, 2, 2)
    m = nm.matroid
    assert nm.name == "P(2,2,2)"
    assert m.n == 8 and m.full_rank == 3 and m.epsilon() == 8
    # the new element lies on the chosen line: that line now has 4 points
    flat = nm.meta["flat"]
    e = nm.meta["new"]
    assert m.rank(flat | (1 << e)) == m.rank(flat) == 2
    full_flat = principal_geometry_extension(3, 2, 3)
    assert full_flat.matroid.epsilon() == 8
    par = principal_geometry_extension(3, 2, 1)
    assert par.matroid.epsilon() == 7  # rank-1 flat gives a parallel copy
    with pytest.raises(ValueError):
        principal_geometry_extension(3, 2, 4)


def test_density_witness_counts():
    assert density_witness(2, "Lcirc", 2).matroid.epsilon() == 7
    assert density_witness(2, "Llambda", 2).matroid.epsilon() == 5
    assert density_witness(3, "Lcirc", 2).matroid.epsilon() == 13
    assert density_witness(3, "Llambda", 2).matroid.epsilon() == 10
    with pytest.raises(ValueError):
        density_witness(2, "nope", 3)
    w = density_witness(2, "Llambda", 2).matroid
    assert are_isomorphic(w, uniform(2, 5).matroid) is not None


def test_density_witnesses_are_dense():
    for cls in ("Lcirc", "Llambda"):
        for q in (2, 3):
            m = density_witness(q, cls, 3).matroid
            assert m.is_q_dense(q)
            assert m.full_rank == 3
            assert m.epsilon() == m.n
