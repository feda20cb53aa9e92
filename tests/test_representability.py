import hashlib
import json
import random
import time
from itertools import combinations_with_replacement

import pytest

from mforge import (
    ClassSpec,
    GF,
    LemmaViolationError,
    LinearMatroid,
    SizeCapError,
    SpikeWitness,
    brute_force_linear_rep,
    eventual_base,
    free_spike,
    membership_flags,
    pg,
    prime_powers_upto,
    spike_rep_predicate,
    spike_witness_search,
    swirl_rep_predicate,
    swirl_witness_search,
    uniform,
    witness_is_valid,
)
from mforge.representability import _witness_search


def test_prime_powers_upto():
    assert prime_powers_upto(13) == [2, 3, 4, 5, 7, 8, 9, 11, 13]
    assert prime_powers_upto(1) == []


def test_predicate_parameter_validation():
    for fn in (spike_rep_predicate, swirl_rep_predicate):
        with pytest.raises(ValueError):
            fn(2, 5)
        with pytest.raises(ValueError):
            fn(3, 2)
        with pytest.raises(ValueError):
            fn(3, 6)  # not a prime power


def test_spike_predicate_values():
    # prime order: representable only while the rank stays small
    assert spike_rep_predicate(3, 5)
    assert not spike_rep_predicate(4, 5)
    assert not spike_rep_predicate(3, 3)
    # prime powers with a proper subfield always work
    assert spike_rep_predicate(10, 4)
    assert spike_rep_predicate(10, 9)
    assert spike_rep_predicate(3, 4)


def test_swirl_predicate_values():
    # q-1 composite always works
    assert swirl_rep_predicate(10, 5)
    assert swirl_rep_predicate(10, 13)
    # q-1 prime: cap at q-3
    assert not swirl_rep_predicate(3, 3)
    assert not swirl_rep_predicate(3, 4)
    assert swirl_rep_predicate(4, 8)  # 7 prime but 4 <= 5
    assert not swirl_rep_predicate(6, 8)


def test_spike_witness_frozen_cells():
    w = spike_witness_search(3, 4)
    assert w is not None
    assert tuple(w.alphas) == (1, 1)
    assert (w.beta1, w.beta2) == (2, 3)
    assert witness_is_valid(w)
    assert spike_witness_search(3, 3) is None
    assert spike_witness_search(4, 5) is None
    assert spike_witness_search(3, 5) is not None


def test_swirl_witness_frozen_cells():
    w = swirl_witness_search(3, 5)
    assert w is not None
    assert tuple(w.alphas) == (4, 4)
    assert (w.beta1, w.beta2) == (2, 3)
    assert witness_is_valid(w)
    assert swirl_witness_search(3, 4) is None
    assert swirl_witness_search(3, 3) is None
    assert swirl_witness_search(5, 3) is None


def test_witness_search_caps():
    with pytest.raises(SizeCapError):
        spike_witness_search(3, 16)
    with pytest.raises(SizeCapError):
        swirl_witness_search(11, 5)


def test_witness_is_valid_rejects_tampering():
    w = spike_witness_search(3, 4)
    forged = SpikeWitness(group=w.group, q=w.q, alphas=w.alphas, beta1=0, beta2=w.beta2)
    assert not witness_is_valid(forged)
    # beta1 = 0 is attainable as the empty subset sum, so it can never
    # serve as an avoided value in the additive case
    # betas outside the group are not "unattained"; alphas outside it are
    # refused rather than looked up
    assert not witness_is_valid(SpikeWitness("multiplicative", 5, (2,) * 9, 0, 99))
    assert not witness_is_valid(SpikeWitness("additive", 7, (1,) * 9, 50, 60))
    assert not witness_is_valid(SpikeWitness("additive", 7, (9, 9, 9), 5, 6))


def _exhaustive_witness(k, q, values, agg, unit):
    """The plain search: every multiset, each attained set built from scratch."""
    domain = list(range(q)) if unit == 0 else list(range(1, q))
    for alphas in combinations_with_replacement(values, k - 1):
        attain = {unit}
        for a in alphas:
            attain |= {agg(a, x) for x in attain}
        if len(domain) - len(attain) >= 2:
            b1, b2 = sorted(set(domain) - attain)[:2]
            group = "additive" if unit == 0 else "multiplicative"
            return SpikeWitness(group, q, alphas, b1, b2)
    return None


def test_witness_search_matches_exhaustive_search():
    for q in prime_powers_upto(13):
        gf = GF(q)
        for k in range(3, 11):
            for search, values, agg, unit in (
                (spike_witness_search, range(1, q), gf.add, 0),
                (swirl_witness_search, range(2, q), gf.mul, 1),
            ):
                got = search(k, q)
                assert got == _exhaustive_witness(k, q, values, agg, unit), (search, k, q)
                assert got is None or witness_is_valid(got)
    # On a group every reordering of a multiset attains the same set, so a
    # search visiting orderings the canonical order skips cannot show there.
    # On this table the ordering (2, 1) succeeds while (1, 2) fails: the
    # canonical multiset is (2, 2).
    table = [[0, 1, 2, 3], [1, 2, 2, 3], [0, 3, 2, 3], [2, 1, 2, 3]]
    got = _witness_search(3, 4, range(1, 4), lambda a, x: table[a][x], 0)
    assert got == _exhaustive_witness(3, 4, range(1, 4), lambda a, x: table[a][x], 0)
    assert got.alphas == (2, 2)


def test_oracle_equivalence_sample():
    for q in (3, 4, 5, 7):
        for k in (3, 4, 5):
            assert spike_rep_predicate(k, q) == (spike_witness_search(k, q) is not None)
            assert swirl_rep_predicate(k, q) == (swirl_witness_search(k, q) is not None)


def test_brute_force_rep_known_cases():
    u24 = uniform(2, 4).matroid
    assert brute_force_linear_rep(u24, 2) is None
    over3 = brute_force_linear_rep(u24, 3)
    assert over3 is not None
    for x in range(1 << 4):
        assert over3.rank(x) == u24.rank(x)

    fano = pg(3, 2).matroid
    assert brute_force_linear_rep(fano, 2) is not None
    assert brute_force_linear_rep(fano, 3) is None  # Fano is binary only

    spike3 = free_spike(3).matroid
    assert brute_force_linear_rep(spike3, 3) is None
    assert brute_force_linear_rep(spike3, 4) is not None


def test_a_failed_representation_recheck_raises(monkeypatch):
    # a representation that fails the final all-subsets re-check is a wrong
    # search, not evidence that none exists: it raises rather than return None
    monkeypatch.setattr("mforge.matroid.rank_mismatch", lambda a, b: 0)
    with pytest.raises(LemmaViolationError, match="all-subsets re-check"):
        brute_force_linear_rep(pg(3, 2).matroid, 2)


def _placement_oracle(m, q) -> bool:
    """The oracle's search before the normal form: only element 0 is fixed,
    at the first unit point, and every later element tries every point."""
    r = m.full_rank
    geometry = pg(r, q).matroid
    on = [0]

    def place(e: int) -> bool:
        if e == m.n:
            return True
        cand = [geometry.columns.index((1,) + (0,) * (r - 1))] if e == 0 else range(geometry.n)
        for i in cand:
            bit = 1 << i
            if on[-1] & bit:
                continue
            if all(m.rank(sub | (1 << e)) == geometry.rank(on[sub] | bit) for sub in range(1 << e)):
                on.extend([x | bit for x in on])
                if place(e + 1):
                    return True
                del on[1 << e:]
        return False

    return place(0)


def test_brute_force_rep_agrees_with_the_placement_search():
    # shuffled random points of PG(r-1, q0), so the first r elements are often
    # dependent and the greedy basis skips some; GF(4) and GF(5) only up to 6
    # elements, where the reference search stays fast on negatives
    rng = random.Random(7)
    answers = []
    for _ in range(60):
        q0, r = rng.choice((2, 3, 4, 5)), rng.choice((2, 3))
        points = list(pg(r, q0).matroid.columns)
        m = LinearMatroid(GF(q0), rng.sample(points, rng.randint(r, min(8, len(points)))))
        for q in (2, 3, 4, 5) if m.n <= 6 else (2, 3):
            rep = brute_force_linear_rep(m, q)
            assert (rep is not None) == _placement_oracle(m, q), (m.columns, q)
            answers.append(rep is not None)
    assert answers.count(True) >= 100 and answers.count(False) >= 20


@pytest.mark.parametrize("q", [5, 7])
def test_brute_force_rep_refuses_fano_quickly(q):
    # the placement search took seconds over GF(5) and a minute over GF(7)
    started = time.monotonic()
    assert brute_force_linear_rep(pg(3, 2).matroid, q) is None
    assert time.monotonic() - started < 2.0


def test_brute_force_rep_caps_and_validation():
    with pytest.raises(SizeCapError):
        brute_force_linear_rep(uniform(4, 5).matroid, 3)  # rank above cap
    with pytest.raises(SizeCapError):
        brute_force_linear_rep(uniform(2, 4).matroid, 8)  # field above cap
    with pytest.raises(ValueError):
        brute_force_linear_rep(uniform(1, 3).matroid, 3)  # parallel elements


def test_membership_flags_line():
    f = membership_flags("line", 4, 2)
    assert f == {"in_L": False, "in_Lcirc": True, "in_Llambda": True}
    assert membership_flags("line", 4, 3)["in_L"] is True
    assert membership_flags("line", 8, 2) == {
        "in_L": False,
        "in_Lcirc": False,
        "in_Llambda": False,
    }
    # the L-lambda bound is a guarantee, not an exact boundary
    assert membership_flags("line", 5, 2)["in_Llambda"] is True


def test_membership_flags_spike_swirl():
    f = membership_flags("spike", 5, 3)
    assert f["in_Lcirc"] and f["in_Llambda"] and not f["in_L"]
    f = membership_flags("swirl", 4, 5)
    assert f["in_Llambda"] and f["in_Lcirc"] and f["in_L"]
    f = membership_flags("swirl", 5, 4)
    assert f["in_Llambda"] and not f["in_Lcirc"] and not f["in_L"]
    with pytest.raises(ValueError):
        membership_flags("swirl", 3, 5)  # transfer rule starts at rank 4
    with pytest.raises(ValueError):
        membership_flags("spike", 2, 5)
    with pytest.raises(ValueError, match="field order must be at least 3"):
        membership_flags("spike", 5, 2)
    with pytest.raises(ValueError, match="unknown kind 'plane'"):
        membership_flags("plane", 5, 3)
    with pytest.raises(ValueError, match="6 is not a prime power"):
        membership_flags("spike", 5, 6)


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec()
    with pytest.raises(ValueError):
        ClassSpec(line_ell=1)
    with pytest.raises(ValueError):
        ClassSpec(spike_ranks={2})
    spec = ClassSpec(line_ell=3, spike_ranks={4})
    assert spec.exclusions() == [("line", 5), ("spike", 4)]


@pytest.mark.parametrize(
    "spec,base,certified,gaps",
    [
        (ClassSpec(line_ell=9), 9, True, []),
        (ClassSpec(line_ell=10, spike_ranks={5}), 5, True, []),
        (ClassSpec(line_ell=3, spike_ranks={3}, swirl_ranks={3}), 3, True, []),
        (ClassSpec(line_ell=5, swirl_ranks={4}), 4, True, []),
        (ClassSpec(line_ell=25, swirl_ranks={4}), 4, False, ["Lcirc(4)"]),
    ],
)
def test_eventual_base_table(spec, base, certified, gaps):
    rep = eventual_base(spec)
    assert rep.base == base
    assert rep.certified == certified
    assert list(rep.gaps) == gaps
    # every blocked structure names a concrete excluded minor
    for key, val in rep.blocking.items():
        if key not in gaps:
            assert isinstance(val, str) and val


def test_eventual_base_line_only_blockers():
    rep = eventual_base(ClassSpec(line_ell=9))
    assert rep.blocking["Lcirc(9)"] == "U(2,11)"
    assert rep.blocking["Llambda(9)"] == "U(2,11)"


def _eventual_base_grid():
    for ell in (None, 2, 3, 5, 9, 30):
        for spikes in ((), (3,), (4, 6), (11,), (50,)):
            for swirls in ((), (3,), (4,), (5, 8), (13,), (60,)):
                if ell is not None or spikes or swirls:
                    yield ClassSpec(ell, spikes, swirls)
    yield ClassSpec(None, (2000,), ())
    yield ClassSpec(None, (), (5000,))
    yield ClassSpec(1000, (997,), (1001,))


def test_eventual_base_reports_over_a_grid():
    # SHA-256 of the report lines over 182 specs as the public predicates,
    # with their per-q primality tests, decide every membership
    lines = []
    for spec in _eventual_base_grid():
        rep = eventual_base(spec)
        lines.append(json.dumps([spec.line_ell, sorted(spec.spike_ranks), sorted(spec.swirl_ranks),
                                 rep.base, rep.certified, rep.blocking, rep.gaps], sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        182, "19e1adc6e37ac1cbb044fc570903745c1e21ec93c78df8cd0c07393b3dd7df5c")
