import hashlib
import itertools
import json
import random

import pytest

from mforge import GF, NotPrimePowerError, SizeCapError, is_prime, prime_power
from mforge.gf import _is_irreducible, prime_powers_upto, smallest_irreducible


def test_prime_power_factoring():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(9) == (3, 2)
    assert prime_power(49) == (7, 2)
    assert prime_power(64) == (2, 6)
    assert prime_power(1) is None
    assert prime_power(6) is None
    assert prime_power(12) is None
    assert prime_power(0) is None


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_non_prime_power_rejected():
    with pytest.raises(NotPrimePowerError):
        GF(6)
    with pytest.raises(NotPrimePowerError):
        GF(1)
    # 2^17 is a prime power: past the order cap it is refused as a size
    with pytest.raises(SizeCapError, match="exceeds cap"):
        GF(1 << 17)


def test_gf4_table_values():
    gf = GF(4)
    assert gf.modulus == (1, 1, 1)  # x^2 + x + 1, constant term first
    assert gf.mul(2, 2) == 3
    assert gf.mul(2, 3) == 1
    assert gf.add(2, 3) == 1
    assert gf.add(1, 1) == 0
    assert gf.inv(2) == 3
    assert gf.neg(2) == 2


def test_gf9_table_values():
    gf = GF(9)
    assert gf.modulus == (1, 0, 1)  # x^2 + 1 is irreducible mod 3
    # element 3 encodes x; x*x = -1 = 2
    assert gf.mul(3, 3) == 2
    assert gf.add(3, 3) == 6  # x + x = 2x
    assert gf.neg(1) == 2


def test_prime_field_is_mod_arithmetic():
    gf = GF(7)
    for a in gf.elements():
        for b in gf.elements():
            assert gf.add(a, b) == (a + b) % 7
            assert gf.mul(a, b) == (a * b) % 7


def test_coeff_encoding_roundtrip():
    gf = GF(8)
    for a in gf.elements():
        assert gf.from_coeffs(gf.coeffs(a)) == a


def test_inverse_of_zero():
    gf = GF(5)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_pow_matches_repeated_mul():
    gf = GF(9)
    for a in list(gf.nonzero())[:4]:
        acc = 1
        for e in range(1, 6):
            acc = gf.mul(acc, a)
            assert gf.pow(a, e) == acc
        assert gf.pow(a, gf.q - 1) == 1  # Fermat


def test_json_roundtrip_and_identity():
    gf = GF(16)
    doc = gf.to_json()
    assert set(doc) == {"p", "k", "modulus"}
    back = GF.from_parts(**json.loads(json.dumps(doc)))
    assert back == gf
    assert back.mul(5, 7) == gf.mul(5, 7)


# SHA-256 of the "\n"-joined "q [c_0, ..., c_k]" lines of the modulus of every
# extension field (k >= 2) with q <= 2^16, ascending by q
_MODULI_DIGEST = "31e550027a00600f66bd89e424b0bbc8af2c2ae32c13797668c4460cad81a332"


def test_extension_moduli_are_pinned():
    rows = []
    for q in prime_powers_upto(1 << 16):
        p, k = prime_power(q)
        if k > 1:
            rows.append(f"{q} {list(smallest_irreducible(p, k))}")
    assert len(rows) == 93
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == _MODULI_DIGEST


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_irreducible_counts_match_gauss(p, top):
    # Gauss: (1/k) * sum over d | k of mu(d) * p^(k/d) monic irreducibles of degree k
    for k in range(1, top + 1):
        want = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        got = sum(_is_irreducible([*c, 1], p) for c in itertools.product(range(p), repeat=k))
        assert got == want, (p, k)


def test_from_parts_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        GF.from_parts(2, 2, (0, 0, 1))  # x^2 factors as x * x
    with pytest.raises(NotPrimePowerError):
        GF.from_parts(6, 1, (0, 1))


def test_element_counts():
    for q in (2, 3, 4, 5, 8, 27):
        gf = GF(q)
        assert len(list(gf.elements())) == q
        assert len(list(gf.nonzero())) == q - 1


@pytest.mark.parametrize("q", [512, 729])
def test_untabled_fields_satisfy_sampled_axioms(q):
    gf = GF(q)
    assert gf._add is None  # above the table limit every operation computes
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a) and gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, 0) == a and gf.mul(a, 1) == a and gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
