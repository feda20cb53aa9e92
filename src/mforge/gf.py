"""Exact arithmetic in finite fields GF(p^k).

Field elements are canonical integer indices in [0, q).  The index encodes
the coefficient vector (c_0, ..., c_{k-1}) of the polynomial residue
c_0 + c_1 x + ... + c_{k-1} x^{k-1} as sum(c_i * p^i), so 0 and 1 are the
additive and multiplicative identities for every field.  The reduction
modulus is the lexicographically smallest monic irreducible polynomial of
degree k over GF(p), comparing coefficient vectors constant term first;
for k = 1 the placeholder modulus is the polynomial x.

Addition and multiplication are each defined once, on coefficient vectors
(_add_c, _mul_c).  For q <= 256 they fill tables, so the arithmetic
operations are O(1) lookups and negatives and inverses are read off the
table rows; above 256 the same two functions run on each call.  GF objects
are immutable.
"""

from __future__ import annotations

from itertools import product

from .errors import NotPrimePowerError, SizeCapError

_TABLE_LIMIT = 256
_ORDER_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)  # q has no divisor <= sqrt(q), hence prime


def prime_sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes: sieve[k] is 1 exactly when k is prime, 0 <= k <= n."""
    sieve = bytearray([1]) * max(n + 1, 2)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sieve


def prime_powers_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = prime_sieve(n)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            pk = p
            while pk <= n:
                out.append(pk)
                pk *= p
    return sorted(out)


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo monic g, coefficients mod p, low degree first."""
    f = f[:]
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        lead = f[-1]
        if lead:
            shift = len(f) - 1 - dg
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - lead * c) % p
        _poly_trim(f)
        if not f:
            break
    return f


def _poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _is_irreducible(f: list[int], p: int) -> bool:
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for coeffs in product(range(p), repeat=d):
            if not _poly_mod(f, [*coeffs, 1], p):  # monic of degree d
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over GF(p), lexicographically least.

    Coefficient vectors are compared constant term first.  Returned constant
    term first with the leading 1 included, length k + 1.
    """
    if k == 1:
        return (0, 1)
    for coeffs in product(range(p), repeat=k):  # (c_0, ..., c_{k-1}) in lex order
        f = [*coeffs, 1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """The finite field with q = p^k elements."""

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_inv", "_neg")

    def __init__(self, q: int, _parts: tuple[int, int, tuple[int, ...]] | None = None):
        if _parts is None:
            if q > _ORDER_LIMIT:  # before prime_power's trial division
                raise SizeCapError(f"field order {q} exceeds cap {_ORDER_LIMIT}")
            pk = prime_power(q)
            if pk is None:
                raise NotPrimePowerError(f"{q} is not a prime power")
            p, k = pk
            modulus = smallest_irreducible(p, k)
        else:
            p, k, modulus = _parts
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._add = None
        self._mul = None
        self._inv = None
        self._neg = None
        if q <= _TABLE_LIMIT:
            self._build_tables()

    @classmethod
    def from_parts(cls, p: int, k: int, modulus: tuple[int, ...]) -> "GF":
        """Rebuild a field from serialized parts, validating them; the order
        cap comes before is_prime's trial division."""
        if k < 1:
            raise NotPrimePowerError(f"unsupported extension degree {k}")
        if k > 16 or p**k > _ORDER_LIMIT:  # 2^17 already exceeds the cap
            raise SizeCapError(f"field order {p}^{k} exceeds cap {_ORDER_LIMIT}")
        if not is_prime(p):
            raise NotPrimePowerError(f"field characteristic {p} is not prime")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k, constant term first")
        if k == 1:
            if modulus != (0, 1):
                raise ValueError("degree-1 modulus must be the placeholder x")
        elif not _is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible")
        return cls(p**k, _parts=(p, k, modulus))

    # -- element representation -------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{k-1}) of element index a."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        idx = 0
        for c in reversed(list(cs)):
            idx = idx * self.p + (c % self.p)
        return idx

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    # -- arithmetic --------------------------------------------------------

    def _add_c(self, ca, cb) -> int:
        """Index of the sum of two coefficient vectors."""
        p = self.p
        return self.from_coeffs((x + y) % p for x, y in zip(ca, cb))

    def _mul_c(self, ca, cb) -> int:
        """Index of the product of two coefficient vectors, reduced by the modulus."""
        p = self.p
        if self.k == 1:
            return ca[0] * cb[0] % p
        return self.from_coeffs(_poly_mod(_poly_mul(ca, cb, p), self.modulus, p))

    def _build_tables(self):
        q = self.q
        coeff = [self.coeffs(a) for a in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = coeff[a]
            for b in range(a, q):
                add[a][b] = add[b][a] = self._add_c(ca, coeff[b])
                if a:
                    mul[a][b] = mul[b][a] = self._mul_c(ca, coeff[b])
        self._add, self._mul = add, mul
        self._neg = [row.index(0) for row in add]
        self._inv = [0] + [row.index(1) for row in mul[1:]]

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return self._add_c(self.coeffs(a), self.coeffs(b))

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        p = self.p
        return self.from_coeffs((-c) % p for c in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def sub_scaled(self, v, f: int, w) -> list[int]:
        """The row update v - f*w, entry by entry."""
        if self._add is not None:
            add, mf = self._add, self._mul[self._neg[f]]
            return [add[x][mf[y]] for x, y in zip(v, w)]
        return [self.sub(x, self.mul(f, y)) for x, y in zip(v, w)]

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_c(self.coeffs(a), self.coeffs(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # -- interchange ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"
