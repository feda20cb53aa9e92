"""Exact arithmetic in finite fields GF(p^k).

Field elements are canonical integer indices in [0, q).  The index encodes
the coefficient vector (c_0, ..., c_{k-1}) of the polynomial residue
c_0 + c_1 x + ... + c_{k-1} x^{k-1} as sum(c_i * p^i), so 0 and 1 are the
additive and multiplicative identities for every field.  The reduction
modulus is the lexicographically smallest monic irreducible polynomial of
degree k over GF(p), comparing coefficient vectors constant term first;
for k = 1 the placeholder modulus is the polynomial x.

For q <= 256 addition and multiplication tables are precomputed, so the
arithmetic operations are O(1) lookups.  GF objects are immutable and safe
to share between threads.
"""

from __future__ import annotations

from .errors import NotPrimePowerError

_TABLE_LIMIT = 256
_ORDER_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            g = _digits(m, p, d) + [1]  # monic of degree d
            if not _poly_mod(f, g, p):
                return False
    return True


def _digits(m: int, p: int, width: int) -> list[int]:
    """Base-p digits of m, most significant first, padded to width."""
    out = []
    for _ in range(width):
        out.append(m % p)
        m //= p
    out.reverse()
    return out


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over GF(p), lexicographically least.

    Coefficient vectors are compared constant term first.  Returned constant
    term first with the leading 1 included, length k + 1.
    """
    if k == 1:
        return (0, 1)
    for m in range(p**k):
        coeffs = _digits(m, p, k)  # (c_0, ..., c_{k-1}) in lex order
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """The finite field with q = p^k elements."""

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_inv", "_neg")

    def __init__(self, q: int, _parts: tuple[int, int, tuple[int, ...]] | None = None):
        if _parts is None:
            pk = prime_power(q)
            if pk is None:
                raise NotPrimePowerError(f"{q} is not a prime power")
            if q > _ORDER_LIMIT:
                raise NotPrimePowerError(f"field order {q} exceeds cap {_ORDER_LIMIT}")
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
        """Rebuild a field from serialized parts, validating them."""
        if not is_prime(p):
            raise NotPrimePowerError(f"{p} is not prime")
        if k < 1 or p**k > _ORDER_LIMIT:
            raise NotPrimePowerError(f"unsupported extension degree {k}")
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

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        coeff = [self.coeffs(a) for a in range(q)]
        add = [[0] * q for _ in range(q)]
        neg = [0] * q
        for a in range(q):
            ca = coeff[a]
            neg[a] = self.from_coeffs((-c) % p for c in ca)
            for b in range(a, q):
                s = self.from_coeffs((x + y) % p for x, y in zip(ca, coeff[b]))
                add[a][b] = s
                add[b][a] = s
        mod = list(self.modulus)
        mul = [[0] * q for _ in range(q)]
        for a in range(1, q):
            fa = _poly_trim(list(coeff[a]))
            for b in range(a, q):
                fb = _poly_trim(list(coeff[b]))
                r = _poly_mod(_poly_mul(fa, fb, p), mod, p) if k > 1 else [(a * b) % p]
                v = self.from_coeffs(r + [0] * (k - len(r)))
                mul[a][b] = v
                mul[b][a] = v
        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._add, self._mul, self._inv, self._neg = add, mul, inv, neg

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        p = self.p
        return self.from_coeffs((x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b)))

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
        if a == 0 or b == 0:
            return 0
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        r = _poly_mod(
            _poly_mul(_poly_trim(list(self.coeffs(a))), _poly_trim(list(self.coeffs(b))), p),
            list(self.modulus),
            p,
        )
        return self.from_coeffs(r + [0] * (k - len(r)))

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

    @classmethod
    def from_json(cls, obj: dict) -> "GF":
        return cls.from_parts(int(obj["p"]), int(obj["k"]), tuple(obj["modulus"]))

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def field_new(q: int) -> GF:
    """Construct GF(q), raising NotPrimePowerError for invalid orders."""
    return GF(q)
