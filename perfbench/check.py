"""Output checks for the benchmark, written without importing mforge.

The expected answers and the certificate re-verification here use their
own finite-field arithmetic and rank functions, so a defect in the
program under test cannot also hide itself in the checker.

Matroid documents follow the program's JSON format:
  {"kind": "linear", "field": {"p", "k", "modulus"}, "columns": [[...], ...]}
  {"kind": "bases", "rank": r, "n": n, "bases": [[...], ...]}
Field elements are indices sum(c_i * p^i) of polynomial residues.
"""

from __future__ import annotations

import functools
import json
import random

# Monic irreducible moduli, constant term first; degree-1 fields use x.
MODULI = {
    2: (2, 1, (0, 1)),
    3: (3, 1, (0, 1)),
    4: (2, 2, (1, 1, 1)),
    5: (5, 1, (0, 1)),
    7: (7, 1, (0, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (1, 0, 1)),
}


class Field:
    """GF(q) by add/mul tables over coefficient-vector indices."""

    def __init__(self, q: int):
        p, k, modulus = MODULI[q]
        self.q, self.p, self.k, self.modulus = q, p, k, modulus
        vec = [self._coeffs(a) for a in range(q)]
        self.add = [[self._index([(x + y) % p for x, y in zip(vec[a], vec[b])])
                     for b in range(q)] for a in range(q)]
        self.mul = [[self._index(self._polymul(vec[a], vec[b])) for b in range(q)]
                    for a in range(q)]
        self.neg = [self._index([(-x) % p for x in vec[a]]) for a in range(q)]
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    def _coeffs(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _index(self, cs) -> int:
        idx = 0
        for c in reversed(list(cs)):
            idx = idx * self.p + c
        return idx

    def _polymul(self, f, g) -> list[int]:
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
        for d in range(len(prod) - 1, k - 1, -1):
            lead = prod[d]
            if lead:
                for i, c in enumerate(mod):
                    prod[d - k + i] = (prod[d - k + i] - lead * c) % p
        return prod[:k]

    def doc(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def sub_scaled(self, v, f, w) -> list[int]:
        """v - f*w entrywise."""
        add, neg, mulf = self.add, self.neg, self.mul[f]
        return [add[x][neg[mulf[y]]] for x, y in zip(v, w)]


@functools.cache
def field(q: int) -> Field:
    return Field(q)


def field_of_doc(fdoc: dict) -> Field:
    q = fdoc["p"] ** fdoc["k"]
    f = field(q)
    if tuple(fdoc["modulus"]) != f.modulus:
        raise ValueError(f"unexpected modulus {fdoc['modulus']} for GF({q})")
    return f


def reduce_columns(f: Field, columns, mask: int):
    """Echelon pivots (row, normalized vector) of the columns in mask."""
    pivots = []
    e = 0
    while mask >> e:
        if mask >> e & 1:
            v = list(columns[e])
            for row, pv in pivots:
                if v[row]:
                    v = f.sub_scaled(v, v[row], pv)
            nz = next((i for i, x in enumerate(v) if x), None)
            if nz is not None:
                ix = f.inv[v[nz]]
                pivots.append((nz, [f.mul[ix][x] for x in v]))
        e += 1
    return pivots


class Oracle:
    """Memoized rank function of a matroid document."""

    def __init__(self, doc: dict):
        self.memo: dict[int, int] = {}
        if doc["kind"] == "linear":
            self.field = field_of_doc(doc["field"])
            self.columns = [tuple(c) for c in doc["columns"]]
            self.n = len(self.columns)
            self._rank = lambda m: len(reduce_columns(self.field, self.columns, m))
        else:
            self.n = doc["n"]
            bases = [sum(1 << e for e in b) for b in doc["bases"]]
            self._rank = lambda m: max((b & m).bit_count() for b in bases)

    def rank(self, mask: int) -> int:
        r = self.memo.get(mask)
        if r is None:
            r = self.memo[mask] = self._rank(mask)
        return r


def sample_masks(n: int, seed: int, count: int = 1500):
    """Every subset when n <= 10; else all subsets of size <= 3 plus random ones."""
    if n <= 10:
        yield from range(1 << n)
        return
    for a in range(n):
        yield 1 << a
        for b in range(a + 1, n):
            yield 1 << a | 1 << b
            for c in range(b + 1, n):
                yield 1 << a | 1 << b | 1 << c
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.getrandbits(n)


def _image(mask: int, mapping) -> int:
    out = 0
    e = 0
    while mask >> e:
        if mask >> e & 1:
            out |= 1 << mapping[e]
        e += 1
    return out


def iso_certificate_ok(a: Oracle, b: Oracle, mapping, seed: int) -> bool:
    if a.n != b.n or sorted(mapping) != list(range(a.n)):
        return False
    return all(a.rank(x) == b.rank(_image(x, mapping)) for x in sample_masks(a.n, seed))


def minor_certificate_ok(host: Oracle, target: Oracle, doc: dict, seed: int) -> bool:
    """host / contract \\ delete, relabelled in host order, maps onto target."""
    c = sum(1 << e for e in doc["contract"])
    d = sum(1 << e for e in doc["delete"])
    full = (1 << host.n) - 1
    if c & d or (c | d) & ~full or host.rank(c) != c.bit_count():
        return False
    kept = [e for e in range(host.n) if not (c | d) >> e & 1]
    mapping = doc["mapping"]
    if len(kept) != target.n or sorted(mapping) != list(range(target.n)):
        return False
    rc = host.rank(c)
    for x in sample_masks(target.n, seed):
        lifted = c
        for i, e in enumerate(kept):
            if x >> i & 1:
                lifted |= 1 << e
        if host.rank(lifted) - rc != target.rank(_image(x, mapping)):
            return False
    return True


# -- verify reports -------------------------------------------------------------


def split_report(text: str):
    """(case lines, summary dict without elapsed_ms) of a verify report."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty report")
    summary = json.loads(lines[-1])
    summary.pop("elapsed_ms", None)
    return lines[:-1], summary


def check_verify(text: str, code: int, suite: str, seed: int, jobs: int,
                 reference: dict | None) -> tuple[int, int, list[str]]:
    """Check one verify report; returns (checks attempted, failed, notes).

    One check per case line and one for the summary with the exit code.
    With a reference (recorded at the seed commit) every case line must
    match byte for byte and the summary must match apart from elapsed_ms,
    seed and jobs.  Without one, every case must pass and exit must be 0.
    """
    notes: list[str] = []
    try:
        cases, summary = split_report(text)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        return 1, 1, [f"{suite}: unreadable report ({exc})"]
    failed = 0
    if reference is not None:
        want = reference["cases"]
        for i in range(max(len(cases), len(want))):
            got_line = cases[i] if i < len(cases) else None
            want_line = want[i] if i < len(want) else None
            if got_line != want_line:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{suite}: line {i} differs: {got_line!r} != {want_line!r}")
        attempted = max(len(cases), len(want)) + 1
        want_summary = dict(reference["summary"], seed=seed, jobs=jobs)
        if summary != want_summary or code != reference["exit"]:
            failed += 1
            notes.append(f"{suite}: summary/exit {summary}/{code} != {want_summary}/{reference['exit']}")
    else:
        attempted = len(cases) + 1
        for line in cases:
            if not json.loads(line).get("pass"):
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{suite}: failing case {line}")
        if (code != 0 or not summary.get("pass") or summary.get("seed") != seed
                or summary.get("jobs") != jobs or summary.get("cases") != len(cases)):
            failed += 1
            notes.append(f"{suite}: exit {code}, summary {summary}")
    return attempted, failed, notes
