"""Every matroid on at most 7 elements, one per isomorphism class.

The classes on n + 1 elements are the single-element extensions of the
classes on n elements, since every matroid extends its deletion of its last
element.  An extension of M by e is the coloop, or the rank-preserving one
of a linear subclass H of M's hyperplanes: a set of hyperplanes holding all
those over a coline once it holds two of them, with e in cl(X) exactly when
every hyperplane holding cl(X) is in H (Crapo; Oxley, Matroid Theory,
section 7.2).  Extensions are deduplicated by a bucket key, then by
are_isomorphic within a bucket; the class counts are the published ones
(Mayhew and Royle, "Matroids with nine elements", JCTB 98 (2008)).
"""

import pytest

from mforge import BasesMatroid, are_isomorphic, corpus_generate, has_minor, minor_is_valid
from mforge.matroid import Matroid, ksubset_masks, materialize_bases, rank_axioms_hold

CLASS_COUNTS = [1, 2, 4, 8, 17, 38, 98, 306]


def _linear_subclasses(m):
    """Each linear subclass of m's hyperplanes once, as a set of hyperplanes."""
    hyps = m.hyperplanes()
    r = m.full_rank
    colines = m.flats_of_rank(r - 2) if r >= 2 else []
    # over[c]: the indices of the hyperplanes holding coline c, as a bitmask
    over = [sum(1 << i for i, h in enumerate(hyps) if h & c == c) for c in colines]

    def close(chosen):
        grown = True
        while grown:
            grown = False
            for o in over:
                if (chosen & o).bit_count() >= 2 and o & ~chosen:
                    chosen |= o
                    grown = True
        return chosen

    def walk(i, chosen, refused):
        # decide hyperplane i; a hyperplane already forced in has no choice
        if i == len(hyps):
            yield {h for j, h in enumerate(hyps) if chosen >> j & 1}
            return
        if chosen >> i & 1:
            yield from walk(i + 1, chosen, refused)
            return
        yield from walk(i + 1, chosen, refused | 1 << i)
        grown = close(chosen | 1 << i)
        if not grown & refused:
            yield from walk(i + 1, grown, refused)

    return walk(0, 0, 0)


def _extensions(m):
    """The bases lists of every single-element extension of m by element m.n."""
    e = 1 << m.n
    yield [b | e for b in m.bases]  # the coloop
    r = m.full_rank
    if r == 0:
        yield m.bases  # the loop, the one rank-0 extension
        return
    for cut in _linear_subclasses(m):
        # I + e is a basis when I spans a hyperplane outside the cut
        yield m.bases + [i | e for i in ksubset_masks(m.n, r - 1)
                         if m.rank(i) == r - 1 and m.closure(i) not in cut]


def _bucket_key(m):
    return (m.full_rank, len(m.bases), m.loops().bit_count(), m.epsilon(),
            tuple(sorted(h.bit_count() for h in m.hyperplanes())))


def _census(top):
    """One BasesMatroid per isomorphism class on n elements, for n = 0..top."""
    levels = [[BasesMatroid(0, [0], verify=False)]]
    for n in range(top):
        buckets: dict = {}
        for m in levels[-1]:
            for bases in _extensions(m):
                ext = BasesMatroid(n + 1, bases, verify=False)
                bucket = buckets.setdefault(_bucket_key(ext), [])
                if all(are_isomorphic(ext, other) is None for other in bucket):
                    bucket.append(ext)
        levels.append([m for bucket in buckets.values() for m in bucket])
    return levels


@pytest.fixture(scope="module")
def census():
    return _census(len(CLASS_COUNTS) - 1)


def test_class_counts_are_the_published_ones(census):
    # a false positive of are_isomorphic merges two classes, a false
    # negative splits one: either moves a count
    assert [len(level) for level in census] == CLASS_COUNTS


# -- the rank-axiom sweep against the pair scan it replaced

def _rank_axioms_by_pairs(m) -> str | None:
    """The rank-axiom sweep as it read before the closure masks: every
    (X, e) for unit increase, then every (X, e, f) for submodularity."""
    ranks = [m.rank(x) for x in range(1 << m.n)]
    if ranks[0] != 0:
        return "rank of empty set is nonzero"
    for x, rx in enumerate(ranks):
        outside = [e for e in range(m.n) if not x & (1 << e)]
        for e in outside:
            if not rx <= ranks[x | (1 << e)] <= rx + 1:
                return f"unit increase fails at X={x} e={e}"
        for i, e in enumerate(outside):
            re = ranks[x | (1 << e)]
            for f in outside[i + 1:]:
                if re + ranks[x | (1 << f)] < ranks[x | (1 << e) | (1 << f)] + rx:
                    return f"submodularity fails at X={x} e={e} f={f}"
    return None


class _RankTable(Matroid):
    """A rank function read from a list indexed by mask, matroid or not."""

    def __init__(self, n: int, ranks: list[int]):
        super().__init__(n)
        self.ranks = ranks

    def _rank_mask(self, mask: int) -> int:
        return self.ranks[mask]


def test_rank_axiom_sweep_matches_the_pair_scan(census):
    members = [m for level in census for m in level]
    members += [nm.matroid for nm in corpus_generate(0) if nm.matroid.n <= 10]
    for m in members:
        assert rank_axioms_hold(m) is None
        assert _rank_axioms_by_pairs(m) is None
    # each entry of each rank table on at most 5 elements, moved by one
    kinds = set()
    for m in (m for level in census[:6] for m in level):
        ranks = [m.rank(x) for x in range(1 << m.n)]
        for x in range(len(ranks)):
            for delta in (-1, 1):
                bad = ranks[:]
                bad[x] += delta
                want = _rank_axioms_by_pairs(_RankTable(m.n, bad))
                assert rank_axioms_hold(_RankTable(m.n, bad)) == want, (m.n, ranks, x, delta)
                kinds.add(want and want.split(" fails")[0])
    assert kinds == {"rank of empty set is nonzero", "unit increase", "submodularity", None}


# -- the minor order of the census, against has_minor

def _minor_order(census, top):
    """below[n][i]: the classes (size, index) that are minors of census[n][i],
    for n <= top.  The minor order is the reflexive, transitive closure of
    "is a single-element deletion or contraction of" (Oxley, section 3.1), so
    each class's minors are itself and those of its single-element minors;
    each of those is found in the census by its bucket key and
    are_isomorphic, never by has_minor."""
    below = [[{(0, 0)}]]
    for n in range(1, top + 1):
        lower = census[n - 1]
        buckets: dict = {}
        for i, m in enumerate(lower):
            buckets.setdefault(_bucket_key(m), []).append(i)

        def find(view):
            m = materialize_bases(view)
            return next(i for i in buckets[_bucket_key(m)]
                        if are_isomorphic(m, lower[i]) is not None)

        row = []
        for i, m in enumerate(census[n]):
            minors = {(n, i)}
            for e in range(n):
                for view in (m.delete({e}), m.contract({e})):
                    minors |= below[n - 1][find(view)]
            row.append(minors)
        below.append(row)
    return below


def test_has_minor_matches_the_census_minor_order(census):
    # every host on at most 6 elements against every class no larger than
    # it: has_minor answers exactly the minor order, and every positive
    # witness checks out
    below = _minor_order(census, 6)
    pairs, positives, wrong = 0, 0, []
    for n, level in enumerate(census[:7]):
        for i, host in enumerate(level):
            for tn in range(n + 1):
                for ti, target in enumerate(census[tn]):
                    wit = has_minor(host, target)
                    pairs += 1
                    if (wit is not None) != ((tn, ti) in below[n][i]):
                        wrong.append(((n, i), (tn, ti)))
                    if wit is not None:
                        positives += 1
                        assert minor_is_valid(host, target, wit), ((n, i), (tn, ti))
    assert not wrong, f"{len(wrong)} disagreements, the first {wrong[:3]}"
    assert (pairs, positives) == (19823, 3046)
