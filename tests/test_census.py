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

from mforge import BasesMatroid, are_isomorphic
from mforge.matroid import ksubset_masks

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
