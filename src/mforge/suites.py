"""Verification suites.

Each suite is a named list of independent cases.  A case is a thunk
returning a JSON-serializable dict with at least a "pass" bool; the
runner collects them (optionally on a thread pool), sorts by case id,
and wraps them in a SuiteReport.  Case ids are stable strings, so two
runs with the same seed produce identical reports line for line.

Thunks only read shared matroids (rank memos are fill-only caches), so
running them concurrently is safe.
"""

from __future__ import annotations

import itertools
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .constructions import (
    density_witness,
    free_spike,
    free_swirl,
    pg,
    principal_geometry_extension,
    uniform,
)
from .corpus import CorpusCaps, corpus_generate, descriptor
from .errors import LemmaViolationError
from .gf import field_new
from .matroid import (
    BasesMatroid,
    LinearMatroid,
    bits,
    direct_sum,
    mask_of,
    materialize_bases,
    rank_axioms_hold,
)
from .minors import (
    are_isomorphic,
    dense_restriction,
    iso_is_valid,
    longest_line_minor,
    longline_step,
    unavoidable_minor_of_extension,
)
from .representability import (
    ClassSpec,
    brute_force_linear_rep,
    eventual_base,
    prime_powers_upto,
    spike_rep_predicate,
    spike_witness_search,
    swirl_rep_predicate,
    swirl_witness_search,
    witness_is_valid,
)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    jobs: int
    passed: bool
    cases: list[dict]
    elapsed_ms: int
    meta: dict = field(default_factory=dict)


def _fail(detail: str, **extra) -> dict:
    d = {"pass": False, "detail": detail}
    d.update(extra)
    return d


def _ok(**extra) -> dict:
    d = {"pass": True}
    d.update(extra)
    return d


# ---------------------------------------------------------------- fields

def _check_field(q: int, seed: int) -> dict:
    gf = field_new(q)
    els = list(gf.elements())
    for a in els:
        if gf.add(a, gf.neg(a)) != 0:
            return _fail(f"additive inverse broken at {a}")
        if a and gf.mul(a, gf.inv(a)) != 1:
            return _fail(f"multiplicative inverse broken at {a}")
        if gf.add(a, 0) != a or gf.mul(a, 1) != a or gf.mul(a, 0) != 0:
            return _fail(f"identity law broken at {a}")
    for a in els:
        for b in els:
            if gf.add(a, b) != gf.add(b, a) or gf.mul(a, b) != gf.mul(b, a):
                return _fail(f"commutativity broken at ({a},{b})")
    if q <= 16:
        triples = itertools.product(els, repeat=3)
        mode = "exhaustive"
    else:
        rng = random.Random(seed * 1000003 + q)
        triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(4096)]
        mode = "sampled-4096"
    for a, b, c in triples:
        if gf.add(gf.add(a, b), c) != gf.add(a, gf.add(b, c)):
            return _fail(f"additive associativity broken at ({a},{b},{c})")
        if gf.mul(gf.mul(a, b), c) != gf.mul(a, gf.mul(b, c)):
            return _fail(f"multiplicative associativity broken at ({a},{b},{c})")
        if gf.mul(a, gf.add(b, c)) != gf.add(gf.mul(a, b), gf.mul(a, c)):
            return _fail(f"distributivity broken at ({a},{b},{c})")
    # the nonzero elements must be cyclic of order q-1
    max_order = 0
    for g in gf.nonzero():
        x, order = g, 1
        while x != 1:
            x = gf.mul(x, g)
            order += 1
            if order > q:
                return _fail(f"element {g} has no finite multiplicative order")
        max_order = max(max_order, order)
    if max_order != q - 1:
        return _fail(f"no generator: max multiplicative order {max_order}, want {q - 1}")
    return _ok(q=q, triples=mode)


def _suite_field_axioms(seed: int, caps: CorpusCaps) -> list:
    return [
        (f"gf({q:02d})", (lambda q=q: _check_field(q, seed)))
        for q in prime_powers_upto(64)
    ]


# ------------------------------------------------------------ rank axioms

def _ranks_agree_everywhere(a, b) -> int | None:
    """First subset mask where the two rank functions disagree, else None."""
    for x in range(1 << a.n):
        if a.rank(x) != b.rank(x):
            return x
    return None


def _check_axioms(m) -> dict:
    verdict = rank_axioms_hold(m)
    return _ok() if verdict is None else _fail(verdict)


def _check_materialize(m) -> dict:
    bm = materialize_bases(m, max_bases=200000)
    bad = _ranks_agree_everywhere(m, bm)
    if bad is None:
        return _ok(bases=len(bm.bases))
    return _fail(f"view and bases backend disagree on mask {bad}")


def _check_dual_dual(m) -> dict:
    dd = m.dual().dual()
    bad = _ranks_agree_everywhere(m, dd)
    return _ok() if bad is None else _fail(f"double dual differs at mask {bad}")


def _suite_rank_axioms(seed: int, caps: CorpusCaps) -> list:
    cases = []
    for nm in corpus_generate(seed, caps):
        m, d = nm.matroid, descriptor(nm)
        if m.n <= 10:
            cases.append((f"axioms[{d}]", (lambda m=m: _check_axioms(m))))
        if m.n <= 12 and not isinstance(m, (LinearMatroid, BasesMatroid)):
            cases.append((f"materialize[{d}]", (lambda m=m: _check_materialize(m))))
        if m.n <= 12:
            cases.append((f"dualdual[{d}]", (lambda m=m: _check_dual_dual(m))))
    return cases


# ----------------------------------------------------------- point bounds

def _check_point_bound(m) -> dict:
    r = m.full_rank
    eps = m.epsilon()
    longest = longest_line_minor(m)
    ell = max(longest - 1, 2)
    bound = (ell**r - 1) // (ell - 1) if r > 0 else 0
    if eps > bound:
        return _fail(f"{eps} points exceeds bound {bound} at line cap {ell}", rank=r)
    return _ok(epsilon=eps, longest_line=longest, bound=bound)


def _check_point_bound_tight(r: int, ell: int) -> dict:
    g = pg(r, ell).matroid
    eps = g.epsilon()
    want = (ell**r - 1) // (ell - 1)
    if eps != want:
        return _fail(f"geometry has {eps} points, want {want}")
    longest = longest_line_minor(g)
    if longest != ell + 1:
        return _fail(f"longest line minor {longest}, want {ell + 1}")
    return _ok(epsilon=eps)


def _suite_kung(seed: int, caps: CorpusCaps) -> list:
    cases = [
        (f"bound[{descriptor(nm)}]", (lambda m=nm.matroid: _check_point_bound(m)))
        for nm in corpus_generate(seed, caps)
    ]
    for ell in (2, 3, 4, 5):
        for r in (2, 3, 4):
            cases.append(
                (f"tight[ell={ell},r={r}]", (lambda r=r, ell=ell: _check_point_bound_tight(r, ell)))
            )
    return cases


# -------------------------------------------------- long-line step (dense)

def _check_longline_all_elements(m, q: int) -> dict:
    kinds = {"dense-contraction": 0, "line-restriction": 0}
    for e in range(m.n):
        if m.rank(1 << e) == 0:
            continue
        try:
            step = longline_step(m, q, e)
        except LemmaViolationError as exc:
            return _fail(f"violation at element {e}: {exc}")
        if step.kind not in kinds:
            return _fail(f"unexpected outcome {step!r} at element {e}")
        if step.kind == "line-restriction":
            line = step.line
            if not line >> e & 1:
                return _fail(f"witness line at element {e} misses the element")
            pts = sum(1 for c in m.point_classes() if c & line)
            if pts < q + 2:
                return _fail(f"witness line at element {e} has only {pts} points")
        kinds[step.kind] += 1
    return _ok(contractions=kinds["dense-contraction"], lines=kinds["line-restriction"])


def _suite_lemma4(seed: int, caps: CorpusCaps) -> list:
    cases = []
    for q in (2, 3):
        for nm in corpus_generate(seed, caps):
            if nm.matroid.is_q_dense(q):
                cases.append(
                    (
                        f"step[q={q},{descriptor(nm)}]",
                        (lambda m=nm.matroid, q=q: _check_longline_all_elements(m, q)),
                    )
                )
    return cases


# ------------------------------------------------- dense restriction chain

def _check_dense_restriction(m, q: int, t: int) -> dict:
    try:
        rep = dense_restriction(m, q, t)
    except LemmaViolationError as exc:
        return _fail(f"violation: {exc}")
    if not rep.final_dense:
        return _fail("final restriction is not dense")
    if rep.hypothesis_holds and rep.final_rank < t:
        return _fail(f"final rank {rep.final_rank} below target {t} despite growth hypothesis")
    return _ok(steps=len(rep.trace), final_rank=rep.final_rank)


def _check_worked_descent() -> dict:
    big = uniform(3, 13).matroid
    small = uniform(2, 3).matroid
    m = direct_sum(big, small).truncate(4)
    rep = dense_restriction(m, 2, 3)
    if len(rep.trace) != 1:
        return _fail(f"expected a single descent step, got {len(rep.trace)}")
    if rep.trace[0][1] != "hyperplane":
        return _fail(f"expected the hyperplane side, kept {rep.trace[0][1]}")
    if rep.restriction != mask_of(range(13)):
        return _fail("descent did not land on the 13-element component")
    if rep.final_rank != 3 or not rep.final_dense:
        return _fail(f"final rank {rep.final_rank}, dense={rep.final_dense}")
    if rep.hypothesis_holds:
        return _fail("growth hypothesis unexpectedly holds for this input")
    return _ok(steps=1, final_rank=rep.final_rank)


def _check_cocircuit_branch() -> dict:
    line = uniform(2, 16).matroid
    plane = uniform(3, 4).matroid
    m = direct_sum(line, plane).truncate(4)
    rep = dense_restriction(m, 2, 2)
    if len(rep.trace) != 1 or rep.trace[0][1] != "cocircuit":
        return _fail("expected one descent step keeping the cocircuit side")
    if rep.restriction != mask_of(range(16)):
        return _fail("descent did not land on the 16-element line")
    if rep.final_rank != 2 or not rep.final_dense:
        return _fail(f"final rank {rep.final_rank}, dense={rep.final_dense}")
    return _ok(steps=1, final_rank=rep.final_rank)


def _suite_lemma5(seed: int, caps: CorpusCaps) -> list:
    cases = [
        ("synthetic[hyperplane-kept]", _check_worked_descent),
        ("synthetic[cocircuit-kept]", _check_cocircuit_branch),
    ]
    for q in (2, 3):
        for nm in corpus_generate(seed, caps):
            if nm.matroid.n <= 40 and nm.matroid.is_q_dense(q):
                cases.append(
                    (
                        f"descend[q={q},{descriptor(nm)}]",
                        (lambda m=nm.matroid, q=q: _check_dense_restriction(m, q, 2)),
                    )
                )
    return cases


# ------------------------------------------- extensions of geometries

def _check_extension(m: int, q: int, flat: int, want_tag: str) -> dict:
    geom = pg(2 * m, q).matroid
    ext = geom.principal_extension(flat)
    tag, wit = unavoidable_minor_of_extension(ext, m, q)
    if tag != want_tag:
        return _fail(f"got {tag}, want {want_tag}")
    target = principal_geometry_extension(m, q, int(tag.split(",")[-1].rstrip(")"))).matroid
    sub = ext.minor(wit.contract, wit.delete)
    if not iso_is_valid(sub, target, wit.iso.mapping):
        return _fail("returned isomorphism does not check out")
    return _ok(tag=tag, contracted=len(bits(wit.contract)), deleted=len(bits(wit.delete)))


def _suite_lemma6(seed: int, caps: CorpusCaps) -> list:
    cases = []
    geom = pg(4, 2).matroid
    flats = geom.flats_of_rank(2) + geom.flats_of_rank(3) + [(1 << geom.n) - 1]
    for i, flat in enumerate(flats):
        cases.append(
            (
                f"ext[m=2,q=2,flat={i:02d},r={geom.rank(flat)}]",
                (lambda f=flat: _check_extension(2, 2, f, "P(1,2,2)")),
            )
        )
    big = pg(6, 2).matroid
    line = big.flats_of_rank(2)[0]
    plane = big.flats_of_rank(3)[0]
    cases.append(("ext[m=3,q=2,line]", (lambda: _check_extension(3, 2, line, "P(2,2,2)"))))
    cases.append(("ext[m=3,q=2,plane]", (lambda: _check_extension(3, 2, plane, "P(2,2,3)"))))
    cases.append(
        ("ext[m=3,q=2,full]", (lambda: _check_extension(3, 2, (1 << big.n) - 1, "P(2,2,3)")))
    )
    return cases


# ----------------------------------------------------- witness oracles

_ORACLE_QS = (3, 4, 5, 7, 8, 9, 11, 13)
_ORACLE_KS = tuple(range(3, 11))


def _check_oracle(kind: str, k: int, q: int) -> dict:
    if kind == "spike":
        pred = spike_rep_predicate(k, q)
        wit = spike_witness_search(k, q)
    else:
        pred = swirl_rep_predicate(k, q)
        wit = swirl_witness_search(k, q)
    if pred != (wit is not None):
        return _fail(f"predicate says {pred} but search {'found' if wit else 'found no'} witness")
    if wit is not None and not witness_is_valid(wit):
        return _fail(f"search returned an invalid witness {wit}")
    got = None if wit is None else {"alphas": list(wit.alphas), "betas": [wit.beta1, wit.beta2]}
    return _ok(representable=pred, witness=got)


def _suite_oracle(kind: str):
    def build(seed: int, caps: CorpusCaps) -> list:
        return [
            (
                f"{kind}[k={k},q={q:02d}]",
                (lambda k=k, q=q: _check_oracle(kind, k, q)),
            )
            for q in _ORACLE_QS
            for k in _ORACLE_KS
        ]

    return build


# ------------------------------------------------- brute-force cross check

def _check_rep_cross(q: int) -> dict:
    m = free_spike(3).matroid
    rep = brute_force_linear_rep(m, q)
    pred = spike_rep_predicate(3, q)
    if (rep is not None) != pred:
        return _fail(f"brute force {'found' if rep else 'found no'} representation, predicate says {pred}")
    if rep is not None:
        bad = _ranks_agree_everywhere(m, rep)
        if bad is not None:
            return _fail(f"claimed representation disagrees at mask {bad}")
    return _ok(representable=pred)


def _suite_rep_cross(seed: int, caps: CorpusCaps) -> list:
    return [(f"spike3-over-gf({q})", (lambda q=q: _check_rep_cross(q))) for q in (3, 4, 5)]


# ------------------------------------------------------- growth witnesses

def _check_growth(q: int, cls: str, n: int) -> dict:
    nm = density_witness(q, cls, n)
    m = nm.matroid
    pts = (q ** (n + 1) - 1) // (q - 1)
    want = pts if cls == "Lcirc" else pts - q
    eps = m.epsilon()
    if m.full_rank != n:
        return _fail(f"rank {m.full_rank}, want {n}")
    if eps != want:
        return _fail(f"{eps} points, want {want}")
    if eps != m.n:
        return _fail("witness is not simple")
    if not m.is_q_dense(q):
        return _fail("witness does not exceed the line-count threshold")
    return _ok(epsilon=eps)


def _suite_growth(seed: int, caps: CorpusCaps) -> list:
    return [
        (f"{cls}[q={q},n={n}]", (lambda q=q, c=cls, n=n: _check_growth(q, c, n)))
        for cls in ("Lcirc", "Llambda")
        for q in (2, 3)
        for n in (2, 3, 4)
    ]


# ------------------------------------------------------ structure checks

def _pairs_of(nm) -> list[tuple[int, int]]:
    return [tuple(p) for p in nm.meta["pairs"]]


def _check_spike_structure(k: int) -> dict:
    nm = free_spike(k)
    m = nm.matroid
    if m.full_rank != k or m.epsilon() != 2 * k or m.n != 2 * k:
        return _fail(f"rank {m.full_rank}, {m.epsilon()} points on {m.n} elements")
    pairs = _pairs_of(nm)
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        u = mask_of([a, b, c, d])
        if not m.is_circuit(u):
            return _fail(f"pair union {sorted([a, b, c, d])} is not a circuit")
    if k == 3:
        other = uniform(3, 6).matroid
        iso = are_isomorphic(m, other)
        if iso is None or not iso_is_valid(m, other, iso.mapping):
            return _fail("rank-3 spike should be the 6-point uniform rank-3 matroid")
    return _ok(pairs=len(pairs))


def _check_swirl_structure(k: int) -> dict:
    nm = free_swirl(k)
    m = nm.matroid
    if m.full_rank != k or m.epsilon() != 2 * k or m.n != 2 * k:
        return _fail(f"rank {m.full_rank}, {m.epsilon()} points on {m.n} elements")
    pairs = _pairs_of(nm)
    for i, j in itertools.combinations(range(k), 2):
        consecutive = (j - i == 1) or (i == 0 and j == k - 1)
        u = mask_of(pairs[i] + pairs[j])
        if consecutive:
            if not m.is_circuit(u):
                return _fail(f"adjacent pair union {i},{j} is not a circuit")
        elif m.rank(u) != 4:
            return _fail(f"non-adjacent pair union {i},{j} is dependent")
    if k == 3:
        other = uniform(3, 6).matroid
        iso = are_isomorphic(m, other)
        if iso is None or not iso_is_valid(m, other, iso.mapping):
            return _fail("rank-3 swirl should be the 6-point uniform rank-3 matroid")
    return _ok(pairs=len(pairs))


def _suite_structure(kind: str):
    chk = _check_spike_structure if kind == "spike" else _check_swirl_structure
    def build(seed: int, caps: CorpusCaps) -> list:
        return [(f"{kind}[k={k}]", (lambda k=k: chk(k))) for k in (3, 4, 5, 6)]

    return build


# ------------------------------------------------------- eventual base

_BASE_ROWS = [
    ("line9", ClassSpec(line_ell=9), 9, True, []),
    ("line10+spike5", ClassSpec(line_ell=10, spike_ranks=frozenset({5})), 5, True, []),
    (
        "line3+spike3+swirl3",
        ClassSpec(line_ell=3, spike_ranks=frozenset({3}), swirl_ranks=frozenset({3})),
        3,
        True,
        [],
    ),
    ("line5+swirl4", ClassSpec(line_ell=5, swirl_ranks=frozenset({4})), 4, True, []),
    ("line25+swirl4", ClassSpec(line_ell=25, swirl_ranks=frozenset({4})), 4, False, ["Lcirc(4)"]),
]


def _check_base_row(spec: ClassSpec, base: int, certified: bool, gaps: list[str]) -> dict:
    rep = eventual_base(spec)
    if rep.base != base or rep.certified != certified or list(rep.gaps) != gaps:
        return _fail(
            f"got base={rep.base} certified={rep.certified} gaps={list(rep.gaps)}, "
            f"want base={base} certified={certified} gaps={gaps}"
        )
    return _ok(base=rep.base, certified=rep.certified)


def _check_base_monotone() -> dict:
    wide = eventual_base(ClassSpec(line_ell=9))
    narrow = eventual_base(ClassSpec(line_ell=9, spike_ranks=frozenset({4})))
    if narrow.base > wide.base:
        return _fail(f"extra exclusion raised the base from {wide.base} to {narrow.base}")
    return _ok(wide=wide.base, narrow=narrow.base)


def _suite_eventual_base(seed: int, caps: CorpusCaps) -> list:
    cases = [
        (f"row[{name}]", (lambda s=spec, b=base, c=cert, g=gaps: _check_base_row(s, b, c, g)))
        for name, spec, base, cert, gaps in _BASE_ROWS
    ]
    cases.append(("monotone[line9]", _check_base_monotone))
    return cases


# --------------------------------------------------------------- runner

SUITES = {
    "field-axioms": _suite_field_axioms,
    "rank-axioms": _suite_rank_axioms,
    "kung": _suite_kung,
    "lemma4": _suite_lemma4,
    "lemma5": _suite_lemma5,
    "lemma6": _suite_lemma6,
    "spike-oracle": _suite_oracle("spike"),
    "swirl-oracle": _suite_oracle("swirl"),
    "rep-cross": _suite_rep_cross,
    "growth-witness": _suite_growth,
    "spike-structure": _suite_structure("spike"),
    "swirl-structure": _suite_structure("swirl"),
    "eventual-base": _suite_eventual_base,
}


def run_suite(
    suite: str,
    seed: int = 0,
    jobs: int = 1,
    caps: CorpusCaps | None = None,
) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    caps = caps or CorpusCaps()
    started = time.monotonic()
    named = SUITES[suite](seed, caps)

    def run_one(item):
        cid, thunk = item
        try:
            out = thunk()
        except Exception as exc:  # a crashed case is a failed case, not a crashed run
            out = _fail(f"raised {type(exc).__name__}: {exc}")
        out["case"] = cid
        return out

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, named))
    else:
        results = [run_one(item) for item in named]
    results.sort(key=lambda c: c["case"])
    elapsed = int((time.monotonic() - started) * 1000)
    return SuiteReport(
        suite=suite,
        seed=seed,
        jobs=jobs,
        passed=all(c["pass"] for c in results),
        cases=results,
        elapsed_ms=elapsed,
        meta={"prng": "mt19937", "cases": len(results)},
    )
