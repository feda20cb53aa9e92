"""Verification suites.

Each suite is a named list of independent cases.  A case is a thunk
returning a JSON-serializable dict with at least a "pass" bool; the
runner sorts the results by case id and wraps them in a SuiteReport.  Case
ids are stable strings, so two runs with the same seed produce identical
reports line for line, whatever the number of jobs.

With jobs = 1 the runner calls the cases in order on the calling thread.
With jobs > 1 it forks up to min(jobs, cases, usable CPUs) - 1 workers once
the builder has run, so every process shares the built corpus and
geometries copy-on-write; each process, the caller included, takes the next
case index from one shared pipe, and each worker sends its results back
with marshal on its own pipe, read as soon as it is readable.  A worker
that dies, or a case that never comes back, is an MforgeError, never a
shorter report.  Where os.fork is missing or the caller runs more than one
thread, the runner runs the cases serially.

SUITES maps each suite name to its builder(seed, caps).  Builders and
checks import the modules they use in their own bodies, so `mforge verify`
loads only what the chosen suite runs.

The corpus suites (rank-axioms, kung, lemma4, lemma5) build the seeded
corpus once and list each member's cases together, every q included, so
a member's cases run back to back on one matroid and one rank memo, and
the member is freed once its last case has run.  lemma6 likewise builds
PG(3,2) and PG(5,2) once and hands each to all of its extension cases, so
their flats are enumerated once per run; it builds its three targets
P(1,2,2), P(2,2,2) and P(2,2,3) once too, and re-checks each witness
against its target with minor_is_valid.
"""

from __future__ import annotations

import gc
import itertools
import marshal
import os
import random
import time

from .errors import LemmaViolationError, MforgeError
from .records import CorpusCaps, Record


class SuiteReport(Record):
    """One suite run: suite, seed, passed, cases (one dict per case, sorted by
    id) and elapsed_ms."""

    __slots__ = ("suite", "seed", "passed", "cases", "elapsed_ms")


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
    from .gf import GF

    gf = GF(q)
    els = list(gf.elements())
    add, mul = ([[op(a, b) for b in els] for a in els] for op in (gf.add, gf.mul))
    for a in els:
        if add[a][gf.neg(a)] != 0:
            return _fail(f"additive inverse broken at {a}")
        if a and mul[a][gf.inv(a)] != 1:
            return _fail(f"multiplicative inverse broken at {a}")
        if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
            return _fail(f"identity law broken at {a}")
    for a in els:
        for b in els:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                return _fail(f"commutativity broken at ({a},{b})")
    if q <= 16:
        triples = itertools.product(els, repeat=3)
        mode = "exhaustive"
    else:
        vals = random.Random(seed * 1000003 + q).choices(range(q), k=3 * 4096)
        triples = zip(vals[0::3], vals[1::3], vals[2::3])
        mode = "sampled-4096"
    for a, b, c in triples:
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return _fail(f"additive associativity broken at ({a},{b},{c})")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return _fail(f"multiplicative associativity broken at ({a},{b},{c})")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return _fail(f"distributivity broken at ({a},{b},{c})")
    # the nonzero elements must be cyclic of order q-1
    max_order = 0
    for g in gf.nonzero():
        x, order = g, 1
        while x != 1:
            x = mul[x][g]
            order += 1
            if order > q:
                return _fail(f"element {g} has no finite multiplicative order")
        max_order = max(max_order, order)
    if max_order != q - 1:
        return _fail(f"no generator: max multiplicative order {max_order}, want {q - 1}")
    return _ok(q=q, triples=mode)


def _suite_field_axioms(seed: int, caps: CorpusCaps) -> list:
    from .gf import prime_powers_upto

    return [
        (f"gf({q:02d})", (lambda q=q: _check_field(q, seed)))
        for q in prime_powers_upto(64)
    ]


# ------------------------------------------------------------ rank axioms

def _check_axioms(m) -> dict:
    from .matroid import rank_axioms_hold

    verdict = rank_axioms_hold(m)
    return _ok() if verdict is None else _fail(verdict)


def _check_materialize(m) -> dict:
    from .matroid import materialize_bases, rank_mismatch

    bm = materialize_bases(m)
    bad = rank_mismatch(m, bm)
    if bad is None:
        return _ok(bases=len(bm.bases))
    return _fail(f"view and bases backend disagree on mask {bad}")


def _check_dual_dual(m) -> dict:
    from .matroid import rank_mismatch

    bad = rank_mismatch(m, m.dual().dual())
    return _ok() if bad is None else _fail(f"double dual differs at mask {bad}")


def _corpus_cases(seed: int, caps: CorpusCaps, cases_of) -> list:
    """The (case id, thunk) pairs of one corpus pass: cases_of(m, d) lists
    those of member m, whose descriptor is d, next to each other."""
    from .corpus import corpus_generate, descriptor

    cases = []
    for nm in corpus_generate(seed, caps):
        cases += cases_of(nm.matroid, descriptor(nm))
    return cases


def _rank_axiom_cases(m, d: str) -> list:
    from .matroid import BasesMatroid, LinearMatroid

    cases = []
    if m.n <= 10:
        cases.append((f"axioms[{d}]", (lambda: _check_axioms(m))))
    if m.n <= 12 and not isinstance(m, (LinearMatroid, BasesMatroid)):
        cases.append((f"materialize[{d}]", (lambda: _check_materialize(m))))
    if m.n <= 12:
        cases.append((f"dualdual[{d}]", (lambda: _check_dual_dual(m))))
    return cases


def _suite_rank_axioms(seed: int, caps: CorpusCaps) -> list:
    return _corpus_cases(seed, caps, _rank_axiom_cases)


# ----------------------------------------------------------- point bounds

def _check_point_bound(m) -> dict:
    from .matroid import pg_size
    from .minors import longest_line_minor

    r = m.full_rank
    eps = m.epsilon()
    longest = longest_line_minor(m)
    ell = max(longest - 1, 2)
    bound = pg_size(ell, r)
    if eps > bound:
        return _fail(f"{eps} points exceeds bound {bound} at line cap {ell}", rank=r)
    return _ok(epsilon=eps, longest_line=longest, bound=bound)


def _check_point_bound_tight(r: int, ell: int) -> dict:
    from .constructions import pg
    from .matroid import pg_size
    from .minors import longest_line_minor

    g = pg(r, ell).matroid
    eps = g.epsilon()
    want = pg_size(ell, r)
    if eps != want:
        return _fail(f"geometry has {eps} points, want {want}")
    longest = longest_line_minor(g)
    if longest != ell + 1:
        return _fail(f"longest line minor {longest}, want {ell + 1}")
    return _ok(epsilon=eps)


def _suite_kung(seed: int, caps: CorpusCaps) -> list:
    cases = _corpus_cases(
        seed, caps, lambda m, d: [(f"bound[{d}]", (lambda: _check_point_bound(m)))])
    for ell in (2, 3, 4, 5):
        for r in (2, 3, 4):
            cases.append(
                (f"tight[ell={ell},r={r}]", (lambda r=r, ell=ell: _check_point_bound_tight(r, ell)))
            )
    return cases


# -------------------------------------------------- long-line step (dense)

def _check_longline_all_elements(m, q: int) -> dict:
    from .minors import longline_step

    kinds = {"dense-contraction": 0, "line-restriction": 0}
    classes = m.point_classes()
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
            pts = sum(1 for c in classes if c & line)
            if pts < q + 2:
                return _fail(f"witness line at element {e} has only {pts} points")
        kinds[step.kind] += 1
    return _ok(contractions=kinds["dense-contraction"], lines=kinds["line-restriction"])


def _suite_lemma4(seed: int, caps: CorpusCaps) -> list:
    return _corpus_cases(seed, caps, lambda m, d: [
        (f"step[q={q},{d}]", (lambda q=q: _check_longline_all_elements(m, q)))
        for q in (2, 3)
        if m.is_q_dense(q)
    ])


# ------------------------------------------------- dense restriction chain

def _check_dense_restriction(m, q: int, t: int) -> dict:
    from .minors import dense_restriction

    try:
        rep = dense_restriction(m, q, t)
    except LemmaViolationError as exc:
        return _fail(f"violation: {exc}")
    if not rep.final_dense:
        return _fail("final restriction is not dense")
    if rep.hypothesis_holds and rep.final_rank < t:
        return _fail(f"final rank {rep.final_rank} below target {t} despite growth hypothesis")
    return _ok(steps=len(rep.trace), final_rank=rep.final_rank)


def _check_synthetic_descent(big: tuple[int, int], small: tuple[int, int], t: int,
                             side: str) -> dict:
    """Descend at q = 2 from U(big) + U(small) truncated to rank 4: one step,
    keeping side, onto the U(big) summand; the growth hypothesis fails."""
    from .constructions import uniform
    from .matroid import direct_sum, mask_of
    from .minors import dense_restriction

    m = direct_sum(uniform(*big).matroid, uniform(*small).matroid).truncate(4)
    rep = dense_restriction(m, 2, t)
    if len(rep.trace) != 1:
        return _fail(f"expected a single descent step, got {len(rep.trace)}")
    if rep.trace[0][1] != side:
        return _fail(f"expected the {side} side, kept {rep.trace[0][1]}")
    if rep.restriction != mask_of(range(big[1])):
        return _fail(f"descent did not land on the U{big} summand")
    if rep.final_rank != t or not rep.final_dense:
        return _fail(f"final rank {rep.final_rank}, dense={rep.final_dense}")
    if rep.hypothesis_holds:
        return _fail("growth hypothesis unexpectedly holds for this input")
    return _ok(steps=1, final_rank=rep.final_rank)


def _suite_lemma5(seed: int, caps: CorpusCaps) -> list:
    cases = [
        ("synthetic[hyperplane-kept]",
         (lambda: _check_synthetic_descent((3, 13), (2, 3), 3, "hyperplane"))),
        ("synthetic[cocircuit-kept]",
         (lambda: _check_synthetic_descent((2, 16), (3, 4), 2, "cocircuit"))),
    ]
    return cases + _corpus_cases(seed, caps, lambda m, d: [
        (f"descend[q={q},{d}]", (lambda q=q: _check_dense_restriction(m, q, 2)))
        for q in (2, 3)
        if m.n <= 40 and m.is_q_dense(q)
    ])


# ------------------------------------------- extensions of geometries

def _check_extension(geom, m: int, q: int, flat: int, want_tag: str, target) -> dict:
    """The extension of geom = PG(2m-1, q) on flat has the unavoidable minor
    want_tag, and its witness checks out against target, that minor built."""
    from .minors import minor_is_valid, unavoidable_minor_of_extension

    ext = geom.principal_extension(flat)
    tag, wit = unavoidable_minor_of_extension(ext, m, q)
    if tag != want_tag:
        return _fail(f"got {tag}, want {want_tag}")
    if not minor_is_valid(ext, target, wit):
        return _fail("returned witness does not check out")
    return _ok(tag=tag, contracted=wit.contract.bit_count(), deleted=wit.delete.bit_count())


def _suite_lemma6(seed: int, caps: CorpusCaps) -> list:
    from .constructions import pg, principal_geometry_extension
    from .matroid import bits, mask_of

    cases = []
    geom = pg(4, 2).matroid
    target = principal_geometry_extension(2, 2, 2).matroid
    flats = geom.flats_of_rank(2) + geom.flats_of_rank(3) + [(1 << geom.n) - 1]
    for i, flat in enumerate(flats):
        cases.append(
            (
                f"ext[m=2,q=2,flat={i:02d},r={geom.rank(flat)}]",
                (lambda f=flat: _check_extension(geom, 2, 2, f, "P(1,2,2)", target)),
            )
        )
    big = pg(6, 2).matroid
    on_line, on_plane = (principal_geometry_extension(3, 2, k).matroid for k in (2, 3))
    full = (1 << big.n) - 1
    first = bits(big._greedy_basis(full))  # the flats principal_geometry_extension uses
    line, plane = (big.closure(mask_of(first[:k])) for k in (2, 3))
    for name, flat, want, minor in (("line", line, "P(2,2,2)", on_line),
                                    ("plane", plane, "P(2,2,3)", on_plane),
                                    ("full", full, "P(2,2,3)", on_plane)):
        cases.append(
            (f"ext[m=3,q=2,{name}]",
             (lambda f=flat, w=want, t=minor: _check_extension(big, 3, 2, f, w, t)))
        )
    return cases


# ----------------------------------------------------- witness oracles

_ORACLE_QS = (3, 4, 5, 7, 8, 9, 11, 13)
_ORACLE_KS = tuple(range(3, 11))


def _check_oracle(kind: str, k: int, q: int) -> dict:
    from .representability import family_rep, witness_is_valid

    pred, wit = family_rep(kind, k, q)
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
    from .constructions import free_spike
    from .matroid import rank_mismatch
    from .representability import brute_force_linear_rep, spike_rep_predicate

    m = free_spike(3).matroid
    rep = brute_force_linear_rep(m, q)
    pred = spike_rep_predicate(3, q)
    if (rep is not None) != pred:
        return _fail(f"brute force {'found' if rep else 'found no'} representation, predicate says {pred}")
    if rep is not None:
        bad = rank_mismatch(m, rep)
        if bad is not None:
            return _fail(f"claimed representation disagrees at mask {bad}")
    return _ok(representable=pred)


def _suite_rep_cross(seed: int, caps: CorpusCaps) -> list:
    return [(f"spike3-over-gf({q})", (lambda q=q: _check_rep_cross(q))) for q in (3, 4, 5)]


# ------------------------------------------------------- growth witnesses

def _check_growth(q: int, cls: str, n: int) -> dict:
    from .constructions import density_witness
    from .matroid import pg_size

    nm = density_witness(q, cls, n)
    m = nm.matroid
    pts = pg_size(q, n + 1)
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

def _check_structure(kind: str, k: int) -> dict:
    """Rank k on 2k points; the union of two legs is a circuit for any two
    spike legs but only for cyclically consecutive swirl legs, the other
    swirl unions having rank 4; at k = 3 both families are U(3,6)."""
    from .constructions import free_spike, free_swirl, uniform
    from .matroid import mask_of
    from .minors import are_isomorphic, iso_is_valid

    nm = free_spike(k) if kind == "spike" else free_swirl(k)
    m = nm.matroid
    if m.full_rank != k or m.epsilon() != 2 * k or m.n != 2 * k:
        return _fail(f"rank {m.full_rank}, {m.epsilon()} points on {m.n} elements")
    pairs = nm.meta["pairs"]
    for i, j in itertools.combinations(range(k), 2):
        u = mask_of(pairs[i] + pairs[j])
        if kind == "spike" or j - i == 1 or (i == 0 and j == k - 1):
            if not m.is_circuit(u):
                return _fail(f"pair union {i},{j} is not a circuit")
        elif m.rank(u) != 4:
            return _fail(f"non-adjacent pair union {i},{j} is dependent")
    if k == 3:
        other = uniform(3, 6).matroid
        iso = are_isomorphic(m, other)
        if iso is None or not iso_is_valid(m, other, iso.mapping):
            return _fail(f"rank-3 {kind} should be the 6-point uniform rank-3 matroid")
    return _ok(pairs=len(pairs))


def _suite_structure(kind: str):
    def build(seed: int, caps: CorpusCaps) -> list:
        return [(f"{kind}[k={k}]", (lambda k=k: _check_structure(kind, k)))
                for k in (3, 4, 5, 6)]

    return build


# ------------------------------------------------------- eventual base

def _check_base_row(spec, base: int, certified: bool, gaps: list[str]) -> dict:
    from .representability import eventual_base

    rep = eventual_base(spec)
    if rep.base != base or rep.certified != certified or list(rep.gaps) != gaps:
        return _fail(
            f"got base={rep.base} certified={rep.certified} gaps={list(rep.gaps)}, "
            f"want base={base} certified={certified} gaps={gaps}"
        )
    return _ok(base=rep.base, certified=rep.certified)


def _check_base_monotone() -> dict:
    from .representability import ClassSpec, eventual_base

    wide = eventual_base(ClassSpec(line_ell=9))
    narrow = eventual_base(ClassSpec(line_ell=9, spike_ranks=frozenset({4})))
    if narrow.base > wide.base:
        return _fail(f"extra exclusion raised the base from {wide.base} to {narrow.base}")
    return _ok(wide=wide.base, narrow=narrow.base)


def _suite_eventual_base(seed: int, caps: CorpusCaps) -> list:
    from .representability import ClassSpec

    rows = [
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
        ("line25+swirl4", ClassSpec(line_ell=25, swirl_ranks=frozenset({4})), 4, False,
         ["Lcirc(4)"]),
    ]
    cases = [
        (f"row[{name}]", (lambda s=spec, b=base, c=cert, g=gaps: _check_base_row(s, b, c, g)))
        for name, spec, base, cert, gaps in rows
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


def _run_cases(cases: list, indices) -> list:
    """Runs case i for each i of indices; returns the (i, result) pairs.

    Entry i is cleared before its case runs, so a finished case's closure
    (corpus matroids, rank memos) is freed before the next case runs."""
    done = []
    for i in indices:
        cid, thunk = cases[i]
        cases[i] = None
        try:
            out = thunk()
        except Exception as exc:  # a crashed case is a failed case, not a crashed run
            out = _fail(f"raised {type(exc).__name__}: {exc}")
        out["case"] = cid
        done.append((i, out))
    return done


def _queued(fd: int):
    """Case indices read one at a time from the shared queue pipe until EOF."""
    while len(taken := os.read(fd, 4)) == 4:
        yield int.from_bytes(taken, "little")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _single_threaded() -> bool:
    """True when this process runs one OS thread, so a fork copies no lock
    another thread holds (Python 3.12+ warns on a multi-threaded fork)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        import threading

        return threading.active_count() == 1


def _run_forked(cases: list, workers: int) -> list | None:
    """Runs the cases on this process and `workers` forked ones; returns the
    (i, result) pairs, or None when the index queue does not fit in the pipe
    buffer (the caller then runs the cases serially).  Each result pipe is
    read once readable, when its worker has sent every result or died."""
    queue, feed = os.pipe()
    indices = b"".join(i.to_bytes(4, "little") for i in range(len(cases)))
    os.set_blocking(feed, False)
    try:
        fits = os.write(feed, indices) == len(indices)
    except BlockingIOError:
        fits = False
    os.close(feed)  # EOF ends every reader once the queue is drained
    if not fits:
        os.close(queue)
        return None
    import select
    import signal

    children = {}  # the pipe a worker's (i, result) pairs come back on -> its pid
    gc.freeze()  # so no worker's collector writes to, and so copies, the builder's heap
    try:
        for _ in range(workers):
            back, out = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker never returns into the caller
                status = 1
                try:
                    with open(out, "wb") as f:
                        f.write(marshal.dumps(_run_cases(cases, _queued(queue))))
                    status = 0
                finally:
                    os._exit(status)
            os.close(out)
            children[open(back, "rb")] = pid
        done = _run_cases(cases, _queued(queue))
        while children:
            for results in select.select(list(children), [], [])[0]:
                raw, pid = results.read(), children.pop(results)
                results.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status != 0:
                    raise MforgeError(f"suite worker {pid} exited with status {status}")
                done += marshal.loads(raw)
    finally:
        os.close(queue)
        for results, pid in children.items():
            results.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        gc.unfreeze()
    if sorted(i for i, _ in done) != list(range(len(cases))):
        raise MforgeError("suite workers did not return every case exactly once")
    return done


def run_suite(suite: str, seed: int = 0, caps: CorpusCaps | None = None,
              jobs: int = 1) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    caps = caps or CorpusCaps()
    started = time.monotonic()
    cases = SUITES[suite](seed, caps)
    done = None
    if jobs > 1 and hasattr(os, "fork") and _single_threaded():
        workers = min(jobs, len(cases), _usable_cpus()) - 1
        if workers > 0:
            done = _run_forked(cases, workers)
    if done is None:
        done = _run_cases(cases, range(len(cases)))
    results = sorted((out for _, out in done), key=lambda c: c["case"])
    elapsed = int((time.monotonic() - started) * 1000)
    return SuiteReport(
        suite=suite,
        seed=seed,
        passed=all(c["pass"] for c in results),
        cases=results,
        elapsed_ms=elapsed,
    )
