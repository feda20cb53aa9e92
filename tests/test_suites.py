import contextlib
import fcntl
import itertools
import json
import marshal
import os
import random
import threading
import time
import types
import weakref

import pytest

from mforge import matroid, minors, representability, suites
from mforge.cli import main
from mforge.corpus import CorpusCaps, corpus_generate, descriptor
from mforge.errors import LemmaViolationError, MforgeError
from mforge.gf import GF
from mforge.matroid import Matroid
from mforge.suites import SUITES, run_suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nosuch")


def test_suite_registry():
    assert set(SUITES) == {
        "field-axioms",
        "rank-axioms",
        "kung",
        "lemma4",
        "lemma5",
        "lemma6",
        "spike-oracle",
        "swirl-oracle",
        "rep-cross",
        "growth-witness",
        "spike-structure",
        "swirl-structure",
        "eventual-base",
    }


def test_report_shape():
    rep = run_suite("eventual-base")
    assert rep.suite == "eventual-base"
    assert rep.passed is True
    assert rep.seed == 0
    assert rep.elapsed_ms >= 0
    ids = [c["case"] for c in rep.cases]
    assert ids == sorted(ids)
    assert all(c["pass"] for c in rep.cases)


def test_cases_run_in_order_on_calling_thread(monkeypatch):
    calls = []

    def case(cid):
        def thunk():
            calls.append((cid, threading.get_ident()))
            return {"pass": True}

        return cid, thunk

    order = ["c[2]", "a[3]", "b[1]"]
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [case(c) for c in order])
    rep = run_suite("field-axioms")
    assert calls == [(cid, threading.get_ident()) for cid in order]
    assert [c["case"] for c in rep.cases] == sorted(order)


def test_finished_case_is_released(monkeypatch):
    class Held:
        pass

    def build(seed, caps):
        held = Held()
        ref = weakref.ref(held)
        return [("a[1]", lambda: {"pass": held is not None}),
                ("b[1]", lambda: {"pass": ref() is None})]

    monkeypatch.setitem(SUITES, "field-axioms", build)
    rep = run_suite("field-axioms")
    assert [c["pass"] for c in rep.cases] == [True, True]


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _wait_for(path):
    # the caller's case waits until a worker has run one, so a worker is
    # sure to take a case before the caller drains the queue
    deadline = time.monotonic() + 30
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def test_dying_worker_is_an_error_and_is_reaped(monkeypatch, tmp_path, capsys):
    parent = os.getpid()
    mark = tmp_path / "worker-ran"

    def thunk():
        if os.getpid() != parent:
            mark.touch()
            os._exit(3)
        _wait_for(mark)
        return {"pass": True}

    _two_cpus(monkeypatch)
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [(f"c[{i}]", thunk) for i in range(4)])
    with pytest.raises(MforgeError):
        run_suite("field-axioms", jobs=2)
    mark.unlink()
    assert main(["verify", "field-axioms", "--jobs", "2"]) == 2
    assert "exited with status 3" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_with_one_dying_worker(monkeypatch, tmp_path, capsys, dying: int) -> None:
    # three CPUs, --jobs 3: two workers.  The one forked at place `dying`
    # exits 3 while the other sleeps in its case, so the caller must report
    # the dying one, kill the survivor and reap both before it raises.
    fork = os.fork
    forks = []  # in the caller: the workers' pids, in fork order
    rank = [None]  # in a worker: its place in that order

    def numbered():
        place = len(forks)
        pid = fork()
        if pid:
            forks.append(pid)
        else:
            rank[0] = place
        return pid

    def thunk():
        if rank[0] is not None:
            (tmp_path / f"worker-{rank[0]}").touch()
            if rank[0] == dying:
                os._exit(3)
            time.sleep(60)  # the survivor; only the caller's kill ends it in time
        # three processes, three cases: each takes one before the caller returns
        for place in (0, 1):
            _wait_for(tmp_path / f"worker-{place}")
        return {"pass": True}

    def in_process():
        with pytest.raises(MforgeError) as caught:
            run_suite("field-axioms", jobs=3)
        return str(caught.value)

    def cli():
        assert main(["verify", "field-axioms", "--jobs", "3"]) == 2
        return capsys.readouterr().err.removeprefix("mforge: ").rstrip("\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", numbered)
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [(f"c[{i}]", thunk) for i in range(3)])
    for run in (in_process, cli):
        forks.clear()
        for mark in tmp_path.glob("worker-*"):
            mark.unlink()
        started = time.monotonic()
        message = run()
        assert len(forks) == 2
        assert message == f"suite worker {forks[dying]} exited with status 3"
        assert time.monotonic() - started < 10  # the survivor was killed, not waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_dying_worker_kills_and_reaps_the_survivor(monkeypatch, tmp_path, capsys):
    _run_with_one_dying_worker(monkeypatch, tmp_path, capsys, dying=0)


def test_worker_dying_after_a_slow_one_is_reported_at_once(monkeypatch, tmp_path, capsys):
    # the second-forked worker dies while the first sleeps: the caller reads
    # whichever result pipe is readable, not the pipes in fork order
    _run_with_one_dying_worker(monkeypatch, tmp_path, capsys, dying=1)


def test_a_case_lost_on_the_way_back_is_an_error(monkeypatch, tmp_path, capsys):
    # the caller drops the first (i, result) pair a worker sends back: the
    # report would be one case short, so the run refuses instead
    parent = os.getpid()
    mark = tmp_path / "worker-ran"

    def thunk():
        if os.getpid() != parent:
            mark.touch()
        else:
            _wait_for(mark)
        return {"pass": True}

    def dropping(raw):
        return marshal.loads(raw)[1:]

    _two_cpus(monkeypatch)
    monkeypatch.setattr(suites, "marshal", types.SimpleNamespace(dumps=marshal.dumps, loads=dropping))
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [(f"c[{i}]", thunk) for i in range(4)])
    with pytest.raises(MforgeError, match="did not return every case exactly once"):
        run_suite("field-axioms", jobs=2)
    assert mark.exists()
    mark.unlink()
    assert main(["verify", "field-axioms", "--jobs", "2"]) == 2
    assert "did not return every case exactly once" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_case_raising_in_a_worker_fails_as_in_serial(monkeypatch, tmp_path):
    parent = os.getpid()
    mark = tmp_path / "worker-ran"

    def thunk():
        if os.getpid() != parent:
            mark.touch()
        else:
            _wait_for(mark)
        raise ValueError("boom")

    _two_cpus(monkeypatch)
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [(f"c[{i}]", thunk) for i in range(4)])
    forked = run_suite("field-axioms", jobs=2)
    assert mark.exists()
    serial = run_suite("field-axioms")
    assert forked.cases == serial.cases
    assert serial.cases[0] == {"pass": False, "detail": "raised ValueError: boom", "case": "c[0]"}


def test_workers_are_capped_by_cpus_and_cases(monkeypatch, capsys):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "fork", counted)
    for n, want in ((3, 1), (1, 0)):
        forks.clear()
        monkeypatch.setitem(SUITES, "field-axioms",
                            lambda seed, caps, n=n: [(f"c[{i}]", lambda: {"pass": True}) for i in range(n)])
        assert main(["verify", "field-axioms", "--jobs", "1000000"]) == 0
        assert len(forks) == want, n


def test_more_workers_than_cores_return_each_case_once(monkeypatch):
    def thunk():
        time.sleep(0.002)
        return {"pass": True, "pid": os.getpid()}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [(f"c[{i:03d}]", thunk) for i in range(200)])
    rep = run_suite("field-axioms", jobs=4)
    assert [c["case"] for c in rep.cases] == [f"c[{i:03d}]" for i in range(200)]
    assert len({c["pid"] for c in rep.cases}) > 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_jobs_run_in_order_on_calling_thread(monkeypatch):
    calls = []

    def case(cid):
        return cid, lambda: calls.append((cid, threading.get_ident())) or {"pass": True}

    order = ["c[2]", "a[3]", "b[1]"]
    _two_cpus(monkeypatch)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [case(c) for c in order])
    rep = run_suite("field-axioms", jobs=2)
    assert calls == [(cid, threading.get_ident()) for cid in order]
    assert [c["case"] for c in rep.cases] == sorted(order)


def _assert_runs_serially(monkeypatch, n):
    # jobs=2 on two CPUs with a fork that raises: n cases must run in order
    # on the calling thread
    calls = []

    def case(cid):
        return cid, lambda: calls.append((cid, threading.get_ident())) or {"pass": True}

    def no_fork():
        raise AssertionError("a serial fallback forked")

    ids = [f"c[{i:06d}]" for i in range(n)]
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setitem(SUITES, "field-axioms", lambda seed, caps: [case(c) for c in ids])
    rep = run_suite("field-axioms", jobs=2)
    assert calls == [(cid, threading.get_ident()) for cid in ids]
    assert [c["case"] for c in rep.cases] == ids


@contextlib.contextmanager
def _second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_queue_past_the_pipe_buffer_runs_serially(monkeypatch):
    # the index queue is written before the fork; one index more than the
    # pipe holds runs the cases serially instead of blocking the writer
    size = 1 << 19
    if hasattr(fcntl, "F_GETPIPE_SZ"):
        read, write = os.pipe()
        try:
            size = fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
        finally:
            os.close(read)
            os.close(write)
    monkeypatch.setattr(suites, "_single_threaded", lambda: True)  # the pipe alone decides
    _assert_runs_serially(monkeypatch, size // 4 + 1)


def test_second_live_thread_runs_serially(monkeypatch):
    # a fork would copy a lock the other thread may hold
    with _second_thread():
        _assert_runs_serially(monkeypatch, 3)


def test_unreadable_task_list_counts_python_threads(monkeypatch):
    asked = []
    listdir = os.listdir

    def guarded(path="."):
        if str(path) == "/proc/self/task":
            asked.append(path)
            raise PermissionError(path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", guarded)
    with _second_thread():
        _assert_runs_serially(monkeypatch, 3)
    assert asked


@pytest.mark.parametrize("suite", ["rank-axioms", "kung", "lemma4", "lemma5"])
def test_corpus_suites_build_the_corpus_once(suite, monkeypatch):
    # one corpus pass per suite; each member's cases, every q included, sit
    # next to each other in run order
    from mforge import corpus

    built = []

    def counted(seed, caps):
        built.append(corpus_generate(seed, caps))
        return built[-1]

    monkeypatch.setattr(corpus, "corpus_generate", counted)
    cids = [cid for cid, _ in SUITES[suite](0, CorpusCaps())]
    assert len(built) == 1
    members = [descriptor(nm) for nm in built[0]]
    owners = [next((d for d in members if cid.endswith((f"[{d}]", f",{d}]"))), None)
              for cid in cids]
    order = [d for d in owners if d is not None]
    assert order
    blocks = [d for i, d in enumerate(order) if i == 0 or order[i - 1] != d]
    assert len(blocks) == len(set(blocks))


def test_caps_thread_through():
    small = run_suite("kung", caps=CorpusCaps(max_ground=10))
    full = run_suite("kung")
    assert small.passed and full.passed
    assert len(small.cases) < len(full.cases)


def test_crashing_case_reported_not_raised(monkeypatch):
    import mforge.suites as s

    def boom(seed, caps):
        return [("ok[1]", lambda: {"pass": True}), ("crash[1]", lambda: 1 / 0)]

    monkeypatch.setitem(s.SUITES, "field-axioms", boom)
    rep = run_suite("field-axioms")
    assert rep.passed is False
    crashed = [c for c in rep.cases if c["case"] == "crash[1]"]
    assert crashed and "ZeroDivisionError" in crashed[0]["detail"]


def test_lemma6_builds_each_geometry_once(monkeypatch):
    # every extension case of one geometry reads the one PG(3,2) or PG(5,2)
    # and its memos; the seed-0 reference pins the report itself
    from collections import Counter

    from mforge import constructions

    built = Counter()
    pg = constructions.pg

    def counted(n, q):
        built[n, q] += 1
        return pg(n, q)

    monkeypatch.setattr(constructions, "pg", counted)
    rep = run_suite("lemma6")
    assert rep.passed and len(rep.cases) == 54
    assert built[4, 2] == built[6, 2] == 1


def test_lemma6_builds_each_target_once(monkeypatch):
    # one P(m-1,q,k) per case inside unavoidable_minor_of_extension, which
    # needs it to find the map, and the suite's three targets P(1,2,2),
    # P(2,2,2) and P(2,2,3), against which each witness is re-checked
    from mforge import constructions

    built = []
    build = constructions.principal_geometry_extension
    monkeypatch.setattr(constructions, "principal_geometry_extension",
                        lambda n, q, k: built.append((n, q, k)) or build(n, q, k))
    rep = run_suite("lemma6")
    assert rep.passed and len(rep.cases) == 54
    assert len(built) == 57


# SHA-256 of the "\n"-joined [tag, contract, delete, mapping] lines of the 54
# lemma6 witnesses, in case order
_LEMMA6_WITNESS_DIGEST = "96da4839307c55b1215769042da5850b5b2b9e16b358cfe770f5350a7eaccab0"


def test_lemma6_witnesses_are_pinned(monkeypatch):
    import hashlib
    import json

    from mforge import minors

    rows = []
    find = minors.unavoidable_minor_of_extension

    def recorded(ext, m, q):
        tag, wit = find(ext, m, q)
        rows.append(json.dumps([tag, wit.contract, wit.delete, list(wit.iso.mapping)]))
        return tag, wit

    monkeypatch.setattr(minors, "unavoidable_minor_of_extension", recorded)
    assert run_suite("lemma6").passed and len(rows) == 54
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == _LEMMA6_WITNESS_DIGEST


# -- negative controls: each suite, fed one wrong answer, reports a failure

def _raise_violation(m, q, e):
    raise LemmaViolationError("planted violation")


def _no_base(spec):
    return representability.BaseReport(base=None, certified=False, blocking={}, gaps=())


_NOT_A_CIRCUIT = (Matroid, "is_circuit", lambda orig: lambda self, x: False,
                  "pair union 0,1 is not a circuit")
_NO_WITNESS_CHECKS_OUT = (representability, "witness_is_valid", lambda orig: lambda w: False,
                          "search returned an invalid witness")

# suite -> (owner, name, original -> wrong replacement, start of a failing case's detail)
_NEGATIVE_CONTROLS = {
    "field-axioms": (GF, "inv", lambda orig: lambda self, a: 1,
                     "multiplicative inverse broken at"),
    "rank-axioms": (matroid, "rank_axioms_hold", lambda orig: lambda m: "planted", "planted"),
    "kung": (minors, "longest_line_minor", lambda orig: lambda m: 2,
             "longest line minor 2, want"),
    "lemma4": (minors, "longline_step", lambda orig: _raise_violation, "violation at element"),
    "lemma5": (minors, "weighted_density_exceeds", lambda orig: lambda eps, d, t: False,
               "raised LemmaViolationError: both sides of cocircuit split fail"),
    "lemma6": (minors, "minor_is_valid", lambda orig: lambda ext, target, wit: False,
               "returned witness does not check out"),
    "spike-oracle": _NO_WITNESS_CHECKS_OUT,
    "swirl-oracle": _NO_WITNESS_CHECKS_OUT,
    "rep-cross": (representability, "spike_rep_predicate",
                  lambda orig: lambda k, q: not orig(k, q), "brute force found"),
    "growth-witness": (matroid, "pg_size", lambda orig: lambda q, r: orig(q, r) + 1,
                       "7 points, want 8"),
    "spike-structure": _NOT_A_CIRCUIT,
    "swirl-structure": _NOT_A_CIRCUIT,
    "eventual-base": (representability, "eventual_base", lambda orig: _no_base,
                      "got base=None"),
}


def _plant(monkeypatch, suite: str) -> str:
    owner, name, wrong, detail = _NEGATIVE_CONTROLS[suite]
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    return detail


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_fails_on_a_wrong_answer(suite, monkeypatch):
    detail = _plant(monkeypatch, suite)
    rep = run_suite(suite)
    assert rep.passed is False
    failed = [c["detail"] for c in rep.cases if not c["pass"]]
    assert any(d.startswith(detail) for d in failed), failed[:3]


def test_verify_exits_one_on_a_failing_suite(monkeypatch, capsys):
    _plant(monkeypatch, "kung")
    assert main(["verify", "kung"]) == 1
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["suite"] == "kung" and summary["pass"] is False
    assert summary["failures"] > 0


# -- field axioms: the table-first check against the per-call one it replaced

def _check_field_by_calls(gf, seed: int) -> dict:
    """The field-axioms check as it read before the tables: each law is
    evaluated through gf.add and gf.mul call by call."""
    q = gf.q
    els = list(gf.elements())
    for a in els:
        if gf.add(a, gf.neg(a)) != 0:
            return suites._fail(f"additive inverse broken at {a}")
        if a and gf.mul(a, gf.inv(a)) != 1:
            return suites._fail(f"multiplicative inverse broken at {a}")
        if gf.add(a, 0) != a or gf.mul(a, 1) != a or gf.mul(a, 0) != 0:
            return suites._fail(f"identity law broken at {a}")
    for a in els:
        for b in els:
            if gf.add(a, b) != gf.add(b, a) or gf.mul(a, b) != gf.mul(b, a):
                return suites._fail(f"commutativity broken at ({a},{b})")
    if q <= 16:
        triples = itertools.product(els, repeat=3)
        mode = "exhaustive"
    else:
        vals = random.Random(seed * 1000003 + q).choices(range(q), k=3 * 4096)
        triples = zip(vals[0::3], vals[1::3], vals[2::3])
        mode = "sampled-4096"
    for a, b, c in triples:
        if gf.add(gf.add(a, b), c) != gf.add(a, gf.add(b, c)):
            return suites._fail(f"additive associativity broken at ({a},{b},{c})")
        if gf.mul(gf.mul(a, b), c) != gf.mul(a, gf.mul(b, c)):
            return suites._fail(f"multiplicative associativity broken at ({a},{b},{c})")
        if gf.mul(a, gf.add(b, c)) != gf.add(gf.mul(a, b), gf.mul(a, c)):
            return suites._fail(f"distributivity broken at ({a},{b},{c})")
    max_order = 0
    for g in gf.nonzero():
        x, order = g, 1
        while x != 1:
            x = gf.mul(x, g)
            order += 1
            if order > q:
                return suites._fail(f"element {g} has no finite multiplicative order")
        max_order = max(max_order, order)
    if max_order != q - 1:
        return suites._fail(f"no generator: max multiplicative order {max_order}, want {q - 1}")
    return suites._ok(q=q, triples=mode)


def _corrupted(q: int, table: str, cells, value: int) -> GF:
    """GF(q) with `value` written into the given (row, column) cells of one
    of its tables: "_add" and "_mul" take pairs, "_neg" and "_inv" indices."""
    gf = GF(q)
    for cell in cells:
        if table in ("_add", "_mul"):
            getattr(gf, table)[cell[0]][cell[1]] = value
        else:
            getattr(gf, table)[cell] = value
    return gf


def _field_corruptions(q: int):
    """Every single-entry and every symmetric-pair corruption of GF(q)'s
    add and mul tables, to every wrong value."""
    right = GF(q)
    for table in ("_add", "_mul"):
        rows = getattr(right, table)
        for a, b in itertools.product(range(q), repeat=2):
            for v in range(q):
                if v != rows[a][b]:
                    yield table, [(a, b)], v
                    if a < b:
                        yield table, [(a, b), (b, a)], v


def _same_verdict(monkeypatch, q: int, seed: int, table: str, cells, value: int) -> dict:
    monkeypatch.setattr("mforge.gf.GF", lambda order: _corrupted(order, table, cells, value))
    new = suites._check_field(q, seed)
    assert new == _check_field_by_calls(_corrupted(q, table, cells, value), seed), (
        table, cells, value)
    return new


@pytest.mark.parametrize("q", [4, 5])
def test_field_check_matches_the_per_call_check_on_every_corruption(q, monkeypatch):
    details = set()
    for table, cells, value in _field_corruptions(q):
        verdict = _same_verdict(monkeypatch, q, 0, table, cells, value)
        assert verdict["pass"] is False
        details.add(verdict["detail"].split(" broken")[0])
    # a symmetric corruption passes commutativity and reaches the triples
    assert {"commutativity", "additive associativity", "distributivity"} <= details
    for table, cells in (("_neg", [1]), ("_inv", [2])):
        verdict = _same_verdict(monkeypatch, q, 0, table, cells, 0)
        assert verdict["pass"] is False


def test_field_check_matches_the_per_call_check_on_sampled_triples(monkeypatch):
    q, seed = 17, 0
    vals = random.Random(seed * 1000003 + q).choices(range(q), k=3 * 4096)
    hit = set()
    for a, b, c in list(zip(vals[0::3], vals[1::3], vals[2::3]))[:8]:
        for table, (x, y) in (("_add", (a, b)), ("_mul", (a, b)), ("_add", (b, c)),
                              ("_mul", (a, c))):
            right = getattr(GF(q), table)[x][y]
            for value in ((right + 1) % q, (right + 5) % q):
                cells = [(x, y), (y, x)]
                verdict = _same_verdict(monkeypatch, q, seed, table, cells, value)
                assert verdict["pass"] is False
                hit.add(verdict["detail"].split(" broken")[0])
    assert {"additive associativity", "multiplicative associativity"} <= hit
    monkeypatch.undo()
    assert suites._check_field(q, seed) == _check_field_by_calls(GF(q), seed)
    assert suites._check_field(q, seed)["pass"] is True
