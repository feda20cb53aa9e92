"""End-to-end acceptance checks, one test per contract item, in order.

Each test prints a single CRITERION <k> PASS/FAIL line on the live
terminal (bypassing capture) and pins exact expected values plus a
wall-clock budget.  Budgets are generous on purpose: they catch
complexity regressions, not scheduler noise.  Every suite report must
also match, case line for case line, the seed-0 reference reports that
the benchmark checks against (perfbench/reference/seed0.json).  The suites
whose corpus depends on the seed are also pinned at a second seed, and the
benchmark's iso/has-minor stream (perfbench/gen.py) at two seeds.
"""
import hashlib
import json
import sys
import time
from pathlib import Path

from mforge.constructions import ag, pg
from mforge.matroid import GROUND_CAP
from mforge.suites import run_suite


def _verdict(capsys, k: int, ok: bool, detail: str, elapsed: float, limit: float):
    ok = ok and elapsed < limit
    with capsys.disabled():
        print(f"CRITERION {k} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.2f}s/{limit:.0f}s]")
    assert ok, f"criterion {k}: {detail} (elapsed {elapsed:.2f}s, budget {limit}s)"


_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "seed0.json"


def _matches_reference(report) -> bool:
    want = json.loads(_REFERENCE.read_text(encoding="utf-8"))[report.suite]["cases"]
    return [json.dumps(c, sort_keys=True) for c in report.cases] == want


def _suite(capsys, k: int, names, limit: float, detail: str, check=None):
    t0 = time.perf_counter()
    reports = [run_suite(s) for s in ([names] if isinstance(names, str) else names)]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    if ok and check is not None:
        ok = check(*reports)
    cases = sum(len(r.cases) for r in reports)
    drifted = [r.suite for r in reports if not _matches_reference(r)]
    note = f"; case lines differ from the reference: {', '.join(drifted)}" if drifted else ""
    _verdict(capsys, k, ok and not drifted, f"{detail} ({cases} cases){note}", elapsed, limit)
    return reports


def _by_case(report) -> dict:
    return {c["case"]: c for c in report.cases}


def test_criterion_01_geometry_counts(capsys):
    t0 = time.perf_counter()
    ok, checked = True, 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 2
        while (q**n - 1) // (q - 1) <= GROUND_CAP:
            m = pg(n, q).matroid
            want = (q**n - 1) // (q - 1)
            ok = ok and m.n == want and m.epsilon() == want and m.full_rank == n
            checked += 1
            n += 1
        n = 2
        while q ** (n - 1) <= GROUND_CAP:
            m = ag(n, q).matroid
            ok = ok and m.epsilon() == q ** (n - 1) and m.full_rank == n
            checked += 1
            n += 1
    _verdict(capsys, 1, ok, f"projective/affine point counts exact ({checked} geometries)",
             time.perf_counter() - t0, 10)


def test_criterion_02_line_bound(capsys):
    def check(rep):
        tight = [c for c in rep.cases if c["case"].startswith("tight[")]
        return len(tight) == 12 and all(c["pass"] for c in tight)

    _suite(capsys, 2, "kung", 120, "point-count bound corpus-wide, equality on geometries", check)


def test_criterion_03_longline_dichotomy(capsys):
    def check(rep):
        return len(rep.cases) > 0

    _suite(capsys, 3, "lemma4", 120, "every dense member yields a contraction or a long line", check)


def test_criterion_04_dense_descent(capsys):
    def check(rep):
        c = _by_case(rep)["synthetic[hyperplane-kept]"]
        return c["steps"] == 1 and c["final_rank"] == 3

    _suite(capsys, 4, "lemma5", 30, "splitting descent clean, worked example one exact step", check)


def test_criterion_05_extension_minors(capsys):
    def check(rep):
        by = _by_case(rep)
        small = [c for c in rep.cases if c["case"].startswith("ext[m=2,")]
        return (
            len(small) == 51
            and by["ext[m=3,q=2,line]"]["tag"] == "P(2,2,2)"
            and by["ext[m=3,q=2,plane]"]["tag"] == "P(2,2,3)"
            and by["ext[m=3,q=2,full]"]["tag"] == "P(2,2,3)"
        )

    _suite(capsys, 5, "lemma6", 300, "51 verified extension minors at m=2, both branch tags at m=3", check)


def test_criterion_06_oracle_grids(capsys):
    def check(spike, swirl):
        # full prime-power grid: 8 values of q times 8 values of k per kind
        return len(spike.cases) == 64 and len(swirl.cases) == 64

    _suite(capsys, 6, ["spike-oracle", "swirl-oracle"], 60,
           "closed forms agree with witness search on both grids", check)


def test_criterion_07_cross_oracle(capsys):
    def check(rep):
        by = _by_case(rep)
        return [by[f"spike3-over-gf({q})"]["representable"] for q in (3, 4, 5)] == [
            False,
            True,
            True,
        ]

    _suite(capsys, 7, "rep-cross", 60, "matrix search and closed form agree on the rank-3 spike", check)


def test_criterion_08_growth_witnesses(capsys):
    def check(rep):
        return len(rep.cases) == 12

    _suite(capsys, 8, "growth-witness", 30, "witness families hit the exact point counts", check)


def test_criterion_09_spike_swirl_structure(capsys):
    _suite(capsys, 9, ["spike-structure", "swirl-structure"], 60,
           "pair-union circuit patterns and the rank-3 coincidence")


def test_criterion_10_eventual_base(capsys):
    def check(rep):
        by = _by_case(rep)
        return by["row[line25+swirl4]"]["certified"] is False

    _suite(capsys, 10, "eventual-base", 5, "all five base rows exact, one uncertified gap", check)


def test_axiom_reports_match_the_reference():
    # the criteria above compare the other eleven reports with the reference
    reports = [run_suite(s) for s in ("field-axioms", "rank-axioms")]
    assert all(r.passed for r in reports)
    drifted = [r.suite for r in reports if not _matches_reference(r)]
    assert not drifted, f"seed-0 case lines differ from the reference: {', '.join(drifted)}"


# SHA-256 of the "\n"-joined case lines of each seed-dependent suite at seed
# 23; every other suite's report does not depend on the seed.
_SEED23_DIGESTS = {
    "rank-axioms": "c2c7fa828275886159d1cbfa69bb8752a7b81ab5e43045e46f4005bf9a7c437e",
    "kung": "244fb96acc37971e10eda0d600a82ed2172c58d00c0cca2a4c0b6e47df6a680e",
    "lemma4": "459a5e2708d596ae4058fc4a369aee7ef64856073bb2d95a63b9c7b21c4d557b",
    "lemma5": "aa1eedb5d3dd0802183f464e994396b38e72ef070ed450507369f5f96ca79197",
}


def test_seed_dependent_reports_at_a_second_seed():
    drifted = []
    for suite, want in _SEED23_DIGESTS.items():
        lines = [json.dumps(c, sort_keys=True) for c in run_suite(suite, seed=23).cases]
        if hashlib.sha256("\n".join(lines).encode()).hexdigest() != want:
            drifted.append(suite)
    assert not drifted, f"seed-23 case lines differ from the pinned digests: {', '.join(drifted)}"


# SHA-256 of the "\n"-joined [name, exit code, stdout] lines of the
# perfbench/gen.py iso/has-minor stream, each query run through cli.main.
_STREAM_DIGESTS = {
    0: "f406a3e43d945e4cb32ace409120b324f9f7d59b2ac63032b3e145bef38b6e35",
    11: "6082ea200f7158f3a7a14e925ccf2ac76a3d4a819088054396408d9d04ecc3bd",
}


def _stream_digest(seed: int, workdir: Path, capsys) -> str:
    from mforge import cli

    bench = str(_REFERENCE.parent.parent)
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, bench)
    sys.dont_write_bytecode = True  # the generator's directory stays as it is
    try:
        import gen
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    rows = []
    for query in gen.search_queries(seed, str(workdir)):
        code = cli.main([query.command, *query.files])
        rows.append(json.dumps([query.name, code, capsys.readouterr().out]))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_search_stream_outputs_at_two_seeds(tmp_path, capsys):
    got = {}
    for seed in _STREAM_DIGESTS:
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        got[seed] = _stream_digest(seed, workdir, capsys)
    assert got == _STREAM_DIGESTS
