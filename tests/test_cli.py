import functools
import gc
import itertools
import json
import os
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import mforge
from mforge import constructions
from mforge.cli import main
from mforge.serialize import save_path
from mforge.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_and_eps(tmp_path, capsys):
    path = tmp_path / "fano.json"
    code, out, _ = run(capsys, "construct", "pg", "n=3", "q=2", "--out", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary == {"epsilon": 7, "n": 7, "name": "PG(2,2)", "rank": 3}

    code, out, _ = run(capsys, "eps", str(path))
    assert code == 0
    assert json.loads(out) == {"epsilon": 7, "n": 7, "rank": 3}


def test_construct_refuses_a_document_eps_could_not_load(tmp_path, capsys):
    path = tmp_path / "u.json"
    code, out, err = run(capsys, "construct", "uniform", "r=7", "n=16", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("mforge: 11440 bases exceed the cap 5000")
    assert not path.exists()


def test_bases_document_round_trips_through_eps(tmp_path, capsys):
    path = tmp_path / "u.json"
    code, out, _ = run(capsys, "construct", "uniform", "r=3", "n=7", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["kind"] == "bases"
    code, back, _ = run(capsys, "eps", str(path))
    assert code == 0
    assert json.loads(back) == {"epsilon": 7, "n": 7, "rank": 3}


def test_density_exit_codes(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    run(capsys, "construct", "pg", "n=3", "q=2", "--out", str(fano))
    code, out, _ = run(capsys, "density", str(fano), "--q", "2")
    assert code == 1
    assert json.loads(out)["dense"] is False

    line = tmp_path / "u27.json"
    run(capsys, "construct", "witness", "q=2", "cls=Lcirc", "n=2", "--out", str(line))
    code, out, _ = run(capsys, "density", str(line), "--q", "2")
    assert code == 0
    assert json.loads(out) == {"dense": True, "epsilon": 7, "q": 2, "threshold": 3}


def test_has_minor_and_iso(tmp_path, capsys):
    pg23 = tmp_path / "pg23.json"
    u24 = tmp_path / "u24.json"
    run(capsys, "construct", "pg", "n=3", "q=3", "--out", str(pg23))
    run(capsys, "construct", "uniform", "r=2", "n=4", "--out", str(u24))

    code, out, _ = run(capsys, "has-minor", str(pg23), str(u24))
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert len(doc["mapping"]) == 4

    code, out, _ = run(capsys, "iso", str(pg23), str(u24))
    assert code == 1
    assert json.loads(out) == {"isomorphic": False}

    sp3 = tmp_path / "sp3.json"
    u36 = tmp_path / "u36.json"
    run(capsys, "construct", "spike", "k=3", "--out", str(sp3))
    run(capsys, "construct", "uniform", "r=3", "n=6", "--out", str(u36))
    code, out, _ = run(capsys, "iso", str(sp3), str(u36))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def _forged_minor_witnesses():
    """A GF(3) host (element 0 a loop), a target with one parallel pair, the
    witness has_minor finds, and one forgery of each kind."""
    from mforge.minors import IsoCertificate, MinorWitness

    gf3 = mforge.GF(3)
    host = mforge.LinearMatroid(gf3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                      (1, 1, 0), (2, 2, 0), (1, 2, 0), (1, 0, 1)])
    target = mforge.LinearMatroid(gf3, [(1, 0), (0, 1), (1, 1), (2, 2)])
    wit = mforge.has_minor(host, target)
    assert wit == MinorWitness(0b100, 0b1100001, IsoCertificate((2, 0, 3, 1)))
    forged = {
        # contracting the loop deletes it, and deleting 3, 6 and 7 leaves the
        # plane z = 0, a copy of the target: only the dependent C is wrong
        "dependent-contract": MinorWitness(0b1, 0b11001000, IsoCertificate((0, 1, 2, 3))),
        "overlap": MinorWitness(wit.contract, wit.delete | wit.contract, wit.iso),
        # the images of one element of a parallel pair and of a free one swapped
        "wrong-mapping": MinorWitness(wit.contract, wit.delete, IsoCertificate((0, 2, 3, 1))),
    }
    return host, target, wit, forged


@pytest.mark.parametrize("kind", ["dependent-contract", "overlap", "wrong-mapping"])
def test_has_minor_rechecks_its_witness(kind, tmp_path, capsys, monkeypatch):
    from mforge import minors

    host, target, wit, forged = _forged_minor_witnesses()
    assert minors.minor_is_valid(host, target, wit)
    assert not minors.minor_is_valid(host, target, forged[kind])
    host_path, target_path = tmp_path / "host.json", tmp_path / "target.json"
    save_path(host, str(host_path))
    save_path(target, str(target_path))
    code, out, _ = run(capsys, "has-minor", str(host_path), str(target_path))
    assert code == 0 and json.loads(out)["mapping"] == [2, 0, 3, 1]
    monkeypatch.setattr(minors, "has_minor", lambda m, n: forged[kind])
    code, out, err = run(capsys, "has-minor", str(host_path), str(target_path))
    assert (code, out) == (2, "")
    assert err == "mforge: internal: minor witness failed re-verification\n"


def test_rep_command(capsys):
    code, out, _ = run(capsys, "rep", "spike", "--k", "3", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["representable"] is True
    assert doc["witness"]["alphas"] == [1, 1]

    code, out, _ = run(capsys, "rep", "swirl", "--k", "4", "--q", "3")
    assert code == 1
    assert json.loads(out)["representable"] is False


def test_eventual_base_command(capsys):
    code, out, _ = run(capsys, "eventual-base", "--ell", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 9 and doc["certified"] is True

    code, out, _ = run(capsys, "eventual-base", "--ell", "25", "--swirls", "4")
    assert code == 1
    assert json.loads(out)["gaps"] == ["Lcirc(4)"]


def test_eventual_base_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "base.json"
    code, out, _ = run(capsys, "eventual-base", "--ell", "9")
    assert code == 0
    assert run(capsys, "eventual-base", "--ell", "9", "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("flag", ["--spikes", "--swirls"])
def test_eventual_base_refuses_ranks_above_the_bound(flag, capsys):
    # refused before any membership check runs, like --ell above 10^6
    code, out, err = run(capsys, "eventual-base", flag, "1000001")
    assert code == 2 and out == ""
    assert "outside [3, 10^6]" in err


def test_verify_report_format(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "verify", "eventual-base", "--out", str(out_path))
    assert code == 0
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    summary = lines[-1]
    assert summary["suite"] == "eventual-base"
    assert summary["pass"] is True
    assert summary["prng"] == "mt19937"
    assert summary["cases"] == len(lines) - 1
    case_ids = [l["case"] for l in lines[:-1]]
    assert case_ids == sorted(case_ids)
    assert all(l["pass"] for l in lines[:-1])


def test_verify_jobs_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "verify", "growth-witness", "--out", str(p1))[0] == 0
    assert run(capsys, "verify", "growth-witness", "--jobs", "4", "--out", str(p2))[0] == 0
    strip = lambda p: [
        {k: v for k, v in json.loads(l).items() if k not in ("elapsed_ms", "jobs")}
        for l in p.read_text().splitlines()
    ]
    assert strip(p1) == strip(p2)
    assert json.loads(p2.read_text().splitlines()[-1])["jobs"] == 4


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "verify", "nosuch")[0] == 2
    assert run(capsys, "construct", "nosuch", "k=1")[0] == 2
    assert run(capsys, "construct", "pg", "n=3", "q=2", "bogus=1")[0] == 2
    assert run(capsys, "eps", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "linear"}')
    assert run(capsys, "eps", str(bad))[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_caps_flag_shrinks_corpus(capsys):
    code, full, _ = run(capsys, "verify", "rank-axioms")
    assert code == 0
    full_cases = json.loads(full.splitlines()[-1])["cases"]

    code, out, _ = run(capsys, "verify", "rank-axioms", "--caps", "max_ground=8")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[-1]["pass"] is True
    assert lines[-1]["cases"] < full_cases


def test_caps_flag_validation(capsys):
    assert run(capsys, "verify", "kung", "--caps", "bogus=1")[0] == 2
    assert run(capsys, "verify", "kung", "--caps", "max_ground=x")[0] == 2


@pytest.mark.parametrize("caps", ["max_ground=-1", "max_rank=0"])
def test_caps_below_one_rejected(caps, capsys):
    # a cap below 1 would empty the corpus and pass vacuously
    code, out, err = run(capsys, "verify", "kung", "--caps", caps)
    assert code == 2
    assert out == "" and err.startswith("mforge: bad-value: ") and "at least 1" in err


@pytest.mark.parametrize("argv", [
    ("construct", "pg", "n=3", "q=2", "n=4"),
    ("verify", "kung", "--caps", "max_ground=3,max_ground=5"),
])
def test_repeated_key_is_refused(argv, tmp_path, capsys):
    # a second value for one key would silently replace the first
    path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == "" and err.startswith("mforge: bad-value: ") and "given twice" in err
    assert not path.exists()


def test_caps_rejects_removed_max_bases(capsys):
    code, out, err = run(capsys, "verify", "kung", "--caps", "max_bases=10")
    assert code == 2
    assert out == "" and "unknown cap 'max_bases'" in err


def test_density_rejects_small_q(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    run(capsys, "construct", "pg", "n=3", "q=2", "--out", str(fano))
    code, out, err = run(capsys, "density", str(fano), "--q", "1")
    assert code == 2
    assert out == "" and err == "mforge: density threshold requires q >= 2\n"


def test_construct_missing_parameter(capsys):
    code, out, err = run(capsys, "construct", "uniform", "r=2")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


def test_construct_wrongly_typed_parameter(capsys):
    code, out, err = run(capsys, "construct", "pg", "n=3", "q=x")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


def test_verify_rejects_jobs_below_one(capsys):
    code, out, err = run(capsys, "verify", "field-axioms", "--jobs", "0")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


def test_unverifiable_bases_document_exits_two(tmp_path, capsys):
    # 5006 bases exceed the exchange-check cap: refused, not loaded unchecked
    bases = [[0, *b] for b in itertools.combinations(range(1, 16), 6)] + [list(range(1, 8))]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "bases", "rank": 7, "n": 16, "bases": bases}))
    code, out, err = run(capsys, "eps", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("mforge: exchange check needs at most 5000 bases, got 5006")


def test_bases_document_past_the_ground_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind":"bases","rank":1,"n":400000001,'
                    '"bases":[[400000000],[399999999],[399999998],[399999997]]}')
    code, out, err = run(capsys, "eps", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("mforge: ground size 400000001 outside [0, 4096]")


def test_internal_error_exits_two(capsys, monkeypatch):
    # a crash (here a constructor that overflows the recursion limit) must
    # not read as the clean negative exit 1
    def overflow(k: int):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(constructions, "two_sum_chain", overflow)
    code, out, err = run(capsys, "construct", "chain", "k=1000")
    assert code == 2
    assert out == ""
    assert err.startswith("mforge: internal: RecursionError: ")
    assert len(err.splitlines()) == 1


_HUGE_PRIME = 999999999999999989


@pytest.mark.parametrize("argv, message", [
    (("construct", "pg", "n=2", f"q={_HUGE_PRIME}"), f"field order {_HUGE_PRIME} exceeds cap"),
    (("eps", _HUGE_PRIME), f"field order {_HUGE_PRIME}^1 exceeds cap"),
    (("eps", 1000003), "field order 1000003^1 exceeds cap"),
    (("rep", "spike", "--k", "3", "--q", str(_HUGE_PRIME)), "witness search capped at q <= 13"),
], ids=["GF", "from-parts", "from-parts-prime", "rep"])
def test_field_order_cap_comes_before_trial_division(tmp_path, capsys, argv, message):
    # trial division of an 18-digit prime would run for minutes; the order
    # cap refuses it first, with exit 2, as a size cap: every order here is
    # prime, so no schema reason calls it not a prime power
    if argv[0] == "eps":  # a linear document over GF(p), p = argv[1]
        path = tmp_path / "field.json"
        field = {"p": argv[1], "k": 1, "modulus": [0, 1]}
        path.write_text(json.dumps({"kind": "linear", "field": field, "columns": [[1]]}))
        argv = ("eps", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "not-prime-power" not in err


@pytest.mark.parametrize("argv, message", [
    (("chain", "k=301"), "chain length 301 exceeds cap 300"),
    (("swirl", "k=301"), "chain length 301 exceeds cap 300"),
    (("theta", "k=2049"), "ground size 4098 outside [0, 4096]"),
    (("spike", "k=2049"), "ground size 4098 outside [0, 4096]"),
    (("pg", "n=3000000", "q=2"), "PG(2999999,2) points exceed cap 4096"),
    (("ag", "n=4000", "q=65521"), "AG(3999,65521) points exceed cap 4096"),
], ids=["chain", "swirl", "theta", "spike", "pg", "ag"])
def test_constructors_refuse_before_they_build(capsys, monkeypatch, argv, message):
    def unbuilt(*args):
        raise AssertionError("a matroid was built before its cap was checked")

    for name in ("LinearMatroid", "BasesMatroid"):
        monkeypatch.setattr(constructions, name, unbuilt)
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert err == f"mforge: {message}\n"


def test_chain_at_its_cap_stays_within_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "construct", "chain", f"k={constructions.CHAIN_CAP}")
    assert code == 0
    assert json.loads(out)["n"] == 2 * constructions.CHAIN_CAP + 2


def test_iso_rank_mismatch_above_the_cap_exits_one(tmp_path, capsys):
    # 21 > ISO_CAP elements on each side, but rank 3 against rank 5
    plane, cols = tmp_path / "plane.json", tmp_path / "cols.json"
    save_path(mforge.pg(3, 4).matroid, str(plane))
    save_path(mforge.pg(5, 2).matroid.restrict_columns((1 << 21) - 1), str(cols))
    code, out, _ = run(capsys, "iso", str(plane), str(cols))
    assert code == 1
    assert json.loads(out) == {"isomorphic": False}


def test_has_minor_above_the_cap_exits_two(tmp_path, capsys):
    host, target = tmp_path / "host.json", tmp_path / "target.json"
    save_path(mforge.pg(5, 2).matroid, str(host))
    save_path(mforge.pg(3, 2).matroid, str(target))
    code, out, err = run(capsys, "has-minor", str(host), str(target))
    assert (code, out) == (2, "")
    assert err == "mforge: minor search needs |E| <= 24, got 31\n"


def _modules_after(code: str, *argv) -> set[str]:
    """Modules a fresh process holds after running code with ARGV."""
    src = str(Path(mforge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code + "\nprint(json.dumps(sorted(sys.modules)))",
                           *map(str, argv)], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@functools.cache
def _bare_modules() -> frozenset[str]:
    return frozenset(_modules_after("import json, sys"))


def _loaded_after(*argv) -> set[str]:
    """Modules a fresh process loads to run `mforge ARGV`, beyond those a bare
    interpreter already holds (a site hook may load some of them first)."""
    probe = (
        "import json, sys\n"
        "from mforge.cli import main\n"
        "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass"
    )
    return _modules_after(probe, *argv) - _bare_modules()


def test_help_loads_only_the_cli():
    loaded = _loaded_after("--help")
    assert {m for m in loaded if m.split(".")[0] == "mforge"} == {
        "mforge", "mforge.cli", "mforge.errors"}


def test_iso_and_has_minor_load_only_what_they_use(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    u23 = tmp_path / "u23.json"
    run(capsys, "construct", "pg", "n=3", "q=2", "--out", str(fano))
    run(capsys, "construct", "uniform", "r=2", "n=3", "--out", str(u23))
    unused = {"mforge.suites", "mforge.corpus", "mforge.representability",
              "mforge.constructions", "logging"}
    for argv in (("iso", fano, fano), ("has-minor", fano, u23)):
        loaded = _loaded_after(*argv)
        assert "mforge.minors" in loaded
        assert not loaded & unused, argv


def test_verify_field_axioms_loads_only_the_field():
    loaded = _loaded_after("verify", "field-axioms")
    assert "mforge.gf" in loaded
    assert not loaded & {"mforge.minors", "mforge.representability", "mforge.constructions",
                         "mforge.corpus", "dataclasses"}


SEARCH_SUITES = ("spike-oracle", "swirl-oracle", "rep-cross", "field-axioms",
                 "spike-structure", "swirl-structure", "eventual-base")
# suites that build no matroid, so they need not compile matroid.py
MATROID_FREE_SUITES = {"spike-oracle", "swirl-oracle", "field-axioms", "eventual-base"}


def test_search_commands_load_no_dataclasses_or_inspect(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    u23 = tmp_path / "u23.json"
    run(capsys, "construct", "pg", "n=3", "q=2", "--out", str(fano))
    run(capsys, "construct", "uniform", "r=2", "n=3", "--out", str(u23))
    runs = [("verify", suite) for suite in SEARCH_SUITES]
    runs += [("iso", fano, fano), ("has-minor", fano, u23)]
    for argv in runs:
        loaded = _loaded_after(*argv)
        assert "mforge.cli" in loaded, argv
        assert not loaded & {"dataclasses", "inspect"}, argv
        if argv[0] == "verify" and argv[1] in MATROID_FREE_SUITES:
            assert "mforge.matroid" not in loaded, argv


def test_representability_loads_no_matroid():
    # only brute_force_linear_rep needs LinearMatroid, and it imports it itself
    loaded = _modules_after("import json, sys\nimport mforge.representability")
    assert "mforge.representability" in loaded
    assert "mforge.matroid" not in loaded
    assert "mforge.matroid" not in _loaded_after("rep", "spike", "--k", "4", "--q", "5")


def test_verify_help_lists_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = "".join(capsys.readouterr().out.split())
    assert "oneof:" + ",".join(sorted(SUITES)) in text


def test_bases_document_with_billions_of_independent_sets(tmp_path, capsys):
    # U(30,31): 31 bases at rank 30, whose 2^31 - 1 independent sets no
    # table could hold; each rank and closure query is one exchange pass
    path = tmp_path / "u3031.json"
    save_path(mforge.BasesMatroid(31, list(mforge.ksubset_masks(31, 30))), str(path))
    start = time.perf_counter()
    code, out, _ = run(capsys, "eps", str(path))
    assert (code, json.loads(out)) == (0, {"epsilon": 31, "n": 31, "rank": 30})
    code, out, _ = run(capsys, "density", str(path), "--q", "2")
    assert code == 1
    assert json.loads(out) == {"dense": False, "epsilon": 31, "q": 2, "threshold": 1073741823}
    assert time.perf_counter() - start < 2
    code, out, err = run(capsys, "iso", str(path), str(path))
    assert (code, out) == (2, "")
    assert "isomorphism search needs n <= 20, got 31" in err


# -- the process entry: `python -m mforge.cli` and the `mforge` script

def _without_elapsed(out: bytes) -> bytes:
    """A verify report with the summary's elapsed_ms taken out."""
    *cases, summary = out.decode().splitlines()
    doc = json.loads(summary)
    doc.pop("elapsed_ms")
    return "\n".join([*cases, json.dumps(doc, sort_keys=True)]).encode()


def test_process_entry_prints_and_exits_as_main_does(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the same width
    fano, u37 = tmp_path / "fano.json", tmp_path / "u37.json"
    save_path(mforge.pg(3, 2).matroid, str(fano))
    save_path(mforge.uniform(3, 7).matroid, str(u37))
    src = str(Path(mforge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [(["--help"], 0), (["nosuch"], 2), (["verify", "eventual-base"], 0),
            (["iso", str(fano), str(u37)], 1), (["eps", str(tmp_path / "missing.json")], 2)]
    for argv, want in runs:
        proc = subprocess.run([sys.executable, "-m", "mforge.cli", *argv], env=env,
                              capture_output=True, check=False)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on --help and on a usage error
            code = exc.code
        out = capsys.readouterr().out.encode()
        if argv[0] == "verify":
            out, proc.stdout = _without_elapsed(out), _without_elapsed(proc.stdout)
        assert (proc.returncode, proc.stdout) == (code, out) and code == want, argv


def test_process_entry_freezes_the_heap_and_main_does_not(monkeypatch, capsys):
    gc.unfreeze()
    assert main(["verify", "eventual-base"]) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["mforge", "verify", "eventual-base"])
    try:
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            # runpy warns that mforge.cli is imported already
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("mforge.cli", run_name="__main__")
        assert exc.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    capsys.readouterr()
