import json

import pytest

from mforge.cli import main


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


def test_caps_flag_shrinks_corpus(capsys, monkeypatch):
    code, full, _ = run(capsys, "verify", "rank-axioms")
    assert code == 0
    full_cases = json.loads(full.splitlines()[-1])["cases"]

    code, out, _ = run(capsys, "verify", "rank-axioms", "--caps", "max_ground=8")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[-1]["pass"] is True
    assert lines[-1]["cases"] < full_cases

    monkeypatch.setenv("MFORGE_CAPS", "max_ground=8")
    code2, out2, _ = run(capsys, "verify", "rank-axioms")
    lines2 = [json.loads(l) for l in out2.splitlines()]
    assert lines2[-1]["cases"] == lines[-1]["cases"]


def test_caps_flag_validation(capsys):
    assert run(capsys, "verify", "kung", "--caps", "bogus=1")[0] == 2
    assert run(capsys, "verify", "kung", "--caps", "max_ground=x")[0] == 2


def test_density_rejects_small_q(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    run(capsys, "construct", "pg", "n=3", "q=2", "--out", str(fano))
    code, out, err = run(capsys, "density", str(fano), "--q", "1")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1


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
